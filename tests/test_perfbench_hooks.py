"""The replay benchmark's hooks still find the names they wrap.

``perfbench/replay.py`` wraps hvguard functions by module attribute and
signature (``engine.mediate``, ``mediator.try_token_auth``,
``Simulation.syscall`` and others).  A refactor that renames one of them
breaks the traced benchmark without failing any unit test, so this replays
one small generated workload untraced and traced.
"""

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402


def test_untraced_and_traced_replay_pass(tmp_path):
    gen.generate("token_gate", 7, tmp_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    for index, trace in ((0, "0"), (1, "1")):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "replay.py"), str(REPO_ROOT / "src"), str(tmp_path), str(index), trace],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads((tmp_path / f"result-{index}.json").read_text())
        assert result["failed"] == 0, result["problems"]
        assert result["problems"] == []
    layers = result["layers"]
    assert layers
    # parse_scenario is wrapped where run_scenario looks it up, so it is timed.
    assert layers["engine.parse_scenario_s"] > 0
    # _emit calls decision_log with the output's write, so both spans are timed.
    assert layers["engine.decision_log_s"] > 0
    assert layers["cli.emit_s"] > 0
    # Every wrapped layer below the engine fires on this workload, so a hook
    # target that leaves the call path fails here, not only zeroes a metric.
    for name in ("trap.handle_trap_self_us", "mediator.required_checks_us", "mediator.apply_verdict_us",
                 "mediator.token_auth_us", "sacl.check_access_us", "sacl.parse_s", "guest.event_new_us",
                 "guest.execute_us"):
        assert layers[name] > 0, name
    # Each probe a verdict counts is one SACL dict fetch the trace records.
    assert layers["sacl.probes"] == round(layers["mediator.probes_per_call"] * result["sys_events"])
