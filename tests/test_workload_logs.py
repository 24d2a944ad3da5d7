"""Decision logs of two generated perfbench workloads stay byte-identical.

Generates ``mixed_replay`` and ``token_gate`` at seed 7 with
``perfbench/gen.py``, replays each in-process through ``hvguard.cli.main``
and compares the SHA-256 of the decision log and of stderr with recorded
digests.  Together the two workloads cover all 22 trapped calls, the token,
unauthenticated-deny and exec-whitelist branches, and sessions that expire
mid-run, so a per-call refactor that changes any verdict, reason, resolved
credential or outcome shows up here.

The digests depend on the generator as much as on the simulator: they are
re-recorded only in a benchmark change that alters ``perfbench/gen.py``,
never to make a change to ``src/`` pass.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import gen  # noqa: E402

from hvguard.cli import main as cli_main  # noqa: E402

# workload: (SHA-256 of the decision log, SHA-256 of stderr), seed 7
DIGESTS = {
    "mixed_replay": (
        "7f8eeaf1dc2d508fec871c6e33d556f35ba2c329c90336aecc45a54d97f40c30",
        "21eab728d1f3e2cb9cb144224fd686e646b4b75e110f8f4a6d0055837cdd9d6d",
    ),
    "token_gate": (
        "12f3b6d8b0c6546602e6ea4444832e7f81b8f09fee5e84c646ad70e7d3e2a63b",
        "ba51db0f955971d1d4e4f1808dc3bdd34ab81ec48e0d497b4a6f74a3824cf8d8",
    ),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_7_decision_log_and_stderr_digests(workload, tmp_path):
    manifest = gen.generate(workload, 7, tmp_path)
    files = manifest["files"]
    log = tmp_path / "log.csv"
    argv = [
        "--sacl", str(tmp_path / files["sacl"]),
        "--scenario", str(tmp_path / files["scenario"]),
        "--out", str(log),
    ]
    if "secrets" in files:
        argv += ["--auth-secrets", str(tmp_path / files["secrets"])]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli_main(argv + manifest["cli_args"])
    assert rc == 0, err.getvalue()[-2000:]
    got = (
        hashlib.sha256(log.read_bytes()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    )
    assert got == DIGESTS[workload]
