"""Decision logs of the three generated perfbench workloads stay byte-identical.

Generates ``mixed_replay``, ``root_attack_100k`` and ``token_gate`` at seed 7
with ``perfbench/gen.py``, replays each in-process through
``hvguard.cli.main`` and compares the SHA-256 of the decision log and of
stderr with recorded digests.  ``mixed_replay`` and ``token_gate`` together
cover the 22 trapped calls gen.py emits (all but kexec_file_load and
delete_module), the token, unauthenticated-deny and
exec-whitelist branches, and sessions that expire mid-run, so a per-call
refactor that changes any verdict, reason, resolved credential or outcome
shows up here.  ``root_attack_100k`` is the one with 100 000 ``file``
events, so it pins the load path of a large guest.

The decision log does not record what the guest did with a call, so the
same replay also pins the guest side: the SHA-256 of the outcome error
sequence, of the final file set (sorted path, owner uid, owner gid,
permission text, is_directory) and the process count left at the end,
which is the number of live processes.

The same replays check that every logged decision, reason and outcome error
is one of the module's string constants by identity, which the layers'
``is`` comparisons rely on.

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

import hvguard.cli  # noqa: E402
from hvguard import (  # noqa: E402
    DENY,
    ERROR_CODES,
    HARD_DENIED_CALL,
    PERMIT,
    SACL_DENY,
    UNAUTHENTICATED,
    WHITELIST_MISS,
)

# workload: (SHA-256 of the decision log, SHA-256 of stderr), seed 7
DIGESTS = {
    "mixed_replay": (
        "7f8eeaf1dc2d508fec871c6e33d556f35ba2c329c90336aecc45a54d97f40c30",
        "21eab728d1f3e2cb9cb144224fd686e646b4b75e110f8f4a6d0055837cdd9d6d",
    ),
    "root_attack_100k": (
        "10894280c1790d0e1d1f34da2d9e9cdefb19dfb44d32f182ead08785891dcf27",
        "60b147e030a41203dff5c96dc628b4d7155a9b2d5a3a3482e93e38053db4e90e",
    ),
    "token_gate": (
        "12f3b6d8b0c6546602e6ea4444832e7f81b8f09fee5e84c646ad70e7d3e2a63b",
        "ba51db0f955971d1d4e4f1808dc3bdd34ab81ec48e0d497b4a6f74a3824cf8d8",
    ),
}


# workload: (SHA-256 of the outcome error sequence, SHA-256 of the final
# file set, processes left), seed 7
GUEST_DIGESTS = {
    "mixed_replay": (
        "cc2e125a847cadbf0703f2a56538ce63f466633b9e2165e544a2c0c5b8f90277",
        "e9e23bc5c01fe77c827baccc071e8fdbc3dd8c7bed462ac9da9072f1b328e560",
        54,
    ),
    "root_attack_100k": (
        "a60048f7471a1a3a4de44c3a3b3df99321b3df7261c33fe1ba88d880a58cd547",
        "ee77d61ea2678f4b687589f5cbaeaadb318656b2a5612e6f3f541ac6a30ff5b0",
        9,
    ),
    "token_gate": (
        "3ccf0de7ab9c090d1e1488de86b3245159264c8cafc04757818df642ed12d756",
        "3502f7801a9e887a43bdbc0c981df503bbad89e2939a796f0c436e1a1eacc1e6",
        17,
    ),
}


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    """Each workload replayed once: (log digest, stderr digest, simulation)."""
    done, sims = {}, []
    real_run = hvguard.cli.run_scenario

    def run_scenario(*args, **kwargs):
        result = real_run(*args, **kwargs)
        sims.append(result.simulation)
        return result

    for workload in DIGESTS:
        tmp_path = tmp_path_factory.mktemp(workload)
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
        hvguard.cli.run_scenario = run_scenario
        try:
            with contextlib.redirect_stderr(err):
                rc = hvguard.cli.main(argv + manifest["cli_args"])
        finally:
            hvguard.cli.run_scenario = real_run
        assert rc == 0, err.getvalue()[-2000:]
        done[workload] = (
            hashlib.sha256(log.read_bytes()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest(),
            sims[-1],
        )
    return done


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_7_decision_log_and_stderr_digests(workload, replays):
    log_digest, err_digest, _ = replays[workload]
    assert (log_digest, err_digest) == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(GUEST_DIGESTS))
def test_seed_7_outcome_and_file_set_digests(workload, replays):
    sim = replays[workload][2]
    errors = "\n".join("none" if o.error is None else o.error for o in sim.outcomes)
    file_set = "\n".join(
        repr((path, f.owner_uid, f.owner_gid, f"{f.perms.user}{f.perms.group}{f.perms.other}", f.is_directory))
        for path, f in sorted(sim.guest.files.items())
    )
    got = (
        hashlib.sha256(errors.encode()).hexdigest(),
        hashlib.sha256(file_set.encode()).hexdigest(),
        len(sim.guest.processes),
    )
    assert got == GUEST_DIGESTS[workload]
    assert set(sim.guest.processes) == sim.guest.live_pids()
    # Every claim is a (uid, gid) pair of ints.
    assert all(
        type(claim) is tuple and len(claim) == 2 and all(type(v) is int for v in claim)
        for claim in sim.guest.processes.values()
    )
    # Every live pid has a fork-time record and every record a live pid.
    assert set(sim.table) == set(sim.guest.processes)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_7_fields_are_the_module_constants(workload, replays):
    """apply_verdict, mediate and the guest compare with ``is``, so every
    logged decision, reason and outcome error must be the constant itself,
    not an equal string."""
    sim = replays[workload][2]
    decisions = (PERMIT, DENY)
    reasons = (PERMIT, SACL_DENY, HARD_DENIED_CALL, UNAUTHENTICATED, WHITELIST_MISS)
    for row in sim.decisions:
        assert any(row.decision is d for d in decisions), row
        assert any(row.reason is r for r in reasons), row
    for outcome in sim.outcomes:
        assert outcome.error is None or any(outcome.error is e for e in ERROR_CODES), outcome
