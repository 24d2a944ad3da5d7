"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Wall-clock criteria (5 and 6) assert on means measured on a shared machine;
each gets a single fresh re-measure if the first sample trips the bound,
since a genuine algorithmic regression fails every sample.
"""

import random
import statistics
import string
import time
from contextlib import contextmanager
from pathlib import Path

from hvguard.bench import run_workload, sacl_scaling
from hvguard.cli import main as cli_main
from hvguard.engine import Simulation
from hvguard.guest import CALL_FAMILY, CLONE, SyscallEvent
from hvguard.mediator import (
    UNAUTHENTICATED,
    OwnershipRecord,
    PolicyOptions,
    try_token_auth,
)
from hvguard.sacl import (
    DENY,
    EXECUTE_BIT,
    PERMIT,
    READ_BIT,
    WRITE_BIT,
    PermissionOctets,
    SaclRule,
    check_access,
    parse_sacl,
)
from hvguard.trap import BREAKPOINT_OPCODE, CostModel, TrapMode, arm, cost_of, handle_trap, make_site
from sha512_oracle import sha512_hex


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


# -- 1: transcript suite ------------------------------------------------------


TRANSCRIPTS = [
    ("root_passwd_deny", ["--sacl", "root_passwd_deny.sacl"]),
    ("sudo_deny", ["--sacl", "sudo_deny.sacl"]),
    ("insmod_deny", ["--sacl", "insmod_deny.sacl"]),
    ("kernel_modify_deny", ["--sacl", "kernel_modify_deny.sacl"]),
    ("preauth_write_deny", ["--sacl", "two_step.sacl", "--auth-secrets", "secrets.txt"]),
    ("token_auth_write", ["--sacl", "two_step.sacl", "--auth-secrets", "secrets.txt"]),
    ("exec_whitelist", ["--sacl", "exec_whitelist.sacl", "--whitelist-exec"]),
    ("init_forge_deny", ["--sacl", "init_forge_deny.sacl"]),
    ("kernel_memory_deny", ["--sacl", "kernel_memory_deny.sacl"]),
]


def _transcript_args(scenario_dir, name, extra):
    args = ["--scenario", str(scenario_dir / f"{name}.jsonl")]
    for flag in extra:
        args.append(flag if flag.startswith("--") else str(scenario_dir / flag))
    return args


def test_criterion_1_transcript_suite(scenario_dir):
    with criterion(1, "transcript suite"):
        for name, extra in TRANSCRIPTS:
            args = _transcript_args(scenario_dir, name, extra)
            start = time.perf_counter()
            code = cli_main(args)
            elapsed = time.perf_counter() - start
            assert code == 0, f"{name} exited {code}"
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_transcript_decision_logs_match_golden(scenario_dir, tmp_path):
    # tests/golden/ holds the expected decision log of each transcript; a
    # refactor of the per-call path must reproduce it byte for byte.  Verdicts
    # do not depend on the trap mode, so both modes match the same log.
    golden_dir = Path(__file__).resolve().parent / "golden"
    for mode in ("classic", "nop"):
        for name, extra in TRANSCRIPTS:
            log = tmp_path / f"{name}.{mode}.csv"
            args = _transcript_args(scenario_dir, name, extra) + ["--trap-mode", mode, "--out", str(log)]
            assert cli_main(args) == 0, (name, mode)
            assert log.read_bytes() == (golden_dir / f"{name}.csv").read_bytes(), (name, mode)


# -- 2: permission-decision oracle -------------------------------------------


def brute_force_allows(perm_text, requester_class, kind_name):
    """Independent oracle via string bits: no shared code with check_access."""
    octet_char = perm_text[{"owner": 0, "group": 1, "other": 2}[requester_class]]
    bits = format(int(octet_char, 8), "03b")
    return bits[{"read": 0, "write": 1, "execute": 2}[kind_name]] == "1"


def test_criterion_2_oracle_equivalence():
    requesters = {"owner": (1000, 1000), "group": (2000, 1000), "other": (3000, 3000)}
    kinds = {"read": READ_BIT, "write": WRITE_BIT, "execute": EXECUTE_BIT}
    with criterion(2, "permission oracle, 4608 cases"):
        start = time.perf_counter()
        cases = 0
        for n in range(512):
            perm_text = f"{n >> 6 & 7}{n >> 3 & 7}{n & 7}"
            rule = SaclRule(PermissionOctets.from_text(perm_text), 1000, 1000)
            for req_name, (uid, gid) in requesters.items():
                for kind_name, kind in kinds.items():
                    expected = PERMIT if brute_force_allows(perm_text, req_name, kind_name) else DENY
                    assert check_access(rule, uid, gid, kind) is expected, (perm_text, req_name, kind_name)
                    cases += 1
        assert cases == 4608
        assert time.perf_counter() - start < 1.0


# -- 3: trap-count exactness ---------------------------------------------------


# Every trapped call except clone, which is trapped only to track processes.
INTERPOSED_CALLS = [call for call, family in CALL_FAMILY.items() if family is not CLONE]


def _args_for(call):
    if call in ("exit", "exit_group", "clone"):
        return {}
    if call in ("rename", "renameat", "renameat2", "link", "linkat", "symlink", "symlinkat"):
        return {"path": "/w/a", "path2": "/w/b"}
    if call in ("open", "openat"):
        return {"path": "/w/a", "flags": ["O_RDONLY"]}
    return {"path": "/w/a"}


def _mixed_switch_total(mode, n, seed=99):
    sim = Simulation(trap_mode=mode)
    worker = sim.spawn(1, 1000, 1000)
    rng = random.Random(seed)
    for _ in range(n):
        call = INTERPOSED_CALLS[rng.randrange(len(INTERPOSED_CALLS))]
        pid = sim.spawn(1, 1000, 1000) if call in ("exit", "exit_group") else worker
        sim.syscall(pid, call, **_args_for(call))
    assert len(sim.records) == n
    return sum(r.vm_exits + r.vm_entries for r in sim.records)


def test_criterion_3_trap_count_exactness():
    with criterion(3, "trap counts 4/2 per call, 4N/2N totals"):
        for mode, per_call in ((TrapMode.CLASSIC4, 4), (TrapMode.NOP2, 2)):
            for call in INTERPOSED_CALLS:
                sim = Simulation(trap_mode=mode)
                pid = sim.spawn(1, 1000, 1000)
                sim.syscall(pid, call, **_args_for(call))
                record = sim.records[-1]
                assert record.vm_exits + record.vm_entries == per_call, (call, mode)
                assert record.single_steps == (1 if mode is TrapMode.CLASSIC4 else 0)
        n = 10_000
        assert _mixed_switch_total(TrapMode.CLASSIC4, n) == 4 * n
        assert _mixed_switch_total(TrapMode.NOP2, n) == 2 * n


# -- 4: overhead halving -------------------------------------------------------


def _modeled_ratio(switch_cost, callback_cost):
    model = CostModel(switch_cost=switch_cost, callback_base_cost=callback_cost)
    event = SyscallEvent(1, 2, "open", "/f", flags=frozenset({"O_RDONLY"}))
    classic = handle_trap(arm(make_site("open")), event)
    nop = handle_trap(arm(make_site("open", nop_prologue=True)), event)
    return cost_of(classic, model) / cost_of(nop, model)


def test_criterion_4_overhead_halving():
    with criterion(4, "modeled cost halving"):
        ratio = _modeled_ratio(1.0, 0.0)
        assert abs(ratio - 2.0) <= 0.05 * 2.0
        for s, c in [(1.0, 1.0), (0.25, 3.0), (7.5, 0.125), (1e3, 1e-3), (3.0, 97.0)]:
            expected = (4 * s + c) / (2 * s + c)
            assert abs(_modeled_ratio(s, c) - expected) <= 1e-9, (s, c)


# -- 5: SACL scaling flatness ---------------------------------------------------


SIZES = [100, 1000, 10000, 100000]


def _scaling_spread(call, n=1000):
    walls = [r.mean_wall_ns for r in sacl_scaling(call, SIZES, n)]
    return max(walls) / min(walls)


def test_criterion_5_sacl_scaling_flatness():
    with criterion(5, "mediation wall time flat across SACL sizes"):
        start = time.perf_counter()
        sacl_scaling("open", [100, 1000], 200)  # interpreter/cpu warmup, discarded
        for call in ("open", "rename", "unlink"):
            spread = _scaling_spread(call)
            if spread >= 2.0:  # one fresh re-measure for wall-clock noise
                spread = _scaling_spread(call)
            assert spread < 2.0, f"{call}: {spread:.2f}x across {SIZES}"
        assert time.perf_counter() - start < 30.0


# -- 6: empty vs full SACL -------------------------------------------------------


def _empty_vs_full_ratio(call, rounds=3, n=2000):
    pool = 100_000
    empty_means, full_means = [], []
    for r in range(rounds):
        empty_means.append(run_workload(call, n, pool=pool, seed=r).mean_wall_ns)
        full_means.append(run_workload(call, n, pool=pool, full_sacl=True, seed=r).mean_wall_ns)
    a, b = statistics.mean(empty_means), statistics.mean(full_means)
    return max(a, b) / min(a, b)


def test_criterion_6_empty_vs_full_sacl():
    with criterion(6, "empty vs 100k SACL within 25%"):
        for call in ("open", "rename", "unlink"):
            ratio = _empty_vs_full_ratio(call)
            if ratio > 1.25:  # one fresh re-measure for wall-clock noise
                ratio = _empty_vs_full_ratio(call)
            assert ratio <= 1.25, f"{call}: {ratio:.3f}"


# -- 7: auth protocol -------------------------------------------------------------


def test_criterion_7_auth_protocol():
    with criterion(7, "token auth vs independent SHA-512 + expiry"):
        rng = random.Random(2024)
        alphabet = string.ascii_letters + string.digits + "-_./!"
        for _ in range(100):
            challenge = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
            secret = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 24)))
            response = sha512_hex((challenge + secret).encode())

            table = {2: OwnershipRecord(1000, 1000)}
            options = PolicyOptions(secrets={1000: secret}, window=50)
            sessions = {}
            handled = try_token_auth("/tokens/" + challenge + response, 2, table, options, sessions, seq=7)
            assert handled and sessions.get(1000) == 57

            # corrupt one hex digit: exact-equality means no acceptance
            pos = rng.randrange(len(response))
            bad = response[:pos] + ("0" if response[pos] != "0" else "1") + response[pos + 1 :]
            sessions = {}
            handled = try_token_auth("/tokens/" + challenge + bad, 2, table, options, sessions, seq=7)
            assert handled and sessions == {}

        # expiry: past the window every SACL-listed path is denied again
        sacl = parse_sacl("/home/user/f 644 1000 1000\n")
        sim = Simulation(sacl=sacl, options=PolicyOptions(secrets={1000: "s"}, window=50))
        sim.spawn(1, 1000, 1000, pid=2)
        token = "/tokens/c" + sha512_hex(b"cs")
        sim.syscall(2, "open", token, flags=["O_RDONLY"])
        granted_until = sim.sessions[1000]
        verdict, _ = sim.syscall(2, "open", "/home/user/f", flags=["O_WRONLY"])
        assert verdict.decision is PERMIT
        while sim.clock <= granted_until:
            sim.syscall(2, "clone")
        verdict, _ = sim.syscall(2, "open", "/home/user/f", flags=["O_WRONLY"])
        assert (verdict.decision, verdict.reason) == (DENY, UNAUTHENTICATED)
        assert sim.sessions[1000] == granted_until < sim.clock


# -- 8: ownership integrity ---------------------------------------------------------


def test_criterion_8_ownership_integrity():
    with criterion(8, "forged creds decide like fork-time creds, 500 scenarios"):
        rng = random.Random(4321)
        calls = ["open", "openat", "rename", "unlink", "truncate", "execve", "link"]
        uids = [0, 1000, 2000]
        for _ in range(500):
            rows = []
            for i in range(rng.randrange(1, 7)):
                perm = f"{rng.randrange(8)}{rng.randrange(8)}{rng.randrange(8)}"
                rows.append(f"/p/f{i} {perm} {rng.choice(uids)} {rng.choice(uids)}")
            sacl_text = "\n".join(rows) + "\n"
            fork_creds = (rng.choice(uids), rng.choice(uids))
            forged = (rng.choice(uids), rng.choice(uids))
            call = rng.choice(calls)
            kwargs = {"path": f"/p/f{rng.randrange(7)}"}
            if call in ("open", "openat"):
                kwargs["flags"] = rng.choice([["O_RDONLY"], ["O_WRONLY"], ["O_RDWR"], ["O_CREAT", "O_WRONLY"]])
            if call in ("rename", "link"):
                kwargs["path2"] = f"/p/f{rng.randrange(7)}"

            honest = Simulation(sacl=parse_sacl(sacl_text))
            honest.spawn(1, *fork_creds, pid=2)
            v_honest, _ = honest.syscall(2, call, **kwargs)

            attacked = Simulation(sacl=parse_sacl(sacl_text))
            attacked.spawn(1, *fork_creds, pid=2)
            attacked.forge_credentials(2, *forged)
            v_attacked, _ = attacked.syscall(2, call, **kwargs)

            assert (v_attacked.decision, v_attacked.reason) == (v_honest.decision, v_honest.reason)
            assert (v_attacked.resolved_uid, v_attacked.resolved_gid) == fork_creds


# -- 9: re-arm guarantee ---------------------------------------------------------------


def test_criterion_9_rearm_guarantee():
    with criterion(9, "100 back-to-back traps, no misses, both modes"):
        for mode, per_call in ((TrapMode.CLASSIC4, 4), (TrapMode.NOP2, 2)):
            sim = Simulation(trap_mode=mode)
            pid = sim.spawn(1, 1000, 1000)
            for _ in range(100):
                sim.syscall(pid, "open", "/same/file", flags=["O_RDONLY"])
            assert len(sim.records) == 100
            assert all(r.vm_exits + r.vm_entries == per_call for r in sim.records)
            assert sim.sites["open"].current_byte == BREAKPOINT_OPCODE
