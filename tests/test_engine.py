"""Scenario parsing, the simulation loop, and the decision log."""

import random

import pytest

from hvguard.engine import (
    DECISION_LOG_COLUMNS,
    ScenarioError,
    Simulation,
    parse_scenario,
    run_scenario,
)
from hvguard.mediator import AuthConfig, PolicyOptions
from hvguard.sacl import Decision, PermissionOctets, parse_sacl
from hvguard.guest import TRAPPED_CALLS, GuestError
from hvguard.trap import CLASSIC4_RECORD, NOP2_RECORD, TrapMode

BASIC = """\
# comment lines and blanks are fine

{"ev":"user","uid":1000,"gid":1000,"name":"user"}
{"ev":"file","path":"/etc/shadow","uid":0,"gid":0,"perm":"640"}
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"sys","pid":2,"call":"open","path":"/etc/shadow","flags":["O_WRONLY"]}
{"ev":"expect","decision":"deny"}
"""


def test_parse_scenario_shapes():
    events = parse_scenario(BASIC)
    assert [e["ev"] for _, e in events] == ["user", "file", "spawn", "sys", "expect"]
    assert events[0][0] == 3  # line numbers skip comments and blanks


def test_parse_scenario_rejects_bad_json_and_shape():
    with pytest.raises(ScenarioError):
        parse_scenario("not json\n")
    with pytest.raises(ScenarioError):
        parse_scenario('{"no_ev": 1}\n')


def test_run_scenario_deny_expectation_met():
    result = run_scenario(BASIC, sacl=parse_sacl("/etc/shadow 400 0 0\n"))
    assert result.mismatches == []
    assert result.sys_events == 1
    assert result.expect_checks == 1


def test_run_scenario_mismatch_reported_not_raised():
    result = run_scenario(BASIC)  # empty SACL: the open is permitted
    assert len(result.mismatches) == 1
    assert "expected decision deny, got permit" in result.mismatches[0]


def test_expect_without_sys_is_error():
    with pytest.raises(ScenarioError):
        run_scenario('{"ev":"expect","decision":"deny"}\n')


def test_expect_status_and_error_keys():
    text = """\
{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}
{"ev":"sys","pid":2,"call":"open","path":"/nope","flags":["O_RDONLY"]}
{"ev":"expect","decision":"permit","status":"error","error":"no_such_file"}
"""
    assert run_scenario(text).mismatches == []


def test_decision_log_row_per_sys_event():
    text = """\
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"file","path":"/d/a","uid":1000,"gid":1000,"perm":"644"}
{"ev":"sys","pid":2,"call":"open","path":"/d/a","flags":["O_RDONLY"]}
{"ev":"sys","pid":2,"call":"unlink","path":"/d/a"}
{"ev":"sys","pid":2,"call":"exit"}
"""
    result = run_scenario(text)
    assert result.sys_events == 3
    log = result.simulation.decision_log().splitlines()
    assert log[0] == ",".join(DECISION_LOG_COLUMNS)
    assert len(log) == 1 + 3


def test_sudo_updates_both_guest_and_table():
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.sudo(2, 0, 0)
    verdict, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert verdict.decision is Decision.PERMIT  # legitimately root now
    assert not verdict.mismatch


def test_forged_credentials_flagged_and_ignored():
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.add_file("/etc/shadow", 0, 0, PermissionOctets(6, 4, 0))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.forge_credentials(2, 0, 0)
    verdict, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert verdict.mismatch
    assert verdict.decision is Decision.DENY  # decided as uid 1000, not root


def test_exit_cleans_ownership_table():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    assert 2 in sim.table
    sim.syscall(2, "exit")
    assert 2 not in sim.table


def test_clone_exit_cycles_keep_the_process_table_bounded():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    size = len(sim.guest.processes)
    children = []
    for _ in range(1000):
        before = set(sim.guest.processes)
        sim.syscall(2, "clone")
        (child,) = set(sim.guest.processes) - before
        assert child in sim.table
        sim.syscall(child, "exit")
        children.append(child)
    assert len(sim.guest.processes) == size
    assert set(sim.guest.processes) == sim.guest.live_pids() == {1, 2}
    assert 2 in sim.table
    assert not any(child in sim.table for child in children)
    with pytest.raises(GuestError):
        sim.guest.set_claimed(children[-1], 0, 0)
    # An exited pid can be handed out again by a trusted spawn.
    assert sim.spawn(1, 0, 0, pid=children[0]) == children[0]
    assert (sim.table.get(children[0]).uid, sim.table.get(children[0]).gid) == (0, 0)
    assert len(sim.guest.processes) == size + 1


def test_clone_registers_child_in_table():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    sim.syscall(2, "clone")
    (child,) = sim.guest.live_pids() - {1, 2}
    assert child in sim.table
    assert sim.table.get(child).uid == 1000


def test_clone_after_forge_inherits_recorded_credentials():
    # The child of a forged-root parent is recorded with the parent's
    # fork-time identity, not with the credentials the parent claims.
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.add_file("/etc/shadow", 0, 0, PermissionOctets(6, 0, 0))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.forge_credentials(2, 0, 0)
    sim.syscall(2, "clone")
    (child,) = sim.guest.live_pids() - {1, 2}
    assert (sim.table.get(child).uid, sim.table.get(child).gid) == (1000, 1000)
    verdict, outcome = sim.syscall(child, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert verdict.decision is Decision.DENY
    assert verdict.mismatch
    assert (verdict.resolved_uid, verdict.resolved_gid) == (1000, 1000)
    assert not outcome.success


def test_spawn_event_credentials_stay_trusted():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    sim.spawn(2, 0, 0, pid=3)
    assert (sim.table.get(3).uid, sim.table.get(3).gid) == (0, 0)


def test_sequence_numbers_strictly_increase():
    sim = Simulation()
    sim.spawn(1, 0, 0, pid=2)
    seqs = []
    for _ in range(5):
        sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
        seqs.append(sim.decisions[-1].seq)
    assert seqs == sorted(set(seqs))


def test_scenario_replay_bit_identical():
    text = """\
{"ev":"user","uid":1000,"gid":1000,"name":"user"}
{"ev":"file","path":"/home/user","uid":1000,"gid":1000,"perm":"755","dir":true}
{"ev":"file","path":"/home/user/f","uid":1000,"gid":1000,"perm":"644"}
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"sys","pid":2,"call":"open","path":"/home/user/f","flags":["O_RDWR"]}
{"ev":"sys","pid":2,"call":"rename","path":"/home/user/f","path2":"/home/user/g"}
{"ev":"sys","pid":2,"call":"execve","path":"/home/user/g"}
{"ev":"sys","pid":2,"call":"exit_group"}
"""
    sacl = "/home/user/f 644 1000 1000\n"
    a = run_scenario(text, sacl=parse_sacl(sacl))
    b = run_scenario(text, sacl=parse_sacl(sacl))
    assert a.simulation.decision_log() == b.simulation.decision_log()
    assert a.simulation.outcomes == b.simulation.outcomes


def test_nop_mode_runs_scenarios_with_two_switches():
    sim = Simulation(options=PolicyOptions(trap_mode=TrapMode.NOP2))
    sim.spawn(1, 0, 0, pid=2)
    sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
    record = sim.records[-1]
    assert record.vm_exits + record.vm_entries == 2


def test_every_record_is_the_modes_shared_record():
    for mode, shared in ((TrapMode.CLASSIC4, CLASSIC4_RECORD), (TrapMode.NOP2, NOP2_RECORD)):
        sim = Simulation(sacl=parse_sacl("/w/a 400 0 0\n"), options=PolicyOptions(trap_mode=mode))
        sim.add_file("/w/a", 0, 0, PermissionOctets.from_text("644"))
        for call in TRAPPED_CALLS:
            pid = sim.spawn(1, 0, 0)
            sim.syscall(pid, call, "/w/a", "/w/b", ["O_RDWR"])
        assert len(sim.records) == len(TRAPPED_CALLS)
        assert all(record is shared for record in sim.records), mode
        assert {row.decision for row in sim.decisions} == {"permit", "deny"}


def test_dead_pid_sys_event_is_scenario_error():
    text = """\
{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}
{"ev":"sys","pid":2,"call":"exit"}
{"ev":"sys","pid":2,"call":"open","path":"/x","flags":["O_RDONLY"]}
"""
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(text)
    assert excinfo.value.line_no == 3


def test_spawn_duplicate_pid_is_scenario_error():
    text = """\
{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}
{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}
"""
    with pytest.raises(ScenarioError):
        run_scenario(text)


def test_ownership_invariance_random_scenarios():
    # decisions for altered claims equal decisions for fork-time creds
    rng = random.Random(1234)
    calls = ["open", "rename", "unlink", "truncate", "execve"]
    for _ in range(120):
        sacl_rows = []
        for i in range(rng.randrange(1, 6)):
            perm = f"{rng.randrange(8)}{rng.randrange(8)}{rng.randrange(8)}"
            sacl_rows.append(f"/p/f{i} {perm} {rng.randrange(3) * 1000} {rng.randrange(3) * 1000}")
        sacl_text = "\n".join(sacl_rows) + "\n"
        fork_creds = (rng.randrange(3) * 1000, rng.randrange(3) * 1000)
        forged = (rng.randrange(3) * 1000, rng.randrange(3) * 1000)
        call = rng.choice(calls)
        target = f"/p/f{rng.randrange(6)}"
        kwargs = {"flags": ["O_WRONLY"]} if call == "open" else {}
        if call == "rename":
            kwargs["path2"] = f"/p/f{rng.randrange(6)}"

        honest = Simulation(sacl=parse_sacl(sacl_text))
        honest.spawn(1, *fork_creds, pid=2)
        v1, _ = honest.syscall(2, call, target, **kwargs)

        attacked = Simulation(sacl=parse_sacl(sacl_text))
        attacked.spawn(1, *fork_creds, pid=2)
        attacked.forge_credentials(2, *forged)
        v2, _ = attacked.syscall(2, call, target, **kwargs)

        assert (v1.decision, v1.reason) == (v2.decision, v2.reason)


def test_auth_config_window_flows_from_simulation():
    auth = AuthConfig(secrets={1000: "s"}, window=5)
    sim = Simulation(sacl=parse_sacl("/f 644 1000 1000\n"), auth=auth)
    sim.spawn(1, 1000, 1000, pid=2)
    from hvguard.mediator import token_response

    token = "/tokens/x" + token_response("x", "s")
    sim.syscall(2, "open", token, flags=["O_RDONLY"])
    verdict, _ = sim.syscall(2, "open", "/f", flags=["O_WRONLY"])
    assert verdict.decision is Decision.PERMIT
    for _ in range(6):
        sim.syscall(2, "clone")  # burn ticks past the window
    verdict, _ = sim.syscall(2, "open", "/f", flags=["O_WRONLY"])
    assert verdict.decision is Decision.DENY


# Per trapped call: (path, path2, flags).  The SACL lists /d, /d/f and /d/run
# as root's 755, 644 and 755; /u and /u/a are the caller's own and unlisted.
PINNED_CALL_ARGS = {
    "open": ("/d/f", None, ["O_RDONLY"]),
    "openat": ("/d/new", None, ["O_CREAT", "O_WRONLY"]),
    "name_to_handle_at": ("/d/f", None, []),
    "open_by_handle_at": ("/d/f", None, []),
    "rename": ("/d/f", "/d/g", []),
    "renameat": ("/u/a", "/d/f", []),
    "renameat2": ("/u/a", "/u/b", []),
    "unlink": ("/d/f", None, []),
    "unlinkat": ("/u/a", None, []),
    "truncate": ("/d/f", None, []),
    "link": ("/d/f", "/u/l", []),
    "linkat": ("/d/f", "/d/l", []),
    "symlink": ("/d/f", "/u/s", []),
    "symlinkat": ("/d/f", "/d/s", []),
    "execve": ("/d/run", None, []),
    "execveat": ("/d/f", None, []),
    "exit": (None, None, []),
    "exit_group": (None, None, []),
    "init_module": ("/d/f", None, []),
    "finit_module": ("/d/f", None, []),
    "kexec_load": ("/d/f", None, []),
    "clone": (None, None, []),
}

# (decision, reason, outcome error, probes) with the slots above, then with
# path null.  Only the new name of a link or symlink is checked, so naming a
# listed target under an unlisted new name is permitted.
PINNED_OUTCOMES = {
    "open": (("permit", "permit", None, 1), ("permit", "permit", "bad_address", 0)),
    "openat": (
        ("deny", "sacl_deny", "bad_file_descriptor", 2),
        ("permit", "permit", "bad_file_descriptor", 0),
    ),
    "name_to_handle_at": (
        ("deny", "hard_denied_call", "bad_address", 0),
        ("deny", "hard_denied_call", "bad_address", 0),
    ),
    "open_by_handle_at": (
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
    ),
    "rename": (("deny", "sacl_deny", "bad_address", 4), ("deny", "sacl_deny", "bad_address", 2)),
    "renameat": (("deny", "sacl_deny", "bad_address", 4), ("deny", "sacl_deny", "bad_address", 2)),
    "renameat2": (("permit", "permit", None, 4), ("permit", "permit", "bad_address", 2)),
    "unlink": (("deny", "sacl_deny", "bad_address", 2), ("permit", "permit", "bad_address", 0)),
    "unlinkat": (("permit", "permit", None, 2), ("permit", "permit", "bad_address", 0)),
    "truncate": (("deny", "sacl_deny", "bad_address", 1), ("permit", "permit", "bad_address", 0)),
    "link": (("permit", "permit", None, 2), ("permit", "permit", "bad_address", 2)),
    "linkat": (("deny", "sacl_deny", "bad_address", 2), ("deny", "sacl_deny", "bad_address", 2)),
    "symlink": (("permit", "permit", None, 2), ("permit", "permit", "bad_address", 2)),
    "symlinkat": (("deny", "sacl_deny", "bad_address", 2), ("deny", "sacl_deny", "bad_address", 2)),
    "execve": (("permit", "permit", None, 1), ("permit", "permit", "bad_address", 0)),
    "execveat": (("deny", "sacl_deny", "bad_address", 1), ("permit", "permit", "bad_address", 0)),
    "exit": (("permit", "permit", None, 0), ("permit", "permit", None, 0)),
    "exit_group": (("permit", "permit", None, 0), ("permit", "permit", None, 0)),
    "init_module": (
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
    ),
    "finit_module": (
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
    ),
    "kexec_load": (
        ("deny", "hard_denied_call", "bad_address", 0),
        ("deny", "hard_denied_call", "bad_address", 0),
    ),
    "clone": (("permit", "permit", None, 0), ("permit", "permit", None, 0)),
}


def _pinned_run(call, path_null):
    sim = Simulation(sacl=parse_sacl("/d 755 0 0\n/d/f 644 0 0\n/d/run 755 0 0\n"))
    sim.add_user(1000)
    for path, uid, perm, is_dir in (
        ("/d", 0, "755", True),
        ("/d/f", 0, "644", False),
        ("/d/run", 0, "755", False),
        ("/u", 1000, "755", True),
        ("/u/a", 1000, "644", False),
    ):
        sim.add_file(path, uid, uid, PermissionOctets.from_text(perm), is_dir)
    pid = sim.spawn(1, 1000, 1000)
    sim.forge_credentials(pid, 0, 0)
    path, path2, flags = PINNED_CALL_ARGS[call]
    verdict, outcome = sim.syscall(pid, call, None if path_null else path, path2, flags)
    error = outcome.error.value if outcome.error else None
    return verdict.decision.value, verdict.reason.value, error, verdict.probes


def test_every_trapped_call_pinned_through_syscall():
    # A uid-1000 caller forged to root; both runs of every call start from a
    # fresh simulation.
    assert set(PINNED_OUTCOMES) == set(TRAPPED_CALLS)
    for call, (with_slots, with_null_path) in PINNED_OUTCOMES.items():
        assert _pinned_run(call, False) == with_slots, call
        assert _pinned_run(call, True) == with_null_path, call
