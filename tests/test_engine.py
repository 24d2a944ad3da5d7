"""Scenario parsing, the simulation loop, and the decision log."""

import io
import random
from pathlib import Path

import pytest

from hvguard import cli, engine
from hvguard.engine import (
    DECISION_LOG_COLUMNS,
    ERROR,
    EXPECT,
    FILE,
    SPAWN,
    SYS,
    USER,
    ScenarioError,
    Simulation,
    parse_scenario,
    run_scenario,
)
from hvguard.mediator import SACL_DENY, WHITELIST_MISS, PolicyOptions
from hvguard.sacl import DENY, PERMIT, PermissionOctets, parse_sacl
from hvguard.guest import TRAPPED_CALLS, GuestError, SyscallEvent
from hvguard.trap import CLASSIC4_RECORD, NOP2_RECORD, TrapMode
from test_acceptance import TRANSCRIPTS, _transcript_args

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
    assert [e[1] for e in events] == [USER, FILE, SPAWN, SYS, EXPECT]
    assert events[0][0] == 3  # line numbers skip comments and blanks
    assert [e[0] for e in events] == [3, 4, 5, 6, 7]
    assert events[3][2:6] == (2, "open", "/etc/shadow", None)
    assert events[3][6] == frozenset({"O_WRONLY"})
    assert events[4][2] == "deny"
    # A line whose fields are wrong is kept as an error in its place.
    bad = parse_scenario(BASIC + '{"ev":"user","uid":-1,"gid":0}\n')[-1]
    assert bad[:2] == (8, ERROR)
    assert str(bad[2]) == "line 8: 'uid' must be an integer >= 0, got -1"


def test_parse_scenario_shares_one_flag_set_per_flag_list():
    line = '{"ev":"sys","pid":2,"call":"open","path":"/a","flags":%s}\n'
    text = "".join(line % flags for flags in ('["O_WRONLY"]', '["O_RDONLY"]', '["O_WRONLY"]', "[]"))
    text += '{"ev":"sys","pid":2,"call":"getpid"}\n'
    # Two-flag lists in both orders, on lines that differ only in the path:
    # the set's own order matches at most one of them.
    for flags in ('["O_CREAT","O_WRONLY"]', '["O_WRONLY","O_CREAT"]'):
        text += "".join(line.replace("/a", path) % flags for path in ("/b", "/c"))
    flag_sets = [e[6] for e in parse_scenario(text)]
    assert flag_sets[0] is flag_sets[2] == frozenset({"O_WRONLY"})
    assert flag_sets[1] == frozenset({"O_RDONLY"})
    assert flag_sets[3] is flag_sets[4] == frozenset()
    assert flag_sets[5] is flag_sets[6] == frozenset({"O_CREAT", "O_WRONLY"})
    assert flag_sets[7] is flag_sets[8] == flag_sets[5]
    # Simulation.syscall's frozenset() hands the shared set on unchanged.
    assert frozenset(flag_sets[0]) is flag_sets[0]


# Repeated lines of every cached kind, a repeated field error, a repeated
# comment, and an expect line that is an error before the first sys line and
# an event after it.
REPEATS = """\
{"ev":"expect","decision":"deny"}
# again
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"file","path":"/etc/shadow","uid":0,"gid":0,"perm":"640"}
{"ev":"sys","pid":2,"call":"open","path":"/etc/shadow","flags":["O_WRONLY"]}
{"ev":"expect","decision":"deny"}
{"ev":"user","uid":-1,"gid":0}
# again
  {"ev":"sys","pid":2,"call":"open","path":"/etc/shadow","flags":["O_WRONLY"]}\t
{"ev":"expect","decision":"deny"}
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"file","path":"/etc/shadow","uid":0,"gid":0,"perm":"640"}
{"ev":"user","uid":-1,"gid":0}
"""


def test_a_repeated_line_parses_as_if_it_were_parsed_again():
    # One-line pieces leave nothing to reuse.
    events = parse_scenario(REPEATS)
    assert repr(events) == repr(parse_scenario(REPEATS.splitlines(keepends=True)))
    assert [e[:2] for e in events] == [
        (1, ERROR), (3, SPAWN), (4, FILE), (5, SYS), (6, EXPECT), (7, ERROR),
        (9, SYS), (10, EXPECT), (11, SPAWN), (12, FILE), (13, ERROR),
    ]


def test_a_repeated_line_shares_its_first_events_values_within_its_piece():
    first, second = (e for e in parse_scenario(REPEATS) if e[1] == SYS)
    assert (first[0], second[0]) == (5, 9)
    assert second[4] is first[4] and second[1:] == first[1:]
    # The next piece parses the line afresh.
    cut = REPEATS.index("  {")
    first, second = (e for e in parse_scenario([REPEATS[:cut], REPEATS[cut:]]) if e[1] == SYS)
    assert second[4] == first[4] and second[4] is not first[4]


def test_a_repeated_field_error_is_raised_at_each_of_its_lines():
    errors = [e[2] for e in parse_scenario(REPEATS) if e[1] == ERROR]
    assert [(exc.line_no, str(exc)) for exc in errors] == [
        (1, "line 1: 'expect' with no preceding sys event"),
        (7, "line 7: 'uid' must be an integer >= 0, got -1"),
        (13, "line 13: 'uid' must be an integer >= 0, got -1"),
    ]
    assert errors[1] is not errors[2]


def test_field_errors_wait_for_the_replay_to_reach_their_line():
    # Line 6's pid is dead, a guest error found only by replaying; line 8's
    # path is no string, found by the parser.  The replay stops at line 6.
    text = BASIC.replace('"pid":2,"call"', '"pid":9,"call"') + (
        '{"ev":"sys","pid":2,"call":"open","path":5}\n'
    )
    with pytest.raises(ScenarioError) as exc:
        run_scenario(text)
    assert exc.value.line_no == 6
    assert str(exc.value) == "line 6: pid 9 is not alive"
    # With the dead pid mended, the same scenario stops at the bad field.
    with pytest.raises(ScenarioError, match=r"^line 8: 'path' and 'path2' must be strings$"):
        run_scenario(BASIC + '{"ev":"sys","pid":2,"call":"open","path":5}\n')


def test_parse_scenario_rejects_bad_json_and_shape():
    with pytest.raises(ScenarioError):
        parse_scenario("not json\n")
    with pytest.raises(ScenarioError):
        parse_scenario('{"no_ev": 1}\n')


def _decode_all(text):
    """parse_scenario's events, or the message of the error it raises."""
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        return str(exc)


# Every line break str.splitlines knows, blank lines, comments, a bad-JSON
# line and no final newline.
BREAKS_TEXT = (
    '{"ev":"user","uid":1}\r\n'
    "\n# a comment\r"
    '{"ev":"user","uid":2}\x0b\x0c\x1c'
    '  {"ev":"user","uid":3}  \x85\u2028\n\n'
    '{"ev":"user","uid":4}\x1d\x1e\u2029\r\r\n'
    '{"ev":"user","uid":5}'
)


@pytest.mark.parametrize("slice_chars", [1, 2, 7])
def test_decode_in_slices_matches_whole_text(monkeypatch, slice_chars):
    whole = _decode_all(BREAKS_TEXT)
    assert [event[0] for event in whole] == [1, 4, 7, 11, 16]
    bad = BREAKS_TEXT.replace('"uid":4', '"uid":4,')
    whole_bad = _decode_all(bad)
    assert whole_bad.startswith("line 11: bad JSON")
    monkeypatch.setattr(engine, "_PIECE_CHARS", slice_chars)

    def pieces(text):
        return engine.line_pieces(io.StringIO(text, newline=""))

    assert len(list(pieces(BREAKS_TEXT))) > 1
    assert repr(_decode_all(pieces(BREAKS_TEXT))) == repr(whole)
    assert _decode_all(pieces(bad)) == whole_bad


def test_an_open_that_reads_needs_the_sacl_read_bit():
    # 622 grants "other" write but no read; the guest's own mode allows both.
    sim = Simulation(sacl=parse_sacl("/var/log/audit 622 0 0\n"))
    sim.add_file("/var/log/audit", 0, 0, PermissionOctets.from_text("666"))
    pid = sim.spawn(1, 1000, 1000)
    for flags, error in (
        (["O_CREAT"], "bad_file_descriptor"),
        (["O_RDONLY", "O_CREAT"], "bad_file_descriptor"),
        (["O_APPEND"], "bad_file_descriptor"),
        (["O_RDONLY"], "bad_address"),
    ):
        verdict, outcome = sim.syscall(pid, "open", "/var/log/audit", flags=flags)
        assert (verdict.decision, verdict.reason, outcome.error) == (
            DENY, SACL_DENY, error,
        ), flags
    verdict, outcome = sim.syscall(pid, "open", "/var/log/audit", flags=["O_WRONLY", "O_APPEND"])
    assert verdict.decision is PERMIT and outcome.success


def test_run_scenario_deny_expectation_met():
    result = run_scenario(BASIC, sacl=parse_sacl("/etc/shadow 400 0 0\n"))
    assert result.mismatches == []
    assert len(result.simulation.decisions) == 1
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
    assert len(result.simulation.decisions) == 3
    log = "".join(_log_pieces(result.simulation)).splitlines()
    assert log[0] == ",".join(DECISION_LOG_COLUMNS)
    assert len(log) == 1 + 3


def _log_pieces(sim):
    pieces = []
    sim.decision_log(pieces.append)
    return pieces


def _format_rows(sim):
    """The decision log's lines built row by row from sim.decisions, apart
    from decision_log: each verdict's first eight fields, without probes.
    A list, so that a failed comparison reports the first line that differs
    instead of diffing thousands of lines."""
    lines = [",".join(DECISION_LOG_COLUMNS) + "\n"]
    for row in sim.decisions:
        lines.append(",".join(str(value).lower() if type(value) is bool else str(value) for value in row[:8]) + "\n")
    return lines


@pytest.mark.parametrize("name", sorted(dict(TRANSCRIPTS)))
def test_decision_log_pieces_join_to_the_whole_log(scenario_dir, name):
    """Replayed with its SACL, secrets and flags, a transcript's log
    pieces join to its golden log."""
    args = cli.build_parser().parse_args(_transcript_args(scenario_dir, name, dict(TRANSCRIPTS)[name]))
    result = run_scenario(
        (scenario_dir / f"{name}.jsonl").read_text(),
        sacl=parse_sacl(Path(args.sacl).read_text()),
        options=PolicyOptions(
            exec_whitelist=args.whitelist_exec,
            secrets=cli._load_secrets(args.auth_secrets) if args.auth_secrets else {},
        ),
    )
    pieces = _log_pieces(result.simulation)
    assert len(pieces) == 2  # the header, then the rows
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.csv"
    assert "".join(pieces) == golden.read_text()


def test_decision_log_is_written_a_piece_of_rows_at_a_time():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    rows = 2 * engine._LOG_PIECE_ROWS + 1
    for _ in range(rows):
        sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
    pieces = _log_pieces(sim)
    assert [piece.count("\n") for piece in pieces] == [1, engine._LOG_PIECE_ROWS, engine._LOG_PIECE_ROWS, 1]
    log = "".join(pieces)
    assert log.splitlines(keepends=True) == _format_rows(sim)
    assert log.count("\n") == 1 + rows and log.endswith(",false\n")


def test_decode_pieces_match_whole_text():
    whole = _decode_all(BREAKS_TEXT)
    cuts = [i + 1 for i, c in enumerate(BREAKS_TEXT) if c == "\n"]
    pieces = [BREAKS_TEXT[a:b] for a, b in zip([0] + cuts, cuts + [len(BREAKS_TEXT)])]
    assert len(pieces) == 6 and pieces[-1] == '{"ev":"user","uid":5}'
    assert repr(_decode_all(iter(pieces))) == repr(whole)


def test_spawn_records_and_a_duplicate_spawn_is_refused():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=7)
    assert sim.table[7] == (1000, 1000)
    with pytest.raises(GuestError, match="pid 7 already alive"):
        sim.spawn(1, 0, 0, pid=7)
    assert sim.table[7] == (1000, 1000)


def test_sudo_updates_both_guest_and_table():
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.sudo(2, 0, 0)
    verdict, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert verdict.decision is PERMIT  # legitimately root now
    assert not verdict.mismatch


def test_refused_sudo_changes_neither_guest_nor_table():
    sim = Simulation()
    sim.sudo(1, 1000, 1000)  # init has a fork-time record, which a sudo replaces
    assert sim.guest.processes[1] == (1000, 1000)
    assert sim.table[1] == (1000, 1000)
    with pytest.raises(GuestError, match="pid 7 is not alive"):
        sim.sudo(7, 0, 0)
    assert 7 not in sim.guest.processes and sim.table.get(7) is None


def test_forge_replaces_only_the_claim():
    # A claim is a (uid, gid) value: forge replaces it and leaves the
    # fork-time record object as it was, a clone's child gets an equal claim
    # and its parent's record, and sudo replaces both.
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    record = sim.table[2]
    sim.forge_credentials(2, 0, 0)
    assert sim.guest.processes[2] == (0, 0)
    assert sim.table[2] is record
    sim.syscall(2, "clone")
    assert sim.guest.processes[3] == (0, 0)
    assert sim.table[3] is record
    sim.sudo(2, 500, 500)
    assert sim.guest.processes[2] == sim.table[2] == (500, 500)
    assert sim.table[2] is not record and sim.table[3] is record
    sim.syscall(2, "open", "/x", flags=["O_RDONLY"])
    log = io.StringIO()
    sim.decision_log(log.write)
    assert log.getvalue().splitlines()[-1].endswith(",500,500,permit,permit,false")
    sim.syscall(2, "exit")
    assert 2 not in sim.guest.processes and 2 not in sim.table


def test_forged_credentials_flagged_and_ignored():
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.add_file("/etc/shadow", 0, 0, PermissionOctets(6, 4, 0))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.forge_credentials(2, 0, 0)
    verdict, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert verdict.mismatch
    assert verdict.decision is DENY  # decided as uid 1000, not root


def test_exit_cleans_ownership_table():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    assert sim.table.get(2) is not None
    sim.syscall(2, "exit")
    assert sim.table.get(2) is None
    with pytest.raises(GuestError, match="pid 2 is not alive"):
        sim.syscall(2, "exit")
    assert sim.table == {1: (0, 0)}


def test_clone_exit_cycles_keep_the_process_table_bounded():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    size = len(sim.guest.processes)
    children = []
    for _ in range(1000):
        before = set(sim.guest.processes)
        sim.syscall(2, "clone")
        (child,) = set(sim.guest.processes) - before
        assert sim.table.get(child) is not None
        sim.syscall(child, "exit")
        children.append(child)
    assert len(sim.guest.processes) == size
    assert set(sim.guest.processes) == sim.guest.live_pids() == {1, 2}
    assert sim.table.get(2) is not None
    assert all(sim.table.get(child) is None for child in children)
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
    assert sim.table.get(child) is not None
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
    assert verdict.decision is DENY
    assert verdict.mismatch
    assert (verdict.resolved_uid, verdict.resolved_gid) == (1000, 1000)
    assert not outcome.success


def test_a_clone_follows_last_pid_and_its_exit_drops_only_its_record():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    sim.spawn(1, 0, 0, pid=50)
    sim.syscall(2, "clone")
    assert set(sim.guest.processes) == {1, 2, 50, 51}
    assert sim.table[51] is sim.table[2]
    parent_record = sim.table[2]
    sim.syscall(51, "exit")
    assert sim.table == {1: (0, 0), 2: (1000, 1000), 50: (0, 0)}
    assert sim.table[2] is parent_record


def _logged(sim):
    return len(sim.decisions), len(sim.outcomes), len(sim.records), dict(sim.table)


def test_a_pid_spawned_behind_the_hypervisors_back_is_not_decided():
    sim = Simulation()
    pid = sim.guest.spawn_process(1, 1000, 1000)
    before = _logged(sim)
    with pytest.raises(GuestError, match=f"^pid {pid} is not alive$"):
        sim.syscall(pid, "open", "/x", flags=["O_RDONLY"])
    assert _logged(sim) == before == (0, 0, 0, {1: (0, 0)})


def test_a_recorded_pid_gone_from_the_guest_is_not_decided():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=2)
    # The guest runs an exit that the hypervisor never trapped.
    assert sim.guest.execute_syscall(SyscallEvent(0, 2, "exit")).success
    before = _logged(sim)
    with pytest.raises(GuestError, match="^pid 2 is not alive$"):
        sim.syscall(2, "open", "/x", flags=["O_RDONLY"])
    assert _logged(sim) == before == (0, 0, 0, {1: (0, 0), 2: (1000, 1000)})


def test_a_clone_shares_its_parents_record_until_a_sudo_replaces_it():
    sim = Simulation(sacl=parse_sacl("/etc/shadow 600 0 0\n"))
    sim.add_file("/etc/shadow", 0, 0, PermissionOctets(6, 0, 0))
    sim.spawn(1, 1000, 1000, pid=2)
    sim.forge_credentials(2, 0, 0)
    sim.syscall(2, "clone")
    (child,) = sim.guest.live_pids() - {1, 2}
    sim.syscall(child, "clone")
    (grandchild,) = sim.guest.live_pids() - {1, 2, child}
    assert sim.table[grandchild] is sim.table[child] is sim.table[2]
    # The grandchild of a forged parent is decided as the grandparent's
    # spawn-time identity.
    verdict, _ = sim.syscall(grandchild, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert (verdict.decision, verdict.resolved_uid, verdict.resolved_gid, verdict.mismatch) == (DENY, 1000, 1000, True)

    parent_before, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    sim.sudo(child, 0, 0)
    assert sim.table[child] == (0, 0)
    assert sim.table[2] == sim.table[grandchild] == (1000, 1000)
    verdict, _ = sim.syscall(child, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert (verdict.decision, verdict.mismatch) == (PERMIT, False)
    parent_after, _ = sim.syscall(2, "open", "/etc/shadow", flags=["O_WRONLY"])
    assert parent_after[1:] == parent_before[1:]  # all but the seq
    assert (parent_after.decision, parent_after.resolved_uid, parent_after.mismatch) == (DENY, 1000, True)


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
        verdict, _ = sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
        assert verdict is sim.decisions[-1]  # the verdict is the log row
        seqs.append(verdict.seq)
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
    assert _log_pieces(a.simulation) == _log_pieces(b.simulation)
    assert a.simulation.outcomes == b.simulation.outcomes


def test_nop_mode_runs_scenarios_with_two_switches():
    sim = Simulation(trap_mode=TrapMode.NOP2)
    sim.spawn(1, 0, 0, pid=2)
    sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
    record = sim.records[-1]
    assert record.vm_exits + record.vm_entries == 2


@pytest.mark.parametrize("text,record", [("nop", NOP2_RECORD), ("classic", CLASSIC4_RECORD)], ids=["nop", "classic"])
def test_trap_mode_given_as_its_text_picks_its_handling(text, record):
    sim = Simulation(trap_mode=text)
    sim.spawn(1, 0, 0, pid=2)
    sim.syscall(2, "open", "/missing", flags=["O_RDONLY"])
    assert sim.records == [record]


@pytest.mark.parametrize("text,record", [("nop", NOP2_RECORD), ("classic", CLASSIC4_RECORD)], ids=["nop", "classic"])
def test_trap_mode_reaches_the_sites_from_run_scenario_and_the_cli(monkeypatch, scenario_dir, tmp_path, text, record):
    """Neither ``run_scenario`` nor the CLI drops the mode on its way to the
    Simulation, which alone holds it: every call takes that mode's record."""
    result = run_scenario(BASIC, trap_mode=text)
    assert result.simulation.records == [record]

    sims = []

    class Recording(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(engine, "Simulation", Recording)
    name, extra = TRANSCRIPTS[0]
    args = _transcript_args(scenario_dir, name, extra) + ["--trap-mode", text, "--out", str(tmp_path / "log.csv")]
    assert cli.main(args) == 0
    [sim] = sims
    assert sim.records and all(r is record for r in sim.records)


def test_unknown_trap_mode_rejected():
    with pytest.raises(ValueError, match="'fast' is not a valid TrapMode"):
        Simulation(trap_mode="fast")


def test_every_record_is_the_modes_shared_record():
    for mode, shared in ((TrapMode.CLASSIC4, CLASSIC4_RECORD), (TrapMode.NOP2, NOP2_RECORD)):
        sim = Simulation(sacl=parse_sacl("/w/a 400 0 0\n"), trap_mode=mode)
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
    options = PolicyOptions(secrets={1000: "s"}, window=5)
    sim = Simulation(sacl=parse_sacl("/f 644 1000 1000\n"), options=options)
    sim.spawn(1, 1000, 1000, pid=2)
    from hvguard.mediator import token_response

    token = "/tokens/x" + token_response("x", "s")
    sim.syscall(2, "open", token, flags=["O_RDONLY"])
    verdict, _ = sim.syscall(2, "open", "/f", flags=["O_WRONLY"])
    assert verdict.decision is PERMIT
    for _ in range(6):
        sim.syscall(2, "clone")  # burn ticks past the window
    verdict, _ = sim.syscall(2, "open", "/f", flags=["O_WRONLY"])
    assert verdict.decision is DENY


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
    "delete_module": ("/d/f", None, []),
    "kexec_load": ("/d/f", None, []),
    "kexec_file_load": ("/d/f", None, []),
    "clone": (None, None, []),
}

# (decision, reason, outcome error, probes) with the slots above, then with
# path null; probes is the number of distinct paths the call names.  Only the new name of a link or symlink is checked, so naming a
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
    "rename": (("deny", "sacl_deny", "bad_address", 3), ("deny", "sacl_deny", "bad_address", 2)),
    "renameat": (("deny", "sacl_deny", "bad_address", 4), ("deny", "sacl_deny", "bad_address", 2)),
    "renameat2": (("permit", "permit", None, 3), ("permit", "permit", "bad_address", 2)),
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
    "delete_module": (
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
        ("deny", "hard_denied_call", "bad_file_descriptor", 0),
    ),
    "kexec_load": (
        ("deny", "hard_denied_call", "bad_address", 0),
        ("deny", "hard_denied_call", "bad_address", 0),
    ),
    "kexec_file_load": (
        ("deny", "hard_denied_call", "bad_address", 0),
        ("deny", "hard_denied_call", "bad_address", 0),
    ),
    "clone": (("permit", "permit", None, 0), ("permit", "permit", None, 0)),
}


def _pinned_sim(options=None):
    """A uid-1000 caller forged to root, and the listed and unlisted files."""
    sim = Simulation(sacl=parse_sacl("/d 755 0 0\n/d/f 644 0 0\n/d/run 755 0 0\n"), options=options)
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
    return sim, pid


def _pinned_run(call, path_null):
    sim, pid = _pinned_sim()
    path, path2, flags = PINNED_CALL_ARGS[call]
    verdict, outcome = sim.syscall(pid, call, None if path_null else path, path2, flags)
    return verdict.decision, verdict.reason, outcome.error, verdict.probes


def test_every_trapped_call_pinned_through_syscall():
    # A uid-1000 caller forged to root; both runs of every call start from a
    # fresh simulation.
    assert set(PINNED_OUTCOMES) == set(TRAPPED_CALLS)
    for call, (with_slots, with_null_path) in PINNED_OUTCOMES.items():
        assert _pinned_run(call, False) == with_slots, call
        assert _pinned_run(call, True) == with_null_path, call


class CountingDict(dict):
    """A SACL entry dict that counts its ``get`` calls, the probes mediation makes."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


def test_probes_count_the_sacl_fetches_made():
    runs = [(call, path_null, None) for call in PINNED_CALL_ARGS for path_null in (False, True)]
    # A null-path exec under white-listing is denied without a fetch.
    runs.append(("execve", True, PolicyOptions(exec_whitelist=True)))
    for call, path_null, options in runs:
        sim, pid = _pinned_sim(options)
        sim.sacl.entries = entries = CountingDict(sim.sacl.entries)
        path, path2, flags = PINNED_CALL_ARGS[call]
        verdict, _ = sim.syscall(pid, call, None if path_null else path, path2, flags)
        assert verdict.probes == entries.gets, (call, path_null, options)
    assert verdict.reason is WHITELIST_MISS
    assert verdict.probes == 0
