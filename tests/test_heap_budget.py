"""What a replay keeps alive: objects that scale with the guest, not with the
rows and lines read.

The cyclic collector walks every tracked object on each full collection, so
a replay that keeps one object per SACL row or per parsed scenario line pays
for it again and again.  These tests count tracked objects at the first
trapped call, watch scenario events with weak references, and weigh the
parsed scenario, the scenario reader, the emitted decision log and the
guest's file nodes with tracemalloc.
"""

import gc
import json
import random
import sys
import tracemalloc
import weakref

from conftest import REPO_ROOT
from hvguard import cli, engine
from hvguard.engine import Simulation, run_scenario
from hvguard.guest import Guest
from hvguard.sacl import PermissionOctets, parse_sacl

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import gen  # noqa: E402

N_FILES = 5000
N_SYS = 300
# The Simulation, its trap sites and the sys events still to run (one tuple
# each, holding a shared flag set): far fewer than N_FILES.
SMALL = 1500


def make_workload(seed=3):
    """A forged-root attack on a guest of N_FILES files, every one of them
    listed in the SACL under a handful of (perm, uid, gid) triples."""
    rng = random.Random(seed)
    users = [(1000 + i, 1000 + i) for i in range(8)]
    events = [{"ev": "user", "uid": uid, "gid": gid, "name": f"u{uid}"} for uid, gid in users]
    events += [{"ev": "file", "path": f"/d{d:02d}", "uid": 0, "gid": 0, "perm": "755", "dir": True}
               for d in range(50)]
    rows, paths = [], []
    for i in range(N_FILES):
        path = f"/d{i % 50:02d}/f{i:05d}"
        uid, gid = rng.choice(users + [(0, 0)])
        perm = rng.choice(["644", "640", "600", "400"])
        events.append({"ev": "file", "path": path, "uid": uid, "gid": gid, "perm": perm})
        rows.append(f"{path} {perm} {uid} {gid}")
        paths.append(path)
    events.append({"ev": "spawn", "pid": 2, "parent": 1, "uid": 1000, "gid": 1000})
    events.append({"ev": "forge", "pid": 2, "uid": 0, "gid": 0})
    for _ in range(N_SYS):
        call = rng.choice(["open", "unlink", "truncate"])
        event = {"ev": "sys", "pid": 2, "call": call, "path": rng.choice(paths)}
        if call == "open":
            event["flags"] = ["O_WRONLY"]
        events.append(event)
        events.append({"ev": "expect", "decision": "permit"})
    scenario = "\n".join(json.dumps(e) for e in events) + "\n"
    return "\n".join(rows) + "\n", scenario, len(events)


def test_replay_heap_scales_with_files_not_rows_or_lines(monkeypatch):
    sacl_text, scenario, _ = make_workload()
    counts = []
    real_syscall = Simulation.syscall

    def syscall(self, *args, **kwargs):
        if not counts:
            gc.collect()
            counts.append((len(gc.get_objects()), len(self.guest.files)))
        return real_syscall(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "syscall", syscall)
    gc.collect()
    before = len(gc.get_objects())
    result = run_scenario(scenario, sacl=parse_sacl(sacl_text))
    assert len(result.simulation.decisions) == N_SYS
    tracked, files = counts[0]
    assert files == N_FILES + 50
    assert tracked - before < files + SMALL


class Event(list):
    """A parsed scenario event that a weak reference can watch (a tuple
    cannot take one)."""


def test_each_event_is_freed_once_run(monkeypatch):
    sacl_text, scenario, n_events = make_workload()
    refs = []
    real_parse = engine.parse_scenario

    def parse_scenario(text):
        events = [Event(event) for event in real_parse(text)]
        refs.extend(weakref.ref(event) for event in events)
        return events

    live_at_syscalls = []
    real_syscall = Simulation.syscall

    def syscall(self, *args, **kwargs):
        live_at_syscalls.append(sum(ref() is not None for ref in refs))
        return real_syscall(self, *args, **kwargs)

    monkeypatch.setattr(engine, "parse_scenario", parse_scenario)
    monkeypatch.setattr(Simulation, "syscall", syscall)
    gc.disable()  # freed by reference counting, not by a collection
    try:
        result = run_scenario(scenario, sacl=parse_sacl(sacl_text))
        # The k-th sys event (0-based) is followed by its expect and the
        # remaining sys/expect pairs: every earlier event is gone.
        assert live_at_syscalls == [2 * (N_SYS - k) for k in range(N_SYS)]
        assert len(refs) == n_events
        assert all(ref() is None for ref in refs)
        assert len(result.simulation.decisions) == N_SYS
    finally:
        gc.enable()


# Bytes a guest keeps per file: the node and its entry in Guest.files.  A
# slotted node kept about 90 (CPython 3.11); one with a __dict__ keeps about
# 130.
BYTES_PER_NODE = 100


def test_guest_keeps_at_most_100_bytes_a_file():
    n = 4000
    paths = [f"/d{i % 8}/f{i:05d}" for i in range(n)]
    perms = PermissionOctets.from_text("644")
    guest = Guest()
    for d in range(8):
        guest.add_file(f"/d{d}", 0, 0, PermissionOctets.from_text("755"), True)
    tracemalloc.start()
    try:
        for i, path in enumerate(paths):
            guest.add_file(path, i % 7, i % 5, perms)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(guest.files) == n + 8
    assert retained / n <= BYTES_PER_NODE


# Bytes the parsed scenario keeps per line.  One (line, dict) pair per line
# kept about 690; a flat tuple of shared values keeps about 200.
BYTES_PER_LINE = 300


def test_parsed_scenario_retains_at_most_300_bytes_a_line(tmp_path):
    gen.generate("mixed_replay", 7, tmp_path)
    text = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        events = engine.parse_scenario(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 30_000
    assert {event[1] for event in events} >= {engine.SYS, engine.EXPECT, engine.FILE, engine.SPAWN}
    assert retained / len(events) <= BYTES_PER_LINE


def test_parsing_a_whole_text_allocates_under_three_times_its_length(tmp_path):
    """A whole str is decoded as it is: what parse_scenario allocates beyond
    what it keeps is the text's lines, under 3 bytes a character.  A copy of
    the text into an io.StringIO, at 4 bytes a character, would exceed it."""
    gen.generate("mixed_replay", 7, tmp_path)
    text = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
    assert len(text) > 1_500_000
    tracemalloc.start()
    try:
        events = engine.parse_scenario(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 30_000
    assert peak - retained < 3 * len(text)


def test_scenario_reader_never_holds_the_whole_file(tmp_path):
    """_scenario_pieces hands the file on a piece at a time: walking all of
    it allocates well under the size of the file."""
    gen.generate("mixed_replay", 7, tmp_path)
    path = tmp_path / "trace.jsonl"
    size = path.stat().st_size
    assert size > 1_500_000
    tracemalloc.start()
    try:
        chars = sum(len(piece) for piece in cli._scenario_pieces(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chars > 1_500_000
    assert peak < size / 4


# Rows of the decision log that _emit writes: about 2 MB of text.  Written
# whole, the log was encoded in one copy of that size.
LOG_ROWS = 50_000


def test_emit_never_holds_the_whole_log(tmp_path, monkeypatch):
    """_emit writes the decision log a piece at a time: the memory it
    allocates while it runs stays well under the size of the log."""
    scenario = tmp_path / "s.jsonl"
    scenario.write_text(
        '{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}\n'
        + '{"ev":"sys","pid":2,"call":"open","path":"/missing","flags":["O_RDONLY"]}\n' * LOG_ROWS
    )
    peaks = []
    real_emit = cli._emit

    def emit(*args):
        tracemalloc.start()
        try:
            real_emit(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", emit)
    log = tmp_path / "log.csv"
    assert cli.main(["--scenario", str(scenario), "--out", str(log)]) == 0
    size = log.stat().st_size
    assert size > 1_500_000
    assert peaks[0] < size / 4


def test_the_line_memo_holds_at_most_its_bound_of_lines(tmp_path):
    """Parsed from pieces, a trace of distinct sys lines allocates, beyond
    what the parse keeps, one piece's text and lines and at most
    _MEMO_LINES memo keys with their dict slots.  A memo of every distinct
    line would hold six times as many keys."""
    line = '{"ev":"sys","pid":2,"call":"open","path":"/home/u/f%06d","flags":["O_WRONLY"]}\n'
    n = 6 * engine._MEMO_LINES
    path = tmp_path / "distinct.jsonl"
    path.write_text("".join(line % i for i in range(n)), encoding="utf-8")
    key = sys.getsizeof(line.strip() % 0)
    piece_lines = engine._PIECE_CHARS // len(line % 0) + 1
    limit = 2 * engine._PIECE_CHARS + (engine._MEMO_LINES + piece_lines) * (key + 64)
    tracemalloc.start()
    try:
        events = engine.parse_scenario(cli._scenario_pieces(str(path)))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) == n and len({event[4] for event in events}) == n
    assert peak - retained < limit
