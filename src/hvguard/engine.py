"""Scenario trace format and the loop wiring guest, traps, and mediation.

A scenario is JSON-lines text, one event object per line (blank lines and
``#`` comments allowed):

    {"ev":"user","uid":1000,"gid":1000,"name":"user"}
    {"ev":"file","path":"/etc/shadow","uid":0,"gid":0,"perm":"640"}
    {"ev":"file","path":"/home/user","uid":1000,"gid":1000,"perm":"755","dir":true}
    {"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
    {"ev":"sudo","pid":2,"uid":0,"gid":0}
    {"ev":"forge","pid":2,"uid":0,"gid":0}
    {"ev":"sys","pid":2,"call":"open","path":"/etc/shadow","flags":["O_WRONLY"]}
    {"ev":"expect","decision":"deny"}

"sudo" is a trusted ownership change and updates the fork-time table,
which starts with init (pid 1) recorded as (0, 0); "forge" alters only
what the guest kernel believes, modeling an attacker rewriting process
credentials.  "expect" asserts on the immediately preceding sys event:
required key "decision" (permit|deny), optional "error" (one of the four
outcome error codes) and "status" (success|error).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TextIO

from .guest import (
    CALL_FAMILY,
    CLONE,
    ERROR_CODES,
    EXIT,
    INIT_PID,
    TRAPPED_CALLS,
    Guest,
    GuestError,
    SyscallEvent,
    SyscallOutcome,
)
from .mediator import OwnershipRecord, PolicyOptions, Verdict, apply_verdict, mediate
from .sacl import DENY, PERMIT, PermissionOctets, Sacl
from .trap import TrapMode, TrapSequenceRecord, arm, handle_trap, make_site

class ScenarioError(ValueError):
    """Invalid scenario text or an event the guest state cannot accept."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# A verdict is the log row of its call; its last field, probes, is not logged.
DECISION_LOG_COLUMNS = Verdict._fields[:8]
_CSV_BOOLS = ("false", "true")  # indexed by a bool


class Simulation:
    """Owns all mutable state for one run; strictly single-threaded.

    Every trapped call flows breakpoint-hit -> mediation callback ->
    forwarded (possibly nulled) event -> guest execution, with one trap
    record (the shared one its site's prologue picks) and one decision-log
    row per call.  ``trap_mode`` may also be given as the text
    ``--trap-mode`` takes; it picks the prologue of every armed site, which
    is the only record of it, and an unknown mode raises ``ValueError``.
    """

    def __init__(
        self,
        sacl: Sacl | None = None,
        options: PolicyOptions | None = None,
        trap_mode: TrapMode | str = TrapMode.CLASSIC4,
    ):
        self.sacl = sacl if sacl is not None else Sacl()
        self.options = options if options is not None else PolicyOptions()
        self.guest = Guest()
        # The fork-time record of every live pid, init's included.
        self.table = {INIT_PID: OwnershipRecord(0, 0)}
        self.sessions: dict[int, int] = {}
        self.clock = 0
        nop = TrapMode(trap_mode) is TrapMode.NOP2
        self.sites = {call: arm(make_site(call, nop_prologue=nop)) for call in TRAPPED_CALLS}
        self.records: list[TrapSequenceRecord] = []
        self.decisions: list[Verdict] = []
        self.outcomes: list[SyscallOutcome] = []

    # -- scenario events ----------------------------------------------------

    def add_user(self, uid: int) -> None:
        self.clock += 1
        self.guest.add_user(uid)

    def add_file(self, path, uid, gid, perms: PermissionOctets, is_directory=False) -> None:
        self.clock += 1
        self.guest.add_file(path, uid, gid, perms, is_directory)

    def spawn(self, parent_pid: int, uid: int, gid: int, pid: int | None = None) -> int:
        """Trusted process creation: the given credentials are recorded."""
        self.clock += 1
        pid = self.guest.spawn_process(parent_pid, uid, gid, pid=pid)
        self.table[pid] = OwnershipRecord(uid, gid)
        return pid

    def sudo(self, pid: int, uid: int, gid: int) -> None:
        """Legitimate credential change; a refused one (dead pid) leaves the
        guest and the ownership table as they were."""
        self.clock += 1
        self.guest.set_claimed(pid, uid, gid)
        self.table[pid] = OwnershipRecord(uid, gid)

    def forge_credentials(self, pid: int, uid: int, gid: int) -> None:
        """Attacker-style credential rewrite: the guest believes it, the
        ownership table does not."""
        self.clock += 1
        self.guest.set_claimed(pid, uid, gid)

    def syscall(
        self,
        pid: int,
        call: str,
        path: str | None = None,
        path2: str | None = None,
        flags=(),
    ) -> tuple[Verdict, SyscallOutcome]:
        """Decide and run a call of a pid that is recorded and alive; the
        verdict returned is the call's row in ``decisions``.  An exit drops
        its record; a clone's child (``guest.last_pid``) shares it."""
        self.clock = seq = self.clock + 1
        guest, table = self.guest, self.table
        if pid not in table or pid not in guest.processes:
            raise GuestError(f"pid {pid} is not alive")
        event = SyscallEvent(seq, pid, call, path, path2, frozenset(flags))
        record, (forwarded, verdict) = handle_trap(self.sites[call], event, self._on_trap)
        outcome = guest.execute_syscall(forwarded)
        family = CALL_FAMILY[call]
        if family is EXIT:
            del table[pid]
        elif family is CLONE and outcome.error is None:
            table[guest.last_pid] = table[pid]
        self.records.append(record)
        self.outcomes.append(outcome)
        self.decisions.append(verdict)
        return verdict, outcome

    def _on_trap(self, event: SyscallEvent) -> tuple[SyscallEvent, Verdict]:
        """Mediation callback run inside the trap: decides the event with the
        caller's claim from ``Guest.processes``."""
        return self._decide(event, self.guest.processes[event.pid])

    def _decide(self, event: SyscallEvent, claim: tuple[int, int]) -> tuple[SyscallEvent, Verdict]:
        """The one mediation step, and the only caller of ``mediate`` and
        ``apply_verdict``: returns (forwarded event, verdict)."""
        verdict = mediate(event, claim, self.sacl, self.table, self.options, self.sessions)
        return apply_verdict(event, verdict), verdict

    def decision_log(self, write: Callable[[str], object]) -> None:
        """Write the CSV log to ``write``: the header line, then one line per
        row, each formatted once, in pieces of ``_LOG_PIECE_ROWS`` rows, so
        no string of the whole log is built."""
        write(",".join(DECISION_LOG_COLUMNS) + "\n")
        decisions = self.decisions
        for start in range(0, len(decisions), _LOG_PIECE_ROWS):
            write("".join([
                f"{seq},{pid},{call},{uid},{gid},{decision},{reason},{_CSV_BOOLS[mismatch]}\n"
                for seq, pid, call, uid, gid, decision, reason, mismatch, _ in decisions[start:start + _LOG_PIECE_ROWS]
            ]))


# Rows per piece of the decision log that decision_log hands to its writer.
_LOG_PIECE_ROWS = 2048


@dataclass
class ScenarioResult:
    """A replay's outcome; each sys event that ran left one row in
    ``simulation.decisions``, since one that fails ends the replay."""

    simulation: Simulation
    expect_checks: int = 0
    mismatches: list[str] = field(default_factory=list)


# The C scanner under json.loads and raw_decode.  json.loads adds type, BOM
# and whitespace checks and raw_decode one more Python frame, which cost more
# than decoding a short event; a stripped line needs none of them.  It
# returns (value, end), or raises StopIteration when no value starts there.
_scan_once = json.JSONDecoder().scan_once


# Characters read from a scenario stream at a time.
_PIECE_CHARS = 1 << 16


def line_pieces(stream: TextIO) -> Iterator[str]:
    """The text of a ``newline=""`` stream in pieces of about
    ``_PIECE_CHARS`` characters, each ending where a line ends.  Such a
    stream's ``readline`` stops after "\n", "\r" or "\r\n" and never
    splits "\r\n", so no line break that ``str.splitlines`` knows
    straddles a cut."""
    while piece := stream.read(_PIECE_CHARS):
        yield piece + stream.readline()


def decode_line(line_no: int, line: str) -> dict:
    """One stripped scenario line that is neither blank nor a comment to
    its event dict.

    The line is one JSON document exactly when the decoder's scanner,
    started at its first character, ends at its end; any other line goes
    through ``json.loads`` so that the error message is the one
    ``json.loads`` gives.
    """
    try:
        obj, stop = _scan_once(line, 0)
    except (ValueError, RecursionError, StopIteration):
        stop = None
    if stop != len(line):
        try:
            obj = json.loads(line)
        # Besides JSONDecodeError: a plain ValueError for an int past the
        # digit limit, RecursionError for arrays or objects nested too deep.
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(line_no, f"bad JSON: {exc}") from None
    if not isinstance(obj, dict) or "ev" not in obj:
        raise ScenarioError(line_no, "event must be an object with an 'ev' key")
    return obj


# The kind of a parsed event, its second field.
SYS, EXPECT, USER, FILE, SPAWN, SUDO, FORGE, ERROR = range(8)

# An expect line's "status" or "error" key that is not there (null is a value).
_ABSENT = object()
# The values an expect line may give them; tuples, since a decoded value may
# be an unhashable list or object.
_STATUSES = ("success", "error")
_NO_FLAGS = frozenset()
# One str per call name, shared by every sys event instead of a decoded copy.
_CALL_NAMES = {call: call for call in CALL_FAMILY}
_ID_FIELDS = (("uid", 0), ("gid", 0))
_SPAWN_FIELDS = (("parent", 1), ("uid", 0), ("gid", 0), ("pid", 1))
_CREDENTIAL_FIELDS = (("pid", 1), ("uid", 0), ("gid", 0))


def parse_scenario(text: str | Iterable[str]) -> list[tuple]:
    """Scenario text to one flat tuple per event, in line order:

        (line_no, SYS, pid, call, path, path2, flags)
        (line_no, EXPECT, decision, status, error)   status, error may be _ABSENT
        (line_no, USER, uid)
        (line_no, FILE, path, uid, gid, perms, is_dir)
        (line_no, SPAWN, parent, uid, gid, pid)
        (line_no, SUDO or FORGE, pid, uid, gid)
        (line_no, ERROR, ScenarioError)

    The scenario comes as pieces of text that each end where a line ends,
    as ``line_pieces`` cuts them, or as a whole ``str``, which is one
    piece.  Only one piece's line strings are alive at once (for a whole
    ``str``, all of its lines), and the pieces' lines, and their numbers,
    are those of the whole text.  Within a piece, a stripped line seen
    before gives its earlier event again under its own line number, so it
    is decoded and checked once; an ERROR event is never reused.

    A line that does not decode (``decode_line``) raises here, so nothing
    is replayed.  A line whose fields are wrong becomes an ERROR event in
    its place, which ``run_scenario`` raises when the replay reaches it, so
    a guest error on an earlier line still wins.  Fields are type-tested
    inline, in the order their errors take precedence; ``_need`` and
    ``_int`` only word an error.  Whether a call name is known and a path
    absolute depends on the pid being alive first, so ``SyscallEvent``
    still checks both.  Every sys event with the same flag list holds the
    same frozenset.
    """
    if isinstance(text, str):
        text = (text,)
    events = []
    append = events.append
    flag_sets = {(): _NO_FLAGS}
    seen_sys = False
    line_no = 0
    parsed = {}  # each stripped line of the current piece -> its event
    for piece in text:
        for raw in piece.splitlines():
            line_no += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            event = parsed.get(line)
            if event is not None:
                append((line_no,) + event[1:])
                continue
            obj = decode_line(line_no, line)
            ev = obj["ev"]
            try:
                if ev == "sys":
                    pid, call = obj.get("pid"), obj.get("call", _ABSENT)
                    if type(pid) is not int or pid < 1:
                        _int(line_no, obj, "pid", 1)  # raises
                    if call is _ABSENT:
                        _need(line_no, obj, "call")  # raises
                    if type(call) is str:
                        call = _CALL_NAMES.get(call, call)
                    path, path2 = obj.get("path"), obj.get("path2")
                    if not (path is None or type(path) is str) or not (path2 is None or type(path2) is str):
                        raise ScenarioError(line_no, "'path' and 'path2' must be strings")
                    flags = obj.get("flags", _NO_FLAGS)
                    if flags is not _NO_FLAGS:
                        if type(flags) is not list:
                            raise ScenarioError(line_no, "'flags' must be a list of strings")
                        key = tuple(flags)
                        try:
                            flags = flag_sets[key]
                        except (KeyError, TypeError):  # new, or holding an unhashable value
                            if not all(type(flag) is str for flag in flags):
                                raise ScenarioError(line_no, "'flags' must be a list of strings") from None
                            flags = flag_sets[key] = frozenset(flags)
                    event = (line_no, SYS, pid, call, path, path2, flags)
                    seen_sys = True
                elif ev == "expect":
                    if not seen_sys:
                        raise ScenarioError(line_no, "'expect' with no preceding sys event")
                    wanted = obj.get("decision")
                    if wanted not in (PERMIT, DENY):
                        _need(line_no, obj, "decision")
                        raise ScenarioError(line_no, f"decision must be permit or deny, got {wanted!r}")
                    wanted = DENY if wanted == DENY else PERMIT  # a shared str, not the decoded one
                    status, error = obj.get("status", _ABSENT), obj.get("error", _ABSENT)
                    if status is not _ABSENT and status not in _STATUSES:
                        raise ScenarioError(line_no, f"'status' must be success or error, got {status!r}")
                    if error is not _ABSENT and error not in ERROR_CODES:
                        raise ScenarioError(line_no, f"'error' must be one of {', '.join(ERROR_CODES)}, got {error!r}")
                    event = (line_no, EXPECT, wanted, status, error)
                elif ev == "file":
                    path, is_dir, perm = obj.get("path"), obj.get("dir", False), obj.get("perm")
                    if type(path) is not str:
                        _need(line_no, obj, "path")
                        raise ScenarioError(line_no, f"'path' must be a string, got {path!r}")
                    if type(is_dir) is not bool:
                        raise ScenarioError(line_no, f"'dir' must be true or false, got {is_dir!r}")
                    if type(perm) is not str:
                        _need(line_no, obj, "perm")
                        raise ScenarioError(line_no, f"'perm' must be a string, got {perm!r}")
                    try:
                        perms = PermissionOctets.from_text(perm)
                    except ValueError as exc:
                        raise ScenarioError(line_no, str(exc)) from None
                    uid, gid = obj.get("uid"), obj.get("gid")
                    if type(uid) is not int or uid < 0 or type(gid) is not int or gid < 0:
                        _int_fields(line_no, obj, _ID_FIELDS)  # raises
                    event = (line_no, FILE, path, uid, gid, perms, is_dir)
                elif ev == "user":
                    event = (line_no, USER, _int_fields(line_no, obj, _ID_FIELDS)[0])
                elif ev == "spawn":
                    event = (line_no, SPAWN, *_int_fields(line_no, obj, _SPAWN_FIELDS))
                elif ev == "sudo":
                    event = (line_no, SUDO, *_int_fields(line_no, obj, _CREDENTIAL_FIELDS))
                elif ev == "forge":
                    event = (line_no, FORGE, *_int_fields(line_no, obj, _CREDENTIAL_FIELDS))
                else:
                    raise ScenarioError(line_no, f"unknown event type {ev!r}")
            except ScenarioError as exc:
                append((line_no, ERROR, exc))
                continue
            append(event)
            parsed[line] = event
        parsed.clear()  # an event is reused only within its piece
    return events


def _need(line_no: int, obj: dict, key: str):
    if key not in obj:
        raise ScenarioError(line_no, f"'{obj['ev']}' event missing key {key!r}")
    return obj[key]


def _int(line_no: int, obj: dict, key: str, least: int) -> int:
    """A required integer field no smaller than ``least`` (JSON true is no integer)."""
    value = _need(line_no, obj, key)
    if type(value) is not int or value < least:
        raise ScenarioError(line_no, f"{key!r} must be an integer >= {least}, got {value!r}")
    return value


def _int_fields(line_no: int, obj: dict, fields: tuple[tuple[str, int], ...]) -> tuple[int, ...]:
    """The (key, least) integer fields, checked in order."""
    return tuple(_int(line_no, obj, key, least) for key, least in fields)


def run_scenario(
    text: str | Iterable[str],
    sacl: Sacl | None = None,
    options: PolicyOptions | None = None,
    trap_mode: TrapMode | str = TrapMode.CLASSIC4,
) -> ScenarioResult:
    """Replay a scenario, whole or in pieces (see ``parse_scenario``);
    expectation mismatches are collected, not raised."""
    sim = Simulation(sacl=sacl, options=options, trap_mode=trap_mode)
    result = ScenarioResult(sim)
    last: tuple[Verdict, SyscallOutcome] | None = None

    # Reversed so that pop() hands out the events in order and drops each
    # one once it has run.
    events = parse_scenario(text)
    del text  # the replay needs only the events; a caller may hold none
    events.reverse()
    while events:
        event = events.pop()
        kind = event[1]
        try:
            if kind == SYS:
                _, _, pid, call, path, path2, flags = event
                last = sim.syscall(pid, call, path, path2, flags)
            elif kind == EXPECT:
                _check_expect(event, last, result)
            elif kind == FILE:
                _, _, path, uid, gid, perms, is_dir = event
                sim.add_file(path, uid, gid, perms, is_dir)
            elif kind == USER:
                sim.add_user(event[2])
            elif kind == SPAWN:
                _, _, parent, uid, gid, pid = event
                sim.spawn(parent, uid, gid, pid=pid)
            elif kind == SUDO:
                _, _, pid, uid, gid = event
                sim.sudo(pid, uid, gid)
            elif kind == FORGE:
                _, _, pid, uid, gid = event
                sim.forge_credentials(pid, uid, gid)
            else:
                raise event[2]
        except ScenarioError:
            raise
        except (GuestError, ValueError) as exc:
            raise ScenarioError(event[0], str(exc)) from None
    return result


def _check_expect(event: tuple, last, result: ScenarioResult) -> None:
    """An expect event always follows a sys event that has run: parse_scenario
    turns one without a sys line before it into an ERROR event."""
    line_no, _, wanted, status, error = event
    verdict, outcome = last
    result.expect_checks += 1
    got = verdict.decision
    if got != wanted:
        result.mismatches.append(f"line {line_no}: expected decision {wanted}, got {got}")
    if status is not _ABSENT:
        actual = "success" if outcome.success else "error"
        if status != actual:
            result.mismatches.append(f"line {line_no}: expected status {status}, got {actual}")
    if error is not _ABSENT:
        actual_err = outcome.error or "none"
        if error != actual_err:
            result.mismatches.append(f"line {line_no}: expected error {error}, got {actual_err}")
