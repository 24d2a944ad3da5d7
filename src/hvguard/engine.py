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

"sudo" is a trusted ownership change and updates the fork-time table;
"forge" alters only what the guest kernel believes, modeling an attacker
rewriting process credentials.  "expect" asserts on the immediately
preceding sys event: required key "decision" (permit|deny), optional
"error" (an outcome error code) and "status" (success|error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .guest import CALL_FAMILY, EXIT, TRAPPED_CALLS, Guest, GuestError, SyscallEvent, SyscallOutcome
from .mediator import (
    AuthConfig,
    OwnershipTable,
    PolicyOptions,
    Verdict,
    apply_verdict,
    mediate,
)
from .sacl import PermissionOctets, Sacl
from .trap import TrapMode, TrapSequenceRecord, arm, handle_trap, make_site

class ScenarioError(ValueError):
    """Invalid scenario text or an event the guest state cannot accept."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DecisionRow(NamedTuple):
    """One decision-log line, emitted per mediated sys event.

    A named tuple: built once per call, and a frozen dataclass costs several
    times as much to construct.
    """

    seq: int
    pid: int
    call: str
    resolved_uid: int
    resolved_gid: int
    decision: str
    reason: str
    mismatch: bool

    def csv(self) -> str:
        return (
            f"{self.seq},{self.pid},{self.call},{self.resolved_uid},"
            f"{self.resolved_gid},{self.decision},{self.reason},"
            f"{'true' if self.mismatch else 'false'}"
        )


DECISION_LOG_COLUMNS = DecisionRow._fields


class Simulation:
    """Owns all mutable state for one run; strictly single-threaded.

    Every trapped call flows breakpoint-hit -> mediation callback ->
    forwarded (possibly nulled) event -> guest execution, with one trap
    record (the shared one its site's prologue picks) and one decision-log
    row per call.
    """

    def __init__(
        self,
        sacl: Sacl | None = None,
        options: PolicyOptions | None = None,
        auth: AuthConfig | None = None,
    ):
        self.sacl = sacl if sacl is not None else Sacl()
        self.options = options if options is not None else PolicyOptions()
        self.auth = auth if auth is not None else AuthConfig()
        self.guest = Guest()
        self.table = OwnershipTable()
        self.sessions: dict[int, int] = {}
        self.clock = 0
        nop = self.options.trap_mode is TrapMode.NOP2
        self.sites = {call: arm(make_site(call, nop_prologue=nop)) for call in TRAPPED_CALLS}
        self.records: list[TrapSequenceRecord] = []
        self.decisions: list[DecisionRow] = []
        self.outcomes: list[SyscallOutcome] = []
        self.guest.on_clone = self._on_clone

    def _on_clone(self, child: int, parent: int) -> None:
        """A clone runs inside the guest, where credentials can be forged, so
        the child inherits its parent's fork-time record.  An untracked
        parent (init) passes on the credentials the guest gave the child."""
        proc = self.guest.processes[child]
        uid, gid, _ = self.table.resolve_owner(parent, proc.claimed_uid, proc.claimed_gid)
        self.table.on_fork(child, uid, gid)

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    # -- scenario events ----------------------------------------------------

    def add_user(self, uid: int) -> None:
        self._tick()
        self.guest.add_user(uid)

    def add_file(self, path, uid, gid, perms: PermissionOctets, is_directory=False) -> None:
        self._tick()
        self.guest.add_file(path, uid, gid, perms, is_directory)

    def spawn(self, parent_pid: int, uid: int, gid: int, pid: int | None = None) -> int:
        """Trusted process creation: the given credentials are recorded."""
        self._tick()
        pid = self.guest.spawn_process(parent_pid, uid, gid, pid=pid)
        self.table.on_fork(pid, uid, gid)
        return pid

    def sudo(self, pid: int, uid: int, gid: int) -> None:
        """Legitimate credential change; a refused one (dead or untracked
        pid) leaves the guest and the ownership table as they were."""
        self._tick()
        if pid in self.guest.processes:
            self.table.on_sudo(pid, uid, gid)
        self.guest.set_claimed(pid, uid, gid)

    def forge_credentials(self, pid: int, uid: int, gid: int) -> None:
        """Attacker-style credential rewrite: the guest believes it, the
        ownership table does not."""
        self._tick()
        self.guest.set_claimed(pid, uid, gid)

    def syscall(
        self,
        pid: int,
        call: str,
        path: str | None = None,
        path2: str | None = None,
        flags=(),
    ) -> tuple[Verdict, SyscallOutcome]:
        seq = self._tick()
        if pid not in self.guest.processes:
            raise GuestError(f"pid {pid} is not alive")
        event = SyscallEvent(seq, pid, call, path, path2, frozenset(flags))
        record, (forwarded, verdict) = handle_trap(self.sites[call], event, self._on_trap)
        outcome = self.guest.execute_syscall(forwarded)
        if CALL_FAMILY[call] is EXIT:
            self.table.on_exit(pid)
        self.records.append(record)
        self.outcomes.append(outcome)
        # _value_ is the member's plain attribute; .value runs a Python-level
        # descriptor on CPython 3.11.
        self.decisions.append(
            DecisionRow(
                seq,
                pid,
                call,
                verdict.resolved_uid,
                verdict.resolved_gid,
                verdict.decision._value_,
                verdict.reason._value_,
                verdict.mismatch,
            )
        )
        return verdict, outcome

    def _on_trap(self, event: SyscallEvent) -> tuple[SyscallEvent, Verdict]:
        """Mediation callback run inside the trap: decides the event with the
        caller's claimed credentials; returns (forwarded event, verdict)."""
        proc = self.guest.processes[event.pid]
        verdict = mediate(
            event,
            proc.claimed_uid,
            proc.claimed_gid,
            self.sacl,
            self.table,
            self.options,
            self.auth,
            self.sessions,
        )
        return apply_verdict(event, verdict), verdict

    def decision_log(self) -> str:
        lines = [",".join(DECISION_LOG_COLUMNS)]
        lines.extend(row.csv() for row in self.decisions)
        return "\n".join(lines) + "\n"


@dataclass
class ScenarioResult:
    simulation: Simulation
    sys_events: int = 0
    expect_checks: int = 0
    mismatches: list[str] = field(default_factory=list)


# json.loads wraps this same decoder call in type, BOM and two whitespace
# checks, which cost more than decoding a short event; a stripped line needs
# none of them.
_raw_decode = json.JSONDecoder().raw_decode


def parse_scenario(text: str) -> list[tuple[int, dict]]:
    """JSON-lines to (line_no, event dict) pairs, validated structurally.

    A stripped line is one JSON document exactly when ``raw_decode`` ends at
    its end; any other line goes through ``json.loads`` so that the error
    message is the one ``json.loads`` gives.
    """
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj, end = _raw_decode(line)
        except (ValueError, RecursionError):
            end = None
        if end != len(line):
            try:
                obj = json.loads(line)
            # Besides JSONDecodeError: a plain ValueError for an int past the
            # digit limit, RecursionError for arrays or objects nested too deep.
            except (ValueError, RecursionError) as exc:
                raise ScenarioError(line_no, f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "ev" not in obj:
            raise ScenarioError(line_no, "event must be an object with an 'ev' key")
        events.append((line_no, obj))
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


def _pid(line_no: int, obj: dict, key: str = "pid") -> int:
    return _int(line_no, obj, key, 1)


def _ids(line_no: int, obj: dict) -> tuple[int, int]:
    return _int(line_no, obj, "uid", 0), _int(line_no, obj, "gid", 0)


def run_scenario(
    text: str,
    sacl: Sacl | None = None,
    options: PolicyOptions | None = None,
    auth: AuthConfig | None = None,
) -> ScenarioResult:
    """Replay a scenario; expectation mismatches are collected, not raised."""
    sim = Simulation(sacl=sacl, options=options, auth=auth)
    result = ScenarioResult(sim)
    last: tuple[Verdict, SyscallOutcome] | None = None

    # Reversed so that pop() hands out the events in order and drops each
    # (line, event) pair once it has run.
    events = parse_scenario(text)
    events.reverse()
    while events:
        line_no, obj = events.pop()
        ev = obj["ev"]
        try:
            if ev == "sys":
                pid = _pid(line_no, obj)
                call = _need(line_no, obj, "call")
                path, path2 = obj.get("path"), obj.get("path2")
                flags = obj.get("flags", [])
                if not (path is None or type(path) is str) or not (path2 is None or type(path2) is str):
                    raise ScenarioError(line_no, "'path' and 'path2' must be strings")
                if type(flags) is not list:
                    raise ScenarioError(line_no, "'flags' must be a list of strings")
                for flag in flags:
                    if type(flag) is not str:
                        raise ScenarioError(line_no, "'flags' must be a list of strings")
                last = sim.syscall(pid, call, path, path2, flags)
                result.sys_events += 1
            elif ev == "expect":
                if last is None:
                    raise ScenarioError(line_no, "'expect' with no preceding sys event")
                _check_expect(line_no, obj, last, result)
            elif ev == "user":
                uid, _ = _ids(line_no, obj)
                sim.add_user(uid)
            elif ev == "file":
                path = _need(line_no, obj, "path")
                is_dir = obj.get("dir", False)
                if type(path) is not str:
                    raise ScenarioError(line_no, f"'path' must be a string, got {path!r}")
                if type(is_dir) is not bool:
                    raise ScenarioError(line_no, f"'dir' must be true or false, got {is_dir!r}")
                perms = PermissionOctets.from_text(str(_need(line_no, obj, "perm")))
                sim.add_file(path, *_ids(line_no, obj), perms, is_dir)
            elif ev == "spawn":
                sim.spawn(_pid(line_no, obj, "parent"), *_ids(line_no, obj), pid=_pid(line_no, obj))
            elif ev == "sudo":
                sim.sudo(_pid(line_no, obj), *_ids(line_no, obj))
            elif ev == "forge":
                sim.forge_credentials(_pid(line_no, obj), *_ids(line_no, obj))
            else:
                raise ScenarioError(line_no, f"unknown event type {ev!r}")
        except ScenarioError:
            raise
        except (GuestError, ValueError) as exc:
            raise ScenarioError(line_no, str(exc)) from None
        except KeyError as exc:
            # str() of a KeyError quotes its message.
            raise ScenarioError(line_no, exc.args[0]) from None
    return result


def _check_expect(line_no: int, obj: dict, last, result: ScenarioResult) -> None:
    verdict, outcome = last
    result.expect_checks += 1
    wanted = _need(line_no, obj, "decision")
    if wanted not in ("permit", "deny"):
        raise ScenarioError(line_no, f"decision must be permit or deny, got {wanted!r}")
    got = verdict.decision._value_
    if got != wanted:
        result.mismatches.append(f"line {line_no}: expected decision {wanted}, got {got}")
    if "status" in obj:
        actual = "success" if outcome.success else "error"
        if obj["status"] != actual:
            result.mismatches.append(
                f"line {line_no}: expected status {obj['status']}, got {actual}"
            )
    if "error" in obj:
        actual_err = outcome.error.value if outcome.error else "none"
        if obj["error"] != actual_err:
            result.mismatches.append(
                f"line {line_no}: expected error {obj['error']}, got {actual_err}"
            )
