"""Per-syscall mediation: policy checks, ownership integrity, 2-step auth.

The mediation callback decides every trapped call in a fixed order: hard
kernel-integrity denials first, then a challenge-response attempt on opens
under /tokens/, owner resolution against the fork-time table, the
authentication gate, the execute white-list, and finally the per-path shadow
list checks.  A denial never raises; it nulls the event's first pointer slot
so the call fails naturally inside the guest.
"""

from __future__ import annotations

import hashlib
import hmac
import posixpath
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .guest import (
    CALL_FAMILY,
    CLONE,
    EXEC,
    EXIT,
    HANDLE,
    IMAGE,
    KEXEC,
    LINK,
    OPEN,
    RENAME,
    SYMLINK,
    TRUNCATE,
    UNLINK,
    WRITE_INTENT_FLAGS,
    SyscallEvent,
)
from .sacl import AccessKind, Decision, Sacl, check_access
from .trap import TrapMode

TOKEN_PREFIX = "/tokens/"
RESPONSE_HEX_LEN = 128  # SHA-512 digest length in hex characters

# Unconditionally blocked families: module loading, kernel swapping, and the
# two handle-based calls that bypass path-based checks.
_HARD_DENIED_FAMILIES = (IMAGE, KEXEC, HANDLE)
HARD_DENIED_CALLS = frozenset(
    call for call, family in CALL_FAMILY.items() if family in _HARD_DENIED_FAMILIES
)


class Reason(Enum):
    PERMIT = "permit"
    SACL_DENY = "sacl_deny"
    HARD_DENIED_CALL = "hard_denied_call"
    UNAUTHENTICATED = "unauthenticated"
    WHITELIST_MISS = "whitelist_miss"


@dataclass(frozen=True, slots=True)
class OwnershipRecord:
    uid: int
    gid: int


class OwnershipTable:
    """Authoritative (uid, gid) per live pid, captured at fork time.

    Updated only by trusted fork/sudo/exit notifications; a claimed
    credential that disagrees with the record is reported as a mismatch and
    the record wins.
    """

    def __init__(self):
        self._records: dict[int, OwnershipRecord] = {}

    def on_fork(self, pid: int, uid: int, gid: int) -> None:
        if pid in self._records:
            raise ValueError(f"pid {pid} already tracked")
        self._records[pid] = OwnershipRecord(uid, gid)

    def on_sudo(self, pid: int, new_uid: int, new_gid: int) -> None:
        """Legitimate ownership change of a tracked pid."""
        if pid not in self._records:
            raise KeyError(f"pid {pid} not tracked")
        self._records[pid] = OwnershipRecord(new_uid, new_gid)

    def on_exit(self, pid: int) -> None:
        self._records.pop(pid, None)

    def get(self, pid: int) -> OwnershipRecord | None:
        return self._records.get(pid)

    def resolve_owner(self, pid: int, claimed_uid: int, claimed_gid: int):
        """Recorded creds win when present; returns (uid, gid, mismatch)."""
        record = self._records.get(pid)
        if record is None:
            return claimed_uid, claimed_gid, False
        mismatch = record.uid != claimed_uid or record.gid != claimed_gid
        return record.uid, record.gid, mismatch

    def __contains__(self, pid: int) -> bool:
        return pid in self._records


@dataclass(frozen=True)
class AuthConfig:
    """Challenge-response configuration.

    A uid with a shared secret must authenticate; every other uid is
    implicitly always authenticated.  The window is counted in logical event
    ticks.
    """

    secrets: Mapping[int, str] = field(default_factory=dict)
    window: int = 300

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("auth window must be positive")


@dataclass(frozen=True)
class PolicyOptions:
    exec_whitelist: bool = False
    trap_mode: TrapMode = TrapMode.CLASSIC4


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reason: Reason
    checks: tuple  # (path, AccessKind, Decision) per consulted pair
    resolved_uid: int
    resolved_gid: int
    mismatch: bool
    probes: int  # SACL lookups performed, priced by trap.cost_of


def required_checks(event: SyscallEvent) -> list[tuple[str, AccessKind]]:
    """The (path, access kind) pairs a file-operation call must pass.

    open: read and/or write on the target per flags, plus write on the
    parent directory when creating.  rename: write on both names and both
    parents.  unlink: write on the name and its parent.  truncate: write on
    the name.  link/symlink: write on the new name and its parent.  exec:
    execute on the target.  Null slots contribute no checks; non-file calls
    are a caller error.
    """
    family = CALL_FAMILY[event.call]
    path = event.path
    if family is OPEN:
        if path is None:
            return []
        flags = event.flags
        if "O_RDWR" in flags:
            checks = [(path, AccessKind.READ), (path, AccessKind.WRITE)]
        elif flags.isdisjoint(WRITE_INTENT_FLAGS):
            checks = [(path, AccessKind.READ)]
        else:
            checks = [(path, AccessKind.WRITE)]
        if "O_CREAT" in flags:
            checks.append((posixpath.dirname(path), AccessKind.WRITE))
        return checks
    if family is RENAME:
        path2 = event.path2
        if path is not None and path2 is not None:
            return [
                (path, AccessKind.WRITE),
                (path2, AccessKind.WRITE),
                (posixpath.dirname(path), AccessKind.WRITE),
                (posixpath.dirname(path2), AccessKind.WRITE),
            ]
        return _write_with_parent(path if path2 is None else path2)
    if family is UNLINK:
        return _write_with_parent(path)
    if family is TRUNCATE:
        return [] if path is None else [(path, AccessKind.WRITE)]
    if family is LINK or family is SYMLINK:
        return _write_with_parent(event.path2)
    if family is EXEC:
        return [] if path is None else [(path, AccessKind.EXECUTE)]
    raise ValueError(f"not a file-operation call: {event.call!r}")


def _write_with_parent(path: str | None) -> list[tuple[str, AccessKind]]:
    if path is None:
        return []
    return [(path, AccessKind.WRITE), (posixpath.dirname(path), AccessKind.WRITE)]


def _is_lower_hex(text: str) -> bool:
    return all(c in "0123456789abcdef" for c in text)


def token_response(challenge: str, secret: str) -> str:
    """The expected response string: SHA-512 hex of challenge + secret."""
    return hashlib.sha512((challenge + secret).encode()).hexdigest()


def try_token_auth(
    path: str | None,
    pid: int,
    table: OwnershipTable,
    config: AuthConfig,
    sessions: dict[int, int],
    seq: int,
) -> bool:
    """Treat an open under /tokens/ as a challenge-response attempt.

    The file name encodes <challenge><response> where the response is the
    trailing 128 lowercase hex characters.  On a digest match the caller's
    fork-time uid becomes authenticated through seq + window.  Returns True
    whenever the path was a token attempt, verified or not; the open itself
    still reaches the guest and fails against the artificial path.
    """
    if path is None or not path.startswith(TOKEN_PREFIX):
        return False
    blob = path[len(TOKEN_PREFIX):]
    if len(blob) < RESPONSE_HEX_LEN:
        return True
    challenge, response = blob[:-RESPONSE_HEX_LEN], blob[-RESPONSE_HEX_LEN:]
    if not _is_lower_hex(response):
        return True
    record = table.get(pid)
    if record is None:
        return True
    secret = config.secrets.get(record.uid)
    if secret is None:
        return True
    if hmac.compare_digest(token_response(challenge, secret), response):
        sessions[record.uid] = seq + config.window
    return True


def is_authenticated(sessions: dict[int, int], uid: int, config: AuthConfig, seq: int) -> bool:
    """Valid through the recorded expiry seq inclusive; uids without a
    secret are always authenticated."""
    if uid not in config.secrets:
        return True
    expiry = sessions.get(uid)
    return expiry is not None and seq <= expiry


def mediate(
    event: SyscallEvent,
    claimed_uid: int,
    claimed_gid: int,
    sacl: Sacl,
    table: OwnershipTable,
    options: PolicyOptions,
    config: AuthConfig,
    sessions: dict[int, int],
) -> Verdict:
    """Decide one trapped call.

    Order: (1) hard-denied calls; (2) token-auth attempt on /tokens/ opens,
    which never denies by itself; (3) owner resolution; (4) a uid with a
    secret but no live session is denied any path that has a SACL entry;
    (5) under execute white-listing an unlisted exec target is denied; (6)
    every required (path, kind) pair is checked against the SACL with
    unlisted paths permitted by default.  The event's seq is the clock that
    token sessions are opened and checked against.
    """
    family, seq = CALL_FAMILY[event.call], event.seq
    resolved_uid, resolved_gid, mismatch = table.resolve_owner(
        event.pid, claimed_uid, claimed_gid
    )

    if family in _HARD_DENIED_FAMILIES:
        return Verdict(
            Decision.DENY, Reason.HARD_DENIED_CALL, (), resolved_uid, resolved_gid, mismatch, 0
        )

    if family is OPEN:
        try_token_auth(event.path, event.pid, table, config, sessions, seq)

    checks = () if family is EXIT or family is CLONE else required_checks(event)

    probes = 0
    if not is_authenticated(sessions, resolved_uid, config, seq):
        seen = set()
        for path, _ in checks:
            if path in seen:
                continue
            seen.add(path)
            probes += 1
            if sacl.lookup(path) is not None:
                return Verdict(
                    Decision.DENY, Reason.UNAUTHENTICATED, (), resolved_uid, resolved_gid, mismatch, probes
                )

    if options.exec_whitelist and family is EXEC:
        probes += 1
        if event.path is None or sacl.lookup(event.path) is None:
            return Verdict(
                Decision.DENY, Reason.WHITELIST_MISS, (), resolved_uid, resolved_gid, mismatch, probes
            )

    probes += len(checks)
    results = []
    denied = False
    for path, kind in checks:
        decision = check_access(sacl, path, resolved_uid, resolved_gid, kind)
        results.append((path, kind, decision))
        if decision is Decision.DENY:
            denied = True
    if denied:
        return Verdict(
            Decision.DENY, Reason.SACL_DENY, tuple(results), resolved_uid, resolved_gid, mismatch, probes
        )
    return Verdict(
        Decision.PERMIT, Reason.PERMIT, tuple(results), resolved_uid, resolved_gid, mismatch, probes
    )


def apply_verdict(event: SyscallEvent, verdict: Verdict) -> SyscallEvent:
    """Permit forwards the event untouched; deny nulls its first pointer
    slot so the guest fails the call naturally instead of being told no.
    ``nulled`` does not validate the event a second time.  ``Verdict`` stays
    a frozen dataclass for acceptance criterion 6 (see README)."""
    if verdict.decision is Decision.PERMIT or event.path is None:
        return event
    return event.nulled()
