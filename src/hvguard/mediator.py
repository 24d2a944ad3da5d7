"""Per-syscall mediation: policy checks, ownership integrity, 2-step auth.

The mediation callback decides every trapped call in a fixed order: hard
kernel-integrity denials first, then a challenge-response attempt on opens
under /tokens/, owner resolution against the fork-time table, and then one
fetch of each distinct path's shadow-list rule, which feeds the
authentication gate, the execute white-list and the per-path checks, in that
order of precedence.  A denial never raises; it nulls the event's first
pointer slot so the call fails naturally inside the guest.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .guest import (
    BARRED,
    CALL_FAMILY,
    CLONE,
    EXEC,
    EXIT,
    IMAGE,
    LINK,
    OPEN,
    RENAME,
    SYMLINK,
    TRUNCATE,
    UNLINK,
    WRITE_INTENT_FLAGS,
    SyscallEvent,
    parent_dir,
)
from .sacl import DENY, EXECUTE_BIT, PERMIT, READ_BIT, WRITE_BIT, Sacl, check_access

TOKEN_PREFIX = "/tokens/"
RESPONSE_HEX_LEN = 128  # SHA-512 digest length in hex characters

_READ_WRITE = READ_BIT | WRITE_BIT
_tuple_new = tuple.__new__


# Why a call was decided as it was, in the text the log prints; a permit's
# reason is PERMIT itself.
SACL_DENY = "sacl_deny"
HARD_DENIED_CALL = "hard_denied_call"
UNAUTHENTICATED = "unauthenticated"
WHITELIST_MISS = "whitelist_miss"


class OwnershipRecord(NamedTuple):
    """The authoritative (uid, gid) of a live pid, captured at fork time.

    The ownership table is a plain ``dict[int, OwnershipRecord]`` holding
    one record per live pid, init's included; only trusted spawn, sudo,
    clone and exit events change it.
    """

    uid: int
    gid: int


@dataclass(frozen=True)
class PolicyOptions:
    """What mediation reads besides the call, the SACL and the two tables.

    Under ``exec_whitelist`` an exec whose target has no SACL rule is
    denied.  A uid with a shared secret in ``secrets`` must authenticate;
    every other uid is implicitly always authenticated.  A verified token
    opens a session for ``window`` logical event ticks.
    """

    exec_whitelist: bool = False
    secrets: Mapping[int, str] = field(default_factory=dict)
    window: int = 300

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("auth window must be positive")


class Verdict(NamedTuple):
    """The decision on one trapped call and what it rests on; its first
    eight fields are the decision log's columns, so it is the log's row.

    An immutable named tuple, which ``mediate`` builds with
    ``tuple.__new__``: a frozen dataclass cost about six times as much.
    """

    seq: int
    pid: int
    call: str
    resolved_uid: int
    resolved_gid: int
    decision: str  # PERMIT or DENY
    reason: str  # PERMIT, SACL_DENY, HARD_DENIED_CALL, UNAUTHENTICATED or WHITELIST_MISS
    mismatch: bool
    probes: int  # distinct paths named, one SACL fetch each; priced by trap.cost_of


def required_checks(event: SyscallEvent) -> dict[str, int]:
    """Each distinct path a file-operation call names, mapped to the OR of
    the access bits it needs there.

    open: read on the target unless it is opened write-only (``O_WRONLY``
    without ``O_RDWR``), since the guest then reads the file it finds; write
    on it with any write-intent flag; and write on the parent directory when
    creating.  So ``O_CREAT`` without an access mode needs both.  rename:
    write on both names and both parents.  unlink: write on the name and its
    parent.  truncate: write on the name.  link/symlink: write on the new
    name and its parent.  exec: execute on the target.  Null slots
    contribute no paths; non-file calls are a caller error.
    """
    _, _, call, path, path2, flags = event
    family = CALL_FAMILY[call]
    if family is OPEN:
        if path is None:
            return {}
        if "O_RDWR" in flags:
            checks = {path: _READ_WRITE}
        elif "O_WRONLY" in flags:
            checks = {path: WRITE_BIT}
        elif flags.isdisjoint(WRITE_INTENT_FLAGS):
            checks = {path: READ_BIT}
        else:
            checks = {path: _READ_WRITE}
        if "O_CREAT" in flags:
            parent = parent_dir(path)
            checks[parent] = checks.get(parent, 0) | WRITE_BIT
        return checks
    # Rename, unlink, link and symlink need write on one name and its
    # parent, unless a rename names both.
    if family is RENAME:
        if path2 is not None:
            if path is not None:
                return {
                    path: WRITE_BIT,
                    path2: WRITE_BIT,
                    parent_dir(path): WRITE_BIT,
                    parent_dir(path2): WRITE_BIT,
                }
            path = path2
    elif family is LINK or family is SYMLINK:
        path = path2
    elif family is TRUNCATE:
        return {} if path is None else {path: WRITE_BIT}
    elif family is EXEC:
        return {} if path is None else {path: EXECUTE_BIT}
    elif family is not UNLINK:
        raise ValueError(f"not a file-operation call: {call!r}")
    return {} if path is None else {path: WRITE_BIT, parent_dir(path): WRITE_BIT}


# Whether a whole str is lowercase hex digits; "[0-9]" in a str pattern is
# the ten ASCII digits, not every Unicode decimal.
_is_lower_hex = re.compile("[0-9a-f]*").fullmatch


def token_response(challenge: str, secret: str) -> str:
    """The expected response string: SHA-512 hex of challenge + secret."""
    return hashlib.sha512((challenge + secret).encode()).hexdigest()


def try_token_auth(
    path: str | None,
    pid: int,
    table: dict[int, OwnershipRecord],
    options: PolicyOptions,
    sessions: dict[int, int],
    seq: int,
) -> bool:
    """Treat an open under /tokens/ as a challenge-response attempt.

    The file name encodes <challenge><response> where the response is the
    trailing 128 lowercase hex characters.  On a digest match the caller's
    fork-time uid becomes authenticated through seq + window.  Returns True
    whenever the path was a token attempt, verified or not; the open itself
    still reaches the guest and fails against the artificial path.  A
    challenge UTF-8 cannot encode (a lone surrogate the guest put in its
    path) has no digest, so it is a rejected attempt.
    """
    if path is None or not path.startswith(TOKEN_PREFIX):
        return False
    blob = path[len(TOKEN_PREFIX):]
    if len(blob) < RESPONSE_HEX_LEN:
        return True
    challenge, response = blob[:-RESPONSE_HEX_LEN], blob[-RESPONSE_HEX_LEN:]
    if not _is_lower_hex(response):
        return True
    uid = table[pid].uid
    secret = options.secrets.get(uid)
    if secret is None:
        return True
    try:
        expected = token_response(challenge, secret)
    except UnicodeEncodeError:
        return True
    if hmac.compare_digest(expected, response):
        sessions[uid] = seq + options.window
    return True


def mediate(
    event: SyscallEvent,
    claim: tuple[int, int],
    sacl: Sacl,
    table: dict[int, OwnershipRecord],
    options: PolicyOptions,
    sessions: dict[int, int],
) -> Verdict:
    """Decide one trapped call.

    Order: (1) hard-denied calls; (2) token-auth attempt on /tokens/ opens
    when any uid has a secret, which never denies by itself; (3) owner
    resolution: the pid's fork-time record in ``table`` wins, and a claim,
    the (uid, gid) the guest believes, that differs from it is flagged as a
    mismatch; (4) one SACL fetch per distinct required path, each decided
    on its fetched rule with unlisted paths permitted by default.  The fetched rules then decide, in order of
    precedence: a uid with a secret but no live session is denied if any
    path has a rule; under execute white-listing an exec whose target has no
    rule is denied; any denied path denies the call.  The event's seq is the
    clock that token sessions are opened and checked against.  The verdict
    carries the event's seq, pid and call, so it is the call's log row.
    """
    seq, pid, call, path, _, _ = event
    family = CALL_FAMILY[call]
    secrets = options.secrets
    record = table[pid]
    resolved_uid, resolved_gid = record
    mismatch = record != claim

    # Unconditionally blocked: module loading, kernel swapping, and the two
    # handle-based calls that bypass path-based checks.
    if family is IMAGE or family is BARRED:
        return _tuple_new(Verdict, (seq, pid, call, resolved_uid, resolved_gid, DENY, HARD_DENIED_CALL, mismatch, 0))

    if family is OPEN and secrets:
        try_token_auth(path, pid, table, options, sessions, seq)

    checks = {} if family is EXIT or family is CLONE else required_checks(event)

    # Plain loops: any() over a generator made this path about 1.5x slower.
    # A hit makes the same Python-level calls as a miss: check_access holds
    # the owner -> group -> other cascade inline.
    get = sacl.entries.get
    listed = denied = False
    for checked, bits in checks.items():
        rule = get(checked)
        if rule is not None:
            listed = True
        if check_access(rule, resolved_uid, resolved_gid, bits) is DENY:
            denied = True

    # Only a uid with a secret needs a session, valid through its recorded
    # expiry seq inclusive; -1 stands for none, below every event's seq.
    if listed and resolved_uid in secrets and sessions.get(resolved_uid, -1) < seq:
        decision, reason = DENY, UNAUTHENTICATED
    elif not listed and family is EXEC and options.exec_whitelist:
        decision, reason = DENY, WHITELIST_MISS
    elif denied:
        decision, reason = DENY, SACL_DENY
    else:
        decision, reason = PERMIT, PERMIT
    return _tuple_new(
        Verdict, (seq, pid, call, resolved_uid, resolved_gid, decision, reason, mismatch, len(checks))
    )


def apply_verdict(event: SyscallEvent, verdict: Verdict) -> SyscallEvent:
    """Permit forwards the event untouched; deny nulls its first pointer
    slot so the guest fails the call naturally instead of being told no.
    ``nulled`` does not validate the event a second time."""
    if verdict.decision is PERMIT or event.path is None:
        return event
    return event.nulled()
