"""Shadow access-control list: parsing, storage, and permission decisions.

The list lives outside the guest it protects and is invisible to it.  Each
row pins one absolute path to a three-octet permission mask and an owning
uid/gid; a decision for a requester cascades owner -> group -> other exactly
like classic Unix mode bits.  Paths without a row are considered noncritical
and permitted.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

READ_BIT = 4
WRITE_BIT = 2
EXECUTE_BIT = 1

# A decision is the text the decision log prints.  Every decision is one of
# these two objects, so callers compare with ``is``.
PERMIT, DENY = "permit", "deny"


class SaclParseError(ValueError):
    """Malformed SACL text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, slots=True)
class PermissionOctets:
    """User/group/other octets, each 0..7 (read=4, write=2, execute=1)."""

    user: int
    group: int
    other: int

    def __post_init__(self):
        for octet in (self.user, self.group, self.other):
            if not isinstance(octet, int) or not 0 <= octet <= 7:
                raise ValueError(f"octet out of range 0..7: {octet!r}")

    @classmethod
    def from_text(cls, text: str) -> "PermissionOctets":
        """Parse a 3-character octal string such as "644".

        Returns the one shared instance for that text: octets are immutable
        values, so the 512 valid texts map to 512 objects however many SACL
        rows and guest files use them.
        """
        octets = _OCTETS_BY_TEXT.get(text)
        if octets is None:
            raise ValueError(f"not a 3-digit octal permission: {text!r}")
        return octets


_OCTETS_BY_TEXT = {
    f"{u}{g}{o}": PermissionOctets(u, g, o) for u in range(8) for g in range(8) for o in range(8)
}


@dataclass(frozen=True, slots=True)
class SaclRule:
    """Permission octets and owner uid/gid, shared by every row naming the
    same triple.  uid/gid 0 denote the root user and root group."""

    perms: PermissionOctets
    owner_uid: int
    owner_gid: int

    def __post_init__(self):
        if self.owner_uid < 0 or self.owner_gid < 0:
            raise ValueError("owner uid/gid must be non-negative")


class Sacl:
    """The shadow list, a plain dict from full path to a shared rule (amortized O(1))."""

    def __init__(self):
        self.entries: dict[str, SaclRule] = {}

    def lookup(self, path: str) -> SaclRule | None:
        """Exact full-path match; no prefix or glob semantics."""
        return self.entries.get(path)


def is_decimal(text: str) -> bool:
    """Non-empty and ASCII 0-9 only; str.isdigit also accepts digits such as
    "\u0661" and "\u00b2", which int() maps to another number or rejects."""
    return text.isascii() and text.isdigit()


def parse_sacl(text: str) -> Sacl:
    """Parse SACL file content into a list.

    Format: one entry per line, ``<absolute-path> <3-octal-digits> <uid>
    <gid>`` separated by spaces or tabs.  Blank lines and ``#`` comment
    lines are skipped.  Paths may not contain whitespace or NUL.  Duplicate
    or relative paths, bad octal digits, uid/gid other than ASCII decimal
    digits, and missing columns raise SaclParseError naming the line.

    Rows with the same (perm, uid, gid) texts share one SaclRule; a triple
    is validated the first time it is seen.
    """
    sacl = Sacl()
    entries = sacl.entries
    rules: dict[tuple[str, str, str], SaclRule] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # split() drops the whitespace strip() would, so the first field
        # starts where the stripped row does.
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 4:
            raise SaclParseError(line_no, f"expected 4 fields, got {len(fields)}")
        path, perm_text, uid_text, gid_text = fields
        if not path.startswith("/"):
            raise SaclParseError(line_no, f"path is not absolute: {path!r}")
        if "\0" in path:
            raise SaclParseError(line_no, f"path contains NUL: {path!r}")
        key = (perm_text, uid_text, gid_text)
        rule = rules.get(key)
        if rule is None:
            try:
                perms = PermissionOctets.from_text(perm_text)
            except ValueError as exc:
                raise SaclParseError(line_no, str(exc)) from None
            if not is_decimal(uid_text) or not is_decimal(gid_text):
                raise SaclParseError(line_no, "uid/gid must be decimal non-negative integers")
            try:
                uid, gid = int(uid_text), int(gid_text)
            except ValueError:  # more digits than int() converts
                raise SaclParseError(line_no, "uid/gid too large") from None
            rule = rules[key] = SaclRule(perms, uid, gid)
        if path in entries:
            raise SaclParseError(line_no, f"duplicate path: {path}")
        entries[path] = rule
    return sacl


def check_access(rule: SaclRule | None, uid: int, gid: int, bits: int) -> str:
    """Decide one fetched rule for a requester and the access bits it needs
    (one of ``READ_BIT``, ``WRITE_BIT``, ``EXECUTE_BIT`` or an OR of them).

    A missing rule (None) is a noncritical path and yields PERMIT; a present
    one permits only when every requested bit is in the octet governing the
    requester.  That octet is picked by the one owner -> group -> other
    cascade: on uid first, gid second, and exactly one octet applies.  The
    cascade is inline, so a SACL hit makes no more Python-level calls than
    a miss.  ``rule`` is a SaclRule or a GuestFile, or anything else that
    carries owner_uid, owner_gid and perms.  Pure function; no state is
    touched.
    """
    if rule is None:
        return PERMIT
    if uid == rule.owner_uid:
        octet = rule.perms.user
    elif gid == rule.owner_gid:
        octet = rule.perms.group
    else:
        octet = rule.perms.other
    return PERMIT if octet & bits == bits else DENY


def generate_full_sacl(files: Mapping) -> Sacl:
    """Build a permit-style list mirroring a guest tree's own metadata.

    ``files`` maps each path to a node carrying owner_uid, owner_gid and
    perms, as ``Guest.files`` does; emits one entry per path with the node's
    own permissions and owner copied verbatim.  Nodes with the same
    (perms, uid, gid) share one SaclRule.
    """
    sacl = Sacl()
    entries = sacl.entries
    rules: dict[tuple[PermissionOctets, int, int], SaclRule] = {}
    for path, f in files.items():
        if not path.startswith("/"):
            raise ValueError(f"path is not absolute: {path!r}")
        key = (f.perms, f.owner_uid, f.owner_gid)
        rule = rules.get(key)
        if rule is None:
            rule = rules[key] = SaclRule(*key)
        entries[path] = rule
    return sacl
