"""Deterministic model of the protected guest: users, processes, file tree.

The guest applies its own permission bits after mediation, so a permissive
shadow list can never grant an access the guest itself forbids.  Syscall
outcomes are values, never exceptions; a nulled argument slot produced by a
denial surfaces as the error code the corresponding shell transcript shows.
File contents are not modeled, only existence, ownership, and permissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .sacl import EXECUTE_BIT, PERMIT, READ_BIT, WRITE_BIT, PermissionOctets, check_access

# Every layer branches on a call's family, never on its name.  IMAGE: module
# loading and unloading and the handle open, whose first slot the guest
# never resolves as a path; KEXEC: kernel swapping, from memory or a file;
# HANDLE: a path turned into a handle.
# Reading a member from its class runs Python-level code on CPython 3.11, so
# the layers compare against these module constants.
Family = Enum("Family", "OPEN RENAME UNLINK TRUNCATE LINK SYMLINK EXEC EXIT CLONE IMAGE KEXEC HANDLE")
OPEN, RENAME, UNLINK, TRUNCATE, LINK, SYMLINK, EXEC, EXIT, CLONE, IMAGE, KEXEC, HANDLE = Family

# The one place a call is declared: every trapped call and its family.  The
# hypervisor interposes on every file-operation and kernel-access call, and
# traps clone only to track processes.
CALL_FAMILY = {
    "open": OPEN,
    "openat": OPEN,
    "name_to_handle_at": HANDLE,
    "open_by_handle_at": IMAGE,
    "rename": RENAME,
    "renameat": RENAME,
    "renameat2": RENAME,
    "unlink": UNLINK,
    "unlinkat": UNLINK,
    "truncate": TRUNCATE,
    "link": LINK,
    "linkat": LINK,
    "symlink": SYMLINK,
    "symlinkat": SYMLINK,
    "execve": EXEC,
    "execveat": EXEC,
    "exit": EXIT,
    "exit_group": EXIT,
    "init_module": IMAGE,
    "finit_module": IMAGE,
    "delete_module": IMAGE,
    "kexec_load": KEXEC,
    "kexec_file_load": KEXEC,
    "clone": CLONE,
}
TRAPPED_CALLS = tuple(CALL_FAMILY)

# open(2) flag vocabulary understood by the model.
WRITE_INTENT_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"})
# The flags that write to a file the open finds already in place.
_WRITE_EXISTING_FLAGS = WRITE_INTENT_FLAGS - {"O_CREAT"}

INIT_PID = 1

_DEFAULT_FILE_PERMS = PermissionOctets.from_text("644")
_DEFAULT_DIR_PERMS = PermissionOctets.from_text("755")
_SYMLINK_PERMS = PermissionOctets.from_text("777")
_tuple_new = tuple.__new__

# The error a failed call reports, in the text the log and expect lines use.
ERROR_CODES = BAD_ADDRESS, BAD_FILE_DESCRIPTOR, NO_SUCH_FILE, PERMISSION_DENIED = (
    "bad_address",
    "bad_file_descriptor",
    "no_such_file",
    "permission_denied",
)


@dataclass(frozen=True, slots=True)
class SyscallOutcome:
    """Success (error is None) or a failure carrying exactly one code."""

    error: str | None = None  # one of ERROR_CODES

    @property
    def success(self) -> bool:
        return self.error is None


# Outcomes are immutable values, so every call shares these instances, which
# the guest returns by name.
_OK = SyscallOutcome(None)
_BAD_ADDRESS = SyscallOutcome(BAD_ADDRESS)
_BAD_FILE_DESCRIPTOR = SyscallOutcome(BAD_FILE_DESCRIPTOR)
_NO_SUCH_FILE = SyscallOutcome(NO_SUCH_FILE)
_PERMISSION_DENIED = SyscallOutcome(PERMISSION_DENIED)


@dataclass(slots=True, eq=False)
class GuestFile:
    """One tree node; ``Guest.files`` maps each of its names to it, so hard
    links share one node and a rename moves it.

    A node is a file, not a value: two nodes with equal fields are two
    files, so nodes compare and hash by identity.  Not frozen: a frozen
    dataclass's ``__init__`` stores each field through
    ``object.__setattr__``, which made building a node about four times
    dearer.  No code assigns a field, which a static test checks.
    """

    owner_uid: int
    owner_gid: int
    perms: PermissionOctets
    is_directory: bool = False


_ROOT_DIR = GuestFile(0, 0, _DEFAULT_DIR_PERMS, True)  # "/" exists implicitly


class _EventFields(NamedTuple):
    seq: int
    pid: int
    call: str
    path: str | None = None
    path2: str | None = None
    flags: frozenset[str] = frozenset()


class SyscallEvent(_EventFields):
    """One trapped call, validated once when it is built.

    Argument slots mirror the 64-bit calling convention's register order:
    ``path`` is the first pointer-carrying slot (source for rename, target
    for symlink, module image for init_module), ``path2`` the second (rename
    destination, new name for link/symlink).  None is the null-address
    marker a denial writes into a slot through ``nulled``, unvalidated.
    """

    __slots__ = ()

    def __new__(cls, seq, pid, call, path=None, path2=None, flags=frozenset()):
        if type(call) is not str or call not in CALL_FAMILY:
            raise ValueError(f"unknown syscall: {call!r}")
        if path is not None and not path.startswith("/"):
            raise ValueError(f"path argument is not absolute: {path!r}")
        if path2 is not None and not path2.startswith("/"):
            raise ValueError(f"path argument is not absolute: {path2!r}")
        return _tuple_new(cls, (seq, pid, call, path, path2, flags))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def nulled(self) -> "SyscallEvent":
        """This event with ``path`` nulled; a valid event stays valid."""
        return _tuple_new(type(self), (self[0], self[1], self[2], None, self[4], self[5]))


def parent_dir(path: str) -> str:
    """``posixpath.dirname`` of a ``str`` path, by its own algorithm: the
    text before the last "/", kept whole if it is all slashes.  It skips
    ``dirname``'s ``os.fspath`` call and separator lookup."""
    head = path[:path.rfind("/") + 1]
    return head.rstrip("/") or head


class GuestError(RuntimeError):
    """Scenario-level misuse of the guest (dead pid, duplicate path, ...)."""


def _nulled_outcome(family: Family, flags: frozenset[str]) -> SyscallOutcome:
    """What a call yields when its pointer slot was nulled by a denial.

    Fixed per family: a write-intent open surfaces at the shell-redirection
    level as a bad descriptor, a read-only open fails the address lookup
    itself; an IMAGE call reports a bad descriptor; every other call faults
    on the null address.
    """
    if family is IMAGE or (family is OPEN and not flags.isdisjoint(WRITE_INTENT_FLAGS)):
        return _BAD_FILE_DESCRIPTOR
    return _BAD_ADDRESS


class Guest:
    """Mutable guest state, owned by a single simulator loop."""

    def __init__(self):
        self.uids: set[int] = set()
        self.files: dict[str, GuestFile] = {}
        # Each live pid's claim: the (uid, gid) the guest kernel believes.
        # A claim is a value, like Linux's struct cred: forge and sudo
        # replace it whole, and exit removes the entry.  The mediation layer
        # keeps its own fork-time record and treats that as authoritative.
        self.processes: dict[int, tuple[int, int]] = {INIT_PID: (0, 0)}
        # The pid handed out last, like Linux's ns_last_pid: a clone takes
        # the next one, and an explicit higher pid raises it.
        self.last_pid = INIT_PID

    # -- construction -----------------------------------------------------

    def add_user(self, uid: int) -> None:
        if uid in self.uids:
            raise GuestError(f"duplicate uid: {uid}")
        self.uids.add(uid)

    def add_file(
        self,
        path: str,
        owner_uid: int,
        owner_gid: int,
        perms: PermissionOctets,
        is_directory: bool = False,
    ) -> None:
        """Insert a tree node, creating missing parent directories as
        root-owned 755 entries.  The nearest existing ancestor must be a
        directory.  A path starting with "//" is refused: its dirname chain
        never reaches "/".
        """
        if not path.startswith("/") or path == "/" or path.startswith("//"):
            raise GuestError(f"bad path: {path!r}")
        files = self.files
        if path in files:
            raise GuestError(f"duplicate path: {path}")
        missing = []
        parent = parent_dir(path)
        while parent != "/":
            node = files.get(parent)
            if node is not None:
                if not node.is_directory:
                    raise GuestError(f"parent is not a directory: {parent}")
                break
            missing.append(parent)
            parent = parent_dir(parent)
        for parent in reversed(missing):
            files[parent] = GuestFile(0, 0, _DEFAULT_DIR_PERMS, True)
        files[path] = GuestFile(owner_uid, owner_gid, perms, is_directory)

    # -- processes --------------------------------------------------------

    def spawn_process(self, parent_pid: int, uid: int, gid: int, pid: int | None = None) -> int:
        if parent_pid not in self.processes:
            raise GuestError(f"parent pid {parent_pid} is not alive")
        if pid is None:
            pid = self.last_pid + 1
        elif pid in self.processes:
            raise GuestError(f"pid {pid} already alive")
        self.last_pid = max(self.last_pid, pid)
        self.processes[pid] = (uid, gid)
        return pid

    def set_claimed(self, pid: int, uid: int, gid: int) -> None:
        if pid not in self.processes:
            raise GuestError(f"pid {pid} is not alive")
        self.processes[pid] = (uid, gid)

    def live_pids(self) -> set[int]:
        return set(self.processes)

    # -- syscall semantics ------------------------------------------------

    def execute_syscall(self, event: SyscallEvent) -> SyscallOutcome:
        """Apply one already-mediated call to the tree.

        Denials never raise: a nulled slot produces its fixed error code.
        Guest permission bits are enforced with the process's claimed
        credentials; uid 0 bypasses them, as a root attacker would expect.
        The first slot's node is fetched once; each family then runs its
        checks in a fixed order, and the first that fails decides.
        """
        _, pid, call, path, path2, flags = event
        claim = self.processes.get(pid)
        if claim is None:
            raise GuestError(f"pid {pid} is not alive")
        uid, gid = claim
        family = CALL_FAMILY[call]

        if family is EXIT:
            del self.processes[pid]
            return _OK
        if family is CLONE:
            self.spawn_process(pid, uid, gid)
            return _OK
        # Every remaining call reads its first slot, which a denial nulls.
        if path is None:
            return _nulled_outcome(family, flags)
        node = self._node(path)

        if family is OPEN:
            if node is None:
                if "O_CREAT" not in flags:
                    return _NO_SUCH_FILE
                err = self._parent_writable(path, uid, gid)
                if err is not None:
                    return err
                self.files[path] = GuestFile(uid, gid, _DEFAULT_FILE_PERMS)
                return _OK
            wants_write = not flags.isdisjoint(_WRITE_EXISTING_FLAGS)
            if wants_write and (node.is_directory or not self._allows(node, uid, gid, WRITE_BIT)):
                return _PERMISSION_DENIED
            if "O_WRONLY" not in flags and not self._allows(node, uid, gid, READ_BIT):
                return _PERMISSION_DENIED
            return _OK
        if family is TRUNCATE or family is EXEC:
            if node is None:
                return _NO_SUCH_FILE
            bit = WRITE_BIT if family is TRUNCATE else EXECUTE_BIT
            if node.is_directory or not self._allows(node, uid, gid, bit):
                return _PERMISSION_DENIED
            return _OK
        # Mediation denies IMAGE, KEXEC and HANDLE calls unconditionally, so
        # they reach the guest only with their slot nulled.
        if family is IMAGE or family is KEXEC or family is HANDLE:
            raise GuestError(f"unhandled call: {call}")

        # RENAME, UNLINK, LINK and SYMLINK.  A null second slot faults before
        # the first slot's node is tested; a symlink's target may dangle.
        if path2 is None and family is not UNLINK:
            return _BAD_ADDRESS
        if family is not SYMLINK:
            if node is None:
                return _NO_SUCH_FILE
            if node.is_directory:
                # The tree keys each child by its full path, so moving,
                # removing or linking a directory would orphan its children.
                return _PERMISSION_DENIED
        if family is UNLINK:
            err = self._parent_writable(path, uid, gid)
            if err is not None:
                return err
            del self.files[path]
            return _OK
        if family is RENAME:
            for endpoint in (path, path2):
                err = self._parent_writable(endpoint, uid, gid)
                if err is not None:
                    return err
            if self._dir_node(path2) is not None:
                return _PERMISSION_DENIED
            self.files[path2] = self.files.pop(path)
            return _OK
        if self._node(path2) is not None:
            return _PERMISSION_DENIED
        err = self._parent_writable(path2, uid, gid)
        if err is not None:
            return err
        self.files[path2] = node if family is LINK else GuestFile(uid, gid, _SYMLINK_PERMS)
        return _OK

    # -- helpers ----------------------------------------------------------

    def _allows(self, node: GuestFile, uid: int, gid: int, bit: int) -> bool:
        return uid == 0 or check_access(node, uid, gid, bit) is PERMIT

    def _node(self, path: str) -> GuestFile | None:
        """The node a path names; "/" is always the implicit root directory."""
        return _ROOT_DIR if path == "/" else self.files.get(path)

    def _dir_node(self, path: str) -> GuestFile | None:
        node = self._node(path)
        return node if node is not None and node.is_directory else None

    def _parent_writable(self, path: str, uid: int, gid: int) -> SyscallOutcome | None:
        """The error outcome if the parent directory is missing or not
        writable, else None."""
        parent = self._dir_node(parent_dir(path))
        if parent is None:
            return _NO_SUCH_FILE
        if not self._allows(parent, uid, gid, WRITE_BIT):
            return _PERMISSION_DENIED
        return None
