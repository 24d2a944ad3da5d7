"""Deterministic model of the protected guest: users, processes, file tree.

The guest applies its own permission bits after mediation, so a permissive
shadow list can never grant an access the guest itself forbids.  Syscall
outcomes are values, never exceptions; a nulled argument slot produced by a
denial surfaces as the error code the corresponding shell transcript shows.
File contents are not modeled, only existence, ownership, and permissions.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .sacl import EXECUTE_BIT, READ_BIT, WRITE_BIT, PermissionOctets, effective_octet

# Every layer branches on a call's family, never on its name.  IMAGE: module
# loading and the handle open, whose first slot the guest never resolves as
# a path; KEXEC: kernel swapping; HANDLE: a path turned into a handle.
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
    "kexec_load": KEXEC,
    "clone": CLONE,
}
TRAPPED_CALLS = tuple(CALL_FAMILY)
INTERPOSED_CALLS = tuple(call for call, family in CALL_FAMILY.items() if family is not CLONE)

# open(2) flag vocabulary understood by the model.
WRITE_INTENT_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"})
# The flags that write to a file the open finds already in place.
_WRITE_EXISTING_FLAGS = WRITE_INTENT_FLAGS - {"O_CREAT"}

INIT_PID = 1

_DEFAULT_FILE_PERMS = PermissionOctets.from_text("644")
_DEFAULT_DIR_PERMS = PermissionOctets.from_text("755")
_SYMLINK_PERMS = PermissionOctets.from_text("777")
_tuple_new = tuple.__new__


class ErrorCode(Enum):
    BAD_ADDRESS = "bad_address"
    BAD_FILE_DESCRIPTOR = "bad_file_descriptor"
    NO_SUCH_FILE = "no_such_file"
    PERMISSION_DENIED = "permission_denied"


@dataclass(frozen=True, slots=True)
class SyscallOutcome:
    """Success (error is None) or a failure carrying exactly one code."""

    error: ErrorCode | None = None

    @property
    def success(self) -> bool:
        return self.error is None

    @classmethod
    def ok(cls) -> "SyscallOutcome":
        return _OK

    @classmethod
    def fail(cls, code: ErrorCode) -> "SyscallOutcome":
        return _FAILURES[code]


# Outcomes are immutable values, so every call shares these instances.
_OK = SyscallOutcome(None)
_FAILURES = {code: SyscallOutcome(code) for code in ErrorCode}


@dataclass(frozen=True, slots=True)
class GuestFile:
    """One tree node; ``Guest.files`` maps each of its names to it, so hard
    links share one node and a rename moves it."""

    owner_uid: int
    owner_gid: int
    perms: PermissionOctets
    is_directory: bool = False


_ROOT_DIR = GuestFile(0, 0, _DEFAULT_DIR_PERMS, True)  # "/" exists implicitly


@dataclass
class Process:
    """claimed_uid/gid are what the guest kernel believes; the mediation
    layer keeps its own fork-time record and treats that as authoritative.
    ``Guest.processes`` holds live processes only; exit removes the entry."""

    claimed_uid: int
    claimed_gid: int


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
        for p in (path, path2):
            if p is not None and not p.startswith("/"):
                raise ValueError(f"path argument is not absolute: {p!r}")
        return _tuple_new(cls, (seq, pid, call, path, path2, flags))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def nulled(self) -> "SyscallEvent":
        """This event with ``path`` nulled; a valid event stays valid."""
        return _tuple_new(type(self), (self[0], self[1], self[2], None, self[4], self[5]))


class GuestError(RuntimeError):
    """Scenario-level misuse of the guest (dead pid, duplicate path, ...)."""


def nulled_error_code(call: str, flags: frozenset[str]) -> ErrorCode:
    """Error a call yields when its pointer slot was nulled by a denial.

    Fixed per family: a write-intent open surfaces at the shell-redirection
    level as a bad descriptor, a read-only open fails the address lookup
    itself; an IMAGE call reports a bad descriptor; every other call faults
    on the null address.
    """
    family = CALL_FAMILY[call]
    if family is IMAGE or (family is OPEN and not flags.isdisjoint(WRITE_INTENT_FLAGS)):
        return ErrorCode.BAD_FILE_DESCRIPTOR
    return ErrorCode.BAD_ADDRESS


class Guest:
    """Mutable guest state, owned by a single simulator loop."""

    def __init__(self):
        self.uids: set[int] = set()
        self.files: dict[str, GuestFile] = {}
        self.processes: dict[int, Process] = {INIT_PID: Process(0, 0)}
        # Called as on_clone(child pid, parent pid) after a clone syscall
        # spawned the child.
        self.on_clone = None
        self._next_pid = INIT_PID + 1

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
        parent = posixpath.dirname(path)
        while parent != "/":
            node = files.get(parent)
            if node is not None:
                if not node.is_directory:
                    raise GuestError(f"parent is not a directory: {parent}")
                break
            missing.append(parent)
            parent = posixpath.dirname(parent)
        for parent in reversed(missing):
            files[parent] = GuestFile(0, 0, _DEFAULT_DIR_PERMS, True)
        files[path] = GuestFile(owner_uid, owner_gid, perms, is_directory)

    # -- processes --------------------------------------------------------

    def spawn_process(self, parent_pid: int, uid: int, gid: int, pid: int | None = None) -> int:
        if parent_pid not in self.processes:
            raise GuestError(f"parent pid {parent_pid} is not alive")
        if pid is None:
            pid = self._next_pid
        elif pid in self.processes:
            raise GuestError(f"pid {pid} already alive")
        self._next_pid = max(self._next_pid, pid + 1)
        self.processes[pid] = Process(uid, gid)
        return pid

    def set_claimed(self, pid: int, uid: int, gid: int) -> None:
        proc = self.processes.get(pid)
        if proc is None:
            raise GuestError(f"pid {pid} is not alive")
        proc.claimed_uid = uid
        proc.claimed_gid = gid

    def live_pids(self) -> set[int]:
        return set(self.processes)

    # -- syscall semantics ------------------------------------------------

    def execute_syscall(self, event: SyscallEvent) -> SyscallOutcome:
        """Apply one already-mediated call to the tree.

        Denials never raise: a nulled slot produces its fixed error code.
        Guest permission bits are enforced with the process's claimed
        credentials; uid 0 bypasses them, as a root attacker would expect.
        """
        proc = self.processes.get(event.pid)
        if proc is None:
            raise GuestError(f"pid {event.pid} is not alive")
        family = CALL_FAMILY[event.call]

        if family is EXIT:
            del self.processes[event.pid]
            return SyscallOutcome.ok()
        if family is CLONE:
            child = self.spawn_process(event.pid, proc.claimed_uid, proc.claimed_gid)
            if self.on_clone is not None:
                self.on_clone(child, event.pid)
            return SyscallOutcome.ok()
        # Every remaining call reads its first slot, which a denial nulls.
        if event.path is None:
            return SyscallOutcome.fail(nulled_error_code(event.call, event.flags))
        uid, gid = proc.claimed_uid, proc.claimed_gid

        if family is OPEN:
            return self._do_open(event, uid, gid)
        if family is TRUNCATE:
            return self._do_truncate(event.path, uid, gid)
        if family is RENAME:
            return self._do_rename(event, uid, gid)
        if family is UNLINK:
            return self._do_unlink(event.path, uid, gid)
        if family is LINK or family is SYMLINK:
            return self._do_link(event, uid, gid, symbolic=family is SYMLINK)
        if family is EXEC:
            return self._do_exec(event.path, uid, gid)
        # Mediation denies IMAGE, KEXEC and HANDLE calls unconditionally, so
        # they reach the guest only with their slot nulled.
        raise GuestError(f"unhandled call: {event.call}")

    # -- helpers ----------------------------------------------------------

    def _allows(self, node: GuestFile, uid: int, gid: int, bit: int) -> bool:
        if uid == 0:
            return True
        return bool(effective_octet(node, uid, gid) & bit)

    def _node(self, path: str) -> GuestFile | None:
        """The node a path names; "/" is always the implicit root directory."""
        return _ROOT_DIR if path == "/" else self.files.get(path)

    def _dir_node(self, path: str) -> GuestFile | None:
        node = self._node(path)
        return node if node is not None and node.is_directory else None

    def _parent_writable(self, path: str, uid: int, gid: int):
        """Returns (parent node, error outcome or None)."""
        parent = self._dir_node(posixpath.dirname(path))
        if parent is None:
            return None, SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if not self._allows(parent, uid, gid, WRITE_BIT):
            return None, SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        return parent, None

    def _do_open(self, event: SyscallEvent, uid: int, gid: int) -> SyscallOutcome:
        path, flags = event.path, event.flags
        node = self._node(path)
        if node is None:
            if "O_CREAT" not in flags:
                return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
            _, err = self._parent_writable(path, uid, gid)
            if err is not None:
                return err
            self.files[path] = GuestFile(uid, gid, _DEFAULT_FILE_PERMS)
            return SyscallOutcome.ok()
        wants_write = not flags.isdisjoint(_WRITE_EXISTING_FLAGS)
        wants_read = "O_WRONLY" not in flags
        if node.is_directory and wants_write:
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        if wants_write and not self._allows(node, uid, gid, WRITE_BIT):
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        if wants_read and not self._allows(node, uid, gid, READ_BIT):
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        return SyscallOutcome.ok()

    def _do_truncate(self, path: str, uid: int, gid: int) -> SyscallOutcome:
        node = self._node(path)
        if node is None:
            return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if node.is_directory or not self._allows(node, uid, gid, WRITE_BIT):
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        return SyscallOutcome.ok()

    def _do_rename(self, event: SyscallEvent, uid: int, gid: int) -> SyscallOutcome:
        src, dst = event.path, event.path2
        if dst is None:
            return SyscallOutcome.fail(ErrorCode.BAD_ADDRESS)
        node = self._node(src)
        if node is None:
            return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if node.is_directory:
            # Moving directories would orphan child paths; out of model scope.
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        for endpoint in (src, dst):
            _, err = self._parent_writable(endpoint, uid, gid)
            if err is not None:
                return err
        existing = self._node(dst)
        if existing is not None and existing.is_directory:
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        self.files[dst] = self.files.pop(src)
        return SyscallOutcome.ok()

    def _do_unlink(self, path: str, uid: int, gid: int) -> SyscallOutcome:
        node = self._node(path)
        if node is None:
            return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if node.is_directory:
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        _, err = self._parent_writable(path, uid, gid)
        if err is not None:
            return err
        del self.files[path]
        return SyscallOutcome.ok()

    def _do_link(self, event: SyscallEvent, uid: int, gid: int, symbolic: bool) -> SyscallOutcome:
        target, newpath = event.path, event.path2
        if newpath is None:
            return SyscallOutcome.fail(ErrorCode.BAD_ADDRESS)
        node = self._node(target)
        if not symbolic and node is None:
            return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if not symbolic and node.is_directory:
            # As for rename: the second name would have none of the children.
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        if self._node(newpath) is not None:
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        _, err = self._parent_writable(newpath, uid, gid)
        if err is not None:
            return err
        self.files[newpath] = GuestFile(uid, gid, _SYMLINK_PERMS) if symbolic else node
        return SyscallOutcome.ok()

    def _do_exec(self, path: str, uid: int, gid: int) -> SyscallOutcome:
        node = self._node(path)
        if node is None:
            return SyscallOutcome.fail(ErrorCode.NO_SUCH_FILE)
        if node.is_directory or not self._allows(node, uid, gid, EXECUTE_BIT):
            return SyscallOutcome.fail(ErrorCode.PERMISSION_DENIED)
        return SyscallOutcome.ok()
