"""Guest model: processes, file-tree syscall semantics, determinism."""

import itertools
import posixpath

import pytest

from hvguard.guest import (
    BAD_ADDRESS,
    BAD_FILE_DESCRIPTOR,
    NO_SUCH_FILE,
    PERMISSION_DENIED,
    Guest,
    CALL_FAMILY,
    CLONE,
    GuestError,
    GuestFile,
    SyscallEvent,
    SyscallOutcome,
    TRAPPED_CALLS,
    _nulled_outcome,
    parent_dir,
)
from hvguard.mediator import SACL_DENY, Verdict, apply_verdict
from hvguard.sacl import DENY, PermissionOctets

RW = PermissionOctets(6, 4, 4)
DIR = PermissionOctets(7, 5, 5)


def make_guest():
    guest = Guest()
    guest.add_file("/home/user", 1000, 1000, DIR, is_directory=True)
    guest.add_file("/home/user/a.txt", 1000, 1000, RW)
    guest.add_file("/home/user/run", 1000, 1000, PermissionOctets(7, 5, 5))
    pid = guest.spawn_process(1, 1000, 1000)
    return guest, pid


def ev(pid, call, path=None, path2=None, flags=(), seq=1):
    return SyscallEvent(seq, pid, call, path, path2, frozenset(flags))


# Every modeled call and its family, written out: a call added, dropped or
# moved to another family fails here.
CALL_TABLE = [
    ("open", "OPEN"),
    ("openat", "OPEN"),
    ("name_to_handle_at", "HANDLE"),
    ("open_by_handle_at", "IMAGE"),
    ("rename", "RENAME"),
    ("renameat", "RENAME"),
    ("renameat2", "RENAME"),
    ("unlink", "UNLINK"),
    ("unlinkat", "UNLINK"),
    ("truncate", "TRUNCATE"),
    ("link", "LINK"),
    ("linkat", "LINK"),
    ("symlink", "SYMLINK"),
    ("symlinkat", "SYMLINK"),
    ("execve", "EXEC"),
    ("execveat", "EXEC"),
    ("exit", "EXIT"),
    ("exit_group", "EXIT"),
    ("init_module", "IMAGE"),
    ("finit_module", "IMAGE"),
    ("delete_module", "IMAGE"),
    ("kexec_load", "KEXEC"),
    ("kexec_file_load", "KEXEC"),
    ("clone", "CLONE"),
]


def test_trapped_call_set_is_closed():
    assert len(CALL_TABLE) == 24
    assert [(call, family.name) for call, family in CALL_FAMILY.items()] == CALL_TABLE
    assert TRAPPED_CALLS == tuple(call for call, _ in CALL_TABLE)
    interposed = [call for call, family in CALL_FAMILY.items() if family is not CLONE]
    assert len(interposed) == 23 and "clone" not in interposed
    with pytest.raises(ValueError):
        SyscallEvent(1, 1, "getpid")


def test_spawn_assigns_distinct_pids():
    guest = Guest()
    a = guest.spawn_process(1, 1000, 1000)
    b = guest.spawn_process(1, 1000, 1000)
    assert a != b


def test_spawn_from_dead_parent_fails():
    guest = Guest()
    pid = guest.spawn_process(1, 0, 0)
    guest.execute_syscall(ev(pid, "exit"))
    with pytest.raises(GuestError):
        guest.spawn_process(pid, 0, 0)


def test_spawn_explicit_pid_conflict():
    guest = Guest()
    guest.spawn_process(1, 0, 0, pid=5)
    with pytest.raises(GuestError):
        guest.spawn_process(1, 0, 0, pid=5)


def test_exit_removes_pid_from_live_views():
    guest, pid = make_guest()
    assert pid in guest.live_pids()
    out = guest.execute_syscall(ev(pid, "exit_group"))
    assert out.success
    assert pid not in guest.live_pids()
    with pytest.raises(GuestError):
        guest.execute_syscall(ev(pid, "open", "/home/user/a.txt"))


def test_clone_spawns_child_with_caller_credentials():
    guest, pid = make_guest()
    before = guest.live_pids()
    assert guest.execute_syscall(ev(pid, "clone")).success
    (child,) = guest.live_pids() - before
    assert guest.processes[child] == (1000, 1000)


def test_last_pid_is_the_highest_pid_handed_out():
    guest = Guest()
    assert guest.last_pid == 1
    assert guest.spawn_process(1, 0, 0) == guest.last_pid == 2
    guest.spawn_process(1, 0, 0, pid=9)
    guest.spawn_process(1, 0, 0, pid=4)  # a lower explicit pid leaves it
    assert guest.last_pid == 9
    guest.execute_syscall(ev(2, "clone"))
    assert guest.last_pid == 10 and 10 in guest.processes


def test_parent_dir_is_posixpath_dirname():
    paths = ["".join(chars) for n in range(6) for chars in itertools.product("/a.", repeat=n)]
    paths.append("/\u00e9/\u00fc")
    assert len(paths) == 365
    for path in paths:
        assert parent_dir(path) == posixpath.dirname(path), path


def test_add_file_creates_missing_parents_topmost_first():
    guest = Guest()
    guest.add_file("/a/b/c", 0, 0, RW)
    assert list(guest.files) == ["/a", "/a/b", "/a/b/c"]
    assert guest.files["/a"].is_directory and guest.files["/a/b"].is_directory


@pytest.mark.parametrize("path", ["/a/b", "/a/b/c"])
def test_add_file_under_regular_file_is_error(path):
    guest = Guest()
    guest.add_file("/a", 0, 0, RW)
    with pytest.raises(GuestError, match="parent is not a directory: /a"):
        guest.add_file(path, 0, 0, RW)
    assert list(guest.files) == ["/a"]


@pytest.mark.parametrize("path", ["relative", "/", "//x", "///x/y"])
def test_add_file_bad_path(path):
    # A leading "//" never reaches "/" through dirname.
    with pytest.raises(GuestError, match="bad path"):
        Guest().add_file(path, 0, 0, RW)


def test_open_missing_file():
    guest, pid = make_guest()
    out = guest.execute_syscall(ev(pid, "open", "/tokens/nope", flags=["O_RDONLY"]))
    assert out.error is NO_SUCH_FILE


def test_open_create_in_missing_directory():
    guest, pid = make_guest()
    out = guest.execute_syscall(ev(pid, "open", "/tokens/x", flags=["O_CREAT", "O_WRONLY"]))
    assert out.error is NO_SUCH_FILE


def test_open_create_then_reopen():
    guest, pid = make_guest()
    assert guest.execute_syscall(ev(pid, "open", "/home/user/new", flags=["O_CREAT", "O_WRONLY"])).success
    assert "/home/user/new" in guest.files
    assert guest.execute_syscall(ev(pid, "open", "/home/user/new", flags=["O_RDONLY"])).success


def test_guest_perms_enforced_for_non_root():
    guest, _ = make_guest()
    other = guest.spawn_process(1, 2000, 2000)
    out = guest.execute_syscall(ev(other, "open", "/home/user/a.txt", flags=["O_WRONLY"]))
    assert out.error is PERMISSION_DENIED
    # read bit is set for others
    assert guest.execute_syscall(ev(other, "open", "/home/user/a.txt", flags=["O_RDONLY"])).success


def test_root_bypasses_guest_perms():
    guest, _ = make_guest()
    root = guest.spawn_process(1, 0, 0)
    assert guest.execute_syscall(ev(root, "open", "/home/user/a.txt", flags=["O_WRONLY"])).success


def test_rename_moves_tree_entry():
    guest, pid = make_guest()
    out = guest.execute_syscall(ev(pid, "rename", "/home/user/a.txt", "/home/user/b.txt"))
    assert out.success
    assert "/home/user/a.txt" not in guest.files
    assert guest.files["/home/user/b.txt"].owner_uid == 1000


def test_rename_missing_source():
    guest, pid = make_guest()
    out = guest.execute_syscall(ev(pid, "rename", "/home/user/nope", "/home/user/b"))
    assert out.error is NO_SUCH_FILE


def test_unlink_and_truncate():
    guest, pid = make_guest()
    assert guest.execute_syscall(ev(pid, "truncate", "/home/user/a.txt")).success
    assert guest.execute_syscall(ev(pid, "unlink", "/home/user/a.txt")).success
    assert guest.execute_syscall(ev(pid, "unlink", "/home/user/a.txt")).error is NO_SUCH_FILE


def test_link_and_symlink():
    guest, pid = make_guest()
    assert guest.execute_syscall(ev(pid, "link", "/home/user/a.txt", "/home/user/hard")).success
    assert guest.execute_syscall(ev(pid, "link", "/home/user/nope", "/home/user/x")).error is NO_SUCH_FILE
    # a directory gets no second name
    assert guest.execute_syscall(ev(pid, "link", "/home/user", "/home/user/d")).error is PERMISSION_DENIED
    assert "/home/user/d" not in guest.files
    # symlink target may dangle
    assert guest.execute_syscall(ev(pid, "symlink", "/home/user/nope", "/home/user/soft")).success


def test_execve_semantics():
    guest, pid = make_guest()
    assert guest.execute_syscall(ev(pid, "execve", "/home/user/run")).success
    assert guest.execute_syscall(ev(pid, "execve", "/home/user/neverthere")).error is NO_SUCH_FILE
    guest.add_file("/home/user/noexec", 1000, 1000, PermissionOctets(6, 4, 4))
    assert guest.execute_syscall(ev(pid, "execve", "/home/user/noexec")).error is PERMISSION_DENIED


_A, _FD = BAD_ADDRESS, BAD_FILE_DESCRIPTOR
# Per trapped call: its nulled-slot error with read-only flags, then with
# write flags.
NULLED_ERRORS = {
    "open": (_A, _FD),
    "openat": (_A, _FD),
    "name_to_handle_at": (_A, _A),
    "open_by_handle_at": (_FD, _FD),
    "rename": (_A, _A),
    "renameat": (_A, _A),
    "renameat2": (_A, _A),
    "unlink": (_A, _A),
    "unlinkat": (_A, _A),
    "truncate": (_A, _A),
    "link": (_A, _A),
    "linkat": (_A, _A),
    "symlink": (_A, _A),
    "symlinkat": (_A, _A),
    "execve": (_A, _A),
    "execveat": (_A, _A),
    "exit": (_A, _A),
    "exit_group": (_A, _A),
    "init_module": (_FD, _FD),
    "finit_module": (_FD, _FD),
    "delete_module": (_FD, _FD),
    "kexec_load": (_A, _A),
    "kexec_file_load": (_A, _A),
    "clone": (_A, _A),
}


def nulled_error(call, flags):
    return _nulled_outcome(CALL_FAMILY[call], flags).error


def test_nulled_slot_error_codes():
    # write-intent opens surface as a bad descriptor, read-only opens and
    # other path calls fault on the address, module loading reports a bad
    # descriptor
    assert set(NULLED_ERRORS) == set(TRAPPED_CALLS)
    for call, (read_only, write) in NULLED_ERRORS.items():
        assert nulled_error(call, frozenset({"O_RDONLY"})) is read_only, call
        assert nulled_error(call, frozenset({"O_WRONLY"})) is write, call
    assert nulled_error("open", frozenset({"O_CREAT", "O_WRONLY"})) is BAD_FILE_DESCRIPTOR
    assert nulled_error("openat", frozenset()) is BAD_ADDRESS


def test_hard_denied_calls_reach_the_guest_only_nulled():
    # Mediation denies these calls unconditionally, so the guest has no
    # semantics for one whose slot is still set.
    guest, pid = make_guest()
    for call in ("init_module", "finit_module", "delete_module", "open_by_handle_at", "kexec_load",
                 "kexec_file_load", "name_to_handle_at"):
        with pytest.raises(GuestError, match=f"^unhandled call: {call}$"):
            guest.execute_syscall(ev(pid, call, "/home/user/a.txt"))
        assert guest.execute_syscall(ev(pid, call, None)).error is NULLED_ERRORS[call][0]


def test_nulled_slot_outcomes_through_guest():
    guest, pid = make_guest()
    out = guest.execute_syscall(ev(pid, "execve", None))
    assert out.error is BAD_ADDRESS
    out = guest.execute_syscall(ev(pid, "open", None, flags=["O_CREAT", "O_WRONLY"]))
    assert out.error is BAD_FILE_DESCRIPTOR
    out = guest.execute_syscall(ev(pid, "init_module", None))
    assert out.error is BAD_FILE_DESCRIPTOR


def test_outcome_success_carries_no_code():
    assert SyscallOutcome().error is None
    assert SyscallOutcome().success
    assert not SyscallOutcome(NO_SUCH_FILE).success


def test_event_paths_must_be_absolute_or_null():
    with pytest.raises(ValueError):
        SyscallEvent(1, 1, "open", "relative.txt")
    SyscallEvent(1, 1, "open", None)  # null marker is fine


# -- event invariants -----------------------------------------------------------


@pytest.mark.parametrize("call", [["open"], 2, None])
def test_event_call_that_is_not_a_string_is_value_error(call):
    # A list is unhashable: the type test must come before the set lookup.
    with pytest.raises(ValueError, match="unknown syscall"):
        SyscallEvent(1, 1, call)


@pytest.mark.parametrize("slot", ["path", "path2"])
def test_event_relative_path_in_either_slot_is_value_error(slot):
    with pytest.raises(ValueError, match="path argument is not absolute: 'rel'"):
        SyscallEvent(1, 1, "rename", **{"path": "/a", "path2": "/b", slot: "rel"})


def test_event_keyword_construction_and_defaults():
    event = SyscallEvent(seq=1, pid=2, call="open", path="/etc/hosts", flags=frozenset({"O_RDONLY"}))
    assert (event.seq, event.pid, event.call, event.path, event.path2, event.flags) == (
        1, 2, "open", "/etc/hosts", None, frozenset({"O_RDONLY"}),
    )
    bare = SyscallEvent(3, 4, "clone")
    assert (bare.path, bare.path2, bare.flags) == (None, None, frozenset())


@pytest.mark.parametrize("field", ["seq", "pid", "call", "path", "path2", "flags"])
def test_event_fields_cannot_be_set(field):
    event = SyscallEvent(1, 2, "open", "/a")
    with pytest.raises(AttributeError):
        setattr(event, field, None)
    with pytest.raises(AttributeError):
        event.extra = 1


def test_event_replace_and_make_validate():
    event = SyscallEvent(1, 2, "rename", "/a", "/b")
    with pytest.raises(ValueError, match="not absolute"):
        event._replace(path="rel")
    with pytest.raises(ValueError, match="not absolute"):
        SyscallEvent._make((1, 2, "rename", "/a", "rel", frozenset()))
    with pytest.raises(ValueError, match="unknown syscall"):
        event._replace(call="getpid")
    assert event._replace(path2="/c") == SyscallEvent(1, 2, "rename", "/a", "/c")
    assert type(SyscallEvent._make(event)) is SyscallEvent


def test_nulled_and_deny_verdict_null_only_the_first_slot():
    event = SyscallEvent(7, 2, "rename", "/a", "/b", frozenset({"X"}))
    expected = SyscallEvent(7, 2, "rename", None, "/b", frozenset({"X"}))
    deny = Verdict(7, 2, "rename", 0, 0, DENY, SACL_DENY, True, 1)
    for forwarded in (event.nulled(), apply_verdict(event, deny)):
        assert type(forwarded) is SyscallEvent
        assert forwarded == expected
    assert event.path == "/a"  # the original is untouched


# -- the implicit root directory --------------------------------------------------


def test_root_dir_node_is_one_shared_root_owned_755_directory():
    guest = Guest()
    root = guest._dir_node("/")
    assert root is guest._dir_node("/") is guest._node("/")
    assert (root.owner_uid, root.owner_gid, root.is_directory) == (0, 0, True)
    assert "/" not in guest.files
    assert root.perms == PermissionOctets(7, 5, 5)


@pytest.mark.parametrize("uid, expected", [(0, None), (1000, PERMISSION_DENIED)])
def test_root_level_parent_checks(uid, expected):
    # "/" is root-owned 755: only uid 0 may create, rename, unlink or link
    # directly under it, whoever owns the file itself.
    guest = Guest()
    guest.add_file("/f", uid, uid, RW)
    guest.add_file("/g", uid, uid, RW)
    pid = guest.spawn_process(1, uid, uid)
    calls = [
        ev(pid, "open", "/new", flags=["O_CREAT", "O_WRONLY"]),
        ev(pid, "rename", "/f", "/moved"),
        ev(pid, "unlink", "/g"),
        ev(pid, "link", "/f" if uid else "/moved", "/hard"),
    ]
    assert [guest.execute_syscall(c).error for c in calls] == [expected] * 4
    after = {"/new", "/moved", "/hard"} if uid == 0 else {"/f", "/g"}
    assert set(guest.files) == after


DENIED = PERMISSION_DENIED


@pytest.mark.parametrize(
    "call, path, path2, flags, expected",
    [
        ("open", "/", None, ["O_CREAT", "O_WRONLY"], DENIED),
        ("open", "/", None, ["O_RDONLY"], None),
        ("rename", "/f", "/", [], DENIED),
        ("link", "/f", "/", [], DENIED),
        ("link", "/", "/x", [], DENIED),
        ("rename", "/", "/x", [], DENIED),
        ("unlink", "/", None, [], DENIED),
        ("truncate", "/", None, [], DENIED),
        ("execve", "/", None, [], DENIED),
    ],
)
def test_root_is_one_directory_for_every_call(call, path, path2, flags, expected):
    # uid 0 passes every permission bit, so only "/" being the implicit
    # root directory decides these calls.
    guest = Guest()
    guest.add_file("/f", 0, 0, RW)
    pid = guest.spawn_process(1, 0, 0)
    assert guest.execute_syscall(ev(pid, call, path, path2, flags)).error is expected
    assert set(guest.files) == {"/f"}


def test_link_shares_the_node_and_rename_moves_it():
    guest = Guest()
    guest.add_file("/a", 0, 0, RW)
    pid = guest.spawn_process(1, 0, 0)
    node = guest.files["/a"]
    assert guest.execute_syscall(ev(pid, "link", "/a", "/b")).success
    assert guest.files["/b"] is guest.files["/a"] is node
    assert guest.execute_syscall(ev(pid, "rename", "/a", "/c")).success
    assert "/a" not in guest.files
    assert guest.files["/c"] is node
    assert guest.files["/b"] is node


def test_nodes_compare_by_identity():
    # A node is a file, not a value: equal fields make two files.
    a, b = GuestFile(0, 0, RW), GuestFile(0, 0, RW)
    assert a != b and a == a
    assert len({a: "a", b: "b"}) == 2
    guest = Guest()
    guest.add_file("/x", 0, 0, RW)
    guest.add_file("/y", 0, 0, RW)
    pid = guest.spawn_process(1, 0, 0)
    node, other = guest.files["/x"], guest.files["/y"]
    assert node != other
    assert guest.execute_syscall(ev(pid, "link", "/x", "/h")).success
    assert guest.files["/h"] is node
    assert guest.execute_syscall(ev(pid, "rename", "/x", "/z")).success
    assert guest.files["/z"] is node
    # An index keyed by node holds one entry per file, whatever its names.
    names = {}
    for path, file in guest.files.items():
        names.setdefault(file, set()).add(path)
    assert names == {node: {"/h", "/z"}, other: {"/y"}}
    # "/" names the one root node every guest shares.
    assert guest._node("/") is Guest()._node("/")


def test_replay_is_deterministic():
    script = [
        ("open", "/home/user/a.txt", None, ("O_RDONLY",)),
        ("rename", "/home/user/a.txt", "/home/user/b.txt", ()),
        ("unlink", "/home/user/b.txt", None, ()),
        ("open", "/home/user/c", None, ("O_CREAT", "O_WRONLY")),
        ("execve", "/home/user/run", None, ()),
    ]

    def run():
        guest, pid = make_guest()
        return [
            guest.execute_syscall(SyscallEvent(seq, pid, call, path, path2, frozenset(flags)))
            for seq, (call, path, path2, flags) in enumerate(script, start=1)
        ]

    assert run() == run()


# -- the order of each family's checks ---------------------------------------------

NOENT, BADADDR = NO_SUCH_FILE, BAD_ADDRESS


def make_order_guest():
    """uid 1000 owns /w and the files in it; /d is root's, so 1000 cannot
    create or remove names there."""
    guest = Guest()
    guest.add_file("/w", 1000, 1000, DIR, is_directory=True)
    guest.add_file("/w/sub", 1000, 1000, DIR, is_directory=True)
    guest.add_file("/w/f", 1000, 1000, RW)
    guest.add_file("/w/g", 1000, 1000, RW)
    guest.add_file("/w/ro", 1000, 1000, PermissionOctets(4, 4, 4))
    guest.add_file("/w/wo", 1000, 1000, PermissionOctets(2, 0, 0))
    guest.add_file("/d", 0, 0, DIR, is_directory=True)
    guest.add_file("/d/f", 1000, 1000, RW)
    return guest, guest.spawn_process(1, 1000, 1000)


@pytest.mark.parametrize(
    "call, path, path2, flags, expected",
    [
        # a null second slot faults before the source is looked at
        ("rename", "/nope", None, [], BADADDR),
        ("renameat2", "/nope", None, [], BADADDR),
        ("rename", "/w/sub", None, [], BADADDR),
        ("link", "/nope", None, [], BADADDR),
        ("linkat", "/nope", None, [], BADADDR),
        ("link", "/w/sub", None, [], BADADDR),
        ("symlink", "/nope", None, [], BADADDR),
        # a missing name
        ("open", "/nope", None, ["O_RDONLY"], NOENT),
        ("open", "/nope", None, ["O_WRONLY", "O_TRUNC"], NOENT),
        ("truncate", "/nope", None, [], NOENT),
        ("execve", "/nope", None, [], NOENT),
        ("unlink", "/nope", None, [], NOENT),
        ("rename", "/nope", "/w/x", [], NOENT),
        ("rename", "/nope", "/nope/x", [], NOENT),
        ("link", "/nope", "/w/x", [], NOENT),
        ("link", "/nope", "/w/f", [], NOENT),
        ("symlink", "/nope", "/w/x", [], None),
        # a directory name
        ("open", "/w", None, ["O_RDONLY"], None),
        ("open", "/w", None, ["O_WRONLY"], DENIED),
        ("open", "/w", None, ["O_CREAT", "O_WRONLY"], DENIED),
        ("truncate", "/w/sub", None, [], DENIED),
        ("execve", "/w/sub", None, [], DENIED),
        ("unlink", "/w/sub", None, [], DENIED),
        ("rename", "/w/sub", "/nope/x", [], DENIED),
        ("link", "/w/sub", "/nope/x", [], DENIED),
        ("symlink", "/w/sub", "/w/x", [], None),
        # "/" as a name
        ("open", "/", None, ["O_RDONLY"], None),
        ("truncate", "/", None, [], DENIED),
        ("execve", "/", None, [], DENIED),
        ("unlink", "/", None, [], DENIED),
        ("rename", "/", "/nope/x", [], DENIED),
        ("link", "/", "/nope/x", [], DENIED),
        ("symlink", "/", "/w/x", [], None),
        ("rename", "/w/f", "/", [], DENIED),
        ("link", "/w/f", "/", [], DENIED),
        ("symlink", "/w/f", "/", [], DENIED),
        # an existing destination
        ("rename", "/w/f", "/w/g", [], None),
        ("rename", "/w/f", "/w/sub", [], DENIED),
        ("link", "/w/f", "/w/g", [], DENIED),
        ("symlink", "/nope", "/w/g", [], DENIED),
        ("open", "/w/f", None, ["O_CREAT", "O_WRONLY"], None),
        # a missing or unwritable parent
        ("open", "/nope/x", None, ["O_CREAT", "O_WRONLY"], NOENT),
        ("open", "/d/x", None, ["O_CREAT", "O_WRONLY"], DENIED),
        ("open", "/w/f/x", None, ["O_CREAT", "O_WRONLY"], NOENT),
        ("unlink", "/d/f", None, [], DENIED),
        ("rename", "/w/f", "/nope/x", [], NOENT),
        ("rename", "/w/f", "/d/x", [], DENIED),
        ("rename", "/d/f", "/nope/x", [], DENIED),
        ("link", "/w/f", "/nope/x", [], NOENT),
        ("link", "/w/f", "/d/x", [], DENIED),
        ("link", "/w/f", "/d/f", [], DENIED),
        ("symlink", "/nope", "/d/x", [], DENIED),
        ("symlink", "/nope", "/w/f/x", [], NOENT),
        # the guest's own permission bits
        ("open", "/w/ro", None, ["O_RDWR"], DENIED),
        ("open", "/w/wo", None, ["O_RDONLY"], DENIED),
        ("open", "/w/wo", None, ["O_WRONLY", "O_APPEND"], None),
        ("truncate", "/w/ro", None, [], DENIED),
        ("execve", "/w/f", None, [], DENIED),
    ],
)
def test_each_family_checks_in_a_fixed_order(call, path, path2, flags, expected):
    # The first failing check decides, so a row whose call fails two checks
    # pins which of them runs first.  A failed call leaves the tree as it was.
    guest, pid = make_order_guest()
    before = dict(guest.files)
    assert guest.execute_syscall(ev(pid, call, path, path2, flags)).error is expected
    if expected is not None:
        assert guest.files == before
