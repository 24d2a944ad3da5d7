"""Mediation callback: ownership, required checks, token auth, verdicts."""

import json
import random
import sys

import pytest

from hvguard.guest import (
    BAD_ADDRESS,
    BAD_FILE_DESCRIPTOR,
    BARRED,
    CALL_FAMILY,
    IMAGE,
    Guest,
    GuestError,
    SyscallEvent,
)
from hvguard import cli, mediator
from hvguard.engine import Simulation
from hvguard.mediator import (
    HARD_DENIED_CALL,
    SACL_DENY,
    UNAUTHENTICATED,
    WHITELIST_MISS,
    OwnershipRecord,
    PolicyOptions,
    Verdict,
    apply_verdict,
    mediate,
    required_checks,
    token_response,
    try_token_auth,
)
from hvguard.sacl import DENY, EXECUTE_BIT, PERMIT, READ_BIT, WRITE_BIT, PermissionOctets, check_access, parse_sacl
from sha512_oracle import sha512_hex

# Module loading, kernel swapping and the two handle-based calls.
HARD_DENIED_CALLS = sorted(call for call, family in CALL_FAMILY.items() if family in (IMAGE, BARRED))

# Frozen with the independent oracle: sha512_hex(b"abcs")
ABCS_DIGEST = (
    "0e2973eebeb8a2aa783eea284dffc78dd704a5901c662ee0829ccdec532d18c5"
    "f2b86a58288ce0fcd08a3f6aaefb38599c87ae7b12057e01a1e66822e34859a4"
)


def ev(call, path=None, path2=None, flags=(), pid=2, seq=1):
    return SyscallEvent(seq, pid, call, path, path2, frozenset(flags))


def fresh_state(sacl_text="", exec_whitelist=False, secrets=None, window=300, owner=(1000, 1000)):
    """Mediation state whose table records pid 2, the pid of ``ev``, as owner."""
    sacl = parse_sacl(sacl_text)
    table = {2: OwnershipRecord(*owner)}
    options = PolicyOptions(exec_whitelist=exec_whitelist, secrets=dict(secrets or {}), window=window)
    sessions = {}
    return sacl, table, options, sessions


# -- ownership table --------------------------------------------------------


def test_the_record_wins_over_any_claim():
    sacl, table, options, sessions = fresh_state()
    for claimed, mismatch in (((1000, 1000), False), ((0, 0), True), ((1000, 0), True), ((0, 1000), True)):
        verdict = mediate(ev("open", "/f"), claimed, sacl, table, options, sessions)
        assert (verdict.resolved_uid, verdict.resolved_gid, verdict.mismatch) == (1000, 1000, mismatch), claimed


def test_on_sudo_updates_and_requires_known_pid():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=7)
    sim.sudo(7, 0, 0)
    assert sim.table[7] == (0, 0)
    sim.sudo(7, 0, 0)  # idempotent, no error
    assert sim.table[7] == (0, 0)
    with pytest.raises(GuestError, match="pid 99 is not alive"):
        sim.sudo(99, 0, 0)
    assert 99 not in sim.table


def test_on_exit_removes_and_tolerates_unknown():
    sim = Simulation()
    sim.spawn(1, 1000, 1000, pid=7)
    sim.syscall(7, "exit")
    assert 7 not in sim.table
    # a second exit is refused by the guest before the table is touched
    with pytest.raises(GuestError, match="pid 7 is not alive"):
        sim.syscall(7, "exit")
    assert sim.table == {1: (0, 0)}


def test_a_pid_without_a_record_is_never_decided_on_its_claim():
    sacl, table, options, sessions = fresh_state()
    with pytest.raises(KeyError):
        mediate(ev("open", "/f", pid=8), (42, 43), sacl, table, options, sessions)


# -- required checks --------------------------------------------------------


R, W, X = READ_BIT, WRITE_BIT, EXECUTE_BIT


def pairs(event):
    """required_checks as (path, access bits) pairs, in order."""
    return list(required_checks(event).items())


def test_required_checks_open_variants():
    assert pairs(ev("open", "/etc/shadow", flags=["O_WRONLY"])) == [("/etc/shadow", W)]
    assert pairs(ev("open", "/f", flags=["O_RDONLY"])) == [("/f", R)]
    assert pairs(ev("open", "/f")) == [("/f", R)]
    assert pairs(ev("open", "/f", flags=["O_RDWR"])) == [("/f", R | W)]
    assert pairs(ev("open", "/d/f", flags=["O_CREAT", "O_WRONLY"])) == [("/d/f", W), ("/d", W)]
    # "/" is its own parent: one path, with the bits of both needs.
    assert pairs(ev("open", "/", flags=["O_CREAT", "O_RDWR"])) == [("/", R | W)]
    # Without O_WRONLY the guest reads the file it opens, so a write-intent
    # flag on its own asks for read as well as write.
    assert pairs(ev("open", "/d/f", flags=["O_CREAT"])) == [("/d/f", R | W), ("/d", W)]
    assert pairs(ev("open", "/d/f", flags=["O_RDONLY", "O_CREAT"])) == [("/d/f", R | W), ("/d", W)]
    assert pairs(ev("open", "/f", flags=["O_TRUNC"])) == [("/f", R | W)]
    assert pairs(ev("open", "/f", flags=["O_RDONLY", "O_APPEND"])) == [("/f", R | W)]
    assert pairs(ev("open", "/f", flags=["O_WRONLY", "O_APPEND"])) == [("/f", W)]
    assert pairs(ev("open", "/f", flags=["O_WRONLY", "O_RDWR"])) == [("/f", R | W)]


def test_required_checks_rename_row():
    assert pairs(ev("rename", "/a/x", "/b/y")) == [("/a/x", W), ("/b/y", W), ("/a", W), ("/b", W)]
    # Each distinct path once: a shared parent, then a rename onto itself.
    assert pairs(ev("rename", "/a/x", "/a/y")) == [("/a/x", W), ("/a/y", W), ("/a", W)]
    assert pairs(ev("rename", "/a/x", "/a/x")) == [("/a/x", W), ("/a", W)]


def test_required_checks_unlink_truncate_link_exec():
    assert pairs(ev("unlink", "/a/x")) == [("/a/x", W), ("/a", W)]
    assert pairs(ev("truncate", "/a/x")) == [("/a/x", W)]
    assert pairs(ev("link", "/a/x", "/b/y")) == [("/b/y", W), ("/b", W)]
    assert pairs(ev("symlinkat", "/a/x", "/b/y")) == [("/b/y", W), ("/b", W)]
    assert pairs(ev("execve", "/home/user/test")) == [("/home/user/test", X)]


def test_required_checks_rejects_non_file_calls():
    for call in ("exit", "exit_group", "clone", "init_module", "kexec_load"):
        with pytest.raises(ValueError):
            required_checks(ev(call))


def test_required_checks_skips_null_slots():
    assert pairs(ev("rename", None, "/b/y")) == [("/b/y", W), ("/b", W)]
    assert pairs(ev("execve", None)) == []


# -- token auth --------------------------------------------------------------


def test_token_response_matches_independent_oracle():
    assert token_response("abc", "s") == ABCS_DIGEST
    assert sha512_hex(b"abcs") == ABCS_DIGEST


def test_token_auth_success_sets_window():
    table = {2: OwnershipRecord(1000, 1000)}
    options = PolicyOptions(secrets={1000: "s"}, window=300)
    sessions = {}
    handled = try_token_auth("/tokens/abc" + ABCS_DIGEST, 2, table, options, sessions, seq=10)
    assert handled
    assert sessions == {1000: 310}  # the expiry: valid through seq 310 inclusive


def test_token_auth_wrong_response_handled_but_no_session():
    table = {2: OwnershipRecord(1000, 1000)}
    options = PolicyOptions(secrets={1000: "s"})
    sessions = {}
    bad = ABCS_DIGEST[:-1] + ("0" if ABCS_DIGEST[-1] != "0" else "1")
    assert try_token_auth("/tokens/abc" + bad, 2, table, options, sessions, seq=10)
    assert sessions == {}


def test_token_auth_ignores_non_token_paths_and_short_blobs():
    table = {2: OwnershipRecord(1000, 1000)}
    options = PolicyOptions(secrets={1000: "s"})
    assert not try_token_auth("/home/user/x", 2, table, options, {}, 1)
    assert not try_token_auth(None, 2, table, options, {}, 1)
    assert try_token_auth("/tokens/short", 2, table, options, {}, 1)  # handled, no auth


# A challenge UTF-8 cannot encode: a lone surrogate, then a well-formed response.
SURROGATE_TOKEN = "/tokens/\ud800" + "a" * 128


def test_token_auth_rejects_a_challenge_utf8_cannot_encode():
    sacl, table, options, sessions = fresh_state("/home/u/f 600 1000 1000\n", secrets={1000: "gatekeeper"})
    assert try_token_auth(SURROGATE_TOKEN, 2, table, options, sessions, seq=10)
    assert sessions == {}
    # The open still reaches the guest, like every token open; the uid's
    # next write to a listed file has no session.
    token = mediate(ev("open", SURROGATE_TOKEN, seq=11), (1000, 1000), sacl, table, options, sessions)
    assert token.decision is PERMIT and sessions == {}
    write = mediate(ev("open", "/home/u/f", flags=["O_WRONLY"], seq=12), (1000, 1000), sacl, table, options, sessions)
    assert (write.decision, write.reason) == (DENY, UNAUTHENTICATED)


def test_a_replay_with_an_unencodable_token_path_finishes(tmp_path, capsys):
    (tmp_path / "sacl").write_text("/home/u/f 600 1000 1000\n")
    (tmp_path / "secrets").write_text("1000 gatekeeper\n")
    events = [
        {"ev": "file", "path": "/home/u", "uid": 1000, "gid": 1000, "perm": "755", "dir": True},
        {"ev": "file", "path": "/home/u/f", "uid": 1000, "gid": 1000, "perm": "600"},
        {"ev": "spawn", "pid": 2, "parent": 1, "uid": 1000, "gid": 1000},
        {"ev": "sys", "pid": 2, "call": "open", "path": SURROGATE_TOKEN},
        {"ev": "expect", "decision": "permit", "error": "no_such_file"},
        {"ev": "sys", "pid": 2, "call": "open", "path": "/home/u/f", "flags": ["O_WRONLY"]},
        {"ev": "expect", "decision": "deny"},
    ]
    (tmp_path / "scenario").write_text("".join(json.dumps(e) + "\n" for e in events))
    log = tmp_path / "log.csv"
    code = cli.main([
        "--sacl", str(tmp_path / "sacl"), "--scenario", str(tmp_path / "scenario"),
        "--auth-secrets", str(tmp_path / "secrets"), "--out", str(log),
    ])
    assert capsys.readouterr().err == "sys events: 2  expect checks: 2  mismatches: 0\n"
    assert code == 0
    assert log.read_text().splitlines()[1:] == [
        "4,2,open,1000,1000,permit,permit,false",
        "5,2,open,1000,1000,deny,unauthenticated,false",
    ]


def _is_lower_hex_by_generator(text):
    """The check's earlier definition, the reference for the compiled pattern."""
    return all(c in "0123456789abcdef" for c in text)


@pytest.mark.parametrize(
    "text",
    ["", "0" * 128, ABCS_DIGEST, ABCS_DIGEST.upper(), "ABCDEF", "٣", "²", "١٠", "0" * 127 + "٣",
     " " + "a" * 127, "a" * 127 + " ", "ab cd", "ab\ncd", "ab\n", "\n", "ab\0cd", "\0", "abcdefg", "0x1f"],
    ids=ascii,
)
def test_lower_hex_check_matches_the_generator_definition(text):
    assert bool(mediator._is_lower_hex(text)) is _is_lower_hex_by_generator(text)


def test_auth_config_validation():
    with pytest.raises(ValueError, match="^auth window must be positive$"):
        PolicyOptions(window=0)


# -- mediate ------------------------------------------------------------------


def test_hard_denied_calls_always_deny():
    sacl, table, options, sessions = fresh_state(owner=(0, 0))
    assert len(HARD_DENIED_CALLS) == 7
    for call in HARD_DENIED_CALLS:
        verdict = mediate(ev(call, "/x"), (0, 0), sacl, table, options, sessions)
        assert verdict.decision is DENY
        assert verdict.reason is HARD_DENIED_CALL


def test_sacl_deny_root_write_to_shadow():
    sacl, table, options, sessions = fresh_state("/etc/shadow 400 0 0\n", owner=(0, 0))
    event = ev("open", "/etc/shadow", flags=["O_WRONLY"])
    verdict = mediate(event, (0, 0), sacl, table, options, sessions)
    assert (verdict.decision, verdict.reason) == (DENY, SACL_DENY)
    # The deciding check, worked out again from the SACL, which no call writes.
    assert required_checks(event) == {"/etc/shadow": WRITE_BIT} and verdict.probes == 1
    assert check_access(sacl.entries.get("/etc/shadow"), 0, 0, WRITE_BIT) is DENY


def test_unlisted_path_permits_by_default():
    sacl, table, options, sessions = fresh_state("/etc/shadow 400 0 0\n")
    verdict = mediate(ev("open", "/tmp/scratch", flags=["O_WRONLY"]), (1000, 1000), sacl, table, options, sessions)
    assert verdict.decision is PERMIT


def test_unauthenticated_denies_only_listed_paths():
    sacl, table, options, sessions = fresh_state(
        "/home/user/test1.txt 644 1000 1000\n",
        secrets={1000: "gatekeeper"},
    )
    listed = ev("open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"], seq=5)
    verdict = mediate(listed, (1000, 1000), sacl, table, options, sessions)
    assert (verdict.decision, verdict.reason) == (DENY, UNAUTHENTICATED)
    unlisted = ev("open", "/tmp/free", flags=["O_WRONLY"], seq=6)
    assert mediate(unlisted, (1000, 1000), sacl, table, options, sessions).decision is PERMIT


def test_unauthenticated_denied_when_only_a_later_path_is_listed():
    # An unlisted file renamed into a listed directory: only the last of the
    # four paths has a rule, and that alone closes the gate.
    sacl, table, options, sessions = fresh_state("/vault 777 1000 1000\n", secrets={1000: "s"})
    verdict = mediate(ev("rename", "/tmp/x", "/vault/x"), (1000, 1000), sacl, table, options, sessions)
    assert (verdict.decision, verdict.reason) == (DENY, UNAUTHENTICATED)
    assert verdict.probes == 4
    sessions[1000] = 10  # authenticated: the 777 rule permits the same call
    verdict = mediate(ev("rename", "/tmp/x", "/vault/x"), (1000, 1000), sacl, table, options, sessions)
    assert verdict.decision is PERMIT


def test_token_then_listed_write_permits_until_expiry():
    sacl, table, options, sessions = fresh_state(
        "/home/user/test1.txt 644 1000 1000\n",
        secrets={1000: "gatekeeper"},
        window=300,
    )
    token = "/tokens/111" + token_response("111", "gatekeeper")
    token_ev = ev("open", token, flags=["O_CREAT", "O_WRONLY"], seq=10)
    verdict = mediate(token_ev, (1000, 1000), sacl, table, options, sessions)
    assert verdict.decision is PERMIT  # the artificial open itself is unlisted

    listed = ev("open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"], seq=20)
    assert mediate(listed, (1000, 1000), sacl, table, options, sessions).decision is PERMIT

    last = ev("open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"], seq=310)  # 10 + window
    assert mediate(last, (1000, 1000), sacl, table, options, sessions).decision is PERMIT

    late = ev("open", "/home/user/test1.txt", flags=["O_CREAT", "O_WRONLY"], seq=311)
    verdict = mediate(late, (1000, 1000), sacl, table, options, sessions)
    assert (verdict.decision, verdict.reason) == (DENY, UNAUTHENTICATED)


def test_exec_whitelist_miss_and_hit():
    sacl, table, options, sessions = fresh_state(
        "/home/user/test 755 1000 1000\n", exec_whitelist=True
    )
    hit = mediate(ev("execve", "/home/user/test"), (1000, 1000), sacl, table, options, sessions)
    assert hit.decision is PERMIT
    miss = mediate(ev("execve", "/home/user/newfile"), (1000, 1000), sacl, table, options, sessions)
    assert (miss.decision, miss.reason) == (DENY, WHITELIST_MISS)


def test_exec_whitelist_listed_but_no_execute_bit():
    sacl, table, options, sessions = fresh_state(
        "/home/user/doc 644 1000 1000\n", exec_whitelist=True
    )
    verdict = mediate(ev("execve", "/home/user/doc"), (1000, 1000), sacl, table, options, sessions)
    assert (verdict.decision, verdict.reason) == (DENY, SACL_DENY)


def test_mismatched_claims_use_fork_time_credentials():
    sacl, table, options, sessions = fresh_state("/etc/shadow 600 0 0\n", owner=(1000, 1000))
    # claims root, recorded as 1000: decided as 1000, flagged as mismatch
    verdict = mediate(ev("open", "/etc/shadow", flags=["O_WRONLY"]), (0, 0), sacl, table, options, sessions)
    assert verdict.mismatch
    assert (verdict.resolved_uid, verdict.resolved_gid) == (1000, 1000)
    assert verdict.decision is DENY


def test_exit_and_clone_are_permitted_without_checks():
    sacl, table, options, sessions = fresh_state("/etc/shadow 400 0 0\n", owner=(0, 0))
    for call in ("exit", "exit_group", "clone"):
        event = ev(call)
        verdict = mediate(event, (0, 0), sacl, table, options, sessions)
        assert verdict.decision is PERMIT
        assert verdict.probes == 0
        with pytest.raises(ValueError, match="not a file-operation call"):
            required_checks(event)


# -- apply_verdict ------------------------------------------------------------


def test_apply_verdict_nulls_first_path_slot():
    sacl, table, options, sessions = fresh_state("/a/x 444 0 0\n")
    event = ev("rename", "/a/x", "/b/y")
    verdict = mediate(event, (1000, 1000), sacl, table, options, sessions)
    assert verdict.decision is DENY
    forwarded = apply_verdict(event, verdict)
    assert forwarded.path is None
    assert forwarded.path2 == "/b/y"


def test_apply_verdict_permit_is_identity():
    sacl, table, options, sessions = fresh_state()
    event = ev("open", "/tmp/x", flags=["O_RDONLY"])
    verdict = mediate(event, (1000, 1000), sacl, table, options, sessions)
    assert apply_verdict(event, verdict) is event


def test_denial_never_raises_and_yields_guest_error():
    # every file call denied by a write-locked SACL row still reaches the
    # guest and fails there with its fixed code
    deny_all = "\n".join(
        f"{p} 000 0 0" for p in ("/a/x", "/a/y", "/a", "/etc/mod.ko")
    )
    sacl, table, options, sessions = fresh_state(deny_all + "\n")
    guest = Guest()
    guest.add_file("/a/x", 0, 0, PermissionOctets(7, 7, 7))
    guest.add_file("/a/y", 0, 0, PermissionOctets(7, 7, 7))
    pid = guest.spawn_process(1, 0, 0)
    table[pid] = OwnershipRecord(0, 0)

    cases = [
        (ev("open", "/a/x", flags=["O_WRONLY"], pid=pid), BAD_FILE_DESCRIPTOR),
        (ev("open", "/a/x", flags=["O_RDONLY"], pid=pid), BAD_ADDRESS),
        (ev("rename", "/a/x", "/a/y", pid=pid), BAD_ADDRESS),
        (ev("unlink", "/a/x", pid=pid), BAD_ADDRESS),
        (ev("truncate", "/a/x", pid=pid), BAD_ADDRESS),
        (ev("execve", "/a/x", pid=pid), BAD_ADDRESS),
        (ev("init_module", "/etc/mod.ko", pid=pid), BAD_FILE_DESCRIPTOR),
        (ev("finit_module", "/etc/mod.ko", pid=pid), BAD_FILE_DESCRIPTOR),
        (ev("kexec_load", "/etc/mod.ko", pid=pid), BAD_ADDRESS),
        (ev("open_by_handle_at", "/a/x", pid=pid), BAD_FILE_DESCRIPTOR),
        (ev("name_to_handle_at", "/a/x", pid=pid), BAD_ADDRESS),
    ]
    for event, expected in cases:
        verdict = mediate(event, (0, 0), sacl, table, options, sessions)
        assert verdict.decision is DENY, event.call
        outcome = guest.execute_syscall(apply_verdict(event, verdict))
        assert outcome.error is expected, event.call


def test_immutability_pattern_write_bits_clear():
    sacl, table, options, sessions = fresh_state("/locked 444 0 0\n")
    for uid in (0, 1, 500, 1000, 65534):
        for gid in (0, uid):
            table[2] = OwnershipRecord(uid, gid)
            event = ev("open", "/locked", flags=["O_WRONLY"])
            verdict = mediate(event, (uid, gid), sacl, table, options, sessions)
            assert verdict.decision is DENY, (uid, gid)


def test_hard_denied_product_space():
    rng = random.Random(11)
    sacl_variants = [
        parse_sacl(""),
        parse_sacl("/x 777 0 0\n"),
        parse_sacl("/x 000 0 0\n/etc/modules 444 0 0\n"),
    ]
    for call in HARD_DENIED_CALLS:
        for sacl in sacl_variants:
            for _ in range(5):
                uid, gid = rng.randrange(2000), rng.randrange(2000)
                table = {2: OwnershipRecord(uid, gid)}
                sessions = {}
                options = PolicyOptions(secrets={uid: "s"})
                if rng.random() < 0.5:
                    sessions[uid] = 10_000  # authenticated
                verdict = mediate(
                    ev(call, "/x", seq=5), (uid, gid), sacl, table, options, sessions
                )
                assert (verdict.decision, verdict.reason) == (
                    DENY,
                    HARD_DENIED_CALL,
                )


# -- the cost of a hit ----------------------------------------------------------


def _python_calls(event, sacl, options):
    """Names of the Python-level functions mediate calls, in call order."""
    table, sessions = {2: OwnershipRecord(1000, 1000)}, {}
    called = []

    def profile(frame, what, arg):
        if what == "call":
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        verdict = mediate(event, (1000, 1000), sacl, table, options, sessions)
    finally:
        sys.setprofile(None)
    return verdict, called[1:]  # mediate's own frame first


def test_a_hit_makes_the_same_calls_as_a_miss():
    sacl = parse_sacl("/etc/listed 644 0 0\n")
    assert required_checks(ev("open", "/etc/listed", flags=["O_RDONLY"])) == {"/etc/listed": R}
    # The cascade runs inside check_access, which a miss calls too, and the
    # session check of a uid with a secret runs inline in mediate.
    for options, hit_decision in ((PolicyOptions(), PERMIT), (PolicyOptions(secrets={1000: "s"}), DENY)):
        hit, hit_calls = _python_calls(ev("open", "/etc/listed", flags=["O_RDONLY"]), sacl, options)
        miss, miss_calls = _python_calls(ev("open", "/etc/unlisted", flags=["O_RDONLY"]), sacl, options)
        assert (hit.decision, miss.decision) == (hit_decision, PERMIT)
        assert hit.probes == miss.probes == 1
        assert hit_calls == miss_calls, options
        assert "check_access" in hit_calls
        # No token attempt without a secret: no uid could verify one.
        assert ("try_token_auth" in hit_calls) == bool(options.secrets)
    with_secret = PolicyOptions(secrets={1: "s"})
    _, secret_calls = _python_calls(ev("open", "/etc/unlisted", flags=["O_RDONLY"]), sacl, with_secret)
    assert "try_token_auth" in secret_calls


def test_a_hit_checks_the_session_of_a_uid_with_a_secret():
    sacl = parse_sacl("/etc/listed 644 0 0\n")
    options = PolicyOptions(secrets={1000: "s"})
    verdict, _ = _python_calls(ev("open", "/etc/listed", flags=["O_RDONLY"]), sacl, options)
    assert (verdict.decision, verdict.reason) == (DENY, UNAUTHENTICATED)
    verdict, _ = _python_calls(ev("open", "/etc/unlisted", flags=["O_RDONLY"]), sacl, options)
    assert (verdict.decision, verdict.reason) == (PERMIT, PERMIT)


# -- the Verdict contract ---------------------------------------------------------


def test_verdict_fields_positional_construction_and_immutability():
    names = ("seq", "pid", "call", "resolved_uid", "resolved_gid", "decision", "reason", "mismatch", "probes")
    assert Verdict._fields == names
    values = (5, 2, "open", 1000, 100, DENY, SACL_DENY, True, 1)
    verdict = Verdict(*values)
    assert tuple(getattr(verdict, name) for name in names) == values
    for name in names:
        with pytest.raises(AttributeError):
            setattr(verdict, name, None)
    with pytest.raises(AttributeError):
        verdict.extra = 1
    assert type(mediate(ev("open", "/f"), (1000, 1000), *fresh_state())) is Verdict
