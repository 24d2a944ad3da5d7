"""Shadow-list parsing, lookup, and the permission-decision function."""

import random

import pytest

from hvguard.guest import Guest, GuestFile
from hvguard.sacl import (
    DENY,
    PERMIT,
    PermissionOctets,
    Sacl,
    SaclRule,
    SaclParseError,
    READ_BIT,
    WRITE_BIT,
    EXECUTE_BIT,
    check_access,
    generate_full_sacl,
    parse_sacl,
)

SAMPLE = """\
# protective rows
/home/user/Documents/critical.txt 644 1000 1000
/home/user/Desktop/read-only.pdf  400 1000 1000
/etc/shadow 220 0 0
"""


def test_parse_single_entry():
    sacl = parse_sacl("/etc/shadow 400 0 0\n")
    entry = sacl.lookup("/etc/shadow")
    assert entry == SaclRule(PermissionOctets(4, 0, 0), 0, 0)


def test_parse_sample_and_lookup():
    sacl = parse_sacl(SAMPLE)
    assert len(sacl.entries) == 3
    assert sacl.lookup("/etc/shadow").perms == PermissionOctets(2, 2, 0)
    assert sacl.lookup("/home/user/Desktop/read-only.pdf").owner_uid == 1000


def test_parse_empty_input():
    assert len(parse_sacl("").entries) == 0
    assert len(parse_sacl("\n\n# only comments\n").entries) == 0


def test_parse_tabs_and_extra_spaces():
    sacl = parse_sacl("/a\t644\t1000   1000\n")
    p = sacl.lookup("/a").perms
    assert f"{p.user}{p.group}{p.other}" == "644"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("/a 998 0 0", "octal"),            # digit 9 out of range
        ("/a 64 0 0", "octal"),             # too short
        ("/a 0644 0 0", "octal"),           # too long
        ("/a 644 0", "4 fields"),           # missing column
        ("/a 644 0 0 extra", "4 fields"),   # trailing junk
        ("rel/path 644 0 0", "absolute"),
        ("/a 644 -1 0", "decimal"),
        ("/a 644 0 x", "decimal"),
        ("/a 644 \u0661 0", "decimal"),    # Arabic-Indic one: isdigit, not ASCII
        ("/a 644 0 \u00b2", "decimal"),    # superscript two: isdigit, int() rejects it
        ("/a\0b 644 0 0", "NUL"),
        ("/a 644 " + "9" * 5000 + " 0", "too large"),  # past int()'s digit limit
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SaclParseError) as excinfo:
        parse_sacl(text)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line_no == 1


def test_parse_duplicate_path_is_error():
    with pytest.raises(SaclParseError) as excinfo:
        parse_sacl("/a 644 0 0\n/a 600 0 0\n")
    assert excinfo.value.line_no == 2


def test_lookup_exact_match_only():
    sacl = parse_sacl("/etc/shadow 220 0 0\n")
    assert sacl.lookup("/etc/shadow") is not None
    assert sacl.lookup("/tmp/unlisted") is None
    assert sacl.lookup("/etc") is None          # no prefix matching
    assert sacl.lookup("/etc/shadow/x") is None


def test_lookup_after_remove_is_absent():
    sacl = parse_sacl("/a 644 0 0\n")
    del sacl.entries["/a"]
    assert sacl.lookup("/a") is None


def sacl_text(sacl):
    """One canonical row per entry, as the SACL file format writes it."""
    return "".join(
        f"{path} {r.perms.user}{r.perms.group}{r.perms.other} {r.owner_uid} {r.owner_gid}\n"
        for path, r in sacl.entries.items()
    )


def test_roundtrip_identity_random():
    rng = random.Random(42)
    for _ in range(25):
        sacl = Sacl()
        for i in range(rng.randrange(0, 30)):
            perms = PermissionOctets(rng.randrange(8), rng.randrange(8), rng.randrange(8))
            sacl.entries[f"/d{i}/f{rng.randrange(1000)}"] = SaclRule(perms, rng.randrange(5000), rng.randrange(5000))
        again = parse_sacl(sacl_text(sacl))
        assert again.entries == sacl.entries


def test_roundtrip_whitespace_normalization():
    text = "/a\t644   0  0\n\n# note\n/b 755 10 10\n"
    sacl = parse_sacl(text)
    assert parse_sacl(sacl_text(sacl)).entries == sacl.entries


def granted_octet(node, uid, gid):
    """The octet governing a requester, read back from check_access one bit
    at a time."""
    bits = (READ_BIT, WRITE_BIT, EXECUTE_BIT)
    return sum(bit for bit in bits if check_access(node, uid, gid, bit) is PERMIT)


def test_effective_octet_cascade():
    # The SACL and the guest decide through the same cascade.
    perms, root_perms = PermissionOctets(6, 4, 0), PermissionOctets(4, 0, 0)
    pairs = [
        (SaclRule(perms, 1000, 1000), SaclRule(root_perms, 0, 0)),
        (GuestFile(1000, 1000, perms), GuestFile(0, 0, root_perms)),
    ]
    for node, root_node in pairs:
        assert granted_octet(node, 1000, 1000) == 6   # owner
        assert granted_octet(node, 2000, 1000) == 4   # same group
        assert granted_octet(node, 2000, 2000) == 0   # other
        assert granted_octet(root_node, 0, 0) == 4    # root is just a uid


def test_effective_octet_selects_exactly_one():
    rng = random.Random(7)
    for _ in range(300):
        perms = PermissionOctets(rng.randrange(8), rng.randrange(8), rng.randrange(8))
        entry = SaclRule(perms, rng.randrange(4), rng.randrange(4))
        uid, gid = rng.randrange(4), rng.randrange(4)
        octet = granted_octet(entry, uid, gid)
        if uid == entry.owner_uid:
            assert octet == perms.user
        elif gid == entry.owner_gid:
            assert octet == perms.group
        else:
            assert octet == perms.other


def test_check_access_root_write_denied():
    rule = parse_sacl("/etc/shadow 400 0 0\n").lookup("/etc/shadow")
    assert check_access(rule, 0, 0, WRITE_BIT) is DENY
    assert check_access(rule, 0, 0, READ_BIT) is PERMIT


def test_check_access_absent_uses_default():
    rule = Sacl().lookup("/anything")
    assert rule is None
    for bits in range(1, 8):
        assert check_access(rule, 5, 5, bits) is PERMIT


def test_check_access_all_bits_set():
    rule = parse_sacl("/f 777 0 0\n").lookup("/f")
    for uid, gid in [(0, 0), (1, 0), (1, 1), (999, 42)]:
        for bits in range(1, 8):
            assert check_access(rule, uid, gid, bits) is PERMIT


def test_check_access_is_pure():
    sacl = parse_sacl("/f 640 10 20\n")
    before = dict(sacl.entries)
    first = check_access(sacl.lookup("/f"), 10, 20, WRITE_BIT)
    second = check_access(sacl.lookup("/f"), 10, 20, WRITE_BIT)
    assert first is second
    assert sacl.entries == before


def test_check_access_multi_bit_masks_brute_force():
    # A mask is permitted only when the requester's octet holds every bit of
    # it; the expectation is spelled out per bit, through no mask arithmetic.
    requesters = {0: (1000, 1000), 1: (2000, 1000), 2: (3000, 3000)}  # owner, group, other
    cases = 0
    for n in range(512):
        text = f"{n >> 6 & 7}{n >> 3 & 7}{n & 7}"
        rule = SaclRule(PermissionOctets.from_text(text), 1000, 1000)
        for position, (uid, gid) in requesters.items():
            granted = format(int(text[position]), "03b")  # "rwx" as 0/1 characters
            for mask in range(1, 8):
                wanted = format(mask, "03b")
                allowed = all(g == "1" for g, w in zip(granted, wanted) if w == "1")
                expected = PERMIT if allowed else DENY
                assert check_access(rule, uid, gid, mask) is expected, (text, position, mask)
                cases += 1
    assert cases == 512 * 3 * 7


def test_generate_full_sacl_small():
    guest = Guest()
    guest.add_file("/a", 1000, 1000, PermissionOctets(6, 4, 4))
    guest.add_file("/b", 0, 0, PermissionOctets(4, 0, 0))
    guest.add_file("/c", 1000, 1000, PermissionOctets(7, 5, 5), is_directory=True)
    sacl = generate_full_sacl(guest.files)
    assert len(sacl.entries) == 3
    assert sacl.lookup("/b").perms == PermissionOctets(4, 0, 0)


def test_generate_full_sacl_empty_guest():
    assert len(generate_full_sacl(Guest().files).entries) == 0


def test_generate_full_sacl_large_tree_path_sets_match():
    # Independent oracle: enumerate the generated tree and diff path sets.
    from hvguard.guest import GuestFile

    guest = Guest()
    perms = PermissionOctets(6, 4, 4)
    for i in range(100_000):
        p = f"/f{i:06d}"
        guest.files[p] = GuestFile(i % 3000, i % 100, perms)
    sacl = generate_full_sacl(guest.files)
    assert len(sacl.entries) == 100_000
    assert set(sacl.entries) == set(guest.files)
    probe = guest.files["/f054321"]
    entry = sacl.lookup("/f054321")
    assert (entry.owner_uid, entry.owner_gid) == (probe.owner_uid, probe.owner_gid)


def test_permission_octets_text_roundtrip():
    for n in range(512):
        text = f"{n >> 6 & 7}{n >> 3 & 7}{n & 7}"
        p = PermissionOctets.from_text(text)
        assert f"{p.user}{p.group}{p.other}" == text


def test_permission_octets_reject_out_of_range():
    with pytest.raises(ValueError):
        PermissionOctets(8, 0, 0)
    with pytest.raises(ValueError):
        PermissionOctets.from_text("99a")


def test_entry_requires_absolute_path():
    with pytest.raises(ValueError, match="not absolute"):
        generate_full_sacl({"relative": GuestFile(0, 0, PermissionOctets(6, 4, 4))})


def test_rule_rejects_negative_ids():
    with pytest.raises(ValueError):
        SaclRule(PermissionOctets(6, 4, 4), -1, 0)
