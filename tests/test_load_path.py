"""The load path against the plain rules it replaced.

``PermissionOctets.from_text`` returns shared instances from a table,
``parse_sacl`` shares one rule per (perm, uid, gid) text triple, and
``decode_line``, which ``parse_scenario`` calls on each line it has not
parsed before, decodes with the C scanner behind ``JSONDecoder.raw_decode``.
Each is checked against a straightforward reference: the
length-and-alphabet rule for octal permission texts, a row-by-row SACL
parser, and a per-line ``json.loads`` scenario parser.
"""

import itertools
import json
import random
import sys

import pytest

from conftest import REPO_ROOT
from hvguard.engine import ScenarioError, decode_line, parse_scenario
from hvguard.sacl import PermissionOctets, SaclParseError, parse_sacl

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import gen  # noqa: E402


def reference_from_text(text):
    """The rule before the table: three characters, each in 01234567."""
    if len(text) != 3 or any(c not in "01234567" for c in text):
        return None
    return PermissionOctets(int(text[0]), int(text[1]), int(text[2]))


def test_from_text_matches_the_octal_rule():
    alphabet = "0123456789 +-x\u0663\u00b2"  # Arabic-Indic three, superscript two
    texts = ["", "6", "64", "0644", "6440", " 644", "644\n"]
    texts += ["".join(chars) for chars in itertools.product(alphabet, repeat=3)]
    valid = 0
    for text in texts:
        expected = reference_from_text(text)
        if expected is None:
            with pytest.raises(ValueError, match="not a 3-digit octal permission"):
                PermissionOctets.from_text(text)
            continue
        valid += 1
        octets = PermissionOctets.from_text(text)
        assert octets == expected
        assert f"{octets.user}{octets.group}{octets.other}" == text
        # An equal text built separately maps to the very same instance.
        assert PermissionOctets.from_text("".join(list(text))) is octets
    assert valid == 512


def test_direct_construction_still_validates():
    with pytest.raises(ValueError):
        PermissionOctets(8, 0, 0)
    assert PermissionOctets(6, 4, 4) == PermissionOctets.from_text("644")


def reference_parse_scenario(text):
    """Per-line json.loads, as the scenario parser decoded before."""
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScenarioError(line_no, f"bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "ev" not in obj:
            raise ScenarioError(line_no, "event must be an object with an 'ev' key")
        events.append((line_no, obj))
    return events


# Lines both parsers accept.  NaN and infinities decode to floats, so the
# results are compared through repr (NaN != NaN).
ODD_BUT_VALID = [
    '\t{"ev":"user","uid":1,"gid":1} \t',
    '\u00a0{"ev":"user","uid":2,"gid":2}\u3000',  # not JSON whitespace; str.strip drops it
    '{"ev":NaN,"x":Infinity,"y":-Infinity}',
    '{"ev":"sys","path":"/\\u00e9t\\u00e9","flags":[]}',
    '{ "ev" : "user" , "nested" : {"a":[1,[2,{"b":null}]]} }',
    '{"ev":"user","ev":"file"}',
    '{"ev":1e400}',
]

MALFORMED = [
    '{"ev":"user","uid":1,"gid":1} x',
    '{"ev":"user"}{}',
    '{"ev":"user"} 1',
    '{"ev":"user"}]',
    "NaN",
    "3",
    "-0.5e3",
    '"ev"',
    "null",
    '[{"ev":"user"}]',
    "[]",
    "{}",
    '{"no_ev":1}',
    '\ufeff{"ev":"user"}',  # a byte-order mark
    '{"ev":"user"',
    '{"ev":"user",}',
    "{'ev':'user'}",
    '{"ev":"a\x01b"}',
    "{broken",
    # No JSON value starts the line: the scanner raises StopIteration.
    "]",
    "x",
    ",{}",
]


@pytest.fixture(scope="module")
def workload_text(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("token_gate")
    gen.generate("token_gate", 7, outdir)
    return (outdir / "trace.jsonl").read_text(encoding="utf-8")


def decode_lines(text):
    """(line_no, decode_line(line_no, line)) over the lines the reference
    decodes: stripped, neither blank nor a comment."""
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            pairs.append((line_no, decode_line(line_no, line)))
    return pairs


def test_parse_scenario_matches_json_loads_on_a_generated_workload(workload_text):
    events = decode_lines(workload_text)
    assert events == reference_parse_scenario(workload_text)
    assert len(events) > 10_000


def test_parse_scenario_matches_json_loads_on_odd_but_valid_lines():
    text = "# odd lines\n\n" + "\n".join(ODD_BUT_VALID) + "\n"
    events = decode_lines(text)
    assert repr(events) == repr(reference_parse_scenario(text))
    assert [line_no for line_no, _ in events] == list(range(3, 3 + len(ODD_BUT_VALID)))


@pytest.mark.parametrize("line", MALFORMED)
def test_parse_scenario_errors_match_json_loads(line):
    text = '{"ev":"user","uid":0,"gid":0}\n# two good lines first\n' + line + "\n"
    with pytest.raises(ScenarioError) as expected:
        reference_parse_scenario(text)
    with pytest.raises(ScenarioError) as got:
        parse_scenario(text)
    assert str(got.value) == str(expected.value)
    assert got.value.line_no == expected.value.line_no == 3


@pytest.mark.parametrize(
    "value,message",
    [
        ("9" * 5000, "Exceeds the limit"),  # json.loads: a plain ValueError
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),  # json.loads: RecursionError
    ],
    ids=["digit_limit", "nesting"],
)
def test_json_loads_errors_beyond_decode_errors_name_the_line(value, message):
    text = '{"ev":"user","uid":0,"gid":0}\n{"ev":"user","x":' + value + "}\n"
    with pytest.raises(ScenarioError, match=rf"^line 2: bad JSON: {message}"):
        parse_scenario(text)


def reference_parse_sacl(text):
    """Row by row, each row checked in full, as SACL rows were read before
    rules were shared.  Returns {path: ((u, g, o), uid, gid)}, or
    (line_no, message) for the first bad row."""
    rows = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            return line_no, f"expected 4 fields, got {len(fields)}"
        path, perm, uid, gid = fields
        if not path.startswith("/"):
            return line_no, f"path is not absolute: {path!r}"
        if "\0" in path:
            return line_no, f"path contains NUL: {path!r}"
        if len(perm) != 3 or any(c not in "01234567" for c in perm):
            return line_no, f"not a 3-digit octal permission: {perm!r}"
        if not all(ids and all(c in "0123456789" for c in ids) for ids in (uid, gid)):
            return line_no, "uid/gid must be decimal non-negative integers"
        try:
            ids = int(uid), int(gid)
        except ValueError:
            return line_no, "uid/gid too large"
        if path in rows:
            return line_no, f"duplicate path: {path}"
        rows[path] = (tuple(int(c) for c in perm), *ids)
    return rows


PERM_TEXTS = ["644", "600", "400", "755", "000", "777"]
ID_TEXTS = ["0", "00", "7", "007", "1000", "01000", "65534"]
BAD_ROWS = [
    "/bad 8xx 0 0",
    "/bad 6440 0 0",
    "/bad 644 x 0",
    "/bad 644 0 -1",
    "/bad 644 \u0663 0",
    "/bad 644 0 \u00b2",
    "/bad 644 " + "9" * 5000 + " 0",
    "relative 644 0 0",
    "/bad\0nul 644 0 0",
    "/bad 644 0",
    "/bad 644 0 0 extra",
]


def random_sacl_rows(rng, n):
    """n valid rows over a few (perm, uid, gid) texts, leading zeros included,
    with comments, blank lines and mixed separators between them."""
    triples = [("640", "7", "7"), ("640", "007", "07")]
    triples += [(rng.choice(PERM_TEXTS), rng.choice(ID_TEXTS), rng.choice(ID_TEXTS)) for _ in range(4)]
    rows = []
    for i in range(n):
        perm, uid, gid = rng.choice(triples)
        rows.append(rng.choice([" ", "\t", "  "]).join((f"/d{i % 7}/f{i}", perm, uid, gid)))
        if rng.random() < 0.1:
            # A comment may follow whitespace, and may have 4 fields.
            rows.append(rng.choice(["", "# note", "   ", " \t# note", "#/d0/x 644 0 0"]))
    return rows


def sacl_error(text):
    try:
        parse_sacl(text)
    except SaclParseError as exc:
        return exc.line_no, str(exc)
    return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_sacl_matches_a_row_by_row_parse(seed):
    rng = random.Random(seed)
    rows = random_sacl_rows(rng, 400)
    text = "\n".join(rows) + "\n"
    expected = reference_parse_sacl(text)
    sacl = parse_sacl(text)
    assert len(sacl.entries) == len(expected) == 400
    for path, (octets, uid, gid) in expected.items():
        rule = sacl.entries[path]
        assert ((rule.perms.user, rule.perms.group, rule.perms.other), rule.owner_uid, rule.owner_gid) == (
            octets, uid, gid
        )
    # Rows with equal triple texts hold the very same rule object.
    by_text = {}
    for row in rows:
        if row.strip() and not row.lstrip().startswith("#"):
            path, *triple = row.split()
            assert by_text.setdefault(tuple(triple), sacl.entries[path]) is sacl.entries[path]
    assert len({id(rule) for rule in sacl.entries.values()}) <= len(by_text)
    # Leading zeros name the same ids.
    assert by_text["640", "7", "7"] == by_text["640", "007", "07"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_sacl_errors_match_a_row_by_row_parse(seed):
    # A bad row, a duplicate path or a bad row whose triple repeats an
    # earlier one: same line number and message as checking every row.
    rng = random.Random(seed)
    for _ in range(60):
        rows = random_sacl_rows(rng, 30)
        at = rng.randrange(1, len(rows))
        bad = rng.choice(BAD_ROWS + ["repeat"] * 3)
        if bad == "repeat":
            earlier, *triple = rng.choice([r for r in rows[:at] if r.startswith("/")]).split()
            bad = " ".join([rng.choice(["relative", "/bad\0nul", earlier])] + triple)
        rows.insert(at, bad)
        text = "\n".join(rows) + "\n"
        expected = reference_parse_sacl(text)
        assert isinstance(expected, tuple), bad
        assert sacl_error(text) == (expected[0], f"line {expected[0]}: {expected[1]}")
