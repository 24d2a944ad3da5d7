"""The load path against the plain rules it replaced.

``PermissionOctets.from_text`` returns shared instances from a table, and
``parse_scenario`` decodes with ``JSONDecoder.raw_decode``.  Both are checked
against straightforward references: the length-and-alphabet rule for octal
permission texts, and a per-line ``json.loads`` scenario parser.
"""

import itertools
import json
import sys

import pytest

from conftest import REPO_ROOT
from hvguard.engine import ScenarioError, parse_scenario
from hvguard.sacl import PermissionOctets

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
        assert octets.to_text() == text
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
]


@pytest.fixture(scope="module")
def workload_text(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("token_gate")
    gen.generate("token_gate", 7, outdir)
    return (outdir / "trace.jsonl").read_text(encoding="utf-8")


def test_parse_scenario_matches_json_loads_on_a_generated_workload(workload_text):
    events = parse_scenario(workload_text)
    assert events == reference_parse_scenario(workload_text)
    assert len(events) > 10_000


def test_parse_scenario_matches_json_loads_on_odd_but_valid_lines():
    text = "# odd lines\n\n" + "\n".join(ODD_BUT_VALID) + "\n"
    events = parse_scenario(text)
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
