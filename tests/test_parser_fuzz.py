"""Seeded mutation fuzzing of the three input parsers.

Each mutated input must either load or fail with the parser's own error
naming a line of the input: ``SaclParseError`` and ``ScenarioError`` carry
``line N:``, the secrets loader ``<path>:N:``.  Through ``cli.main`` every
input must end in exit code 0, 1 or 2, never in an exception.
"""

import random
import re

import pytest

from hvguard.cli import _load_secrets, main
from hvguard.engine import ScenarioError, run_scenario
from hvguard.sacl import SaclParseError, parse_sacl

SACL = b"""\
# protected rows
/etc/shadow 400 0 0
/etc/sudoers 440 0 0
/home/user/test1.txt 644 1000 1000
/home/user/run\t755\t1000  1000
/lib/modules/my_module.ko 600 0 0
"""

SCENARIO = b"""\
# every event kind
{"ev":"user","uid":0,"gid":0,"name":"root"}
{"ev":"user","uid":1000,"gid":1000,"name":"user"}
{"ev":"file","path":"/etc/shadow","uid":0,"gid":0,"perm":"640"}
{"ev":"file","path":"/home/user","uid":1000,"gid":1000,"perm":"755","dir":true}
{"ev":"file","path":"/home/user/run","uid":1000,"gid":1000,"perm":"755"}
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"sys","pid":2,"call":"open","path":"/home/user/test1.txt","flags":["O_CREAT","O_WRONLY"]}
{"ev":"expect","decision":"deny","error":"bad_file_descriptor"}
{"ev":"sys","pid":2,"call":"execve","path":"/home/user/run"}
{"ev":"sudo","pid":2,"uid":0,"gid":0}
{"ev":"forge","pid":2,"uid":0,"gid":0}
{"ev":"sys","pid":2,"call":"rename","path":"/etc/shadow","path2":"/tmp/x"}
{"ev":"expect","decision":"deny","status":"error"}
{"ev":"sys","pid":2,"call":"clone"}
{"ev":"sys","pid":3,"call":"exit_group"}
"""

SECRETS = b"""\
# uid  shared-secret
1000 gatekeeper
1001 hunter two
"""

JSON_NON_OBJECTS = (b"[1, 2]", b'"ev"', b"3", b"null", b"NaN", b"true", b"-Infinity")
TRAILING = (b" x", b"{}", b" 1", b"]", b',"ev":"user"}')


def _mutate(rng: random.Random, data: bytes, json_lines: bool) -> bytes:
    kinds = ["truncate", "flip", "duplicate", "nul", "digit", "huge"]
    if json_lines:
        kinds += ["non_object", "trailing"]
    kind = rng.choice(kinds)
    if not data:
        return b"\0"
    if kind == "truncate":
        return data[: rng.randrange(len(data))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == "nul":
        at = rng.randrange(len(data) + 1)
        return data[:at] + b"\0" + data[at:]
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind in ("digit", "huge"):
        spots = list(re.finditer(rb"[0-9]+", data))
        if not spots:
            return data
        span = rng.choice(spots)
        if kind == "digit":
            other = rng.choice(("٣", "²", "١٠")).encode()
        else:
            other = b"9" * rng.choice((20, 5000))
        return data[: span.start()] + other + data[span.end():]
    elif kind == "non_object":
        lines[i] = rng.choice(JSON_NON_OBJECTS)
    else:
        lines[i] = lines[i] + rng.choice(TRAILING)
    return b"\n".join(lines)


def _mutants(seed: int, data: bytes, json_lines: bool, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        mutant = data
        for _ in range(rng.randint(1, 2)):
            mutant = _mutate(rng, mutant, json_lines)
        yield mutant


def _assert_names_a_line(message: str, prefix: str, text: str) -> None:
    match = re.match(re.escape(prefix) + r"(\d+): ", message)
    assert match, message
    assert 1 <= int(match.group(1)) <= len(text.splitlines()) + 1, message


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sacl_parser_loads_or_names_a_line(seed):
    for mutant in _mutants(seed, SACL, False, 150):
        text = mutant.decode("utf-8", "replace")
        try:
            parse_sacl(text)
        except SaclParseError as exc:
            _assert_names_a_line(str(exc), "line ", text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenario_parser_loads_or_names_a_line(seed):
    for mutant in _mutants(seed, SCENARIO, True, 150):
        text = mutant.decode("utf-8", "replace")
        try:
            run_scenario(text)
        except ScenarioError as exc:
            _assert_names_a_line(str(exc), "line ", text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_secrets_parser_loads_or_names_a_line(tmp_path, seed):
    path = tmp_path / "secrets.txt"
    for mutant in _mutants(seed, SECRETS, False, 150):
        path.write_bytes(mutant)
        try:
            _load_secrets(str(path))
        except ValueError as exc:
            text = mutant.decode("utf-8", "replace")
            _assert_names_a_line(str(exc), f"{path}:", text)


@pytest.mark.parametrize("target", ["sacl", "scenario", "secrets"])
def test_cli_exits_0_1_or_2_on_mutated_input(tmp_path, capsys, target):
    base = {"sacl": SACL, "scenario": SCENARIO, "secrets": SECRETS}
    paths = {name: tmp_path / name for name in base}
    for name, data in base.items():
        paths[name].write_bytes(data)
    args = [
        "--sacl", str(paths["sacl"]),
        "--scenario", str(paths["scenario"]),
        "--auth-secrets", str(paths["secrets"]),
        "--out", str(tmp_path / "log.csv"),
    ]
    where = f"{paths['secrets']}:" if target == "secrets" else "line "
    codes = set()
    for mutant in _mutants(11, base[target], target == "scenario", 150):
        paths[target].write_bytes(mutant)
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 2:
            _assert_names_a_line(err.splitlines()[0], f"error: {where}", mutant.decode("utf-8", "replace"))
        codes.add(code)
    assert 2 in codes
