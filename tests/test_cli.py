"""CLI exit codes and output contracts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hvguard
from hvguard import cli, engine
from hvguard.cli import main
from test_acceptance import _transcript_args


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


SCENARIO_DENY = """\
{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}
{"ev":"sys","pid":2,"call":"open","path":"/etc/shadow","flags":["O_WRONLY"]}
{"ev":"expect","decision":"deny"}
"""


def test_scenario_met_exits_zero(tmp_path, capsys):
    sacl = write(tmp_path, "s.sacl", "/etc/shadow 400 0 0\n")
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    code, out, err = run_cli(["--sacl", sacl, "--scenario", scenario], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("seq,pid,call,")
    assert "mismatches: 0" in err


def test_scenario_mismatch_exits_one(tmp_path, capsys):
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    code, _, err = run_cli(["--scenario", scenario], capsys)  # empty SACL permits
    assert code == 1
    assert "mismatch" in err


def test_bad_sacl_exits_two(tmp_path, capsys):
    sacl = write(tmp_path, "s.sacl", "/a 998 0 0\n")
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    code, _, err = run_cli(["--sacl", sacl, "--scenario", scenario], capsys)
    assert code == 2
    assert "line 1" in err


def test_missing_scenario_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(["--scenario", str(tmp_path / "absent.jsonl")], capsys)
    assert code == 2


def test_bad_scenario_json_exits_two(tmp_path, capsys):
    scenario = write(tmp_path, "s.jsonl", "{broken\n")
    code, _, _ = run_cli(["--scenario", scenario], capsys)
    assert code == 2


def test_no_mode_selected_exits_two(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--frobnicate"])
    assert excinfo.value.code == 2


def run_module(args):
    """``python -m hvguard`` in a fresh process, on the hvguard imported here."""
    src = str(Path(hvguard.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "hvguard", *args], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_runs_like_main(scenario_dir, capsys):
    extra = ["--sacl", "two_step.sacl", "--auth-secrets", "secrets.txt"]
    args = _transcript_args(scenario_dir, "token_auth_write", extra)
    expected = run_cli(args, capsys)
    assert expected[0] == 0 and expected[1].startswith("seq,pid,call,")
    assert run_module(args) == expected


def test_module_entry_point_unknown_flag_exits_two():
    code, _, err = run_module(["--frobnicate"])
    assert code == 2
    assert "unrecognized arguments: --frobnicate" in err


def test_decision_log_written_to_out_file(tmp_path, capsys):
    sacl = write(tmp_path, "s.sacl", "/etc/shadow 400 0 0\n")
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    out_file = tmp_path / "log.csv"
    code, out, _ = run_cli(
        ["--sacl", sacl, "--scenario", scenario, "--out", str(out_file)], capsys
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "seq,pid,call,resolved_uid,resolved_gid,decision,reason,mismatch"
    assert len(lines) == 2


def test_bench_csv_rows(tmp_path, capsys):
    code, out, _ = run_cli(["--bench", "--sizes", "100,200", "--reps", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    # header + (2 sizes x 3 calls)
    assert len(lines) == 1 + 6
    assert lines[0].startswith("call,trap_mode,sacl_size,")


def test_bench_nop_mode_switch_column(tmp_path, capsys):
    code, out, _ = run_cli(
        ["--bench", "--sizes", "100", "--reps", "8", "--trap-mode", "nop"], capsys
    )
    assert code == 0
    for row in out.strip().splitlines()[1:]:
        assert row.split(",")[-1] == str(2 * 8)


def test_bench_prices_the_callback(capsys):
    # Verdicts do not depend on the trap mode, so on every row the modes
    # differ by exactly the two switches NOP saves, and their ratio is
    # (4s+c)/(2s+c) with c the row's mean callback cost.
    s, base, lookup = 2.5, 3.0, 0.5
    costs = {}
    for mode in ("classic", "nop"):
        code, out, _ = run_cli(
            ["--bench", "--sizes", "100,1000", "--reps", "50", "--trap-mode", mode,
             "--switch-cost", str(s), "--callback-cost", str(base), "--lookup-cost", str(lookup)],
            capsys,
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            fields = row.split(",")
            costs[mode, fields[0], fields[2]] = float(fields[4])
    rows = [key[1:] for key in costs if key[0] == "classic"]
    assert len(rows) == 6 and all(size in ("100", "1000") for _, size in rows)
    for row in rows:
        classic, nop = costs[("classic",) + row], costs[("nop",) + row]
        assert abs((classic - nop) - 2 * s) < 1e-9, row
        c_bar = nop - 2 * s
        # Every target is in the full list, so the callback probes at least once.
        probes = (c_bar - base) / lookup
        assert probes >= 1 and abs(probes - round(probes)) < 1e-9, row
        assert abs(classic / nop - (4 * s + c_bar) / (2 * s + c_bar)) < 1e-9, row


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--callback-cost", "-1"),
        ("--callback-cost", "nan"),
        ("--callback-cost", "inf"),
        ("--lookup-cost", "-0.5"),
        ("--lookup-cost", "nan"),
        ("--lookup-cost", "inf"),
        ("--switch-cost", "inf"),
    ],
)
def test_bench_bad_cost_exits_two(flag, value, capsys):
    code, out, err = run_cli(["--bench", "--sizes", "100", "--reps", "5", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert "costs must be non-negative" in err


def test_bench_zero_reps_exits_two(capsys):
    code, _, err = run_cli(["--bench", "--reps", "0"], capsys)
    assert code == 2


def test_bench_descending_sizes_exits_two(capsys):
    code, _, _ = run_cli(["--bench", "--sizes", "1000,100", "--reps", "5"], capsys)
    assert code == 2


def test_bench_and_scenario_are_exclusive(tmp_path, capsys):
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    code, _, _ = run_cli(["--bench", "--scenario", scenario], capsys)
    assert code == 2


def test_auth_secrets_flag(tmp_path, capsys):
    sacl = write(tmp_path, "s.sacl", "/home/user/f 644 1000 1000\n")
    scenario = write(
        tmp_path,
        "s.jsonl",
        """\
{"ev":"spawn","pid":2,"parent":1,"uid":1000,"gid":1000}
{"ev":"sys","pid":2,"call":"open","path":"/home/user/f","flags":["O_WRONLY"]}
{"ev":"expect","decision":"deny"}
""",
    )
    secrets = write(tmp_path, "secrets.txt", "1000 hunter\n")
    code, _, _ = run_cli(
        ["--sacl", sacl, "--scenario", scenario, "--auth-secrets", secrets], capsys
    )
    assert code == 0  # unauthenticated: listed path denied


def test_bad_secrets_file_exits_two(tmp_path, capsys):
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    secrets = write(tmp_path, "secrets.txt", "notanumber s\n")
    code, _, err = run_cli(["--scenario", scenario, "--auth-secrets", secrets], capsys)
    assert code == 2


def test_repeated_secrets_uid_exits_two(tmp_path, capsys):
    # Leading zeros name the same uid, as they do in the SACL.
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    secrets = write(tmp_path, "secrets.txt", "1000 first\n# note\n1001 other\n01000 second\n")
    code, _, err = run_cli(["--scenario", scenario, "--auth-secrets", secrets], capsys)
    assert code == 2
    assert err == f"error: {secrets}:4: duplicate uid: 1000\n"


@pytest.mark.parametrize(
    "sys_event",
    [
        '{"ev":"sys","pid":2,"call":"open","path":5,"flags":["O_RDONLY"]}',
        '{"ev":"sys","pid":2,"call":"rename","path":"/a","path2":["/b"]}',
        '{"ev":"sys","pid":[2],"call":"open","path":"/a","flags":["O_RDONLY"]}',
        '{"ev":"sys","pid":true,"call":"open","path":"/a","flags":["O_RDONLY"]}',
        '{"ev":"sys","pid":2,"call":"open","path":"/a","flags":["O_RDONLY",7]}',
        '{"ev":"sys","pid":2,"call":"open","path":"/a","flags":"O_RDONLY"}',
        '{"ev":"sys","pid":2,"call":["open"],"path":"/a"}',
    ],
)
def test_malformed_sys_event_exits_two_with_line(tmp_path, capsys, sys_event):
    scenario = write(
        tmp_path, "s.jsonl", '{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}\n' + sys_event + "\n"
    )
    code, _, err = run_cli(["--scenario", scenario], capsys)
    assert code == 2
    assert "error: line 2:" in err


@pytest.mark.parametrize(
    "setup_event",
    [
        '{"ev":"file","path":5,"uid":0,"gid":0,"perm":"644"}',
        '{"ev":"file","path":"/d","uid":0,"gid":0,"perm":"755","dir":"no"}',
        '{"ev":"file","path":"/f","uid":-1,"gid":0,"perm":"644"}',
        '{"ev":"user","uid":"x","gid":0,"name":"u"}',
        '{"ev":"user","uid":true,"gid":0,"name":"u"}',
        '{"ev":"spawn","pid":-5,"parent":1,"uid":0,"gid":0}',
        '{"ev":"spawn","pid":3,"parent":1,"uid":0,"gid":1.5}',
        '{"ev":"sudo","pid":2,"uid":"x","gid":0}',
        '{"ev":"forge","pid":2,"uid":true,"gid":0}',
        '{"ev":"file","path":"/f","uid":0,"gid":0,"perm":644}',
        '{"ev":"file","path":"/f","uid":0,"gid":0,"perm":null}',
    ],
)
def test_malformed_setup_event_exits_two_with_line(tmp_path, capsys, setup_event):
    scenario = write(
        tmp_path, "s.jsonl", '{"ev":"spawn","pid":2,"parent":1,"uid":0,"gid":0}\n' + setup_event + "\n"
    )
    code, _, err = run_cli(["--scenario", scenario], capsys)
    assert code == 2
    assert "error: line 2:" in err


@pytest.mark.parametrize(
    "expect_event",
    [
        '{"ev":"expect","decision":"deny","status":"sucess"}',
        '{"ev":"expect","decision":"deny","error":"permision_denied"}',
        '{"ev":"expect","decision":"deny","status":null}',
    ],
)
def test_unknown_expect_value_exits_two_with_line(tmp_path, capsys, expect_event):
    # A typo in an expected status or error code is a scenario error, not a
    # mismatch with what the denied open did.
    sacl = write(tmp_path, "s.sacl", "/etc/shadow 400 0 0\n")
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY + expect_event + "\n")
    code, _, err = run_cli(["--sacl", sacl, "--scenario", scenario], capsys)
    assert code == 2
    assert err.startswith("error: line 4: '")
    assert "mismatch" not in err


@pytest.mark.parametrize(
    "lines,message",
    [
        (
            '{"ev":"file","path":"/a","uid":0,"gid":0,"perm":"644"}\n'
            '{"ev":"file","path":"/a/b","uid":0,"gid":0,"perm":"644"}\n',
            "parent is not a directory: /a",
        ),
        ('{"ev":"user","uid":7,"gid":7}\n{"ev":"user","uid":7,"gid":7}\n', "duplicate uid: 7"),
        (
            '{"ev":"file","path":"/x","uid":0,"gid":0,"perm":"644"}\n'
            '{"ev":"file","path":"/x","uid":0,"gid":0,"perm":"644"}\n',
            "duplicate path: /x",
        ),
    ],
    ids=["parent_not_directory", "duplicate_uid", "duplicate_path"],
)
def test_file_under_regular_file_exits_two_with_line(tmp_path, capsys, lines, message):
    # Each guest set-up error of a scenario names its line.
    code, _, err = run_cli(["--scenario", write(tmp_path, "s.jsonl", lines)], capsys)
    assert code == 2
    assert f"error: line 2: {message}" in err


def test_sudo_of_untracked_pid_exits_two_unquoted(tmp_path, capsys):
    # Every live pid has a fork-time record, init's too, so only a pid that
    # is not alive has none, and its sudo is refused.
    scenario = write(
        tmp_path, "s.jsonl", '{"ev":"sudo","pid":1,"uid":0,"gid":0}\n{"ev":"sudo","pid":7,"uid":0,"gid":0}\n'
    )
    code, _, err = run_cli(["--scenario", scenario], capsys)
    assert code == 2
    assert err == "error: line 2: pid 7 is not alive\n"


@pytest.mark.parametrize("kind", ["sacl", "scenario", "secrets"])
def test_undecodable_byte_exits_two_with_line(tmp_path, capsys, kind):
    good = {
        "sacl": "/ok 644 0 0\n/x 644 0 0\n",
        "scenario": '{"ev":"user","uid":7,"gid":7}\n' + SCENARIO_DENY,
        "secrets": "1000 ok\n1001 also\n",
    }
    paths = {}
    for name, text in good.items():
        data = text.encode()
        if name == kind:  # a byte that is never UTF-8, after the good lines
            data = data + b"# \xff\n"
            line_no = text.count("\n") + 1
        paths[name] = tmp_path / name
        paths[name].write_bytes(data)
    code, _, err = run_cli(
        ["--sacl", str(paths["sacl"]), "--scenario", str(paths["scenario"]),
         "--auth-secrets", str(paths["secrets"])],
        capsys,
    )
    assert code == 2
    where = f"error: {paths['secrets']}:{line_no}:" if kind == "secrets" else f"error: line {line_no}:"
    assert err.startswith(where) and "0xff" in err, err


@pytest.mark.parametrize(
    "kind,row",
    [
        ("sacl", "/a 644 ١ 0"),   # Arabic-Indic one passes str.isdigit
        ("sacl", "/a 644 0 ²"),   # superscript two passes str.isdigit, not int()
        ("sacl", "/a\0b 644 0 0"),
        ("secrets", "١ s"),
        ("secrets", "² s"),
        pytest.param("secrets", "9" * 5000 + " s", id="secrets-5000-digit uid"),  # past int()'s digit limit
    ],
)
def test_non_ascii_id_or_nul_path_exits_two_with_line(tmp_path, capsys, kind, row):
    scenario = write(tmp_path, "s.jsonl", SCENARIO_DENY)
    if kind == "sacl":
        path = write(tmp_path, "s.sacl", "/ok 644 0 0\n" + row + "\n")
        args, where = ["--sacl", path], "error: line 2:"
    else:
        path = write(tmp_path, "secrets.txt", "1000 ok\n" + row + "\n")
        args, where = ["--auth-secrets", path], f"error: {path}:2:"
    code, _, err = run_cli(["--scenario", scenario] + args, capsys)
    assert code == 2
    assert where in err
    if row.startswith("9"):
        assert f"{where} uid too large" in err, err


# Every line break str.splitlines knows, the ones text-mode files use and
# the ones they do not.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
THREE_ROWS = {
    "sacl": ("/a 644 0 0", "/b 644 0 0", "/c 6x4 0 0"),
    "scenario": ('{"ev":"user","uid":7,"gid":7}', '{"ev":"user","uid":8,"gid":8}', "{broken"),
    "secrets": ("1000 a", "1001 b", "x"),
}


@pytest.mark.parametrize("kind", ["sacl", "scenario", "secrets"])
@pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
def test_loaders_and_decoder_number_lines_alike(tmp_path, capsys, kind, sep):
    """A bad third row and an undecodable byte on the third line both report
    line 3, whichever line break separates the rows."""
    rows = THREE_ROWS[kind]
    for data, detail in (
        (sep.join(rows).encode(), ""),
        ((sep.join(rows[:2]) + sep + "# ").encode() + b"\xff", "0xff"),
    ):
        path = tmp_path / kind
        path.write_bytes(data)
        if kind == "scenario":
            args = ["--scenario", str(path)]
        else:
            flag = "--sacl" if kind == "sacl" else "--auth-secrets"
            args = ["--scenario", write(tmp_path, "s.jsonl", SCENARIO_DENY), flag, str(path)]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        where = f"error: {path}:3:" if kind == "secrets" else "error: line 3:"
        assert err.startswith(where) and detail in err, err


def test_secrets_split_by_form_feed_are_two_rows(tmp_path):
    path = write(tmp_path, "secrets.txt", "1000 a\x0c1001 b\n")
    assert cli._load_secrets(path) == {1000: "a", 1001: "b"}


def test_switch_cost_leaves_scenario_output_unchanged(tmp_path, capsys, scenario_dir):
    args = ["--sacl", str(scenario_dir / "two_step.sacl"), "--scenario", str(scenario_dir / "token_auth_write.jsonl"),
            "--auth-secrets", str(scenario_dir / "secrets.txt")]
    outputs = [run_cli(args + ["--switch-cost", cost], capsys) for cost in ("1", "1000")]
    assert outputs[0][0] == 0
    assert len(outputs[0][1].splitlines()) > 1
    assert outputs[0] == outputs[1]


# -- the scenario file read in pieces -----------------------------------------

# Piece sizes, in characters, small enough that every cut lands inside a short
# file, next to line breaks and to multi-byte characters.
SMALL_BLOCKS = [1, 2, 3, 5, 7]


def run_in_blocks(monkeypatch, capsys, args, block):
    monkeypatch.setattr(engine, "_PIECE_CHARS", block)
    return run_cli(args, capsys)


def read_text_error(path):
    """The message the whole-file decoder gives for an undecodable file."""
    with pytest.raises(cli.ScenarioError) as excinfo:
        cli._read_text(str(path), cli.ScenarioError)
    return f"error: {excinfo.value}\n"


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("sep", LINE_BREAKS, ids=ascii)
def test_bad_byte_in_a_later_block_names_the_whole_file_line(tmp_path, monkeypatch, capsys, sep, block):
    rows = ['{"ev":"user","uid":7,"gid":7}', '{"ev":"user","uid":8,"gid":8}', "# é ", "# ok"]
    path = tmp_path / "s.jsonl"
    path.write_bytes((sep.join(rows) + sep + "# ").encode() + b"\xff" + (sep + "# after").encode())
    expected = read_text_error(path)
    assert "0xff" in expected
    assert run_in_blocks(monkeypatch, capsys, ["--scenario", str(path)], block) == (2, "", expected)


@pytest.mark.parametrize("block", SMALL_BLOCKS + [1 << 16])
def test_bad_byte_after_a_json_error_is_the_error_reported(tmp_path, monkeypatch, capsys, block):
    path = tmp_path / "s.jsonl"
    path.write_bytes(b'{"ev":"user","uid":7,"gid":7}\n{broken\n' + SCENARIO_DENY.encode() + b"# \xfe\n")
    code, out, err = run_in_blocks(monkeypatch, capsys, ["--scenario", str(path)], block)
    assert (code, out) == (2, "")
    assert err == read_text_error(path) == "error: line 6: not UTF-8: byte 0xfe: invalid start byte\n"


def decoded(source):
    """The repr of parse_scenario's events, or the error it raises."""
    try:
        return repr(engine.parse_scenario(source))
    except cli.ScenarioError as exc:
        return str(exc)


@pytest.mark.parametrize("sep", ["\r\n", "\u2028"], ids=ascii)
def test_pieces_cut_next_to_line_breaks_give_the_whole_text_lines(tmp_path, monkeypatch, capsys, sep):
    """Every piece but the last ends on "\\n", the pieces join to the whole
    text, and the decoder numbers their lines as it numbers the whole text's,
    wherever the cuts fall around a two-character or multi-byte break."""
    rows = ['{"ev":"user","uid":7,"gid":7}', "", "# é", '{"ev":"user","uid":8,"gid":8}', "{broken"]
    text = sep.join(rows) + "\n" + sep.join(rows[:4]) + "\n"
    path = tmp_path / "s.jsonl"
    path.write_bytes(text.encode())
    # The same text with the bad line commented out, cut at the same places,
    # so that the events before and after it are compared too.
    good = text.replace("{broken", "# roken")
    good_path = tmp_path / "good.jsonl"
    good_path.write_bytes(good.encode())
    assert [event[0] for event in engine.parse_scenario(good)] == [1, 4, 6, 9]
    whole = run_in_blocks(monkeypatch, capsys, ["--scenario", str(path)], 1 << 16)
    assert whole[0] == 2 and whole[2].startswith("error: line 5: bad JSON")
    for block in SMALL_BLOCKS + [len(text.encode()) - 1]:
        monkeypatch.setattr(engine, "_PIECE_CHARS", block)
        pieces = list(cli._scenario_pieces(str(path)))
        assert "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces)
        assert decoded(pieces) == decoded(text)
        assert decoded(list(cli._scenario_pieces(str(good_path)))) == decoded(good)
        assert run_cli(["--scenario", str(path)], capsys) == whole


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_file_without_final_newline_replays_as_a_whole_read(tmp_path, monkeypatch, capsys, block):
    sacl = write(tmp_path, "s.sacl", "/etc/shadow 400 0 0\n")
    path = write(tmp_path, "s.jsonl", SCENARIO_DENY.rstrip("\n"))
    args = ["--sacl", sacl, "--scenario", path]
    whole = run_in_blocks(monkeypatch, capsys, args, 1 << 16)
    assert whole[0] == 0 and len(whole[1].splitlines()) == 2
    monkeypatch.setattr(engine, "_PIECE_CHARS", block)
    assert list(cli._scenario_pieces(path))[-1] == '{"ev":"expect","decision":"deny"}'
    assert run_cli(args, capsys) == whole


@pytest.mark.parametrize("block", [1, 1 << 16])
def test_empty_and_missing_scenario_files(tmp_path, monkeypatch, capsys, block):
    empty = write(tmp_path, "empty.jsonl", "")
    assert list(cli._scenario_pieces(empty)) == []
    assert run_in_blocks(monkeypatch, capsys, ["--scenario", empty], block) == (
        0, "seq,pid,call,resolved_uid,resolved_gid,decision,reason,mismatch\n",
        "sys events: 0  expect checks: 0  mismatches: 0\n",
    )
    missing = tmp_path / "absent.jsonl"
    assert run_cli(["--scenario", str(missing)], capsys) == (
        2, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    )
