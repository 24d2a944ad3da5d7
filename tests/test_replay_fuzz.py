"""Seeded replays of well-formed random scenarios.

Each scenario adds users and files, spawns processes and then makes random
calls of all 24 trapped calls on paths that include the root, doubled and
dotted slashes, a NUL, non-ASCII names and token names with good hex, bad
hex and lone surrogates.  Every replay, in both trap modes, with and
without secrets and execute white-listing, must end normally or on a call
of a dead pid; each sys event that ran leaves one decision row and takes
exactly the switches of its trap mode.
"""

import json
import random
import re

import pytest

from hvguard.engine import ScenarioError, run_scenario
from hvguard.guest import CALL_FAMILY, LINK, OPEN, RENAME, SYMLINK, TRAPPED_CALLS
from hvguard.mediator import PolicyOptions, token_response
from hvguard.sacl import parse_sacl
from hvguard.trap import TrapMode

SEEDS = range(100)
SECRETS = {1000: "gatekeeper", 0: "root secret"}
USERS = (0, 1000, 1001)
FLAGS = ("O_RDONLY", "O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND")
PERMS = ("000", "400", "600", "644", "755", "777")
FILES = ("/etc/shadow", "/home/u/f", "/home/u/g", "/home/v/é", "/tmp/x", "/a/b", "/bin/run")
DIRS = ("/home/u", "/home/v", "/tmp")
SACL = """\
/etc/shadow 400 0 0
/home/u/f 600 1000 1000
/home/v 755 1001 1001
/bin/run 755 0 0
"""
OTHER_PATHS = (
    "/", "//", "/a/./b", "/a/../b", "/a\u0000b", "/home//u/f", "/home/u/", "/tmp/ñ", "/数据", "/tmp/new", "/nope",
)
SWITCHES = {TrapMode.CLASSIC4: 4, TrapMode.NOP2: 2}


def token_path(rng: random.Random) -> str:
    challenge = rng.choice(("1", "abc", "ü", "\ud800", "x\udfff"))
    kind = rng.randrange(4)
    if kind == 0:  # the response of a uid with a secret to an encodable challenge
        challenge = challenge.encode("utf-8", "replace").decode()
        response = token_response(challenge, rng.choice(list(SECRETS.values())))
    elif kind == 1:  # lowercase hex that matches no secret
        response = "".join(rng.choice("0123456789abcdef") for _ in range(128))
    elif kind == 2:  # bad hex
        response = rng.choice(("A", "g", "\ud800", " ")) * 128
    else:  # too short
        response = ""
    return "/tokens/" + challenge + response


def a_path(rng: random.Random):
    roll = rng.random()
    if roll < 0.05:
        return None
    if roll < 0.45:
        return rng.choice(FILES + DIRS)
    if roll < 0.75:
        return rng.choice(OTHER_PATHS)
    return token_path(rng)


def scenario(seed: int) -> str:
    rng = random.Random(seed)
    events = [{"ev": "user", "uid": uid, "gid": uid} for uid in USERS]
    for path in DIRS:
        owner = rng.choice(USERS)
        events.append({"ev": "file", "path": path, "uid": owner, "gid": owner, "perm": "755", "dir": True})
    for path in FILES:
        owner = rng.choice(USERS)
        events.append({"ev": "file", "path": path, "uid": owner, "gid": owner, "perm": rng.choice(PERMS)})
    alive = [1]
    for pid in range(2, 6):
        uid = rng.choice(USERS)
        events.append({"ev": "spawn", "pid": pid, "parent": 1, "uid": uid, "gid": uid})
        alive.append(pid)
    dead = []
    for _ in range(rng.randint(10, 40)):
        if not alive:
            break
        roll = rng.random()
        if roll < 0.08:
            uid = rng.choice(USERS)
            kind = rng.choice(("sudo", "forge"))
            events.append({"ev": kind, "pid": rng.choice(alive), "uid": uid, "gid": uid})
            continue
        # Now and then a call of a pid that has exited.
        pid = rng.choice(dead) if dead and roll > 0.98 else rng.choice(alive)
        call = rng.choice(TRAPPED_CALLS)
        event = {"ev": "sys", "pid": pid, "call": call, "path": a_path(rng)}
        family = CALL_FAMILY[call]
        if family is RENAME or family is LINK or family is SYMLINK:
            event["path2"] = a_path(rng)
        if family is OPEN:
            event["flags"] = rng.sample(FLAGS, rng.randint(0, 3))
        events.append(event)
        if rng.random() < 0.3:
            events.append({"ev": "expect", "decision": rng.choice(("permit", "deny"))})
        if call in ("exit", "exit_group") and pid in alive:
            alive.remove(pid)
            dead.append(pid)
    return "".join(json.dumps(event) + "\n" for event in events)


def replay(text: str, **kwargs):
    """The scenario's result, or, when it stops on a call of a dead pid,
    the result of the lines before that call, and the text replayed."""
    try:
        return run_scenario(text, **kwargs), text
    except ScenarioError as exc:
        # The one error a well-formed scenario may end on.
        assert re.fullmatch(r"line \d+: pid \d+ is not alive", str(exc)), str(exc)
        lines = text.splitlines(keepends=True)
        assert json.loads(lines[exc.line_no - 1])["ev"] == "sys", str(exc)
        head = "".join(lines[:exc.line_no - 1])
        return run_scenario(head, **kwargs), head


@pytest.mark.parametrize("trap_mode", list(TrapMode))
@pytest.mark.parametrize("secrets", [False, True])
@pytest.mark.parametrize("exec_whitelist", [False, True])
def test_every_replay_ends_with_one_row_and_the_modes_switches_per_call(trap_mode, secrets, exec_whitelist):
    sacl = parse_sacl(SACL)
    options = PolicyOptions(exec_whitelist=exec_whitelist, secrets=SECRETS if secrets else {})
    for seed in SEEDS:
        result, text = replay(scenario(seed), sacl=sacl, options=options, trap_mode=trap_mode)
        sim = result.simulation
        ran = sum(json.loads(line)["ev"] == "sys" for line in text.splitlines())
        assert len(sim.decisions) == len(sim.records) == len(sim.outcomes) == ran, seed
        assert {r.vm_exits + r.vm_entries for r in sim.records} <= {SWITCHES[trap_mode]}, seed
