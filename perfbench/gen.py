"""Seeded generator for the benchmark's three guest workloads.

``generate(workload, seed, outdir)`` writes the files the program reads: a
``.sacl`` shadow list, a ``.jsonl`` scenario and, for ``token_gate``, a
secrets file.  It also writes ``manifest.json``, which only the benchmark
reads: the CLI flags, the sys-event count and the ground truth that the
output checks compare the decision log against.

Scenario ``expect`` lines are emitted only for facts the paper fixes:

* hard-denied calls are denied;
* forged-root writes to a listed 4xx file are denied;
* unlisted reads are permitted;
* listed paths are denied before token authentication (never verified, or
  the session window has passed).

To place those lines, the generator mirrors three pieces of simulator state
exactly: the logical clock (one tick per user/file/spawn/sudo/forge/sys
event), pid allocation (``clone`` takes the next pid), and the per-uid token
session expiry.  Guest file outcomes are not mirrored and never asserted.

Run directly to write one workload:  python3 perfbench/gen.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import hashlib
import json
import os
import posixpath
import random
import sys

WORKLOADS = ("mixed_replay", "root_attack_100k", "token_gate")

HARD_DENIED = ("init_module", "finit_module", "kexec_load", "name_to_handle_at", "open_by_handle_at")
WRITE_FLAG_SETS = (["O_WRONLY"], ["O_RDWR"], ["O_WRONLY", "O_APPEND"], ["O_WRONLY", "O_TRUNC"])
# Rows whose three octets all lack the write bit: every writer is denied.
READ_ONLY_PERMS = ("400", "440", "444")

MIXED_SYS_EVENTS = 20_000
ROOT_ATTACK_FILES = 100_000
ROOT_ATTACK_SYS_EVENTS = 40_000
TOKEN_SYS_EVENTS = 15_000
TOKEN_WINDOW = 200


_line = json.JSONEncoder(separators=(",", ":")).encode


class Trace:
    """Scenario writer that mirrors the simulator's clock and pid table."""

    def __init__(self):
        self.lines: list[str] = []
        self.clock = 0
        self.sys_events = 0
        self.expects = 0
        self.next_pid = 2
        self.claimed: dict[int, tuple[int, int]] = {}
        self.recorded: dict[int, tuple[int, int]] = {}

    def _emit(self, obj: dict) -> None:
        self.clock += 1
        self.lines.append(_line(obj))

    def user(self, uid: int, gid: int, name: str) -> None:
        self._emit({"ev": "user", "uid": uid, "gid": gid, "name": name})

    def file(self, path: str, uid: int, gid: int, perm: str, is_dir: bool = False) -> None:
        obj = {"ev": "file", "path": path, "uid": uid, "gid": gid, "perm": perm}
        if is_dir:
            obj["dir"] = True
        self._emit(obj)

    def spawn(self, uid: int, gid: int) -> int:
        pid = self.next_pid
        self.next_pid += 1
        self._emit({"ev": "spawn", "pid": pid, "parent": 1, "uid": uid, "gid": gid})
        self.claimed[pid] = self.recorded[pid] = (uid, gid)
        return pid

    def sudo(self, pid: int, uid: int, gid: int) -> None:
        self._emit({"ev": "sudo", "pid": pid, "uid": uid, "gid": gid})
        self.claimed[pid] = self.recorded[pid] = (uid, gid)

    def forge(self, pid: int, uid: int, gid: int) -> None:
        self._emit({"ev": "forge", "pid": pid, "uid": uid, "gid": gid})
        self.claimed[pid] = (uid, gid)

    def sys(self, pid: int, call: str, path=None, path2=None, flags=None) -> int:
        """Write one sys event; returns its seq (the clock value it runs at)."""
        obj = {"ev": "sys", "pid": pid, "call": call}
        if path is not None:
            obj["path"] = path
        if path2 is not None:
            obj["path2"] = path2
        if flags:
            obj["flags"] = flags
        self._emit(obj)
        self.sys_events += 1
        if call == "clone":
            # The child is recorded with the parent's claimed credentials.
            child = self.next_pid
            self.next_pid += 1
            self.claimed[child] = self.recorded[child] = self.claimed[pid]
        elif call in ("exit", "exit_group"):
            del self.claimed[pid], self.recorded[pid]
        return self.clock

    def expect(self, decision: str) -> None:
        self.lines.append(_line({"ev": "expect", "decision": decision}))
        self.expects += 1

    def forged_root(self, pid: int) -> bool:
        return self.claimed[pid][0] == 0 and self.recorded[pid][0] != 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _sacl_text(rows) -> str:
    return "".join(f"{path} {perm} {uid} {gid}\n" for path, perm, uid, gid in rows)


def _mixed_replay(rng: random.Random):
    """20 users, ~50 cloning/exiting processes, a ~2 k-file tree, 10% listed."""
    t = Trace()
    t.user(0, 0, "root")
    users = [(1000 + i, 100 + i % 4) for i in range(20)]
    for uid, gid in users:
        t.user(uid, gid, f"u{uid}")

    files: list[str] = []

    def tree_dir(path, uid=0, gid=0, perm="755"):
        t.file(path, uid, gid, perm, is_dir=True)

    def tree_file(path, uid, gid, perm):
        t.file(path, uid, gid, perm)
        files.append(path)

    for top in ("/etc", "/usr", "/usr/bin", "/usr/lib", "/var", "/var/log", "/srv", "/tmp", "/home", "/boot"):
        tree_dir(top, perm="777" if top == "/tmp" else "755")
    for i in range(120):
        tree_file(f"/etc/conf{i:03d}", 0, 0, rng.choice(("644", "640", "600")))
    for i in range(150):
        tree_file(f"/usr/bin/tool{i:03d}", 0, 0, "755")
    for i in range(200):
        tree_file(f"/usr/lib/lib{i:03d}.so", 0, 0, "644")
    for i in range(100):
        tree_file(f"/var/log/log{i:03d}", 0, 0, "640")
    for k in range(10):
        tree_dir(f"/srv/share{k}", 0, 100 + k % 4, "775")
        for i in range(40):
            uid, gid = rng.choice(users)
            tree_file(f"/srv/share{k}/doc{i:02d}", uid, gid, rng.choice(("664", "644")))
    homes = {}
    for uid, gid in users:
        home = f"/home/u{uid}"
        tree_dir(home, uid, gid)
        homes[uid] = [home]
        for sub in ("src", "doc"):
            tree_dir(f"{home}/{sub}", uid, gid)
            homes[uid].append(f"{home}/{sub}")
        for i in range(50):
            tree_file(f"{rng.choice(homes[uid])}/f{i:02d}", uid, gid, rng.choice(("644", "600", "755", "664")))
    tree_file("/boot/vmlinuz", 0, 0, "644")

    listed = {}
    for path in rng.sample(files, len(files) // 10):
        listed[path] = rng.choice(("644", "640", "600", "755", "750") + READ_ONLY_PERMS)
    rows = [(p, perm, 0, 0) for p, perm in listed.items()]

    pids = [t.spawn(uid, gid) for uid, gid in users]
    live = list(pids)
    creates = 0

    def pick_file():
        return rng.choice(files)

    def new_name(pid):
        nonlocal creates
        creates += 1
        uid = t.recorded[pid][0]
        base = rng.choice(homes[uid]) if uid in homes else "/tmp"
        return f"{base}/new{creates:05d}"

    def read_only_listed(path):
        return listed.get(path) in READ_ONLY_PERMS

    # Weighted call mix: reads outnumber writes; every interposed call plus clone.
    kinds = (
        ("read", 40), ("exec", 7), ("write", 10), ("create", 6), ("rename", 5),
        ("unlink", 4), ("link", 4), ("truncate", 4), ("handle", 2), ("hard", 2),
        ("clone", 3), ("exit", 3),
    )
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    while t.sys_events < MIXED_SYS_EVENTS:
        roll = rng.random()
        if roll < 0.003:
            pid = rng.choice(live)
            t.sudo(pid, 0, 0)
            continue
        if roll < 0.006:
            pid = rng.choice(live)
            t.forge(pid, 0, 0)
            continue
        kind = rng.choices(names, weights)[0]
        if kind == "clone" and len(live) >= 60:
            kind = "exit"
        if kind == "exit" and len(live) <= 40:
            kind = "clone"
        pid = rng.choice(live)
        if kind == "read":
            path = pick_file() if rng.random() < 0.95 else new_name(pid) + ".missing"
            t.sys(pid, rng.choice(("open", "openat")), path, flags=rng.choice(([], ["O_RDONLY"])))
            if path not in listed:
                t.expect("permit")
        elif kind == "exec":
            path = f"/usr/bin/tool{rng.randrange(150):03d}" if rng.random() < 0.7 else pick_file()
            t.sys(pid, rng.choice(("execve", "execveat")), path)
        elif kind in ("write", "truncate"):
            path = pick_file()
            if kind == "write":
                t.sys(pid, rng.choice(("open", "openat")), path, flags=list(rng.choice(WRITE_FLAG_SETS)))
            else:
                t.sys(pid, "truncate", path)
            if t.forged_root(pid) and read_only_listed(path):
                t.expect("deny")
        elif kind == "create":
            path = new_name(pid)
            t.sys(pid, rng.choice(("open", "openat")), path, flags=["O_CREAT", "O_WRONLY"])
            files.append(path)
        elif kind == "rename":
            src = pick_file()
            dst = posixpath.join(posixpath.dirname(src), f"mv{rng.randrange(10**6):06d}")
            t.sys(pid, rng.choice(("rename", "renameat", "renameat2")), src, dst)
            if t.forged_root(pid) and read_only_listed(src):
                t.expect("deny")
            files.append(dst)
        elif kind == "unlink":
            path = pick_file()
            t.sys(pid, rng.choice(("unlink", "unlinkat")), path)
            if t.forged_root(pid) and read_only_listed(path):
                t.expect("deny")
        elif kind == "link":
            newpath = new_name(pid)
            t.sys(pid, rng.choice(("link", "linkat", "symlink", "symlinkat")), pick_file(), newpath)
            files.append(newpath)
        elif kind == "handle":
            t.sys(pid, "name_to_handle_at", pick_file())
            t.expect("deny")
        elif kind == "hard":
            call = rng.choice(HARD_DENIED)
            t.sys(pid, call, "/boot/vmlinuz" if call == "kexec_load" else pick_file())
            t.expect("deny")
        elif kind == "clone":
            t.sys(pid, "clone")
            live.append(t.next_pid - 1)
        else:
            t.sys(pid, rng.choice(("exit", "exit_group")))
            live.remove(pid)
    return t, rows, None, {"trap_mode": "classic", "cli_args": ["--trap-mode", "classic"]}


def _root_attack_100k(rng: random.Random):
    """A 100 k-file tree, every node listed; 8 forged-root writers, NOP traps."""
    t = Trace()
    t.user(0, 0, "root")
    users = [(1000 + i, 1000 + i) for i in range(8)]
    for uid, gid in users:
        t.user(uid, gid, f"u{uid}")
    owners = users + [(0, 0)]
    perms = ("644", "640", "600", "664", "755") + READ_ONLY_PERMS
    rows = [("/data", "755", 0, 0)]
    t.file("/data", 0, 0, "755", is_dir=True)
    per_dir = 400
    paths: list[str] = []
    meta: dict[str, tuple[str, int, int]] = {}
    for d in range(ROOT_ATTACK_FILES // per_dir):
        dpath = f"/data/d{d:03d}"
        t.file(dpath, 0, 0, "755", is_dir=True)
        rows.append((dpath, "755", 0, 0))
        for i in range(per_dir):
            path = f"{dpath}/f{i:03d}"
            uid, gid = rng.choice(owners)
            perm = rng.choice(perms)
            t.file(path, uid, gid, perm)
            rows.append((path, perm, uid, gid))
            paths.append(path)
            meta[path] = (perm, uid, gid)

    def readable(path, uid, gid):
        perm, owner, group = meta[path]
        octet = perm[0] if uid == owner else perm[1] if gid == group else perm[2]
        return int(octet) & 4

    pids = []
    for uid, gid in users:
        pid = t.spawn(uid, gid)
        t.forge(pid, 0, 0)
        pids.append(pid)

    kinds = (("read", 35), ("write", 20), ("truncate", 12), ("rename", 18), ("unlink", 15))
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    while t.sys_events < ROOT_ATTACK_SYS_EVENTS:
        pid = rng.choice(pids)
        uid, gid = t.recorded[pid]
        kind = rng.choices(names, weights)[0]
        path = rng.choice(paths)
        if kind == "read":
            while not readable(path, uid, gid):
                path = rng.choice(paths)
            t.sys(pid, rng.choice(("open", "openat")), path, flags=["O_RDONLY"])
            continue
        denied = meta[path][0] in READ_ONLY_PERMS
        if kind == "write":
            t.sys(pid, rng.choice(("open", "openat")), path, flags=list(rng.choice(WRITE_FLAG_SETS)))
        elif kind == "truncate":
            t.sys(pid, "truncate", path)
        elif kind == "rename":
            dst = rng.choice(paths)
            t.sys(pid, rng.choice(("rename", "renameat", "renameat2")), path, dst)
            denied = denied or meta[dst][0] in READ_ONLY_PERMS
        else:
            t.sys(pid, rng.choice(("unlink", "unlinkat")), path)
        if denied:
            t.expect("deny")
    return t, rows, None, {"trap_mode": "nop", "cli_args": ["--trap-mode", "nop"]}


def _token_gate(rng: random.Random):
    """16 users behind second authentication; tokens expire mid-run."""
    t = Trace()
    users = [(1000 + i, 1000 + i) for i in range(16)]
    secrets = {uid: "%016x" % rng.getrandbits(64) for uid, _ in users}
    for uid, gid in users:
        t.user(uid, gid, f"u{uid}")
    own: dict[int, list[str]] = {}
    listed: set[str] = set()
    rows = []
    for uid, gid in users:
        home = f"/home/u{uid}"
        t.file(home, uid, gid, "755", is_dir=True)
        own[uid] = []
        for i in range(40):
            path = f"{home}/f{i:02d}"
            perm = rng.choice(("644", "600", "755", "700", "640"))
            t.file(path, uid, gid, perm)
            own[uid].append(path)
        for path in rng.sample(own[uid], 20):
            listed.add(path)
            rows.append((path, rng.choice(("644", "600", "755", "700", "400", "444", "500")), uid, gid))
    pids = {t.spawn(uid, gid): uid for uid, gid in users}
    pid_list = list(pids)

    expiry: dict[int, int] = {}  # uid -> last seq of a verified session
    last_attempt_bad: dict[int, bool] = {}
    probes = {"verified": [], "rejected": [], "expired": []}
    kinds = (("read", 45), ("write", 20), ("truncate", 15), ("exec", 20))
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    while t.sys_events < TOKEN_SYS_EVENTS:
        pid = rng.choice(pid_list)
        uid = pids[pid]
        ordinal = t.sys_events
        if rng.random() < 0.15:
            challenge = "%08x" % rng.getrandbits(32)
            response = hashlib.sha512((challenge + secrets[uid]).encode()).hexdigest()
            bad = rng.random() < 0.2
            if bad:
                pos = rng.randrange(len(response))
                response = response[:pos] + ("0" if response[pos] != "0" else "1") + response[pos + 1:]
            seq = t.sys(pid, "open", f"/tokens/{challenge}{response}")
            t.expect("permit")
            last_attempt_bad[uid] = bad
            if not bad:
                expiry[uid] = seq + TOKEN_WINDOW
            continue
        kind = rng.choices(names, weights)[0]
        path = rng.choice(own[uid])
        if kind == "read":
            seq = t.sys(pid, "open", path, flags=["O_RDONLY"])
        elif kind == "write":
            seq = t.sys(pid, "open", path, flags=["O_WRONLY"])
        elif kind == "truncate":
            seq = t.sys(pid, "truncate", path)
        else:
            seq = t.sys(pid, "execve", path)
        if path not in listed:
            if kind == "read":
                t.expect("permit")
            continue
        if uid in expiry and seq <= expiry[uid]:
            probes["verified"].append(ordinal)
            continue
        t.expect("deny")
        if last_attempt_bad.get(uid):
            probes["rejected"].append(ordinal)
        elif uid in expiry:
            probes["expired"].append(ordinal)
    secrets_text = "".join(f"{uid} {secret}\n" for uid, secret in secrets.items())
    extra = {
        "trap_mode": "classic",
        "cli_args": ["--trap-mode", "classic", "--auth-window", str(TOKEN_WINDOW), "--whitelist-exec"],
        "token_probes": probes,
    }
    return t, rows, secrets_text, extra


_BUILDERS = {
    "mixed_replay": _mixed_replay,
    "root_attack_100k": _root_attack_100k,
    "token_gate": _token_gate,
}


def generate(workload: str, seed: int, outdir: str) -> dict:
    """Write one workload's inputs and manifest into outdir; returns the manifest."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # A string seed hashes through SHA-512, so the stream is the same on every run.
    rng = random.Random(f"{workload}:{seed}")
    trace, rows, secrets_text, extra = _BUILDERS[workload](rng)
    os.makedirs(outdir, exist_ok=True)
    files = {"sacl": "policy.sacl", "scenario": "trace.jsonl"}
    if secrets_text is not None:
        files["secrets"] = "secrets.txt"
        _write(outdir, files["secrets"], secrets_text)
    _write(outdir, files["sacl"], _sacl_text(rows))
    _write(outdir, files["scenario"], trace.text())
    manifest = {
        "workload": workload,
        "seed": seed,
        "sys_events": trace.sys_events,
        "expects": trace.expects,
        "sacl_rows": len(rows),
        "files": files,
        **extra,
    }
    _write(outdir, "manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def _write(outdir: str, name: str, text: str) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen.py WORKLOAD SEED OUTDIR")
    m = generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(f"{m['workload']}: {m['sys_events']} sys events, {m['expects']} expects, {m['sacl_rows']} SACL rows")
