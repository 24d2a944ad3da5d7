"""One replay of a generated workload through ``hvguard.cli.main``, in-process.

Usage:  python3 perfbench/replay.py SRC_DIR WORK_DIR INDEX TRACE

The run is equivalent to ``hvguard --sacl S --scenario T [--auth-secrets F]
--out LOG`` plus the workload's flags from ``WORK_DIR/manifest.json``.  It
writes ``WORK_DIR/result-INDEX.json`` (traced: also the spans to
``WORK_DIR/spans-INDEX.*``).

Untraced (TRACE 0), the only hook is a timer around ``Simulation.syscall``.
Both kinds run the calibration kernel (``calibrate.py``) before ``cli.main``,
before every ``CAL_EVERY``-th ``Simulation.syscall`` (the first included) and
after ``cli.main`` returns.  The replay clock pauses while it runs, and each
stretch of host time is scaled to the reference host speed by the kernel
times on either side of it, except full garbage collections, which are
timed through ``gc.callbacks`` and kept as measured.
Traced (TRACE 1), every layer boundary is wrapped at the module attribute its
caller looks it up through, and each call becomes a span with an id, a parent,
a start and an end, kept in memory and written out after the run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

from calibrate import REF_NS, calibrate

clock = time.perf_counter_ns

# Sys events between two calibration points of the replay phase.
CAL_EVERY = 2000

# Wrapped function -> layer.  Spans nest, so a layer's self time is its spans'
# durations minus the child spans they cover.
LAYERS = {
    "Simulation.syscall": "engine",
    "Simulation.decision_log": "engine",
    "parse_scenario": "engine",
    "handle_trap": "trap",
    "mediate": "mediator",
    "required_checks": "mediator",
    "apply_verdict": "mediator",
    "try_token_auth": "mediator",
    "check_access": "sacl",
    "Sacl.lookup": "sacl",
    "Sacl.entries.get": "sacl",
    "parse_sacl": "sacl",
    "SyscallEvent": "guest",
    "Guest.execute_syscall": "guest",
    "_emit": "cli",
}


def import_hvguard(src: str):
    """Import the package from the checkout's source tree and nowhere else."""
    sys.path.insert(0, src)
    import hvguard.cli

    where = os.path.dirname(os.path.abspath(hvguard.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"hvguard imported from {where}, not from {src}")
    return hvguard


class Tracer:
    """Spans in flat arrays: span i has parent[i], name[i], start[i], end[i]."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.first_entry = None
        self.first_syscall = None
        self.sim = None

    def code(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        code = self.code(name)
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self.stack

        def span(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(code)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return span

    def probe_dict(self, hits: list):
        """A dict whose ``get`` is a leaf span: one span per SACL probe."""
        code = self.code("Sacl.entries.get")
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self.stack
        dict_get = dict.get

        class ProbeDict(dict):
            __slots__ = ()

            def get(self, key, default=None):
                sid = len(start)
                parent.append(stack[-1])
                names.append(code)
                end.append(0)
                start.append(clock())
                value = dict_get(self, key, default)
                end[sid] = clock()
                if value is not None:
                    hits[0] += 1
                return value

        return ProbeDict

    def write(self, prefix: str) -> None:
        """Spans as four little-endian int64 columns plus a JSON index."""
        with open(prefix + ".bin", "wb") as fh:
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.start), "columns": ["parent", "name", "start_ns", "end_ns"],
                       "dtype": "int64", "names": self.names}, fh)

    def totals(self, since: int):
        """Per name: calls, inclusive ns and self ns, over spans starting at or after since."""
        parent, start, end = self.parent, self.start, self.end
        n = len(start)
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        roots = 0
        for i in range(n):
            dur = end[i] - start[i]
            code = self.name[i]
            calls[code] += 1
            incl[code] += dur
            if start[i] >= since:
                own[code] += dur - child[i]
                if parent[i] < 0:
                    roots += dur
        by_name = {}
        for code, name in enumerate(self.names):
            entry = by_name.setdefault(name, [0, 0, 0])
            entry[0] += calls[code]
            entry[1] += incl[code]
            entry[2] += own[code]
        return by_name, roots


def percentile(ordered, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class HostSpeed:
    """Calibration points through one replay, and host-speed scaling from them.

    ``before`` is the kernel time before ``cli.main``.  Each point is
    (start ns, end ns, kernel ns).  The first runs at the first sys event,
    one more before every ``CAL_EVERY``-th, and the last after ``cli.main``
    returns.  The replay phase is the time between points; segment j runs
    from point j to point j+1 and holds sys events j*CAL_EVERY onwards.
    Slowness is kernel time over its reference time: 1.2 means the host ran
    20% slower than the reference.

    Full (generation 2) collections walk the whole heap.  Their time is
    bound by memory, not by the interpreter, and did not follow the kernel's
    (on ``root_attack_100k`` one takes 0.18-0.25 s while the kernel's time
    varies twofold), so they are timed apart and not scaled.
    """

    def __init__(self):
        self.before = calibrate()
        self.points = []
        self.full_gc = []
        self._gc_start = 0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if info["generation"] == 2:
            if phase == "start":
                self._gc_start = clock()
            else:
                self.full_gc.append((self._gc_start, clock()))

    def point(self) -> None:
        start = clock()
        kernel_ns = calibrate()
        self.points.append((start, clock(), kernel_ns))

    def full_gc_ns(self, start: int, end: int) -> int:
        return sum(e - s for s, e in self.full_gc if start <= s < end)

    def scaled_ns(self, start: int, end: int, slowness: float) -> float:
        """Host ns from start to end at the reference speed."""
        gc_ns = self.full_gc_ns(start, end)
        return (end - start - gc_ns) / slowness + gc_ns

    def setup_slowness(self) -> float:
        return statistics.fmean((self.before, self.points[0][2])) / REF_NS

    def segments(self):
        """(start ns, end ns, slowness) of each stretch of the replay phase."""
        return [(e0, s1, (k0 + k1) / 2 / REF_NS)
                for (_, e0, k0), (s1, _, k1) in zip(self.points, self.points[1:])]


def install_timer(hv, host: HostSpeed):
    """Untraced hook: time each Simulation.syscall and remember the Simulation.

    Records (simulation, first entry time) and runs the calibration points
    before the timer of their sys event starts.
    """
    engine = hv.engine
    samples = array("q")
    seen = []
    original = engine.Simulation.syscall

    def syscall(self, pid, call, path=None, path2=None, flags=()):
        if not len(samples) % CAL_EVERY:
            if not seen:
                seen.append((self, clock()))
            host.point()
        t0 = clock()
        result = original(self, pid, call, path, path2, flags)
        samples.append(clock() - t0)
        return result

    engine.Simulation.syscall = syscall
    return samples, seen


def install_tracer(hv, tracer: Tracer, counts: dict, host: HostSpeed):
    """Wrap each layer boundary at the attribute its caller looks it up through."""
    engine, mediator, cli = hv.engine, hv.mediator, hv.cli
    traced_syscall = tracer.wrap("Simulation.syscall", engine.Simulation.syscall)

    def syscall(self, *args, **kwargs):
        n = counts["syscalls"]
        counts["syscalls"] = n + 1
        if not n % CAL_EVERY:
            if tracer.sim is None:
                tracer.sim = self
                tracer.first_entry = clock()
            host.point()
            if tracer.first_syscall is None:
                tracer.first_syscall = clock()
        return traced_syscall(self, *args, **kwargs)

    engine.Simulation.syscall = syscall
    engine.Simulation.decision_log = tracer.wrap("Simulation.decision_log", engine.Simulation.decision_log)
    engine.parse_scenario = tracer.wrap("parse_scenario", engine.parse_scenario)
    engine.SyscallEvent = tracer.wrap("SyscallEvent", engine.SyscallEvent)
    engine.handle_trap = tracer.wrap("handle_trap", engine.handle_trap)
    engine.apply_verdict = tracer.wrap("apply_verdict", engine.apply_verdict)
    mediator.required_checks = tracer.wrap("required_checks", mediator.required_checks)
    mediator.check_access = tracer.wrap("check_access", mediator.check_access)
    hv.sacl.Sacl.lookup = tracer.wrap("Sacl.lookup", hv.sacl.Sacl.lookup)
    hv.guest.Guest.execute_syscall = tracer.wrap("Guest.execute_syscall", hv.guest.Guest.execute_syscall)
    cli._emit = tracer.wrap("_emit", cli._emit)

    traced_mediate = tracer.wrap("mediate", engine.mediate)

    def mediate(*args, **kwargs):
        verdict = traced_mediate(*args, **kwargs)
        counts["probes"] += verdict.probes
        return verdict

    engine.mediate = mediate

    traced_token = tracer.wrap("try_token_auth", mediator.try_token_auth)

    def try_token_auth(path, pid, table, config, sessions, seq):
        attempted = traced_token(path, pid, table, config, sessions, seq)
        if attempted:
            counts["token_attempts"] += 1
            record = table.get(pid)
            if record is not None and sessions.get(record.uid) == seq + config.window:
                counts["token_verified"] += 1
        return attempted

    mediator.try_token_auth = try_token_auth

    hits = counts["sacl_hits"]
    probe_dict = tracer.probe_dict(hits)
    traced_parse_sacl = tracer.wrap("parse_sacl", cli.parse_sacl)

    def parse_sacl(text):
        sacl = traced_parse_sacl(text)
        sacl.entries = probe_dict(sacl.entries)
        return sacl

    cli.parse_sacl = parse_sacl


def check_outputs(manifest: dict, rc, err: str, sim, log_path: str):
    """Output checks; returns (failed sys events, problems, switches per call)."""
    n = manifest["sys_events"]
    problems = []
    mismatches = [line for line in err.splitlines() if line.startswith("mismatch:")]
    failed = len(mismatches)
    problems.extend(mismatches[:5])
    if rc != 0:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        problems.append(f"exit code {rc}: {last}")
        if not mismatches:
            failed = n
    rows = []
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
    if len(rows) != n:
        problems.append(f"decision log has {len(rows)} rows for {n} sys events")
        failed += max(1, abs(n - len(rows)))
    expected = 2 if manifest["trap_mode"] == "nop" else 4
    switches_per_call = 0.0
    if sim is None or not sim.records:
        problems.append("no trap records")
        failed = n
    else:
        switches = [r.vm_exits + r.vm_entries for r in sim.records]
        switches_per_call = sum(switches) / len(switches)
        wrong = sum(1 for s in switches if s != expected)
        if wrong:
            problems.append(f"{wrong} calls did not take exactly {expected} switches")
            failed += wrong
    probes = manifest.get("token_probes")
    if probes and len(rows) == n:
        for kind, ordinals in probes.items():
            if not ordinals:
                problems.append(f"token_gate shows no {kind} token evidence")
                failed += 1
            for i in ordinals:
                unauthenticated = rows[i].split(",")[6] == "unauthenticated"
                if unauthenticated != (kind != "verified"):
                    failed += 1
                    problems.append(f"sys event {i}: {kind} token probe logged {rows[i]}")
    return min(failed, n), problems[:20], switches_per_call


def layer_metrics(tracer: Tracer, counts: dict, sim, phase: int, slowness: dict) -> dict:
    """Per-layer figures from the spans of one traced replay.

    ``phase`` is the replay phase in host ns, calibration pauses left out.
    Host times are divided by the host slowness of their phase: set-up for
    the two parse times, replay for the rest.
    """
    by_name, covered = tracer.totals(tracer.first_syscall)
    ns_per_us = 1e3 * slowness["replay"]

    def mean_us(name):
        calls, incl, _ = by_name[name]
        return incl / calls / ns_per_us if calls else 0.0

    def self_us(name):
        calls, _, own = by_name[name]
        return own / calls / ns_per_us if calls else 0.0

    def seconds(name, phase_name="replay"):
        return by_name[name][1] / 1e9 / slowness[phase_name]

    share = dict.fromkeys(LAYERS.values(), 0)
    for name, (_, _, own) in by_name.items():
        share[LAYERS[name]] += own
    share = {layer: v / phase for layer, v in share.items()}
    n = len(sim.decisions)
    probes = by_name["Sacl.entries.get"][0]
    attempts = counts["token_attempts"]
    return {
        "engine.syscall_self_us": self_us("Simulation.syscall"),
        "engine.self_share": share["engine"],
        "engine.parse_scenario_s": seconds("parse_scenario", "setup"),
        "engine.decision_log_s": seconds("Simulation.decision_log"),
        "trap.handle_trap_self_us": self_us("handle_trap"),
        "trap.self_share": share["trap"],
        "trap.switches": sum(r.vm_exits + r.vm_entries for r in sim.records),
        "trap.single_steps": sum(r.single_steps for r in sim.records),
        "mediator.mediate_self_us": self_us("mediate"),
        "mediator.required_checks_us": mean_us("required_checks"),
        "mediator.apply_verdict_us": mean_us("apply_verdict"),
        "mediator.token_auth_us": mean_us("try_token_auth"),
        "mediator.self_share": share["mediator"],
        "mediator.probes_per_call": counts["probes"] / by_name["mediate"][0],
        "mediator.deny_ratio": sum(1 for d in sim.decisions if d.decision == "deny") / n,
        "mediator.mismatch_ratio": sum(1 for d in sim.decisions if d.mismatch) / n,
        "mediator.token_attempts": attempts,
        "mediator.token_verified_ratio": counts["token_verified"] / attempts if attempts else 0.0,
        "sacl.check_access_us": mean_us("check_access"),
        "sacl.lookup_us": mean_us("Sacl.entries.get"),
        "sacl.self_share": share["sacl"],
        "sacl.probes": probes,
        "sacl.hit_ratio": counts["sacl_hits"][0] / probes if probes else 0.0,
        "sacl.parse_s": seconds("parse_sacl", "setup"),
        "guest.event_new_us": mean_us("SyscallEvent"),
        "guest.execute_us": mean_us("Guest.execute_syscall"),
        "guest.self_share": share["guest"],
        "guest.error_ratio": sum(1 for o in sim.outcomes if o.error is not None) / n,
        "guest.files_end": len(sim.guest.files),
        "guest.live_processes_end": len(sim.guest.live_pids()),
        "cli.emit_s": seconds("_emit"),
        "cli.self_share": share["cli"],
        "trace.unattributed_share": (phase - covered) / phase,
    }


def main(argv) -> int:
    if len(argv) != 4:
        print("usage: replay.py SRC_DIR WORK_DIR INDEX TRACE", file=sys.stderr)
        return 2
    src, workdir, index, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    hv = import_hvguard(src)
    files = manifest["files"]
    log_path = os.path.join(workdir, f"log-{index}.csv")
    cli_argv = [
        "--sacl", os.path.join(workdir, files["sacl"]),
        "--scenario", os.path.join(workdir, files["scenario"]),
        "--out", log_path,
    ]
    if "secrets" in files:
        cli_argv += ["--auth-secrets", os.path.join(workdir, files["secrets"])]
    cli_argv += manifest["cli_args"]

    counts = {"syscalls": 0, "probes": 0, "token_attempts": 0, "token_verified": 0, "sacl_hits": [0]}
    host = HostSpeed()
    tracer = Tracer() if trace else None
    if trace:
        install_tracer(hv, tracer, counts, host)
    else:
        samples, seen = install_timer(hv, host)

    err = io.StringIO()
    t_main = clock()
    try:
        with contextlib.redirect_stderr(err):
            rc = hv.cli.main(cli_argv)
    except Exception as exc:  # a traceback escaping cli.main fails the run, not the harness
        rc = f"uncaught {type(exc).__name__}: {exc}"
    if host.points:
        host.point()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        sim, entered = tracer.sim, tracer.first_entry
    else:
        sim, entered = seen[0] if seen else (None, None)
    failed, problems, switches_per_call = check_outputs(manifest, rc, err.getvalue(), sim, log_path)
    result = {
        "sys_events": manifest["sys_events"],
        "failed": failed,
        "problems": problems,
        "switches_per_call": switches_per_call,
        "peak_rss_mb": peak_rss_mb,
    }
    if entered is not None:
        segments = host.segments()
        replay_ns = sum(end - start for start, end, _ in segments)
        scaled_ns = sum(host.scaled_ns(*segment) for segment in segments)
        setup_ns = entered - t_main
        setup_scaled_ns = host.scaled_ns(t_main, entered, host.setup_slowness())
        # Effective slowness of each phase, full collections included.
        slowness = {"setup": setup_ns / setup_scaled_ns, "replay": replay_ns / scaled_ns}
        raw = {"setup_s": setup_ns / 1e9, "events_per_s": manifest["sys_events"] / (replay_ns / 1e9)}
        gc_replay = [(s, e) for s, e in host.full_gc if s >= segments[0][0]]
        result.update(slowness=slowness, raw=raw, replay_s=replay_ns / 1e9, calibrations=len(host.points) + 1,
                      full_gc_replay=len(gc_replay), full_gc_replay_s=sum(e - s for s, e in gc_replay) / 1e9,
                      setup_s=setup_scaled_ns / 1e9, events_per_s=manifest["sys_events"] / (scaled_ns / 1e9))
    if trace and sim is not None:
        result["layers"] = layer_metrics(tracer, counts, sim, replay_ns, slowness)
        tracer.write(os.path.join(workdir, f"spans-{index}"))
    elif not trace and samples:
        raw_sorted = sorted(samples)
        scaled = sorted(ns / segments[i // CAL_EVERY][2] for i, ns in enumerate(samples))
        raw.update(syscall_p50_us=percentile(raw_sorted, 0.50) / 1e3,
                   syscall_p99_us=percentile(raw_sorted, 0.99) / 1e3)
        result.update(samples=len(scaled), syscall_p50_us=percentile(scaled, 0.50) / 1e3,
                      syscall_p99_us=percentile(scaled, 0.99) / 1e3)
    with open(os.path.join(workdir, f"result-{index}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    status = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the replay's objects one by one; the result is already on disk.
    os._exit(status)
