"""Layered replay benchmark for hvguard.

Usage (from the repository root):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Generates the workload from the seed into ``perfbench/_work/WORKLOAD/``, then
replays it through ``hvguard.cli.main`` in fresh child interpreters, one after
another (a closed loop, one client), until ``--seconds`` have passed and at
least ``MIN_REPLAYS`` replays are done.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics.  Host times are scaled to a fixed host speed with the
calibration kernel in ``calibrate.py``; the unscaled figures are printed
above the result.  Every replay's outputs are checked.  The last line of
standard output is one JSON object; the exit code is non-zero if any check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import gen  # noqa: E402  (the generator sits beside this file)

# Fewest replays per run as (untraced, traced): with five, the interquartile
# mean drops one replay at each end; the traced run needs two of each kind.
MIN_REPLAYS = {False: (5, 0), True: (2, 2)}
# Start no replay that would end after this much wall time, and kill a hung
# replay, so a run ends within 180 s.
WALL_LIMIT_S = 100
CHILD_TIMEOUT_S = 60

# Metric names and units; run.py reports exactly the metrics listed there.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def replay(workdir: str, index: int, trace: bool, seed: int) -> dict:
    """Run one replay in a fresh interpreter and return its result."""
    # A hash seed derived from the workload seed: the same seed replays with the same dict layouts.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=str((seed * 1009 + index) % 2**32))
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "replay.py"), SRC, workdir, str(index), "1" if trace else "0"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    path = os.path.join(workdir, f"result-{index}.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"replay {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workdir: str, seconds: int, trace: bool, seed: int):
    """Replay until the time budget is spent; returns (untraced, traced) results."""
    untraced, traced = [], []
    start = time.monotonic()
    index = 0
    kinds = (False, True) if trace else (False,)
    min_untraced, min_traced = MIN_REPLAYS[trace]
    while True:
        for kind in kinds:
            result = replay(workdir, index, kind, seed)
            (traced if kind else untraced).append(result)
            index += 1
            if "events_per_s" not in result:
                return untraced, traced
        elapsed = time.monotonic() - start
        enough = len(untraced) >= min_untraced and len(traced) >= min_traced
        per_round = elapsed / (index / len(kinds))
        if (enough and elapsed >= seconds) or elapsed + per_round > WALL_LIMIT_S:
            return untraced, traced


def interquartile_mean(values) -> float:
    """Mean of the middle half: drops the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(untraced: list) -> dict:
    """Each metric is the interquartile mean of the run's per-replay figures.

    The interquartile mean moves more smoothly from run to run than the
    median of a handful of replays and still ignores a stray one.  setup_s
    is the median of the set-ups.
    """
    metrics = {m["name"]: interquartile_mean(r[m["name"]] for r in untraced) for m in SPEC["end_to_end"]}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in untraced)
    return metrics


def per_layer(untraced: list, traced: list, attempted: int, failed: int) -> dict:
    metrics = {name: statistics.median(r[key] for r in untraced) for name, key in
               (("syscall_p99_us", "syscall_p99_us"), ("gc.full_collections", "full_gc_replay"),
                ("gc.full_s", "full_gc_replay_s"))}
    metrics.update((name, statistics.median(r["layers"][name] for r in traced)) for name in traced[0]["layers"])
    metrics["trace.overhead_ratio"] = (statistics.median(r["events_per_s"] for r in untraced)
                                       / statistics.median(r["events_per_s"] for r in traced))
    metrics["error_rate"] = failed / attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "hvguard", "cli.py")):
        print(f"error: no hvguard sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.monotonic()
    manifest = gen.generate(args.workload, args.seed, workdir)
    gen_s = time.monotonic() - t0
    try:
        untraced, traced = measure(workdir, args.seconds, bool(args.trace), args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = untraced + traced
    attempted = sum(r["sys_events"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"check failed (replay {i}): {problem}", file=sys.stderr)
    if any("events_per_s" not in r for r in runs):
        print("error: a replay never reached its first sys event", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: {manifest['sys_events']} sys events per replay, "
          f"{manifest['sacl_rows']} SACL rows, {manifest['expects']} expects, trap mode {manifest['trap_mode']}, "
          f"generated in {gen_s:.2f} s")
    print(f"replays: {len(untraced)} untraced, {len(traced)} traced; CPython {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    if args.trace:
        metrics = per_layer(untraced, traced, attempted, failed)
    else:
        metrics = end_to_end(untraced)
        print(f"syscall latency samples: {sum(r['samples'] for r in untraced)}; "
              f"p99 {statistics.median(r['syscall_p99_us'] for r in untraced)} us (unbounded, see --trace 1)")
        unscaled = {k: interquartile_mean(r["raw"][k] for r in untraced)
                    for k in ("events_per_s", "syscall_p50_us", "setup_s")}
        print("unscaled host times: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()) +
              f"; host slowness (1 = reference) replay median "
              f"{statistics.median(r['slowness']['replay'] for r in untraced):.3f}, "
              f"set-up median {statistics.median(r['slowness']['setup'] for r in untraced):.3f}")
    listed = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(listed):
        print(f"error: metrics {sorted(set(metrics) ^ set(listed))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>18.10g} {UNITS[name]}")
    print(f"error_rate: {failed / attempted} ({failed} failed of {attempted} sys events)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
