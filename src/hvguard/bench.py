"""Synthetic workloads quantifying trap overhead and mediation cost.

Each workload runs the full trap/mediation stack against either an empty
shadow list or a full one, with one entry per guest file.  Modeled cost
prices the context-switch sequence; wall-clock timing covers only the
mediation step, since simulated switches cost no real time.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, fields

from .engine import Simulation
from .guest import GuestFile
from .sacl import PermissionOctets, Sacl, generate_full_sacl
from .trap import CostModel, TrapMode, cost_of

# Per bench call: its open flags, and whether path2 repeats the path.  A
# rename onto itself is a successful no-op that leaves the pool intact; its
# four required names are two distinct paths, the file and its directory.
_CALL_ARGS = {"open": (frozenset({"O_RDONLY"}), False), "rename": (frozenset(), True), "unlink": (frozenset(), False)}
BENCH_CALLS = tuple(_CALL_ARGS)

_WORKLOAD_PERMS = PermissionOctets(6, 4, 4)


@dataclass(frozen=True)
class BenchResult:
    """Aggregates for one (call, SACL, trap mode) workload.

    mean_model_cost is deterministic under a fixed seed; mean_wall_ns is
    measured and is the mean time of one ``Simulation._decide``, the
    mediation step, in every row.
    """

    call: str
    trap_mode: str
    sacl_size: int
    n: int
    mean_model_cost: float
    mean_wall_ns: float
    total_switches: int


CSV_COLUMNS = tuple(field.name for field in fields(BenchResult))


class _TimedSimulation(Simulation):
    """A Simulation that times its mediation step alone.

    The timed span is ``Simulation._decide``, the one call of ``mediate``
    plus ``apply_verdict``, the work that depends on the SACL.
    ``Simulation.syscall`` reads the caller's claim from ``Guest.processes``
    in its liveness test, before the trap and this span, so that read
    cannot pull the empty-vs-full ratio of acceptance criterion 6 toward 1.
    """

    wall_ns = 0

    def _decide(self, event, claim):
        t0 = time.perf_counter_ns()
        decided = Simulation._decide(self, event, claim)
        self.wall_ns += time.perf_counter_ns() - t0
        return decided


def _issue_calls(sim: Simulation, pid: int, call: str, files: dict, count: int, seed: int) -> list:
    """The verdicts of count ``sim.syscall`` calls, with the collector off,
    on files drawn by ``random.Random(seed)``.  After each call its file is
    put back into the guest, so every unlink finds it."""
    paths = list(files)
    flags, onto_self = _CALL_ARGS[call]
    rng = random.Random(seed)
    verdicts = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            path = paths[rng.randrange(len(paths))]
            verdicts.append(sim.syscall(pid, call, path, path if onto_self else None, flags)[0])
            sim.guest.files[path] = files[path]
    finally:
        if gc_was_enabled:
            gc.enable()
    return verdicts


def run_workload(
    call: str,
    n: int,
    *,
    pool: int = 1000,
    full_sacl: bool = False,
    trap_mode: TrapMode = TrapMode.CLASSIC4,
    cost_model: CostModel = CostModel(switch_cost=1.0),
    seed: int = 0,
) -> BenchResult:
    """Issue n independent syscalls of one kind through ``Simulation.syscall``.

    The guest holds ``pool`` root-level files and one root worker, which
    keeps guest-side permission checks out of the way.  The SACL is empty,
    or with ``full_sacl`` has one row per file, so its size is ``pool``;
    comparisons between the two pin ``pool`` so only the SACL differs.  As
    in ``Simulation``, ``trap_mode`` may be given as its text.  Totals come
    from the trap records of the measured calls and the probe counts of
    their verdicts, which are read outside the timed span.
    """
    if call not in BENCH_CALLS:
        raise ValueError(f"call must be one of {BENCH_CALLS}, got {call!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if pool < 1:
        raise ValueError("pool must be >= 1")
    trap_mode = TrapMode(trap_mode)

    files = {f"/f{i:07d}": GuestFile(0, 0, _WORKLOAD_PERMS) for i in range(pool)}
    sim = _TimedSimulation(sacl=generate_full_sacl(files) if full_sacl else Sacl(), trap_mode=trap_mode)
    sim.guest.files.update(files)
    pid = sim.spawn(1, 0, 0)

    # Warm up the interpreter path before measuring.
    warm = min(100, n)
    _issue_calls(sim, pid, call, files, warm, seed + 1)
    sim.wall_ns = 0
    verdicts = _issue_calls(sim, pid, call, files, n, seed)
    records = sim.records[warm:]

    return BenchResult(
        call=call,
        trap_mode=trap_mode.value,
        sacl_size=len(sim.sacl.entries),
        n=n,
        mean_model_cost=sum(cost_of(r, cost_model, v.probes) for r, v in zip(records, verdicts)) / n,
        mean_wall_ns=sim.wall_ns / n,
        total_switches=sum(r.vm_exits + r.vm_entries for r in records),
    )


def sacl_scaling(
    call: str,
    sizes,
    n: int,
    trap_mode: TrapMode = TrapMode.CLASSIC4,
    cost_model: CostModel = CostModel(switch_cost=1.0),
) -> list[BenchResult]:
    """One full-SACL result per size; sizes must be ascending."""
    sizes = list(sizes)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be non-empty and strictly ascending")
    return [
        run_workload(call, n, pool=size, full_sacl=True, trap_mode=trap_mode, cost_model=cost_model)
        for size in sizes
    ]


def results_csv(results) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(
        f"{r.call},{r.trap_mode},{r.sacl_size},{r.n},"
        f"{r.mean_model_cost:.6f},{r.mean_wall_ns:.1f},{r.total_switches}"
        for r in results
    )
    return "\n".join(lines) + "\n"


def summary_table(results) -> str:
    header = f"{'call':<8} {'mode':<8} {'sacl':>8} {'model':>12} {'wall_ns':>12} {'switches':>9}"
    rows = [header, "-" * len(header)]
    for r in results:
        rows.append(
            f"{r.call:<8} {r.trap_mode:<8} {r.sacl_size:>8} "
            f"{r.mean_model_cost:>12.3f} {r.mean_wall_ns:>12.1f} {r.total_switches:>9}"
        )
    return "\n".join(rows)
