"""Synthetic workloads quantifying trap overhead and mediation cost.

Three deployment scenarios: S1 issues bare syscalls with no trapping at
all; S2 runs the full trap/mediation stack against an empty shadow list;
S3 runs it against a full list with one entry per guest file.  Modeled cost
prices the context-switch sequence; wall-clock timing covers only the
mediation function, since simulated switches cost no real time.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from enum import Enum

from .engine import Simulation
from .guest import Guest, GuestFile, SyscallEvent
from .sacl import PermissionOctets, Sacl, generate_full_sacl
from .trap import CostModel, TrapMode, cost_of

# Per bench call: its open flags, and whether path2 repeats the path.  A
# rename onto itself is a successful no-op that leaves the pool intact; its
# four required names are two distinct paths, the file and its directory.
_CALL_ARGS = {"open": (frozenset({"O_RDONLY"}), False), "rename": (frozenset(), True), "unlink": (frozenset(), False)}
BENCH_CALLS = tuple(_CALL_ARGS)

CSV_COLUMNS = (
    "call",
    "scenario",
    "trap_mode",
    "sacl_size",
    "n",
    "mean_model_cost",
    "mean_wall_ns",
    "ratio_vs_S1",
    "total_switches",
)

_WORKLOAD_PERMS = PermissionOctets(6, 4, 4)


class ScenarioKind(Enum):
    S1_NO_TRAP = "S1_NoTrap"
    S2_EMPTY_SACL = "S2_EmptySacl"
    S3_FULL_SACL = "S3_FullSacl"


@dataclass(frozen=True)
class BenchScenario:
    """pool is the guest file count the workload draws targets from; S3's
    full list has one row per file, so its size is pool too.  Comparisons
    across scenarios pin pool so only the SACL differs.  As in
    ``Simulation``, ``trap_mode`` may be given as its text."""

    kind: ScenarioKind
    trap_mode: TrapMode = TrapMode.CLASSIC4
    cost_model: CostModel = CostModel(switch_cost=1.0)
    pool: int = 1000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trap_mode", TrapMode(self.trap_mode))
        if self.pool < 1:
            raise ValueError("pool must be >= 1")


@dataclass(frozen=True)
class BenchResult:
    """Aggregates for one (call, scenario) workload.

    mean_model_cost is deterministic under a fixed seed; mean_wall_ns is
    measured and covers the mediation function only (the bare syscall for
    S1).  ratio_vs_S1 compares (bare + mediation) time against a twin
    bare-guest run of the same workload, and is 1.0 for S1 by definition.
    """

    call: str
    scenario: str
    trap_mode: str
    sacl_size: int
    n: int
    mean_model_cost: float
    mean_wall_ns: float
    ratio_vs_s1: float
    total_switches: int

    def csv(self) -> str:
        return (
            f"{self.call},{self.scenario},{self.trap_mode},{self.sacl_size},"
            f"{self.n},{self.mean_model_cost:.6f},{self.mean_wall_ns:.1f},"
            f"{self.ratio_vs_s1:.3f},{self.total_switches}"
        )


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


def _issue_calls(issue, guest: Guest, pid: int, call: str, files: dict, count: int, seed: int) -> list:
    """The results of count ``issue(pid, call, path, path2, flags)`` calls, with
    the collector off, on files drawn by ``random.Random(seed)``.  After each
    call its file is put back into ``guest``, so every unlink finds it."""
    paths = list(files)
    flags, onto_self = _CALL_ARGS[call]
    rng = random.Random(seed)
    results = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            path = paths[rng.randrange(len(paths))]
            results.append(issue(pid, call, path, path if onto_self else None, flags))
            guest.files[path] = files[path]
    finally:
        if gc_was_enabled:
            gc.enable()
    return results


def _bare_mean_ns(call: str, n: int, files: dict, seed: int) -> float:
    """Twin run of the same workload with no trapping or mediation."""
    guest = Guest()
    guest.files.update(files)

    def timed(pid, call, path, path2, flags):
        event = SyscallEvent(0, pid, call, path, path2, flags)
        t0 = time.perf_counter_ns()
        guest.execute_syscall(event)
        return time.perf_counter_ns() - t0

    return sum(_issue_calls(timed, guest, guest.spawn_process(1, 0, 0), call, files, n, seed)) / n


def run_workload(call: str, n: int, scenario: BenchScenario) -> BenchResult:
    """Issue n independent syscalls of one kind through the chosen stack.

    S2 and S3 run each call through ``Simulation.syscall`` against a guest
    of ``scenario.pool`` root-level files (so a full SACL has exactly that
    many rows) and one root worker, which keeps guest-side permission checks
    out of the way.  Totals come from the trap records of the measured calls
    and the probe counts of their verdicts, which are read outside the timed
    span.
    """
    if call not in BENCH_CALLS:
        raise ValueError(f"call must be one of {BENCH_CALLS}, got {call!r}")
    if n < 1:
        raise ValueError("n must be >= 1")

    files = {f"/f{i:07d}": GuestFile(0, 0, _WORKLOAD_PERMS) for i in range(scenario.pool)}
    bare_ns = _bare_mean_ns(call, n, files, scenario.seed)

    # S1 skips only the trapped run; its figures are those of an empty one.
    trapped = scenario.kind is not ScenarioKind.S1_NO_TRAP
    records, probes, sacl_size, mediation_ns = [], [], 0, 0.0
    if trapped:
        sim = _TimedSimulation(
            sacl=generate_full_sacl(files) if scenario.kind is ScenarioKind.S3_FULL_SACL else Sacl(),
            trap_mode=scenario.trap_mode,
        )
        sim.guest.files.update(files)
        pid = sim.spawn(1, 0, 0)

        # Warm up the interpreter path before measuring.
        warm = min(100, n)
        _issue_calls(sim.syscall, sim.guest, pid, call, files, warm, scenario.seed + 1)
        sim.wall_ns = 0
        probes = _issue_calls(lambda *args: sim.syscall(*args)[0].probes, sim.guest, pid, call, files, n, scenario.seed)
        records, sacl_size, mediation_ns = sim.records[warm:], len(sim.sacl.entries), sim.wall_ns / n

    return BenchResult(
        call=call,
        scenario=scenario.kind.value,
        trap_mode=scenario.trap_mode.value,
        sacl_size=sacl_size,
        n=n,
        mean_model_cost=sum(cost_of(r, scenario.cost_model, p) for r, p in zip(records, probes)) / n,
        mean_wall_ns=mediation_ns if trapped else bare_ns,
        ratio_vs_s1=(bare_ns + mediation_ns) / bare_ns if bare_ns > 0 else 1.0,
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
    results = []
    for size in sizes:
        scenario = BenchScenario(
            ScenarioKind.S3_FULL_SACL,
            trap_mode=trap_mode,
            cost_model=cost_model,
            pool=size,
        )
        results.append(run_workload(call, n, scenario))
    return results


def results_csv(results) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv() for r in results)
    return "\n".join(lines) + "\n"


def summary_table(results) -> str:
    header = f"{'call':<8} {'scenario':<14} {'mode':<8} {'sacl':>8} {'model':>12} {'wall_ns':>12} {'ratio':>8} {'switches':>9}"
    rows = [header, "-" * len(header)]
    for r in results:
        rows.append(
            f"{r.call:<8} {r.scenario:<14} {r.trap_mode:<8} {r.sacl_size:>8} "
            f"{r.mean_model_cost:>12.3f} {r.mean_wall_ns:>12.1f} {r.ratio_vs_s1:>8.2f} {r.total_switches:>9}"
        )
    return "\n".join(rows)
