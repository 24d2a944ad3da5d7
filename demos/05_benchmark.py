"""Benchmark harness: trap-mode halving and hashtable flatness.

Modeled cost prices the context-switch sequences; measured wall time covers
only the mediation function.  The interesting properties are orderings and
flatness, never absolute numbers, which are machine artifacts.
"""

from hvguard import CostModel, TrapMode, results_csv, run_workload, sacl_scaling
from hvguard.bench import summary_table

model = CostModel(switch_cost=1.0)

print("classic vs NOP-prologue trapping, empty shadow list, 500 opens:")
classic = run_workload("open", 500, cost_model=model)
nop = run_workload("open", 500, trap_mode=TrapMode.NOP2, cost_model=model)
print(f"  modeled cost per call: classic={classic.mean_model_cost:.1f}  nop={nop.mean_model_cost:.1f}")
print(f"  total switches:        classic={classic.total_switches}  nop={nop.total_switches}")

print("\nfull shadow list at four sizes, 1000 renames each:")
results = sacl_scaling("rename", [100, 1000, 10000, 100000], 1000, cost_model=model)
print(summary_table(results))
walls = [r.mean_wall_ns for r in results]
print(f"\nmediation wall time spread across sizes: {max(walls) / min(walls):.2f}x (hashtable stays flat)")

print("\nCSV form (what --bench emits):")
print(results_csv(results))
