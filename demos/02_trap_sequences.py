"""Breakpoint trap handling, step by step, in both modes.

The classic sequence restores the original first byte, single-steps one
instruction, and re-injects the breakpoint: two VM-exit/VM-entry pairs per
trapped call.  A site compiled with a NOP prologue keeps its breakpoint
permanently and only advances the instruction pointer: one pair.
"""

from hvguard import CostModel, SyscallEvent, arm, cost_of, handle_trap, make_site
from hvguard.trap import CLASSIC4_STEPS, NOP2_STEPS

event = SyscallEvent(seq=1, pid=2, call="open", path="/etc/hosts", flags=frozenset({"O_RDONLY"}))
model = CostModel(switch_cost=1.0)


def show(nop):
    # The site's first byte picks the handling.
    site = arm(make_site("open", nop_prologue=nop))
    record = handle_trap(site, event)
    print(f"\n{'nop' if nop else 'classic'} handling of one open():")
    for step in NOP2_STEPS if nop else CLASSIC4_STEPS:
        print("   ", step)
    print(
        f"  -> {record.vm_exits} VM-exits, {record.vm_entries} VM-entries, "
        f"{record.single_steps} single-steps; modeled cost {cost_of(record, model):.0f} switch units"
    )
    return record


classic = show(nop=False)
nop = show(nop=True)

ratio = cost_of(classic, model) / cost_of(nop, model)
print(f"\nwith a free callback, the NOP-prologue mode halves the overhead: ratio = {ratio:.2f}")

# With a real callback cost c and switch cost s the ratio is (4s+c)/(2s+c).
priced = CostModel(switch_cost=1.0, callback_base_cost=2.0)
print(f"with callback cost 2 and switch cost 1: ratio = {cost_of(classic, priced) / cost_of(nop, priced):.2f}")
