"""Trap state machine: arming, switch sequences, costs, re-arm guarantee."""

import pytest

from hvguard.guest import SyscallEvent, TRAPPED_CALLS
from hvguard.trap import (
    BREAKPOINT_OPCODE,
    CLASSIC4_RECORD,
    CLASSIC4_STEPS,
    CostModel,
    NOP2_RECORD,
    NOP2_STEPS,
    NOP_OPCODE,
    TrapMode,
    TrapStateError,
    arm,
    cost_of,
    handle_trap,
    make_site,
)


def armed_site(call="open", mode=TrapMode.CLASSIC4):
    return arm(make_site(call, nop_prologue=mode is TrapMode.NOP2))


def step_counts(steps):
    """(VM exits, VM entries, single-step exceptions) a step sequence lists."""
    return steps.count("VM-exit"), steps.count("VM-entry"), steps.count("single-step-exception")


def test_arm_saves_original_and_injects_breakpoint():
    site = make_site("open")
    original = site.original_opcode
    arm(site)
    assert site.current_byte == BREAKPOINT_OPCODE
    assert site.original_opcode == original != BREAKPOINT_OPCODE


def test_double_arm_is_an_error():
    site = armed_site()
    with pytest.raises(TrapStateError):
        arm(site)


def test_nop_site_original_is_nop():
    site = make_site("open", nop_prologue=True)
    assert site.original_opcode == NOP_OPCODE
    arm(site)
    assert site.current_byte == BREAKPOINT_OPCODE


def test_classic_sequence_counts():
    site = armed_site()
    record = handle_trap(site, SyscallEvent(1, 2, "open", "/f"))
    assert (record.vm_exits, record.vm_entries, record.single_steps) == (2, 2, 1)
    assert step_counts(CLASSIC4_STEPS) == (2, 2, 1)


def test_nop_sequence_counts():
    site = armed_site(mode=TrapMode.NOP2)
    record = handle_trap(site, SyscallEvent(1, 2, "open", "/f"))
    assert (record.vm_exits, record.vm_entries, record.single_steps) == (1, 1, 0)
    assert step_counts(NOP2_STEPS) == (1, 1, 0)


def test_classic_step_order_brackets_the_restore_window():
    steps = list(CLASSIC4_STEPS)
    # the original byte is in place only between restore and re-inject,
    # and that window is bracketed by the single-step round trip
    assert steps.index("restore-original") < steps.index("VM-entry")
    assert steps.index("execute-1-instruction") < steps.index("single-step-exception")
    assert steps.count("restore-original") == steps.count("re-inject-0xCC") == 1
    second_exit = max(i for i, s in enumerate(steps) if s == "VM-exit")
    assert steps.index("re-inject-0xCC") > second_exit


def test_nop_site_never_shows_nop_after_arming():
    site = armed_site(mode=TrapMode.NOP2)
    for seq in range(1, 20):
        handle_trap(site, SyscallEvent(seq, 2, "open", "/f"))
        assert site.current_byte == BREAKPOINT_OPCODE
    assert "restore-original" not in NOP2_STEPS


def test_rearm_guarantee_back_to_back():
    site = armed_site()
    records = []
    for seq in (1, 2):
        record = handle_trap(site, SyscallEvent(seq, 2, "open", "/f"))
        records.append(record)
    assert len(records) == 2
    assert all(r.vm_exits == 2 for r in records)


def test_unarmed_or_mismatched_site_rejected():
    site = make_site("open")
    with pytest.raises(TrapStateError):
        handle_trap(site, SyscallEvent(1, 2, "open", "/f"))
    arm(site)
    with pytest.raises(TrapStateError):
        handle_trap(site, SyscallEvent(1, 2, "unlink", "/f"))


def test_switch_counts_hold_for_every_trapped_call():
    for call in TRAPPED_CALLS:
        for mode, exits in ((TrapMode.CLASSIC4, 2), (TrapMode.NOP2, 1)):
            site = armed_site(call, mode)
            record = handle_trap(site, SyscallEvent(1, 2, call, "/f"))
            assert record.vm_exits == record.vm_entries == exits
            assert site.current_byte == BREAKPOINT_OPCODE


def test_switch_totals_are_linear():
    for mode, per in ((TrapMode.CLASSIC4, 4), (TrapMode.NOP2, 2)):
        site = armed_site(mode=mode)
        total = 0
        for seq in range(1, 51):
            record = handle_trap(site, SyscallEvent(seq, 2, "open", "/f"))
            total += record.vm_exits + record.vm_entries
        assert total == per * 50


def test_cost_arithmetic():
    model = CostModel(switch_cost=3.0, callback_base_cost=5.0)
    classic = handle_trap(armed_site(), SyscallEvent(1, 2, "open", "/f"))
    nop = handle_trap(armed_site(mode=TrapMode.NOP2), SyscallEvent(1, 2, "open", "/f"))
    assert cost_of(classic, model) == 4 * 3.0 + 5.0
    assert cost_of(nop, model) == 2 * 3.0 + 5.0


def test_cost_ratio_is_two_with_free_callback():
    model = CostModel(switch_cost=7.0)
    classic = handle_trap(armed_site(), SyscallEvent(1, 2, "open", "/f"))
    nop = handle_trap(armed_site(mode=TrapMode.NOP2), SyscallEvent(1, 2, "open", "/f"))
    assert cost_of(classic, model) / cost_of(nop, model) == 2.0


def test_callback_probes_are_priced():
    model = CostModel(switch_cost=1.0, callback_base_cost=2.0, lookup_cost=0.5)
    record = handle_trap(armed_site(), SyscallEvent(1, 2, "open", "/f"))
    assert cost_of(record, model, 3) == 4 * 1.0 + (2.0 + 3 * 0.5)
    assert cost_of(record, model) == 4 * 1.0 + 2.0
    assert cost_of(NOP2_RECORD, model, 3) == 2 * 1.0 + (2.0 + 3 * 0.5)


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        CostModel(switch_cost=-1.0)
    with pytest.raises(ValueError):
        CostModel(lookup_cost=float("nan"))
    for field in ("switch_cost", "callback_base_cost", "lookup_cost"):
        with pytest.raises(ValueError, match="costs must be non-negative"):
            CostModel(**{field: float("inf")})


def test_one_record_per_mode_for_every_site():
    for call in ("open", "unlink"):
        site = armed_site(call, TrapMode.NOP2)
        first = handle_trap(site, SyscallEvent(1, 2, call, "/f"))
        again = handle_trap(site, SyscallEvent(2, 2, call, "/g"))
        ordinary = armed_site(call)
        classic = handle_trap(ordinary, SyscallEvent(3, 2, call, "/f"))
        assert first is again is NOP2_RECORD
        assert classic is CLASSIC4_RECORD
        assert site.current_byte == ordinary.current_byte == BREAKPOINT_OPCODE
    assert CLASSIC4_RECORD != NOP2_RECORD
