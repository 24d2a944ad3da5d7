"""Breakpoint trap state machine and context-switch cost accounting.

A trap site models the first byte of a syscall's code plus an instruction
pointer cursor.  Arming writes the 0xCC breakpoint opcode over the original
byte.  Handling a hit either walks the classic restore/single-step/re-inject
dance (two VM-exit/VM-entry pairs) or, when the site was compiled with a NOP
prologue, simply steps the instruction pointer past the permanently armed
breakpoint (one pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

BREAKPOINT_OPCODE = 0xCC
NOP_OPCODE = 0x90
# Stand-in first byte of an ordinary, non-NOP-prologue syscall (push rbp).
DEFAULT_ORIGINAL_OPCODE = 0x55


class TrapMode(Enum):
    CLASSIC4 = "classic"
    NOP2 = "nop"


class TrapStateError(RuntimeError):
    """Illegal transition: double-arm, unarmed handle, mode/site mismatch."""


@dataclass
class TrapSite:
    """First code byte and IP cursor for one trapped syscall symbol.

    ``classic_records`` and ``nop_records`` hold the shared trap records of
    this site, keyed by callback cost: every field of a record is fixed by
    the symbol, the mode and that cost.
    """

    symbol: str
    original_opcode: int = DEFAULT_ORIGINAL_OPCODE
    armed: bool = False
    current_byte: int = field(default=-1)
    ip: int = 0
    classic_records: dict = field(default_factory=dict, repr=False, compare=False)
    nop_records: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.current_byte == -1:
            self.current_byte = self.original_opcode


def make_site(symbol: str, nop_prologue: bool = False) -> TrapSite:
    """A fresh, unarmed site; nop_prologue marks code compiled with a
    leading 0x90 so the breakpoint can stay in place permanently."""
    original = NOP_OPCODE if nop_prologue else DEFAULT_ORIGINAL_OPCODE
    return TrapSite(symbol=symbol, original_opcode=original)


def arm(site: TrapSite) -> TrapSite:
    """Inject the breakpoint, retaining the original byte for restoration."""
    if site.armed:
        raise TrapStateError(f"site {site.symbol} already armed")
    site.current_byte = BREAKPOINT_OPCODE
    site.armed = True
    return site


@dataclass(frozen=True)
class CostModel:
    """Duration units per context switch, per callback, and per SACL probe."""

    switch_cost: float = 0.0
    callback_base_cost: float = 0.0
    lookup_cost: float = 0.0

    def __post_init__(self):
        # NaN fails this test too: a NaN cost would key a new shared trap
        # record on every call.
        if not all(c >= 0 for c in (self.switch_cost, self.callback_base_cost, self.lookup_cost)):
            raise ValueError("costs must be non-negative")


@dataclass(frozen=True)
class TrapSequenceRecord:
    """Exact switch sequence and cost for one handled trap."""

    symbol: str
    mode: TrapMode
    vm_exits: int
    vm_entries: int
    single_steps: int
    callback_cost: float
    steps: tuple[str, ...]


CLASSIC4_STEPS = (
    "VM-exit",
    "callback",
    "restore-original",
    "set-single-step",
    "VM-entry",
    "execute-1-instruction",
    "single-step-exception",
    "VM-exit",
    "re-inject-0xCC",
    "clear-single-step",
    "VM-entry",
)

NOP2_STEPS = (
    "VM-exit",
    "callback",
    "advance-instruction-pointer-past-breakpoint",
    "VM-entry",
)

# Enum member lookups run Python-level code on CPython 3.11; handle_trap
# compares against these instead.
_CLASSIC4, _NOP2 = TrapMode.CLASSIC4, TrapMode.NOP2


def _new_record(symbol: str, mode: TrapMode, callback_cost: float) -> TrapSequenceRecord:
    # (VM exits, VM entries, single-step exceptions) of each step sequence.
    if mode is _CLASSIC4:
        return TrapSequenceRecord(symbol, mode, 2, 2, 1, callback_cost, CLASSIC4_STEPS)
    return TrapSequenceRecord(symbol, mode, 1, 1, 0, callback_cost, NOP2_STEPS)


def handle_trap(
    site: TrapSite,
    event,
    callback,
    mode: TrapMode,
    cost_model: CostModel | None = None,
):
    """Handle one breakpoint hit; returns (record, forwarded event).

    ``callback(event)`` returns (forwarded event, SACL probe count).  Its
    verdict, including any nulled path slot, is reflected in the forwarded
    event, which the caller passes onward to the guest.  On return the site
    is armed again in both modes, so no later instance of the same call can
    be missed.  Denial is never an error at this layer.  The returned record
    is shared by every call with the same site, mode and callback cost.
    """
    if not site.armed:
        raise TrapStateError(f"site {site.symbol} is not armed")
    if event.call != site.symbol:
        raise TrapStateError(f"event {event.call!r} hit site {site.symbol!r}")
    if mode is _NOP2 and site.original_opcode != NOP_OPCODE:
        raise TrapStateError(
            f"site {site.symbol} lacks a NOP prologue; cannot skip its first instruction"
        )

    # VM-exit on the breakpoint, then the callback with the breakpoint in place.
    forwarded, probes = callback(event)
    if mode is _CLASSIC4:
        # Restore the original byte and single-step it (VM-entry, one
        # instruction, single-step exception, VM-exit), then re-inject the
        # breakpoint and VM-entry.
        site.current_byte = site.original_opcode
        site.ip += 1
        site.current_byte = BREAKPOINT_OPCODE
        records = site.classic_records
    else:
        # Step the instruction pointer past the permanent breakpoint; VM-entry.
        site.ip += 1
        records = site.nop_records

    callback_cost = 0.0
    if cost_model is not None:
        callback_cost = cost_model.callback_base_cost + probes * cost_model.lookup_cost
    record = records.get(callback_cost)
    if record is None:
        record = records[callback_cost] = _new_record(site.symbol, mode, callback_cost)
    assert site.current_byte == BREAKPOINT_OPCODE  # re-arm guarantee
    return record, forwarded


def cost_of(record: TrapSequenceRecord, model: CostModel) -> float:
    """Modeled duration of one handled trap under the given cost model."""
    return (record.vm_exits + record.vm_entries) * model.switch_cost + record.callback_cost
