"""Breakpoint trap state machine and context-switch cost accounting.

A trap site models the first byte of a syscall's code.  Arming writes the
0xCC breakpoint opcode over the original byte.  The site's first byte picks
how a hit is handled: an ordinary prologue needs the classic
restore/single-step/re-inject dance (two VM-exit/VM-entry pairs), while a
NOP prologue lets the handler step the instruction pointer past the
permanently armed breakpoint (one pair).  The trap models only which of
the two a hit takes, as switch counts; ``cost_of`` prices a handled trap.
The trap does not run the mediation: it returns only the hit's record, and
the caller decides the call while the site stays armed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

BREAKPOINT_OPCODE = 0xCC
NOP_OPCODE = 0x90
# Stand-in first byte of an ordinary, non-NOP-prologue syscall (push rbp).
DEFAULT_ORIGINAL_OPCODE = 0x55


class TrapMode(Enum):
    CLASSIC4 = "classic"
    NOP2 = "nop"


class TrapStateError(RuntimeError):
    """Illegal transition: double-arm, unarmed handle, wrong symbol."""


@dataclass(slots=True)
class TrapSite:
    """First code byte of one trapped syscall symbol; the site is armed
    while its current byte is ``BREAKPOINT_OPCODE``."""

    symbol: str
    original_opcode: int
    current_byte: int


def make_site(symbol: str, nop_prologue: bool = False) -> TrapSite:
    """A fresh, unarmed site; nop_prologue marks code compiled with a
    leading 0x90 so the breakpoint can stay in place permanently."""
    original = NOP_OPCODE if nop_prologue else DEFAULT_ORIGINAL_OPCODE
    return TrapSite(symbol, original, original)


def arm(site: TrapSite) -> TrapSite:
    """Inject the breakpoint, retaining the original byte for restoration."""
    if site.current_byte == BREAKPOINT_OPCODE:
        raise TrapStateError(f"site {site.symbol} already armed")
    site.current_byte = BREAKPOINT_OPCODE
    return site


@dataclass(frozen=True)
class CostModel:
    """Duration units per context switch, per callback, and per SACL probe."""

    switch_cost: float = 0.0
    callback_base_cost: float = 0.0
    lookup_cost: float = 0.0

    def __post_init__(self):
        # `0 <= c < inf` is false for NaN and for inf, so both are rejected.
        if not all(0 <= c < math.inf for c in (self.switch_cost, self.callback_base_cost, self.lookup_cost)):
            raise ValueError("costs must be non-negative and finite")


@dataclass(frozen=True)
class TrapSequenceRecord:
    """Switch counts of one handled trap; one instance per step sequence."""

    vm_exits: int
    vm_entries: int
    single_steps: int


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

# (VM exits, VM entries, single-step exceptions) of each step sequence.
CLASSIC4_RECORD = TrapSequenceRecord(2, 2, 1)
NOP2_RECORD = TrapSequenceRecord(1, 1, 0)


def handle_trap(site: TrapSite, event) -> TrapSequenceRecord:
    """Handle one breakpoint hit of ``event`` at ``site``; returns its record.

    The caller then decides the call, the "callback" step of the record's
    sequence, with the breakpoint in place.  The site's first byte picks
    the handling: a NOP prologue steps past the permanent breakpoint
    (``NOP2_RECORD``); any other byte is restored, single-stepped and
    re-injected (``CLASSIC4_RECORD``), which nothing can observe, so the
    byte stays armed through the hit and no instruction pointer is modeled.
    On return the site is armed, so no later instance of the same call can
    be missed.  Denial is never an error at this layer.
    """
    if site.current_byte != BREAKPOINT_OPCODE:
        raise TrapStateError(f"site {site.symbol} is not armed")
    if event.call != site.symbol:
        raise TrapStateError(f"event {event.call!r} hit site {site.symbol!r}")
    if site.original_opcode == NOP_OPCODE:
        return NOP2_RECORD
    return CLASSIC4_RECORD


def cost_of(record: TrapSequenceRecord, model: CostModel, probes: int = 0) -> float:
    """Modeled duration of one handled trap whose callback made ``probes``
    SACL lookups: its context switches plus the callback's work."""
    return (record.vm_exits + record.vm_entries) * model.switch_cost + (
        model.callback_base_cost + probes * model.lookup_cost
    )
