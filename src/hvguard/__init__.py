"""Deterministic simulator of hypervisor-side file protection.

A shadow access-control list, maintained outside the guest and invisible to
it, is enforced on every trapped file syscall; fork-time process ownership
is authoritative over claimed credentials; kernel-integrity calls are
unconditionally denied; a challenge-response step can gate listed files
behind a second authentication.  The trap layer models both the classic
four-context-switch breakpoint sequence and the two-switch NOP-prologue
variant, with a pluggable switch-cost ledger and a benchmark harness.
"""

from .bench import (
    BENCH_CALLS,
    BenchResult,
    BenchScenario,
    ScenarioKind,
    results_csv,
    run_workload,
    sacl_scaling,
)
from .engine import (
    DecisionRow,
    ScenarioError,
    ScenarioResult,
    Simulation,
    parse_scenario,
    run_scenario,
)
from .guest import (
    CALL_FAMILY,
    ErrorCode,
    Family,
    Guest,
    GuestError,
    GuestFile,
    INTERPOSED_CALLS,
    Process,
    SyscallEvent,
    SyscallOutcome,
    TRAPPED_CALLS,
)
from .mediator import (
    AuthConfig,
    HARD_DENIED_CALLS,
    OwnershipRecord,
    OwnershipTable,
    PolicyOptions,
    Reason,
    Verdict,
    apply_verdict,
    is_authenticated,
    mediate,
    required_checks,
    token_response,
    try_token_auth,
)
from .sacl import (
    AccessKind,
    Decision,
    PermissionOctets,
    Sacl,
    SaclRule,
    SaclParseError,
    check_access,
    effective_octet,
    generate_full_sacl,
    parse_sacl,
    serialize_sacl,
)
from .trap import (
    BREAKPOINT_OPCODE,
    CostModel,
    NOP_OPCODE,
    TrapMode,
    TrapSequenceRecord,
    TrapSite,
    TrapStateError,
    arm,
    cost_of,
    handle_trap,
    make_site,
)

__version__ = "0.1.0"
