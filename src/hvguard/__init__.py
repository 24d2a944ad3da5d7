"""Deterministic simulator of hypervisor-side file protection.

A shadow access-control list, maintained outside the guest and invisible to
it, is enforced on every trapped file syscall; fork-time process ownership
is authoritative over claimed credentials; kernel-integrity calls are
unconditionally denied; a challenge-response step can gate listed files
behind a second authentication.  The trap layer models both the classic
four-context-switch breakpoint sequence and the two-switch NOP-prologue
variant, each priced by ``cost_of`` over a ``CostModel``, and a benchmark
harness.
"""

from .bench import (
    BENCH_CALLS,
    BenchResult,
    results_csv,
    run_workload,
    sacl_scaling,
)
from .engine import (
    ScenarioError,
    ScenarioResult,
    Simulation,
    parse_scenario,
    run_scenario,
)
from .guest import (
    BAD_ADDRESS,
    BAD_FILE_DESCRIPTOR,
    CALL_FAMILY,
    ERROR_CODES,
    NO_SUCH_FILE,
    PERMISSION_DENIED,
    Family,
    Guest,
    GuestError,
    GuestFile,
    SyscallEvent,
    SyscallOutcome,
    TRAPPED_CALLS,
)
from .mediator import (
    HARD_DENIED_CALL,
    SACL_DENY,
    UNAUTHENTICATED,
    WHITELIST_MISS,
    OwnershipRecord,
    PolicyOptions,
    Verdict,
    apply_verdict,
    mediate,
    required_checks,
    token_response,
    try_token_auth,
)
from .sacl import (
    DENY,
    EXECUTE_BIT,
    PERMIT,
    READ_BIT,
    WRITE_BIT,
    PermissionOctets,
    Sacl,
    SaclRule,
    SaclParseError,
    check_access,
    generate_full_sacl,
    parse_sacl,
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
