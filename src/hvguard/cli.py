"""Command-line front-end: scenario replay and the benchmark harness.

Exit codes: 0 all expectations met, 1 at least one expectation mismatch,
2 configuration or parse error (argparse uses 2 for bad flags as well).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterator

from .bench import BENCH_CALLS, results_csv, sacl_scaling, summary_table
from .engine import ScenarioError, line_pieces, run_scenario
from .guest import GuestError
from .mediator import PolicyOptions
from .sacl import Sacl, SaclParseError, is_decimal, parse_sacl
from .trap import CostModel, TrapMode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvguard",
        description="Replay guest-syscall scenarios against a shadow ACL, or benchmark the trap stack.",
    )
    parser.add_argument("--sacl", metavar="FILE", help="shadow ACL file")
    parser.add_argument("--scenario", metavar="FILE", help="JSON-lines scenario trace")
    parser.add_argument(
        "--whitelist-exec",
        action="store_true",
        help="deny exec of targets without a SACL entry",
    )
    parser.add_argument(
        "--auth-secrets",
        metavar="FILE",
        help="challenge-response secrets, lines of '<uid> <secret>'; listed uids require 2-step auth",
    )
    parser.add_argument("--auth-window", type=int, default=300, metavar="TICKS")
    parser.add_argument(
        "--trap-mode", choices=[m.value for m in TrapMode], default=TrapMode.CLASSIC4.value,
        help="4-switch breakpoint handling or 2-switch NOP-prologue handling",
    )
    parser.add_argument(
        "--switch-cost", type=float, default=1.0, metavar="COST",
        help="modeled cost of one context switch, for --bench",
    )
    parser.add_argument("--callback-cost", type=float, default=0.0, metavar="COST",
                        help="modeled base cost of one mediation callback, for --bench")
    parser.add_argument("--lookup-cost", type=float, default=0.0, metavar="COST",
                        help="modeled cost of one SACL probe in the callback, for --bench")
    parser.add_argument("--bench", action="store_true", help="run the benchmark instead of a scenario")
    parser.add_argument("--sizes", default="100,1000,10000,100000", metavar="N,N,...")
    parser.add_argument("--reps", type=int, default=1000, metavar="N")
    parser.add_argument("--out", metavar="FILE", help="write the CSV here instead of stdout")
    return parser


def _read_text(path: str, error: Callable[[int, str], Exception]) -> str:
    """The file decoded as UTF-8 in one call.  An undecodable byte raises
    ``error(line_no, message)`` for the 1-based line that holds it, counted
    by ``str.splitlines`` as every loader counts lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; "x" stands in for the bad
        # byte's line, which may not have begun yet.
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise error(line_no, f"not UTF-8: byte 0x{data[exc.start]:02x}: {exc.reason}") from None


def _scenario_pieces(path: str) -> Iterator[str]:
    """The scenario file decoded as UTF-8, cut by ``line_pieces``.  An
    undecodable byte raises the ``ScenarioError`` that ``_read_text``
    raises for the whole file, naming its line."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield from line_pieces(fh)
    except UnicodeDecodeError:
        _read_text(path, ScenarioError)  # raises
        raise


def _load_secrets(path: str) -> dict[int, str]:
    def error(line_no: int, message: str) -> ValueError:
        return ValueError(f"{path}:{line_no}: {message}")

    secrets: dict[int, str] = {}
    for line_no, raw in enumerate(_read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or not is_decimal(parts[0]):
            raise error(line_no, "expected '<uid> <secret>'")
        try:
            uid = int(parts[0])
        except ValueError:  # more digits than int() converts
            raise error(line_no, "uid too large") from None
        if uid in secrets:
            raise error(line_no, f"duplicate uid: {uid}")
        secrets[uid] = parts[1]
    return secrets


def _emit(produce: Callable[[Callable[[str], object]], object], out: str | None) -> None:
    """Call ``produce`` with the write method of the --out file, or of stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            produce(fh.write)
    else:
        produce(sys.stdout.write)


def _run_scenario_mode(args) -> int:
    sacl = parse_sacl(_read_text(args.sacl, SaclParseError)) if args.sacl else Sacl()
    options = PolicyOptions(
        exec_whitelist=args.whitelist_exec,
        secrets=_load_secrets(args.auth_secrets) if args.auth_secrets else {},
        window=args.auth_window,
    )
    pieces = _scenario_pieces(args.scenario)
    try:
        result = run_scenario(pieces, sacl=sacl, options=options, trap_mode=args.trap_mode)
    except ScenarioError:
        # An undecodable byte anywhere in the file wins over a scenario
        # error, as when the whole file was decoded first.
        for _ in pieces:
            pass
        raise
    _emit(result.simulation.decision_log, args.out)
    print(
        f"sys events: {len(result.simulation.decisions)}  expect checks: {result.expect_checks}  "
        f"mismatches: {len(result.mismatches)}",
        file=sys.stderr,
    )
    for line in result.mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if result.mismatches else 0


def _run_bench_mode(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    cost_model = CostModel(args.switch_cost, args.callback_cost, args.lookup_cost)
    results = []
    for call in BENCH_CALLS:
        results.extend(sacl_scaling(call, sizes, args.reps, trap_mode=args.trap_mode, cost_model=cost_model))
    _emit(lambda write: write(results_csv(results)), args.out)
    if args.out:
        print(summary_table(results))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.bench:
            if args.scenario:
                raise ValueError("--bench and --scenario are mutually exclusive")
            return _run_bench_mode(args)
        if not args.scenario:
            raise ValueError("either --scenario or --bench is required")
        return _run_scenario_mode(args)
    except (OSError, GuestError, ValueError) as exc:  # SaclParseError and ScenarioError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
