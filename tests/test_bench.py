"""Benchmark harness: workload invariants, determinism, CSV contract."""

from pathlib import Path

import pytest

from hvguard import cli, engine
from hvguard.bench import (
    CSV_COLUMNS,
    _TimedSimulation,
    results_csv,
    run_workload,
    sacl_scaling,
    summary_table,
)
from hvguard.engine import Simulation, run_scenario
from hvguard.guest import Guest
from hvguard.mediator import PolicyOptions
from hvguard.sacl import parse_sacl
from hvguard.trap import CostModel, TrapMode
from test_acceptance import TRANSCRIPTS, _transcript_args


@pytest.mark.parametrize("n,warm", [(40, 40), (150, 100)])
def test_trapped_calls_run_through_simulation_syscall(monkeypatch, n, warm):
    calls = []
    syscall = Simulation.syscall

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return syscall(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "syscall", counting)
    for settings in ({}, {"pool": 200, "full_sacl": True}):
        calls.clear()
        run_workload("rename", n, **settings)
        assert calls == ["rename"] * (warm + n)


@pytest.mark.parametrize("mode", list(TrapMode), ids=lambda mode: mode.value)
def test_timed_trap_callback_decides_like_the_original(monkeypatch, scenario_dir, mode):
    """_TimedSimulation times Simulation._decide, the one mediation step,
    by overriding it; over the bundled transcripts the timed simulation
    gives the same log, outcomes, trap records and mismatches as the
    original."""
    for name, extra in TRANSCRIPTS:
        args = cli.build_parser().parse_args(_transcript_args(scenario_dir, name, extra))
        text = Path(args.scenario).read_text(encoding="utf-8")
        secrets = cli._load_secrets(args.auth_secrets) if args.auth_secrets else {}
        runs = []
        for simulation in (Simulation, _TimedSimulation):
            monkeypatch.setattr(engine, "Simulation", simulation)
            result = run_scenario(
                text,
                sacl=parse_sacl(Path(args.sacl).read_text(encoding="utf-8")),
                options=PolicyOptions(exec_whitelist=args.whitelist_exec, secrets=secrets),
                trap_mode=mode,
            )
            sim = result.simulation
            assert type(sim) is simulation
            log = []
            sim.decision_log(log.append)
            runs.append((log, sim.outcomes, sim.records, result.mismatches))
        assert sim.wall_ns > 0, name
        assert runs[0] == runs[1], name


@pytest.mark.parametrize(
    "scenario,executed",
    [
        ({"pool": 100}, 100 + 200),
        ({"pool": 100, "full_sacl": True}, 100 + 200),
    ],
)
def test_every_measured_unlink_finds_its_file(monkeypatch, scenario, executed):
    """The warm-up and the measured run each unlink a live file."""
    outcomes = []
    execute = Guest.execute_syscall

    def recording(self, event):
        outcome = execute(self, event)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(Guest, "execute_syscall", recording)
    run_workload("unlink", 200, **scenario)
    assert len(outcomes) == executed
    assert [o.error for o in outcomes if not o.success] == []


def test_switch_totals_by_mode():
    n = 40
    classic = run_workload("open", n)
    assert classic.total_switches == 4 * n
    nop = run_workload("open", n, trap_mode=TrapMode.NOP2)
    assert nop.total_switches == 2 * n


@pytest.mark.parametrize("text, mode, switches", [("classic", TrapMode.CLASSIC4, 4), ("nop", TrapMode.NOP2, 2)])
def test_trap_mode_may_be_given_as_its_text(text, mode, switches):
    # The text --trap-mode takes, as Simulation accepts it.
    result = run_workload("open", 10, trap_mode=text)
    assert (TrapMode(result.trap_mode), result.total_switches) == (mode, switches * 10)


@pytest.mark.parametrize(
    "settings, expected",
    [
        ({"call": "getpid"}, "call must be one of"),
        ({"n": 0}, "n must be >= 1"),
        ({"pool": 0}, "pool must be >= 1"),
        ({"pool": 0, "full_sacl": True}, "pool must be >= 1"),
        ({"trap_mode": "fast"}, "'fast' is not a valid TrapMode"),
        ({"pool": 30}, 0),
        ({"pool": 30, "full_sacl": True}, 30),
    ],
    ids=["unknown-call", "n-zero", "pool-zero", "pool-zero-full", "unknown-trap-mode", "empty-sacl", "full-sacl"],
)
def test_run_workload_settings(settings, expected):
    """A bad setting is a ValueError; otherwise the SACL is empty, or with
    full_sacl has one row per pool file."""
    kwargs = {"call": "open", "n": 5, **settings}
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            run_workload(**kwargs)
    else:
        assert run_workload(**kwargs).sacl_size == expected


def test_modeled_cost_deterministic_under_seed():
    a = run_workload("rename", 100, pool=500, full_sacl=True, seed=9)
    b = run_workload("rename", 100, pool=500, full_sacl=True, seed=9)
    assert a.mean_model_cost == b.mean_model_cost
    assert a.total_switches == b.total_switches
    assert a.sacl_size == b.sacl_size == 500


def test_modeled_cost_constant_across_sizes():
    model = CostModel(switch_cost=1.0, callback_base_cost=2.0, lookup_cost=0.25)
    results = sacl_scaling("unlink", [100, 1000], 50, cost_model=model)
    assert results[0].mean_model_cost == results[1].mean_model_cost
    # unlink performs two probes per call: 4*1.0 + 2.0 + 2*0.25
    assert results[0].mean_model_cost == pytest.approx(6.5)


def test_modeled_halving_between_modes():
    model = CostModel(switch_cost=5.0)
    classic = run_workload("open", 20, cost_model=model)
    nop = run_workload("open", 20, trap_mode=TrapMode.NOP2, cost_model=model)
    assert classic.mean_model_cost / nop.mean_model_cost == pytest.approx(2.0)


def test_scaling_requires_ascending_sizes():
    with pytest.raises(ValueError):
        sacl_scaling("open", [1000, 100], 10)
    with pytest.raises(ValueError):
        sacl_scaling("open", [], 10)


def test_csv_columns_exact():
    result = run_workload("open", 5)
    text = results_csv([result])
    header, row = text.strip().splitlines()
    assert header == "call,trap_mode,sacl_size,n,mean_model_cost,mean_wall_ns,total_switches"
    assert header.split(",") == list(CSV_COLUMNS)
    fields = row.split(",")
    assert fields[:2] == ["open", "classic"]
    assert fields[3] == "5"


def test_scaling_row_per_size():
    results = sacl_scaling("open", [100, 1000, 10000], 20)
    assert [r.sacl_size for r in results] == [100, 1000, 10000]


def test_summary_table_mentions_every_row():
    results = sacl_scaling("open", [100, 1000], 10)
    lines = summary_table(results).splitlines()
    assert len(lines) == 2 + len(results)
    for line, result in zip(lines[2:], results):
        assert line.split()[:3] == ["open", "classic", str(result.sacl_size)]
