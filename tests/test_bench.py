"""Benchmark harness: scenario invariants, determinism, CSV contract."""

from pathlib import Path

import pytest

from hvguard import cli, engine
from hvguard.bench import (
    BenchScenario,
    CSV_COLUMNS,
    ScenarioKind,
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
    for scenario in (BenchScenario(ScenarioKind.S2_EMPTY_SACL), BenchScenario(ScenarioKind.S3_FULL_SACL, pool=200)):
        calls.clear()
        run_workload("rename", n, scenario)
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
        (BenchScenario(ScenarioKind.S2_EMPTY_SACL, pool=100), 100 + 200),
        (BenchScenario(ScenarioKind.S3_FULL_SACL, pool=100), 100 + 200),
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
    run_workload("unlink", 200, scenario)
    assert len(outcomes) == executed
    assert [o.error for o in outcomes if not o.success] == []


def test_switch_totals_by_mode():
    n = 40
    classic = run_workload("open", n, BenchScenario(ScenarioKind.S2_EMPTY_SACL))
    assert classic.total_switches == 4 * n
    nop = run_workload("open", n, BenchScenario(ScenarioKind.S2_EMPTY_SACL, trap_mode=TrapMode.NOP2))
    assert nop.total_switches == 2 * n


@pytest.mark.parametrize("text, mode, switches", [("classic", TrapMode.CLASSIC4, 4), ("nop", TrapMode.NOP2, 2)])
def test_trap_mode_may_be_given_as_its_text(text, mode, switches):
    # The text --trap-mode takes, as Simulation accepts it.
    assert BenchScenario(ScenarioKind.S2_EMPTY_SACL, trap_mode=text).trap_mode is mode
    result = run_workload("open", 10, BenchScenario(ScenarioKind.S2_EMPTY_SACL, trap_mode=text))
    assert (result.trap_mode, result.total_switches) == (text, switches * 10)


def test_unknown_trap_mode_is_value_error():
    with pytest.raises(ValueError, match="'fast' is not a valid TrapMode"):
        BenchScenario(ScenarioKind.S2_EMPTY_SACL, trap_mode="fast")


def test_modeled_cost_deterministic_under_seed():
    scenario = BenchScenario(ScenarioKind.S3_FULL_SACL, pool=500, seed=9)
    a = run_workload("rename", 100, scenario)
    b = run_workload("rename", 100, scenario)
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
    classic = run_workload("open", 20, BenchScenario(ScenarioKind.S2_EMPTY_SACL, cost_model=model))
    nop = run_workload(
        "open", 20, BenchScenario(ScenarioKind.S2_EMPTY_SACL, trap_mode=TrapMode.NOP2, cost_model=model)
    )
    assert classic.mean_model_cost / nop.mean_model_cost == pytest.approx(2.0)


def test_scaling_requires_ascending_sizes():
    with pytest.raises(ValueError):
        sacl_scaling("open", [1000, 100], 10)
    with pytest.raises(ValueError):
        sacl_scaling("open", [], 10)


def test_workload_argument_validation():
    with pytest.raises(ValueError):
        run_workload("getpid", 10, BenchScenario(ScenarioKind.S2_EMPTY_SACL))
    with pytest.raises(ValueError):
        run_workload("open", 0, BenchScenario(ScenarioKind.S2_EMPTY_SACL))
    for kind in ScenarioKind:
        with pytest.raises(ValueError, match="pool must be >= 1"):
            BenchScenario(kind, pool=0)


def test_csv_columns_exact():
    result = run_workload("open", 5, BenchScenario(ScenarioKind.S2_EMPTY_SACL))
    text = results_csv([result])
    header, row = text.strip().splitlines()
    assert header == "call,scenario,trap_mode,sacl_size,n,mean_model_cost,mean_wall_ns,total_switches"
    assert header.split(",") == list(CSV_COLUMNS)
    fields = row.split(",")
    assert fields[0] == "open"
    assert fields[1] == "S2_EmptySacl"
    assert fields[4] == "5"


def test_scaling_row_per_size():
    results = sacl_scaling("open", [100, 1000, 10000], 20)
    assert [r.sacl_size for r in results] == [100, 1000, 10000]
    assert all(r.scenario == "S3_FullSacl" for r in results)


def test_summary_table_mentions_every_row():
    results = sacl_scaling("open", [100, 1000], 10)
    table = summary_table(results)
    assert table.count("S3_FullSacl") == 2
