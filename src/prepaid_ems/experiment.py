"""Experiment orchestration and results emission.

One experiment sweeps the cross product of budget fractions, forecast
regimes and policies. For each cell the policy computes its setpoints
from the regime's forecast view, the setpoints are simulated against
the true demand, and service metrics plus the improvement over the
unrationed baseline are recorded. Everything is deterministic for a
fixed config, including output bytes.
"""

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prepaid_ems import afg, sim
from prepaid_ems.config import ExperimentConfig
from prepaid_ems.forecast import (
    Fidelity,
    ForecastSpec,
    Granularity,
    ingest_csv,
    slice_days,
    synth_household,
)
from prepaid_ems.milp import (
    InstanceTooLarge,
    MilpConstants,
    SolutionParseError,
    SolveStatus,
    SolverNotFound,
    SolverTimeout,
    build_dfm,
    default_constants,
    extract_thresholds,
    solve_dfm_grid,
    solve_external,
)

# Not called here: the benchmark's per-layer run still hooks these names.
from prepaid_ems.milp import (  # noqa: F401
    build_obm,
    extract_schedule,
    solve_knapsack_bb,
)
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    daily_average,
    demand_indicator,
)
from prepaid_ems.obm import solve_obm

logger = logging.getLogger(__name__)


@dataclass
class CellResult:
    fraction: float
    regime: ForecastSpec
    policy: str
    status: str  # "ok" | "unsolved"
    result: sim.SimResult | None = None
    improvement_pts: float | None = None  # percentage points over baseline
    solver_objective: float | None = None
    note: str = ""


@dataclass
class ExperimentResults:
    loads: LoadSet
    grid: TimeGrid
    alpha_per_wh: float
    cells: list[CellResult]
    excluded_loads: list[str]  # never demanded; excluded from the PSF sum


def load_truth(config: ExperimentConfig) -> DemandSeries:
    """Materialize the true demand series for the experiment window."""
    grid = TimeGrid.from_minutes(config.step_minutes, config.horizon_days)
    if config.csv_path is not None:
        with open(config.csv_path, newline="") as fh:
            file_rows = sum(1 for _ in fh) - 1
        if file_rows <= 0 or file_rows % grid.steps_per_day != 0:
            raise ValueError(
                f"{config.csv_path}: {file_rows} data rows is not a whole "
                f"number of {grid.steps_per_day}-step days"
            )
        file_grid = TimeGrid(
            grid.step_hours, grid.steps_per_day, file_rows // grid.steps_per_day
        )
        full = ingest_csv(config.csv_path, config.loads, file_grid)
        return slice_days(full, config.start_day, config.horizon_days)
    return synth_household(config.synth_seed, config.loads, grid, config.profiles)


def _dfm_constants(
    config: ExperimentConfig, view: DemandSeries, tariff: Tariff, budget: Budget
) -> MilpConstants:
    base = default_constants(view, tariff, budget)
    return MilpConstants(config.dfm.indicator_eps, base.neg_big, base.pos_big)


def _run_afg(view, loads, tariff, budget, truth):
    avg = daily_average(view)
    plan = afg.solve_greedy(avg, loads, tariff, budget)
    recharges = afg.compute_recharges(plan, avg, tariff)
    thresholds = afg.compute_thresholds(
        plan, recharges, avg, tariff, view.grid.step_hours
    )
    result = sim.simulate_thresholds(thresholds, truth, loads, tariff, budget)
    cap = plan.max_durations.sum(axis=1)
    mask = cap > 0
    planned = float(
        (loads.gammas[mask] * plan.durations.sum(axis=1)[mask] / cap[mask]).sum()
    )
    return result, planned, ""


def _run_obm(view, loads, tariff, budget, truth):
    schedule, objective = solve_obm(view, loads, tariff, budget)
    result = sim.simulate_schedule(schedule, truth, loads, tariff, budget)
    return result, objective, ""


def _external_dfm_plan(config, view, loads, tariff, budget, constants):
    """Thresholds from the external MILP solver, or ``None`` and the note
    that prefixes the grid fallback's."""
    if not config.dfm.solver_cmd:
        logger.warning("no DFM solver command configured; using grid backend")
        return None, None, "grid fallback; "
    model = build_dfm(view, loads, tariff, budget, constants=constants)
    try:
        solution = solve_external(
            model, config.dfm.solver_cmd, config.dfm.solver_timeout
        )
    except (SolverNotFound, SolverTimeout, SolutionParseError) as exc:
        logger.warning("external DFM solve failed (%s); trying grid backend", exc)
        return None, None, f"{exc}; grid fallback; "
    if solution.status is not SolveStatus.OPTIMAL:
        logger.warning(
            "external DFM solve returned %s; trying grid backend",
            solution.status.value,
        )
        return None, None, "solver error; grid fallback; "
    thresholds = extract_thresholds(model, solution, view.num_loads, view.grid.num_days)
    plan = afg.ThresholdPlan(
        np.clip(thresholds, 0.0, None),
        np.full(view.grid.num_days, budget.initial_balance / view.grid.num_days),
    )
    return plan, solution.objective, ""


def _run_dfm(config, view, loads, tariff, budget, truth):
    constants = _dfm_constants(config, view, tariff, budget)
    note = ""
    if config.dfm.backend == "external":
        plan, objective, note = _external_dfm_plan(
            config, view, loads, tariff, budget, constants
        )
        if plan is not None:
            result = sim.simulate_thresholds(plan, truth, loads, tariff, budget)
            return result, objective, note
    try:
        plan, solution = solve_dfm_grid(
            view,
            loads,
            tariff,
            budget,
            constants=constants,
            grid_resolution=config.dfm.grid_resolution,
            candidate_cap=config.dfm.candidate_cap,
        )
    except InstanceTooLarge as exc:
        logger.warning("DFM grid backend skipped: %s", exc)
        return None, None, f"{note}unsolved: {exc}"
    result = sim.simulate_thresholds(plan, truth, loads, tariff, budget)
    return result, solution.objective, note


def run_experiment(config: ExperimentConfig) -> ExperimentResults:
    config.validate()
    truth = load_truth(config)
    loads = config.loads
    tariff = Tariff(config.alpha_per_wh)
    views = {regime: regime.apply(truth) for regime in config.regimes}
    indicator = demand_indicator(truth)
    excluded = [
        loads.names[k]
        for k in range(len(loads))
        if indicator[k].sum() == 0
    ]

    cells: list[CellResult] = []
    for fraction in config.budget_fractions:
        budget = compute_budget(truth, tariff, fraction)
        baseline = sim.simulate_baseline(truth, loads, tariff, budget)
        for regime in config.regimes:
            view = views[regime]
            for policy in config.policies:
                if policy == "BSL":
                    cells.append(
                        CellResult(fraction, regime, "BSL", "ok", baseline, 0.0)
                    )
                    continue
                if policy == "AFG":
                    result, objective, note = _run_afg(view, loads, tariff, budget, truth)
                elif policy == "OBM":
                    result, objective, note = _run_obm(view, loads, tariff, budget, truth)
                else:
                    result, objective, note = _run_dfm(
                        config, view, loads, tariff, budget, truth
                    )
                if result is None:
                    cells.append(
                        CellResult(fraction, regime, policy, "unsolved", note=note)
                    )
                else:
                    improvement = (result.psf - baseline.psf) * 100.0
                    cells.append(
                        CellResult(
                            fraction,
                            regime,
                            policy,
                            "ok",
                            result,
                            improvement,
                            objective,
                            note,
                        )
                    )
    return ExperimentResults(
        loads, truth.grid, config.alpha_per_wh, cells, excluded
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _sig3(value: float) -> str:
    return f"{value:.3g}"


def _frac_label(fraction: float) -> str:
    return _sig3(fraction * 100) + "%"


def _cell_key(cell: CellResult) -> tuple:
    return (cell.fraction, cell.regime.label, cell.policy)


def emit_outputs(results: ExperimentResults, output_dir) -> list[Path]:
    """Write the results bundle; returns the created file paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [
        _write_run_info(results, out / "run_info.csv"),
        _write_summary(results, out / "summary.csv"),
    ]
    perfect = [c for c in results.cells if c.regime.fidelity is Fidelity.PERFECT]
    imperfect = [
        c for c in results.cells if c.regime.fidelity is Fidelity.IMPERFECT_SHUFFLED
    ]
    if perfect:
        written.append(_write_table2(results, perfect, out / "table2.csv"))
    if imperfect:
        written.append(_write_table3(results, imperfect, out / "table3.csv"))
    written.extend(_write_plotdata(results, out))
    written.extend(_write_traces(results, out / "traces"))
    return written


def _write_run_info(results: ExperimentResults, path: Path) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["alpha_per_wh", repr(results.alpha_per_wh)])
        writer.writerow(["step_hours", repr(results.grid.step_hours)])
        writer.writerow(["num_days", results.grid.num_days])
        writer.writerow(["loads", ";".join(results.loads.names)])
        writer.writerow(
            ["gammas", ";".join(repr(float(g)) for g in results.loads.gammas)]
        )
        writer.writerow(["excluded_from_psf", ";".join(results.excluded_loads)])
    return path


def _write_summary(results: ExperimentResults, path: Path) -> Path:
    names = results.loads.names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "fraction",
                "fidelity",
                "granularity",
                "policy",
                "status",
                "psf",
                "improvement_pts",
                "total_spend",
                "disconnection_days",
                "first_disconnect_step",
                "solver_objective",
                *(f"sf_{name}" for name in names),
                "note",
            ]
        )
        for cell in sorted(results.cells, key=_cell_key):
            r = cell.result
            writer.writerow(
                [
                    repr(cell.fraction),
                    cell.regime.fidelity.value,
                    cell.regime.granularity.value,
                    cell.policy,
                    cell.status,
                    _fmt(r.psf) if r else "",
                    _fmt(cell.improvement_pts),
                    _fmt(r.total_spend) if r else "",
                    r.disconnection_days if r else "",
                    ""
                    if r is None or r.first_disconnect_step is None
                    else r.first_disconnect_step,
                    _fmt(cell.solver_objective),
                    *(
                        (_fmt(r.sf[k]) for k in range(len(names)))
                        if r
                        else ("" for _ in names)
                    ),
                    cell.note,
                ]
            )
    return path


def _policy_columns(cells: list[CellResult]) -> list[str]:
    present = {c.policy for c in cells}
    return [p for p in ("AFG", "DFM", "OBM") if p in present]


def _group_by_regime(cells):
    by_key = {}
    for cell in cells:
        by_key[(cell.fraction, cell.regime.granularity, cell.policy)] = cell
    return by_key


def _write_table2(results, cells, path: Path) -> Path:
    policies = _policy_columns(cells)
    granularities = [
        g
        for g in (Granularity.DETAILED, Granularity.LIMITED)
        if any(c.regime.granularity is g for c in cells)
    ]
    by_key = _group_by_regime(cells)
    fractions = sorted({c.fraction for c in cells})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "balance",
                *(f"{g.value}_{p}" for g in granularities for p in policies),
            ]
        )
        for fraction in fractions:
            row = [_frac_label(fraction)]
            for granularity in granularities:
                for policy in policies:
                    cell = by_key.get((fraction, granularity, policy))
                    if cell is None or cell.improvement_pts is None:
                        row.append("unsolved")
                    else:
                        row.append(_sig3(cell.improvement_pts))
            writer.writerow(row)
    return path


def _write_table3(results, cells, path: Path) -> Path:
    policies = _policy_columns(cells)
    granularities = [
        g
        for g in (Granularity.DETAILED, Granularity.LIMITED)
        if any(c.regime.granularity is g for c in cells)
    ]
    by_key = _group_by_regime(cells)
    fractions = sorted({c.fraction for c in cells})
    has_bsl = any(c.policy == "BSL" for c in cells)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [
            "balance",
            *(f"{g.value}_{p}" for g in granularities for p in policies),
        ]
        if has_bsl:
            header += ["BSL", "days"]
        writer.writerow(header)
        for fraction in fractions:
            row = [_frac_label(fraction)]
            for granularity in granularities:
                for policy in policies:
                    cell = by_key.get((fraction, granularity, policy))
                    if cell is None or cell.result is None:
                        row.append("unsolved")
                    else:
                        row.append(
                            f"{_sig3(cell.result.psf * 100)} "
                            f"({_sig3(cell.improvement_pts)})"
                        )
            if has_bsl:
                bsl = next(
                    c for c in cells if c.policy == "BSL" and c.fraction == fraction
                )
                row.append(_sig3(bsl.result.psf * 100))
                row.append(bsl.result.disconnection_days)
            writer.writerow(row)
    return path


def _write_plotdata(results: ExperimentResults, out: Path) -> list[Path]:
    paths = []
    regimes = sorted(
        {c.regime for c in results.cells}, key=lambda r: r.label
    )
    for regime in regimes:
        path = out / f"plotdata_{regime.label}.csv"
        cells = [c for c in results.cells if c.regime == regime]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "balance",
                    "policy",
                    "psf_percent",
                    "improvement_pts",
                    "disconnection_days",
                ]
            )
            for cell in sorted(cells, key=_cell_key):
                r = cell.result
                writer.writerow(
                    [
                        _frac_label(cell.fraction),
                        cell.policy,
                        _fmt(r.psf * 100) if r else "",
                        _fmt(cell.improvement_pts),
                        r.disconnection_days if r else "",
                    ]
                )
        paths.append(path)
    return paths


def _write_traces(results: ExperimentResults, trace_dir: Path) -> list[Path]:
    trace_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for cell in sorted(results.cells, key=_cell_key):
        if cell.result is None:
            continue
        frac = int(round(cell.fraction * 100))
        path = trace_dir / f"{cell.regime.label}_b{frac}_{cell.policy}.csv"
        sim.write_trace_csv(cell.result, results.loads, path)
        paths.append(path)
    return paths
