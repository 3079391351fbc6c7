"""Experiment orchestration and results emission.

One experiment sweeps the cross product of budget fractions, forecast
regimes and policies in two phases. First each policy plans each
regime's forecast view once for every budget fraction, through the same
``plan_view`` call: AFG ranks the view's daily averages once and walks
the ranking per budget; OBM builds the view's count-search tables once
and searches them per budget; DFM builds the view's day options once
and runs its dynamic program per budget, or, on a flat view, runs
OBM's count search. OBM and DFM share one cache of what they built: a
view whose costs or days another view repeats reuses it, and a flat
view that both policies plan is searched once. A DFM cell past the
solver's work bound reads ``unsolved`` with the reason, the only note a
cell can carry. Then all setpoints of the sweep are
simulated against the true demand in two stacked simulator passes,
each plan with its fraction's budget: one for the threshold plans (AFG,
DFM), one for every fraction's unrationed baseline and the schedules
(OBM). Service metrics plus the improvement over the baseline are
recorded per cell. The trace files of one budget fraction are
formatted together, as bytes built in numpy with each distinct trace
and each distinct balance formatted once (see
``sim.write_trace_csvs``). Everything is deterministic for a fixed
config, including output bytes.

``emit_outputs`` splits the bundle's work between two threads. The
calling thread only formats bytes: the small CSVs first, so that their
files are created while it formats the traces, then each fraction's
trace bodies. One ``files.BundleWriter`` thread does all the file-system
work: the ``traces/`` mkdir and every open, write, link and close, in
the order the files are handed to it. Each fraction's trace files are
grouped by their bytes once (``sim.trace_groups``), since the sweep
repeats traces by construction (BSL never reads the forecast, AFG only
its daily averages); ``files`` says how a group's paths become files.
The same groups name the files the writer creates ahead and feed the
formatter: while no file waits for it, the writer creates the trace
files still to come that are written rather than linked, empty, so that
writing one later costs little. The files wait in a queue of at most
``files.QUEUED_FILES``, so only a few trace bodies are held at once.
``emit_outputs`` joins the thread before it returns, on success and on
error; the writer's first error is raised from it, with the path that
failed.

OBM fixes a set of served steps. On a perfect detailed view that is the
optimal schedule, but on a shuffled view the meter serves a scheduled
step only where the true demand falls on it. So OBM is no upper bound
outside perfect forecasts: on the benchmark's ``paper-synth`` household
of seed 11, imperfect-detailed OBM realizes a PSF of 0.29 and leaves
8.3-12.0 $ unspent, where AFG realizes 0.72-0.78. That is why Table 3's
OBM column reads low under imperfect forecasts.
"""

import csv
import io
import itertools
import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from prepaid_ems import afg, obm, sim
from prepaid_ems.config import ExperimentConfig, fraction_tag
from prepaid_ems.files import BundleWriter, encode_text
from prepaid_ems.forecast import (
    Fidelity,
    ForecastSpec,
    Granularity,
    ingest_csv,
    slice_days,
    synth_household,
    to_limited,
)
# Not called here: the benchmark's per-layer run still hooks these names.
from prepaid_ems.milp import (  # noqa: F401
    build_obm,
    extract_schedule,
    solve_dfm_grid,
    solve_knapsack_bb,
)
from prepaid_ems.model import (
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    TimeGrid,
    compute_budget,
    demand_indicator,
)

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
    if config.csv_path is not None:
        full = ingest_csv(config.csv_path, config.loads, config.step_minutes)
        return slice_days(full, config.start_day, config.horizon_days)
    grid = TimeGrid.from_minutes(config.step_minutes, config.horizon_days)
    return synth_household(config.synth_seed, config.loads, grid, config.profiles)


def _check_costs(truth: DemandSeries, loads: LoadSet, tariff: Tariff) -> None:
    """Raise ``ValueError``, naming the load and the step, for a positive
    power whose cost a planner divides by is below the smallest normal
    float: its cost per step, or its day's average power priced per step
    or per hour. A shuffled or limited view prices the same values."""
    per_step = tariff.alpha * truth.grid.step_hours
    avg = to_limited(truth).power
    # Rounding is monotone, so the smaller power gives the smaller cost.
    cheapest = np.minimum(per_step * np.minimum(truth.power, avg), tariff.alpha * avg)
    tiny = float(np.finfo(float).tiny)
    cheap = np.argwhere((truth.power > 0) & (cheapest < tiny))
    if len(cheap):
        k, t = cheap[0]
        raise ValueError(
            f"load {loads.names[k]!r} at step {t}: power "
            f"{float(truth.power[k, t])!r} W costs less than {tiny!r} $ per step "
            f"or per hour, at its own or at its day's average power"
        )


def _plan_cells(config, views, loads, tariff, budgets) -> list[list[tuple]]:
    """Per budget, ``(regime, policy, plan, objective, note)`` for every
    cell, in sweep order. The plan is a ``ThresholdPlan`` (AFG, DFM), a
    schedule (OBM), or ``None`` for BSL and for a policy that found no
    plan. Each regime's view is planned once for every budget, and the
    OBM and DFM planners keep what they built in one cache, for the
    sweep's other views and for each other: a flat view that both plan
    is searched once."""
    known = {}
    planners = {
        "BSL": lambda *args: [(None, None)] * len(budgets),
        "AFG": afg.plan_view,
        "OBM": partial(obm.plan_view, known=known),
    }
    if "DFM" in config.policies:
        # Loaded on first use: a sweep without DFM does not load the solver.
        from prepaid_ems import dfm

        planners["DFM"] = partial(dfm.plan_view, known=known)
    planned = [[] for _ in budgets]
    for regime in config.regimes:
        for policy in config.policies:
            plans = planners[policy](views[regime], loads, tariff, budgets)
            for cells, plan in zip(planned, plans):
                if isinstance(plan, Exception):  # DFM past its work bound
                    logger.warning("DFM skipped: %s", plan)
                    cells.append((regime, policy, None, None, f"unsolved: {plan}"))
                else:
                    cells.append((regime, policy, *plan, ""))
    return planned


def _simulate_cells(planned, truth, loads, tariff):
    """Simulate the plans of every budget fraction against the true
    demand: all threshold plans of the sweep in one kernel pass, every
    fraction's unrationed baseline and all schedules in another.
    ``planned`` holds ``(fraction, budget, cells)`` per fraction, with
    the cells of ``_plan_cells``; returns the cells in sweep order."""
    plans, plan_budgets = [], []
    # Each fraction's all-ones baseline first, then the OBM schedules.
    schedules = [np.ones_like(truth.power, dtype=np.int8)] * len(planned)
    schedule_budgets = [budget for _, budget, _ in planned]
    for _, budget, cells in planned:
        for _, _, plan, _, _ in cells:
            if isinstance(plan, ThresholdPlan):
                plans.append(plan)
                plan_budgets.append(budget)
            elif plan is not None:
                schedules.append(plan)
                schedule_budgets.append(budget)
    by_plan = iter(
        sim.simulate_threshold_plans(plans, truth, loads, tariff, plan_budgets)
    )
    scheduled = sim.simulate_schedules(
        schedules, truth, loads, tariff, schedule_budgets
    )
    by_schedule = iter(scheduled[len(planned) :])
    results = []
    for (fraction, _, cells), baseline in zip(planned, scheduled):
        for regime, policy, plan, objective, note in cells:
            if policy == "BSL":
                cell = CellResult(fraction, regime, "BSL", "ok", baseline, 0.0)
            elif plan is None:
                cell = CellResult(fraction, regime, policy, "unsolved", note=note)
            else:
                thresholds = isinstance(plan, ThresholdPlan)
                result = next(by_plan if thresholds else by_schedule)
                improvement = (result.psf - baseline.psf) * 100.0
                cell = CellResult(
                    fraction, regime, policy, "ok", result, improvement, objective, note
                )
            results.append(cell)
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentResults:
    """Plan every budget fraction's cells, then simulate them all (see
    the module docstring)."""
    config.validate()
    truth = load_truth(config)
    loads = config.loads
    tariff = Tariff(config.alpha_per_wh)
    _check_costs(truth, loads, tariff)
    views = {regime: regime.apply(truth) for regime in config.regimes}
    indicator = demand_indicator(truth)
    excluded = [
        loads.names[k]
        for k in range(len(loads))
        if indicator[k].sum() == 0
    ]

    fractions = config.budget_fractions
    budgets = [compute_budget(truth, tariff, fraction) for fraction in fractions]
    cells = _plan_cells(config, views, loads, tariff, budgets)
    planned = list(zip(fractions, budgets, cells))
    cells = _simulate_cells(planned, truth, loads, tariff)
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
    """Write the results bundle; returns the created file paths.

    This thread formats the files' bytes and one ``files.BundleWriter``
    thread writes them (see the module docstring); every file is
    complete when the call returns. Cells of one budget fraction with
    the same trace bytes (the fraction's baseline across regimes, and
    any plans that serve alike) share one formatted trace; ``files``
    says how their paths become files.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_dir = out / "traces"
    trace_paths, traces = _trace_groups(results, trace_dir)
    # Only the files that are written, not linked, are created ahead.
    ahead = [path for groups in traces for _, path, _ in groups]
    with BundleWriter(trace_dir, ahead=ahead) as writer:
        write = writer.write
        written = [
            _write_run_info(write, results, out / "run_info.csv"),
            _write_summary(write, results, out / "summary.csv"),
        ]
        tables = (
            ("table2.csv", Fidelity.PERFECT, False, lambda c: _sig3(c.improvement_pts)),
            (
                "table3.csv",
                Fidelity.IMPERFECT_SHUFFLED,
                True,
                lambda c: f"{_sig3(c.result.psf * 100)} ({_sig3(c.improvement_pts)})",
            ),
        )
        for name, fidelity, bsl_columns, entry in tables:
            cells = [c for c in results.cells if c.regime.fidelity is fidelity]
            if cells:
                path = _write_table(write, cells, out / name, entry, bsl_columns)
                written.append(path)
        written.extend(_write_plotdata(write, results, out))
        for groups in traces:
            sim.write_trace_csvs(groups, results.loads, write)
    return written + trace_paths


def _write_csv(write, path: Path, header: list, rows) -> Path:
    """Hand ``write`` the bytes that ``csv.writer`` writes for ``header``
    and ``rows`` into a file opened with ``open(path, "w", newline="")``."""
    text = io.StringIO()
    csv_writer = csv.writer(text)
    csv_writer.writerow(header)
    csv_writer.writerows(rows)
    write(path, [encode_text(text.getvalue())])
    return path


def _write_run_info(write, results: ExperimentResults, path: Path) -> Path:
    return _write_csv(
        write,
        path,
        ["key", "value"],
        [
            ["alpha_per_wh", repr(results.alpha_per_wh)],
            ["step_hours", repr(results.grid.step_hours)],
            ["num_days", results.grid.num_days],
            ["loads", ";".join(results.loads.names)],
            ["gammas", ";".join(repr(float(g)) for g in results.loads.gammas)],
            ["excluded_from_psf", ";".join(results.excluded_loads)],
        ],
    )


def _summary_row(cell: CellResult, num_loads: int) -> list:
    r = cell.result
    sf = [_fmt(v) for v in r.sf] if r else [""] * num_loads
    return [
        repr(cell.fraction),
        cell.regime.fidelity.value,
        cell.regime.granularity.value,
        cell.policy,
        cell.status,
        _fmt(r.psf) if r else "",
        _fmt(cell.improvement_pts),
        _fmt(r.total_spend) if r else "",
        r.disconnection_days if r else "",
        "" if r is None or r.first_disconnect_step is None else r.first_disconnect_step,
        _fmt(cell.solver_objective),
        *sf,
        cell.note,
    ]


def _write_summary(write, results: ExperimentResults, path: Path) -> Path:
    names = results.loads.names
    header = [
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
    rows = (_summary_row(c, len(names)) for c in sorted(results.cells, key=_cell_key))
    return _write_csv(write, path, header, rows)


def _write_table(
    write, cells: list[CellResult], path: Path, entry, bsl_columns: bool
) -> Path:
    """One row per balance, one column per (granularity, policy) pair
    present in ``cells``; ``entry`` formats a solved cell, any other
    reads ``unsolved``. With ``bsl_columns``, the unrationed baseline's
    PSF and disconnection days close each row when ``cells`` hold it."""
    present = {(c.regime.granularity, c.policy) for c in cells}
    columns = [
        (g, p) for g in Granularity for p in ("AFG", "DFM", "OBM") if (g, p) in present
    ]
    by_key = {(c.fraction, c.regime.granularity, c.policy): c for c in cells}
    baselines = {}
    for cell in cells:
        if bsl_columns and cell.policy == "BSL":
            baselines.setdefault(cell.fraction, cell.result)
    header = ["balance", *(f"{g.value}_{p}" for g, p in columns)]
    if baselines:
        header += ["BSL", "days"]
    rows = []
    for fraction in sorted({c.fraction for c in cells}):
        row = [_frac_label(fraction)]
        for granularity, policy in columns:
            cell = by_key.get((fraction, granularity, policy))
            solved = cell is not None and cell.result is not None
            row.append(entry(cell) if solved else "unsolved")
        if baselines:
            bsl = baselines[fraction]
            row += [_sig3(bsl.psf * 100), bsl.disconnection_days]
        rows.append(row)
    return _write_csv(write, path, header, rows)


def _write_plotdata(write, results: ExperimentResults, out: Path) -> list[Path]:
    header = [
        "balance",
        "policy",
        "psf_percent",
        "improvement_pts",
        "disconnection_days",
    ]
    paths = []
    for regime in sorted({c.regime for c in results.cells}, key=lambda r: r.label):
        cells = sorted((c for c in results.cells if c.regime == regime), key=_cell_key)
        rows = (
            [
                _frac_label(c.fraction),
                c.policy,
                _fmt(c.result.psf * 100) if c.result else "",
                _fmt(c.improvement_pts),
                c.result.disconnection_days if c.result else "",
            ]
            for c in cells
        )
        path = out / f"plotdata_{regime.label}.csv"
        paths.append(_write_csv(write, path, header, rows))
    return paths


def _trace_groups(results: ExperimentResults, trace_dir: Path) -> tuple[list, list]:
    """The trace paths, one per solved cell in cell order, and each
    budget fraction's ``sim.trace_groups`` of its cells; the files of
    one fraction are formatted together (see ``sim.write_trace_csvs``)."""
    paths, groups = [], []
    solved = [c for c in sorted(results.cells, key=_cell_key) if c.result is not None]
    for fraction, group in itertools.groupby(solved, key=lambda c: c.fraction):
        cells = list(group)
        tag = fraction_tag(fraction)
        names = [trace_dir / f"{c.regime.label}_{tag}_{c.policy}.csv" for c in cells]
        paths += names
        groups.append(sim.trace_groups([c.result for c in cells], names))
    return paths, groups
