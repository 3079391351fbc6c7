"""Which program functions the traced run wraps, and what it counts.

Each hook patches the attribute the caller resolves at call time:
``run_experiment`` reaches the MILP functions through names imported
into ``prepaid_ems.experiment``, and reaches AFG and the simulator
through the ``afg`` and ``sim`` module objects (as does
``solve_dfm_grid``). Layer names follow ``<module>.<function>`` with
the ``prepaid_ems.`` prefix dropped.
"""

from pathlib import Path

from tracing import Span, self_times

ROOT = "sweep"


def _steps(args, result):
    return {"steps": result.actuation.shape[1]}


def _knapsack(args, result):
    model = args[0]
    coeffs = model.constraints[0].coeffs if model.constraints else {}
    groups = {
        (model.objective.get(v.name, 0.0), coeffs.get(v.name, 0.0))
        for v in model.variables
        if coeffs.get(v.name, 0.0) != 0.0
    }
    return {"items": len(model.variables), "groups": len(groups)}


def _rows(args, result):
    return {"rows": result.grid.total_steps}


def _vars(args, result):
    return {"vars": len(result.variables)}


def _emit(args, result):
    return {"files": len(result), "bytes": sum(Path(p).stat().st_size for p in result)}


#: (where the caller looks the function up, attribute, layer name, counter).
#: The counter maps (args, result) of one call to extra counts, or is None.
HOOKS = [
    ("experiment", "run_experiment", "experiment.run_experiment", None),
    ("experiment", "emit_outputs", "experiment.emit_outputs", _emit),
    ("experiment", "load_truth", "experiment.load_truth", None),
    ("experiment", "synth_household", "forecast.synth_household", None),
    ("experiment", "ingest_csv", "forecast.ingest_csv", _rows),
    ("forecast.ForecastSpec", "apply", "forecast.ForecastSpec.apply", None),
    ("afg", "solve_greedy", "afg.solve_greedy", None),
    ("afg", "compute_thresholds", "afg.compute_thresholds", None),
    ("sim", "simulate_thresholds", "sim.simulate_thresholds", _steps),
    ("sim", "simulate_schedule", "sim.simulate_schedule", _steps),
    ("sim", "simulate_baseline", "sim.simulate_baseline", _steps),
    ("sim", "write_trace_csv", "sim.write_trace_csv", None),
    ("experiment", "build_obm", "milp.builders.build_obm", _vars),
    ("experiment", "solve_knapsack_bb", "milp.knapsack.solve_knapsack_bb", _knapsack),
    ("experiment", "extract_schedule", "milp.builders.extract_schedule", None),
    ("experiment", "solve_dfm_grid", "milp.grid_search.solve_dfm_grid", None),
]

LAYER_NAMES = [name for _where, _attr, name, _counter in HOOKS]

#: Extra counts per layer, besides ``calls`` and ``self_s``.
EXTRA_COUNTS = {
    "experiment.emit_outputs": ["files", "bytes"],
    "forecast.ingest_csv": ["rows"],
    "sim.simulate_thresholds": ["steps"],
    "sim.simulate_schedule": ["steps"],
    "sim.simulate_baseline": ["steps"],
    "milp.builders.build_obm": ["vars"],
    "milp.knapsack.solve_knapsack_bb": ["items", "groups"],
    "milp.grid_search.solve_dfm_grid": ["candidates", "too_large"],
}


def resolve_hooks(pkg) -> list:
    """Bind ``HOOKS`` to the imported package ``pkg`` (``prepaid_ems``)."""
    bound = []
    for where, attr, name, counter in HOOKS:
        target = pkg
        for part in where.split("."):
            target = getattr(target, part)
        bound.append((target, attr, name, counter))
    return bound


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-layer calls, self time and counts summed over ``spans``.

    The root span's self time is reported as ``sweep.remainder_s``: time
    inside the sweep that no wrapped layer accounts for.
    """
    table = {name: {"calls": 0, "self_s": 0.0} for name in [ROOT, *LAYER_NAMES]}
    for name in LAYER_NAMES:
        for stat in EXTRA_COUNTS.get(name, []):
            table[name][stat] = 0
    own = self_times(spans)
    for i, span in enumerate(spans):
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += own[i]
        for stat, value in span.counts.items():
            row[stat] += value
        if span.name == "milp.grid_search.solve_dfm_grid":
            row["too_large"] += span.error == "InstanceTooLarge"
        if span.name == "sim.simulate_thresholds" and span.parent is not None:
            if spans[span.parent].name == "milp.grid_search.solve_dfm_grid":
                table["milp.grid_search.solve_dfm_grid"]["candidates"] += 1
    return table
