"""The MILP schedule benchmark and its decode.

``build_obm`` produces the schedule benchmark: one binary per demanded
load-step and a single budget constraint -- a 0/1 knapsack.
``extract_schedule`` reads a solved model's actuation back.
"""

import numpy as np

from prepaid_ems.milp.core import MilpModel, Solution
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    demand_indicator,
    effective_budget,
)


def build_obm(
    demand: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> MilpModel:
    """Schedule benchmark: pick demanded load-steps within the budget.

    Binary actuation variables exist only where demand occurs (steps
    without demand are fixed off by omission); the objective weighs each
    load's steps by its priority over its demanded-step count, and one
    constraint keeps spend within the budget. The sweep solves OBM with
    ``prepaid_ems.obm.solve_obm``; this model feeds the knapsack oracle
    that ``solve_obm`` is checked against.
    """
    if demand.num_loads != len(loads):
        raise ValueError(
            f"series has {demand.num_loads} loads, load set has {len(loads)}"
        )
    d = demand_indicator(demand)
    demanded_steps = d.sum(axis=1)
    model = MilpModel()
    objective: dict[str, float] = {}
    costs: dict[str, float] = {}
    cost_factor = tariff.alpha * demand.grid.step_hours
    for k in range(demand.num_loads):
        if demanded_steps[k] == 0:
            continue
        weight = loads.gammas[k] / float(demanded_steps[k])
        for t in range(demand.grid.total_steps):
            if d[k, t] == 0:
                continue
            name = model.add_variable(
                f"a_k{k}_t{t}", binary=True, annotation=("actuation", k, t)
            )
            objective[name] = weight
            costs[name] = cost_factor * float(demand.power[k, t])
    if costs:
        model.add_constraint("budget", costs, "<=", effective_budget(budget))
    model.set_objective(objective)
    return model


def _decode_binary(value: float, name: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > 1e-6 or rounded not in (0, 1):
        raise ValueError(f"variable {name!r} is not binary: {value}")
    return int(rounded)


def extract_schedule(
    model: MilpModel, solution: Solution, num_loads: int, num_steps: int
) -> np.ndarray:
    """Actuation matrix from a solved model; absent entries are off."""
    schedule = np.zeros((num_loads, num_steps), dtype=np.int8)
    for name, annotation in model.annotations.items():
        if annotation[0] != "actuation":
            continue
        _, k, t = annotation
        schedule[k, t] = _decode_binary(solution.values.get(name, 0.0), name)
    return schedule
