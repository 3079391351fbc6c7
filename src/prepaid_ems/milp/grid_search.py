"""Desk-scale threshold search: an oracle/fallback backend for the
detailed-forecast model when no external MILP solver is available.

Thresholds are searched over a finite candidate grid per load-day and
every combination is scored by actually simulating it against the
forecast series, so the returned plan is optimal within its candidate
set under the true simulator semantics (not a proven MILP optimum).
The combination count is exponential in loads x days; a hard cap keeps
this honest about the instance sizes it can handle.
"""

import itertools

import numpy as np

from prepaid_ems import sim
from prepaid_ems.afg import ThresholdPlan
from prepaid_ems.milp.core import MilpConstants, Solution, SolveStatus, default_constants
from prepaid_ems.model import Budget, DemandSeries, LoadSet, Tariff, daily_average


#: Candidate plans simulated per batch; bounds the memory of one batch.
CHUNK = 256


class InstanceTooLarge(ValueError):
    pass


def solve_dfm_grid(
    demand: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
    constants: MilpConstants | None = None,
    grid_resolution: int = 3,
    candidate_cap: int = 20000,
) -> tuple[ThresholdPlan, Solution]:
    """Best threshold plan over a per-load-day candidate grid.

    Candidates per load-day: zero, ``grid_resolution`` evenly spaced
    points up to the daily recharge, and just above the recharges summed
    through that day (which pins the load off). Load-days with no
    forecast demand only get the pinned-off candidate -- their threshold
    cannot matter. Ties keep the first combination in enumeration order,
    so results are deterministic.
    """
    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {grid_resolution}")
    if constants is None:
        constants = default_constants(demand, tariff, budget)
    grid = demand.grid
    num_loads = demand.num_loads
    num_days = grid.num_days
    recharge = budget.initial_balance / num_days
    recharges = np.full(num_days, recharge)

    avg = daily_average(demand)
    active = [recharge * (i + 1) / grid_resolution for i in range(grid_resolution)]
    candidates: list[list[float]] = []
    count = 1
    for k in range(num_loads):
        for day in range(num_days):
            # Unspent balance carries over, so the virtual wallet can hold
            # the recharges summed through this day.
            pinned_off = recharge * (day + 1) + constants.indicator_eps
            cell = [0.0, *active, pinned_off] if avg.power[k, day] > 0 else [pinned_off]
            candidates.append(cell)
            count *= len(cell)
            if count > candidate_cap:
                raise InstanceTooLarge(
                    f"threshold grid has more than {candidate_cap} combinations "
                    f"({num_loads} loads x {num_days} days at resolution "
                    f"{grid_resolution})"
                )

    # Cells run load-major, day-minor, so each combination reshapes to
    # one [load, day] threshold matrix.
    plans = np.fromiter(
        itertools.chain.from_iterable(itertools.product(*candidates)),
        dtype=float,
        count=count * len(candidates),
    ).reshape(count, num_loads, num_days)
    scores = np.concatenate(
        [
            sim.threshold_psf(plans[i : i + CHUNK], recharges, demand, loads, tariff, budget)
            for i in range(0, count, CHUNK)
        ]
    )
    best = int(np.argmax(scores))
    best_thresholds = plans[best]
    best_plan = ThresholdPlan(best_thresholds, recharges)
    values = {
        f"thr_k{k}_d{day}": best_thresholds[k, day]
        for k in range(num_loads)
        for day in range(num_days)
    }
    return best_plan, Solution(values, float(scores[best]), SolveStatus.FEASIBLE)
