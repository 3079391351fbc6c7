"""Desk-scale threshold search over a candidate grid: a test oracle for
the detailed-forecast model. The sweep solves DFM exactly with
``prepaid_ems.dfm``.

Thresholds are searched over a finite candidate grid per load-day and
every combination is scored by actually simulating it against the
forecast series: each batch of candidates runs as one stacked pass of
``sim.simulate_threshold_plans``, and its results' PSFs are the scores.
So the returned plan is optimal within its candidate set under the
simulator's semantics (not a proven MILP optimum). The
simulator serves a step that overdraws the wallet, which the MILP
forbids, so the grid can score above the MILP optimum with a plan
that overdraws. The combination count is exponential in loads x days;
a hard cap keeps this honest about the instance sizes it can handle.
"""

import itertools

import numpy as np

from prepaid_ems import sim
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    daily_average,
    pinned_off,
)


#: Candidate plans simulated per batch; bounds the memory of one batch.
CHUNK = 256

#: Most candidate combinations one search enumerates.
CANDIDATE_CAP = 20000


class InstanceTooLarge(ValueError):
    pass


def solve_dfm_grid(
    demand: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
    grid_resolution: int,
) -> tuple[ThresholdPlan, float]:
    """Best threshold plan over a per-load-day candidate grid, and its
    PSF on ``demand``.

    The virtual wallet gets an even share of the budget each day, a
    recharge rule of this oracle's own: the sweep's DFM recharges what
    its plan spends (``prepaid_ems.dfm``). Candidates per load-day:
    zero, ``grid_resolution`` evenly spaced points up to the daily
    recharge, and ``model.pinned_off``, just above the recharges summed
    through that day. Load-days with no forecast demand only get the
    pinned-off candidate -- their threshold cannot matter. Ties keep
    the first combination in enumeration order, so results are
    deterministic.
    """
    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {grid_resolution}")
    grid = demand.grid
    num_loads = demand.num_loads
    num_days = grid.num_days
    recharge = budget.initial_balance / num_days
    recharges = np.full(num_days, recharge)
    off = pinned_off(recharges).tolist()

    avg = daily_average(demand)
    active = [recharge * (i + 1) / grid_resolution for i in range(grid_resolution)]
    candidates: list[list[float]] = []
    count = 1
    for k in range(num_loads):
        for day in range(num_days):
            cell = [0.0, *active, off[day]] if avg.power[k, day] > 0 else [off[day]]
            candidates.append(cell)
            count *= len(cell)
            if count > CANDIDATE_CAP:
                raise InstanceTooLarge(
                    f"threshold grid has more than {CANDIDATE_CAP} combinations "
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
    scores = []
    for i in range(0, count, CHUNK):
        chunk = [ThresholdPlan(t, recharges) for t in plans[i : i + CHUNK]]
        results = sim.simulate_threshold_plans(
            chunk, demand, loads, tariff, [budget] * len(chunk)
        )
        scores.extend(r.psf for r in results)
    best = int(np.argmax(scores))
    return ThresholdPlan(plans[best], recharges), scores[best]
