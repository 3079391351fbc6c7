"""Desk-scale threshold search over a candidate grid: a test oracle for
the detailed-forecast model. The sweep solves DFM exactly with
``prepaid_ems.dfm``.

Thresholds are searched over a finite candidate grid per load-day and
every combination is scored by actually simulating it against the
forecast series, so the returned plan is optimal within its candidate
set under the simulator's semantics (not a proven MILP optimum). The
simulator serves a step that overdraws the wallet, which the MILP
forbids, so the grid can score above the MILP optimum with a plan
that overdraws. The combination count is exponential in loads x days;
a hard cap keeps this honest about the instance sizes it can handle.
"""

import itertools

import numpy as np

from prepaid_ems import sim
from prepaid_ems.afg import ThresholdPlan, pinned_off
from prepaid_ems.model import Budget, DemandSeries, LoadSet, Tariff, daily_average


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

    Candidates per load-day: zero, ``grid_resolution`` evenly spaced
    points up to the daily recharge (``dfm.dfm_recharges``), and
    ``afg.pinned_off``, just above the recharges summed through that
    day. Load-days with no forecast demand only get the pinned-off
    candidate -- their threshold cannot matter. Ties keep the first
    combination in enumeration order, so results are deterministic.
    """
    # Imported here: at module level it would load ``dfm`` in every sweep.
    from prepaid_ems.dfm import dfm_recharges

    if grid_resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {grid_resolution}")
    grid = demand.grid
    num_loads = demand.num_loads
    num_days = grid.num_days
    recharges = dfm_recharges(budget, num_days)
    recharge = float(recharges[0])
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
    scores = np.concatenate(
        [
            sim.threshold_psf(plans[i : i + CHUNK], recharges, demand, loads, tariff, budget)
            for i in range(0, count, CHUNK)
        ]
    )
    best = int(np.argmax(scores))
    return ThresholdPlan(plans[best], recharges), float(scores[best])
