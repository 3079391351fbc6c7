"""Average-forecast greedy rationing policy.

Given only the average power demand per load per day, pick per-day
enable durations maximizing the priority-weighted service, spending
strictly less than the wallet balance. Each load-day is an item in a
fractional knapsack: value density is the load's priority per hour of
its demanded time, cost is the price of running it for an hour. The
greedy pass over items in non-increasing benefit/cost order is exact
for this problem. The ranking does not depend on the budget, so
:func:`plan_view` builds a view's daily averages and ranking once and
walks it for all budgets at once: the money left before every item is
one running difference over the ranked items' full-day costs.

The plan ships as the artifact DFM ships, one virtual-wallet recharge
per day and one threshold per load per day, decoded by DFM's rule
(:func:`compute_thresholds`). Its whole steps spend at most
``effective_budget``, so against a constant daily-average demand the
plan serves exactly those steps and leaves the real wallet at ``m`` or
more. Under detailed demand a step costs what its true power does, not
the day's average; on the horizon's last day, where the virtual balance
is the real one, such a step can still overdraw the real wallet.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.model import (
    BUDGET_MARGIN,
    Budget,
    DailyAverageDemand,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    TimeGrid,
    _frozen,
    daily_average,
    effective_budget,
    mid_band_thresholds,
)


@dataclass(frozen=True)
class EnablePlan:
    """Planned enable duration per load per day, in hours.

    At most one load-day is fractional (strictly between zero and its
    cap): the marginal load-day.
    """

    durations: np.ndarray  # [load, day], hours
    max_durations: np.ndarray  # [load, day], hours

    def __post_init__(self):
        s = np.array(self.durations, dtype=float)
        smax = np.array(self.max_durations, dtype=float)
        if s.shape != smax.shape or s.ndim != 2:
            raise ValueError(
                f"durations {s.shape} and max_durations {smax.shape} must be "
                f"matching 2-D matrices"
            )
        if np.any(smax < 0) or np.any(smax > 24):
            raise ValueError("max durations must lie in [0, 24] hours")
        if np.any(s < 0) or np.any(s > smax):
            raise ValueError("durations must lie in [0, max_duration]")
        fractional = np.argwhere((s > 0) & (s < smax))
        if len(fractional) > 1:
            raise ValueError(
                f"at most one load-day may be fractional, found {len(fractional)}"
            )
        s.setflags(write=False)
        smax.setflags(write=False)
        object.__setattr__(self, "durations", s)
        object.__setattr__(self, "max_durations", smax)


def max_durations(avg: DailyAverageDemand) -> np.ndarray:
    """Duration cap per load-day: zero where there is no demand, a full
    day otherwise."""
    return _frozen(np.where(avg.power > 0, 24.0, 0.0))


def solve_greedy(
    avg: DailyAverageDemand, loads: LoadSet, tariff: Tariff, budget: Budget
) -> EnablePlan:
    """Exact greedy solution of the enable-duration problem.

    Items are ranked by benefit per dollar; each gets as many hours as
    the remaining budget affords, capped at its maximum. The first item
    that cannot be fully afforded becomes the single fractional
    (marginal) load-day and exhausts the budget. Ties in the ranking
    break toward higher priority, then earlier day, then load order, so
    results are reproducible.
    """
    items = _ranked_items(avg, loads, tariff)
    return EnablePlan(_greedy_walk(items, [budget])[0], items.max_durations)


def plan_view(
    view: DemandSeries, loads: LoadSet, tariff: Tariff, budgets: list[Budget]
) -> list[tuple[ThresholdPlan, float]]:
    """AFG's threshold plan on ``view`` and its planned objective for
    each budget: the PSF its whole steps serve on the averages view.
    The daily averages and the item ranking are built once; the budgets
    walk the ranking together, and their steps are decoded as one
    stack."""
    avg, grid = daily_average(view), view.grid
    items = _ranked_items(avg, loads, tariff)
    # The whole steps that fit in the planned hours, none rounded up.
    steps = np.floor(_greedy_walk(items, budgets) / grid.step_hours).astype(int)
    plans = compute_thresholds(steps, avg, tariff, grid, budgets)
    # The averages view's demanded steps, scored as ``model.psf`` scores.
    demanded = grid.steps_per_day * np.count_nonzero(avg.power, axis=1)
    mask = demanded > 0
    share = np.ascontiguousarray(steps.sum(axis=-1)[:, mask] / demanded[mask])
    planned = (loads.gammas[mask] * share).sum(axis=-1)
    return [(plan, float(value)) for plan, value in zip(plans, planned)]


@dataclass(frozen=True)
class _Items:
    """The demanded load-days in greedy order, and the duration caps."""

    load: np.ndarray
    day: np.ndarray
    cost_per_hour: np.ndarray  # $ per hour at the day's average power
    max_durations: np.ndarray  # [load, day], hours


def _ranked_items(avg: DailyAverageDemand, loads: LoadSet, tariff: Tariff) -> _Items:
    """Every demanded load-day ranked by falling benefit per dollar,
    then falling priority, then day, then load. A load's benefit is its
    priority per hour of its demanded time; a never-demanded load has no
    item and stays out of the objective."""
    if avg.power.shape[0] != len(loads):
        raise ValueError(
            f"averages have {avg.power.shape[0]} loads, load set has {len(loads)}"
        )
    smax = max_durations(avg)
    load, day = np.nonzero(smax)
    gammas = loads.gammas[load]
    benefit = gammas / smax.sum(axis=1)[load]
    cost_per_hour = tariff.alpha * avg.power[load, day]
    assert (cost_per_hour > 0).all()  # zero-cost items imply zero demand
    rank = np.lexsort((load, day, -gammas, -(benefit / cost_per_hour)))
    return _Items(load[rank], day[rank], cost_per_hour[rank], smax)


def _greedy_walk(items: _Items, budgets: list[Budget]) -> np.ndarray:
    """The greedy pass over ``items`` within each budget: the durations
    ``[budget, load, day]``.

    The money left before each item is one running difference,
    ``np.subtract.accumulate`` over the items' full-day costs: the same
    floats as subtracting them one at a time. Items are served in full
    while the money left is positive and buys the whole cap; the first
    that is not gets what the money left buys, if it is positive, and
    everything ranked after it stays off."""
    smax = items.max_durations
    caps = smax[items.load, items.day]
    costs = np.repeat([items.cost_per_hour * caps], len(budgets), axis=0)
    start = np.array([effective_budget(budget) for budget in budgets])[:, None]
    left = np.subtract.accumulate(np.concatenate([start, costs], 1), axis=1)[:, :-1]
    buys = left / items.cost_per_hour
    full = (left > 0) & (buys >= caps)
    # The first item not served in full; past the last one if all are.
    past = np.zeros((len(budgets), 1), dtype=bool)
    stop = np.argmin(np.concatenate([full, past], 1), axis=1)[:, None]
    rank = np.arange(len(caps))
    hours = np.where(rank == stop, np.where(left > 0, buys, 0.0), caps * (rank < stop))
    s = np.zeros((len(budgets), *smax.shape))
    s[:, items.load, items.day] = hours
    return s


def compute_thresholds(
    steps: np.ndarray,
    avg: DailyAverageDemand,
    tariff: Tariff,
    grid: TimeGrid,
    budgets: list[Budget],
) -> list[ThresholdPlan]:
    """AFG's control artifact for each budget's ``steps[budget, load,
    day]``. Each load-day serves its steps from the day start on the
    averages view, whose power is the daily average at every step. Day
    d is recharged with what its steps cost, ``alpha x hours x average``
    summed over the loads, day 0 also with the margin ``m``, and each
    threshold goes mid-band (``model.mid_band_thresholds``)."""
    view = DemandSeries(grid, np.repeat(avg.power, grid.steps_per_day, axis=1))
    hours = steps * grid.step_hours
    recharges = tariff.alpha * (hours * avg.power).sum(axis=-2)
    recharges[:, 0] += BUDGET_MARGIN * np.array([b.initial_balance for b in budgets])
    # The narrowest integers that hold a day's steps make the compare cheap.
    width = np.min_scalar_type(grid.steps_per_day)
    day_step = np.arange(grid.steps_per_day, dtype=width)
    first = day_step < steps.astype(width)[..., None]
    served = first.reshape(*steps.shape[:-1], grid.total_steps)
    thresholds = mid_band_thresholds(served, view, tariff, recharges)
    return [ThresholdPlan(*plan) for plan in zip(thresholds, recharges)]
