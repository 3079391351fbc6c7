"""Average-forecast greedy rationing policy.

Given only the average power demand per load per day, pick per-day
enable durations maximizing the priority-weighted service, spending
strictly less than the wallet balance. Each load-day is an item in a
fractional knapsack: value density is the load's priority per hour of
its demanded time, cost is the price of running it for an hour. The
greedy pass over items in non-increasing benefit/cost order is exact
for this problem. The ranking does not depend on the budget, so
:func:`plan_view` builds a view's daily averages and ranking once and
each budget only walks it: the money left before every item is one
running difference over the ranked items' full-day costs.

The resulting durations are turned into the control artifact actually
shipped to the household: one virtual-wallet recharge per day plus one
wallet threshold per load per day. The meter checks its balances at the
start of each step, so the thresholds are placed for the simulator's
step length: simulating them against a constant daily-average demand
reproduces the planned durations to within one step and spends no
more than the recharges, give or take the sliver of the balance that
the greedy pass holds back.
"""

import math
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
    _frozen,
    daily_average,
    effective_budget,
    pinned_off,
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
    return _greedy_walk(_ranked_items(avg, loads, tariff), budget)


def plan_view(
    view: DemandSeries, loads: LoadSet, tariff: Tariff, budgets: list[Budget]
) -> list[tuple[ThresholdPlan, float]]:
    """AFG's threshold plan on ``view`` and its planned objective, the
    priority-weighted share of demanded hours enabled, for each budget.
    The daily averages and the item ranking are built once; each budget
    only walks the ranking and places its thresholds."""
    avg = daily_average(view)
    items = _ranked_items(avg, loads, tariff)
    cap = items.max_durations.sum(axis=1)
    demanded = cap > 0
    plans = []
    for budget in budgets:
        plan = _greedy_walk(items, budget)
        recharges = compute_recharges(plan, avg, tariff)
        thresholds = compute_thresholds(
            plan, recharges, avg, tariff, view.grid.step_hours
        )
        enabled = plan.durations.sum(axis=1)
        planned = loads.gammas[demanded] * enabled[demanded] / cap[demanded]
        plans.append((thresholds, float(planned.sum())))
    return plans


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


def _greedy_walk(items: _Items, budget: Budget) -> EnablePlan:
    """The greedy pass over ``items`` within the budget.

    The money left before each item is one running difference,
    ``np.subtract.accumulate`` over the items' full-day costs: the same
    floats as subtracting them one at a time. Items are served in full
    while the money left is positive and buys the whole cap; the first
    that is not gets what the money left buys, if it is positive, and
    everything ranked after it stays off."""
    smax = items.max_durations
    caps = smax[items.load, items.day]
    left = np.subtract.accumulate(
        np.concatenate(([effective_budget(budget)], items.cost_per_hour * caps))
    )[:-1]
    full = (left > 0) & (left / items.cost_per_hour >= caps)
    stop = int(np.argmin(full)) if not full.all() else len(full)
    s = np.zeros_like(smax)
    s[items.load[:stop], items.day[:stop]] = caps[:stop]
    if stop < len(full) and left[stop] > 0:
        s[items.load[stop], items.day[stop]] = left[stop] / items.cost_per_hour[stop]
    return EnablePlan(s, smax)


def compute_recharges(
    plan: EnablePlan, avg: DailyAverageDemand, tariff: Tariff
) -> np.ndarray:
    """Virtual-wallet recharge per day: the cost of running the planned
    durations at the forecast average powers."""
    return _frozen(tariff.alpha * (plan.durations * avg.power).sum(axis=0))


def compute_thresholds(
    plan: EnablePlan,
    recharges: np.ndarray,
    avg: DailyAverageDemand,
    tariff: Tariff,
    step_hours: float,
) -> ThresholdPlan:
    """Translate planned durations into wallet thresholds for a meter
    that steps every ``step_hours``.

    Per load-day, over the whole ``[load, day]`` matrix at once: fully
    enabled loads get zero. Disabled loads get a threshold above the
    recharges summed through that day, the most the virtual wallet can
    hold, so unspent balance carried over from earlier days never
    switches them on.

    The marginal load is served in whole steps: the balance is checked
    at each step start and, from the day's recharge ``R``, falls by
    ``c = alpha * step_hours * drain`` per step while every enabled load
    runs. It gets ``n`` steps, the whole steps that fit in its planned
    hours, by placing its threshold mid-band in
    ``(R - n*c, R - (n-1)*c]``, clear of the float dust on either edge.
    A marginal load with ``n = 0`` is disabled.
    """
    # Counting whole steps must forgive the sliver the greedy pass held
    # back (BUDGET_MARGIN of the balance), or a plan meant to fill n
    # steps comes out a hair short and gets n - 1. Twice the sliver
    # keeps division dust from tipping the count; a step rounded up so
    # spends at most BUDGET_MARGIN of the balance past it.
    slack = 2 * BUDGET_MARGIN * float(np.sum(recharges))
    s, smax = plan.durations, plan.max_durations
    thresholds = np.where((s == smax) & (s > 0), 0.0, pinned_off(recharges))
    for k, d in np.argwhere((s > 0) & (s < smax)):  # the marginal load-day
        load_rate = tariff.alpha * avg.power[k, d]  # $ per hour
        n = math.floor((s[k, d] + slack / load_rate) / step_hours)
        if n > 0:
            enabled = s[:, d] > 0
            step_cost = tariff.alpha * step_hours * avg.power[enabled, d].sum()
            thresholds[k, d] = recharges[d] - (n - 0.5) * step_cost
    return ThresholdPlan(thresholds, recharges)
