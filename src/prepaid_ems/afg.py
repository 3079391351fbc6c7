"""Average-forecast greedy rationing policy.

Given only the average power demand per load per day, pick per-day
enable durations maximizing the priority-weighted service, spending
strictly less than the wallet balance. Each load-day is an item in a
fractional knapsack: value density is the load's priority per hour of
its demanded time, cost is the price of running it for an hour. The
greedy pass over items in non-increasing benefit/cost order is exact
for this problem.

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
    LoadSet,
    Tariff,
    _frozen,
    effective_budget,
)

#: Added on top of the recharges summed through a day to pin a disabled
#: load's threshold above any balance the virtual wallet can reach that
#: day, unspent balance carried over from earlier days included.
THRESHOLD_MARGIN = 1e-4


def pinned_off(recharges: np.ndarray) -> np.ndarray:
    """Per-day threshold that keeps a load off: just above the recharges
    summed through that day, the most the virtual wallet can hold."""
    return np.cumsum(recharges) + THRESHOLD_MARGIN


@dataclass(frozen=True)
class EnablePlan:
    """Planned enable duration per load per day, in hours.

    At most one load-day is fractional (strictly between zero and its
    cap); ``marginal`` points at it when present.
    """

    durations: np.ndarray  # [load, day], hours
    max_durations: np.ndarray  # [load, day], hours
    marginal: tuple[int, int] | None = None

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
        if len(fractional) == 1 and self.marginal != tuple(fractional[0]):
            raise ValueError(
                f"marginal index {self.marginal} does not match the fractional "
                f"entry at {tuple(fractional[0])}"
            )
        s.setflags(write=False)
        smax.setflags(write=False)
        object.__setattr__(self, "durations", s)
        object.__setattr__(self, "max_durations", smax)


@dataclass(frozen=True)
class ThresholdPlan:
    """Control setpoints for the wallet simulator: per-day virtual
    recharges and per-load per-day disable thresholds, in dollars."""

    thresholds: np.ndarray  # [load, day], $
    recharges: np.ndarray  # [day], $

    def __post_init__(self):
        thr = np.array(self.thresholds, dtype=float)
        rec = np.array(self.recharges, dtype=float)
        if thr.ndim != 2 or rec.ndim != 1 or thr.shape[1] != rec.shape[0]:
            raise ValueError(
                f"thresholds {thr.shape} must be [load, day] with one recharge "
                f"per day, got {rec.shape}"
            )
        if not (np.all(np.isfinite(thr)) and np.all(np.isfinite(rec))):
            raise ValueError("thresholds and recharges must be finite")
        if np.any(thr < 0):
            raise ValueError("thresholds must be non-negative")
        if np.any(rec < 0):
            raise ValueError("recharges must be non-negative")
        thr.setflags(write=False)
        rec.setflags(write=False)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "recharges", rec)

    @property
    def num_days(self) -> int:
        return self.recharges.shape[0]


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
    if avg.power.shape[0] != len(loads):
        raise ValueError(
            f"averages have {avg.power.shape[0]} loads, load set has {len(loads)}"
        )
    smax = max_durations(avg)
    per_load_cap = smax.sum(axis=1)  # demanded hours across the horizon
    gammas = loads.gammas
    s = np.zeros_like(smax)

    items = []
    for k in range(len(loads)):
        if per_load_cap[k] == 0:
            continue  # never demanded; excluded from the objective
        benefit = gammas[k] / per_load_cap[k]
        for d in range(avg.num_days):
            if smax[k, d] == 0:
                continue
            cost_per_hour = tariff.alpha * avg.power[k, d]
            assert cost_per_hour > 0  # zero-cost items imply zero demand
            items.append((benefit / cost_per_hour, gammas[k], d, k, cost_per_hour))
    items.sort(key=lambda it: (-it[0], -it[1], it[2], it[3]))

    remaining = effective_budget(budget)
    marginal = None
    for _, _, d, k, cost_per_hour in items:
        if remaining <= 0:
            break
        hours = min(smax[k, d], remaining / cost_per_hour)
        s[k, d] = hours
        remaining -= cost_per_hour * hours
        if hours < smax[k, d]:
            if hours > 0:
                marginal = (k, d)
            break  # budget exhausted; everything ranked lower stays zero
    return EnablePlan(s, smax, marginal)


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

    Per load-day: fully enabled loads get zero. Disabled loads get a
    threshold above the recharges summed through that day, the most the
    virtual wallet can hold, so unspent balance carried over from
    earlier days never switches them on.

    The marginal load is served in whole steps: the balance is checked
    at each step start and, from the day's recharge ``R``, falls by
    ``c = alpha * step_hours * drain`` per step while every enabled load
    runs. It gets ``n`` steps, the whole steps that fit in its planned
    hours, by placing its threshold mid-band in
    ``(R - n*c, R - (n-1)*c]``, clear of the float dust on either edge.
    A marginal load with ``n = 0`` is disabled.
    """
    num_loads, num_days = plan.durations.shape
    # Counting whole steps must forgive the sliver the greedy pass held
    # back (BUDGET_MARGIN of the balance), or a plan meant to fill n
    # steps comes out a hair short and gets n - 1. Twice the sliver
    # keeps division dust from tipping the count; a step rounded up so
    # spends at most BUDGET_MARGIN of the balance past it.
    slack = 2 * BUDGET_MARGIN * float(np.sum(recharges))
    thresholds = np.zeros((num_loads, num_days))
    off = pinned_off(recharges)
    for d in range(num_days):
        enabled = plan.durations[:, d] > 0
        step_cost = tariff.alpha * step_hours * avg.power[enabled, d].sum()
        for k in range(num_loads):
            s = plan.durations[k, d]
            if s == plan.max_durations[k, d] and s > 0:
                continue  # fully enabled: threshold zero
            n = 0
            if s > 0:
                load_rate = tariff.alpha * avg.power[k, d]  # $ per hour
                n = math.floor((s + slack / load_rate) / step_hours)
            if n == 0:
                thresholds[k, d] = off[d]
            else:
                thresholds[k, d] = recharges[d] - (n - 0.5) * step_cost
    return ThresholdPlan(thresholds, recharges)

