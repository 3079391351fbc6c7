"""Step-by-step reference simulator.

These are the wallet simulator's original per-step loops, kept as the
oracle the event-driven kernel in ``prepaid_ems.sim`` is compared
against bit for bit; each run is scored from its own traces. Threshold
plans run under either enable rule: ``latching=True`` keeps a load off
for the rest of the day once its threshold trips, ``latching=False``
re-evaluates every step. The two agree because the virtual balance
never rises within a day. The DFM grid search's original enumeration
loop, the original row-by-row trace writer, the OBM count search as it
was before it started from a greedy incumbent, and AFG's item-by-item
greedy pass and load-day by load-day threshold loop are kept the same
way.
"""

import csv
import io
import itertools
import math

import numpy as np

from prepaid_ems.afg import EnablePlan, max_durations
from prepaid_ems.model import (
    BOUND_SLACK,
    BUDGET_MARGIN,
    ThresholdPlan,
    daily_average,
    demand_indicator,
    effective_budget,
    pinned_off,
    psf,
)
from prepaid_ems.sim import SimResult


def _result(truth, loads, actuation, z_trace, x_trace, real, spend):
    """The SimResult of one plan's step loop, scored from its own traces:
    a day is dark when every one of its steps starts <= 0, and the first
    disconnect step is the first step that starts <= 0."""
    sf, value = psf(actuation, demand_indicator(truth), loads)
    cut = z_trace <= 0
    dark_days = cut.reshape(truth.grid.num_days, -1).all(axis=1)
    return SimResult(
        actuation=actuation,
        real_balance_trace=z_trace,
        virtual_balance_trace=x_trace,
        final_real_balance=float(real),
        sf=sf,
        psf=value,
        total_spend=float(spend),
        disconnection_days=int(dark_days.sum()),
        first_disconnect_step=int(np.argmax(cut)) if cut.any() else None,
    )


def simulate_thresholds(plan, truth, loads, tariff, budget, latching=True):
    num_loads, total = truth.power.shape
    grid = truth.grid
    cost_factor = tariff.alpha * grid.step_hours
    real = budget.initial_balance
    virtual = 0.0
    spend = 0.0
    disconnected = False
    actuation = np.zeros((num_loads, total), dtype=np.int8)
    z_trace = np.empty(total)
    x_trace = np.empty(total)
    eligible = np.ones(num_loads, dtype=bool)

    for t in range(total):
        day = grid.day_of(t)
        if t % grid.steps_per_day == 0:
            virtual += plan.recharges[day]
            eligible[:] = True
        z_trace[t] = real
        x_trace[t] = virtual
        if real <= 0:
            disconnected = True
        if disconnected:
            continue
        meets = virtual >= plan.thresholds[:, day]
        if latching:
            eligible &= meets
            enabled = eligible
        else:
            enabled = meets
        served = enabled & (truth.power[:, t] > 0)
        if served.any():
            actuation[served, t] = 1
            cost = cost_factor * float(truth.power[served, t].sum())
            real -= cost
            virtual -= cost
            spend += cost
    return _result(truth, loads, actuation, z_trace, x_trace, real, spend)


def simulate_schedule(schedule, truth, loads, tariff, budget):
    sched = np.asarray(schedule)
    grid = truth.grid
    num_loads, total = truth.power.shape
    cost_factor = tariff.alpha * grid.step_hours
    real = budget.initial_balance
    spend = 0.0
    disconnected = False
    actuation = np.zeros((num_loads, total), dtype=np.int8)
    z_trace = np.empty(total)

    for t in range(total):
        z_trace[t] = real
        if real <= 0:
            disconnected = True
        if disconnected:
            continue
        served = (sched[:, t] == 1) & (truth.power[:, t] > 0)
        if served.any():
            actuation[served, t] = 1
            cost = cost_factor * float(truth.power[served, t].sum())
            real -= cost
            spend += cost
    return _result(truth, loads, actuation, z_trace, None, real, spend)


def solve_dfm_grid(demand, loads, tariff, budget, grid_resolution):
    """The DFM grid search's original enumeration: every combination of
    per-load-day candidates simulated in turn by the step loop. Returns
    the first best thresholds, their PSF and the enumeration indices of
    every combination that reaches that PSF."""
    num_days = demand.grid.num_days
    recharge = budget.initial_balance / num_days
    recharges = np.full(num_days, recharge)
    avg = daily_average(demand)
    off = pinned_off(recharges)
    active = [recharge * (i + 1) / grid_resolution for i in range(grid_resolution)]
    cells = []
    candidates = []
    for k in range(demand.num_loads):
        for day in range(num_days):
            cells.append((k, day))
            candidates.append(
                [0.0, *active, off[day]] if avg.power[k, day] > 0 else [off[day]]
            )
    best_psf = -np.inf
    best_thresholds = None
    ties = []
    thresholds = np.zeros((demand.num_loads, num_days))
    for index, combo in enumerate(itertools.product(*candidates)):
        for (k, day), value in zip(cells, combo):
            thresholds[k, day] = value
        plan = ThresholdPlan(thresholds, recharges)
        result = simulate_thresholds(plan, demand, loads, tariff, budget, latching=False)
        if result.psf > best_psf:
            best_psf = result.psf
            best_thresholds = thresholds.copy()
            ties = [index]
        elif result.psf == best_psf:
            ties.append(index)
    return best_thresholds, best_psf, ties


def trace_csv_text(result, loads):
    """The trace file ``sim.write_trace_csv`` writes, row by row through
    ``csv.writer`` as the original writer did."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["t", "real_balance", "virtual_balance", *(f"a_{n}" for n in loads.names)]
    )
    virtual = result.virtual_balance_trace
    for t in range(result.actuation.shape[1]):
        writer.writerow(
            [
                t,
                repr(float(result.real_balance_trace[t])),
                "" if virtual is None else repr(float(virtual[t])),
                *(int(v) for v in result.actuation[:, t]),
            ]
        )
    return buf.getvalue()


def count_search(costs, values, capacity: float) -> list[int]:
    """Per-load served counts maximizing sum(n_k * values[k]) subject to
    the n_k cheapest costs of all loads summing to at most ``capacity``."""
    counts = [0] * len(costs)
    order = sorted(
        (k for k in range(len(costs)) if len(costs[k])),
        key=lambda k: -values[k] / costs[k][0],
    )
    prefix = [np.concatenate(([0.0], np.cumsum(c))) for c in costs]
    if len(order) <= 1:
        for k in order:
            counts[k] = _affordable(prefix[k], capacity)
        return counts
    tables = {
        level: _bound_table(costs, values, order[level:])
        for level in range(1, len(order) - 1)
    }
    slack = BOUND_SLACK * sum(values[k] * len(costs[k]) for k in order)
    best_value, best_counts = -np.inf, []

    def pair(level, cap, value, chosen):
        # The last two loads: every count of the first, the rest to the second.
        nonlocal best_value, best_counts
        a, b = order[level], order[level + 1]
        na = np.arange(_affordable(prefix[a], cap), -1, -1)
        nb = np.searchsorted(prefix[b], cap - prefix[a][na], side="right") - 1
        totals = (value + na * values[a]) + nb * values[b]
        i = int(np.argmax(totals))
        if totals[i] > best_value:
            best_value, best_counts = totals[i], [*chosen, int(na[i]), int(nb[i])]

    def descend(level, cap, value, chosen):
        if level == len(order) - 2:
            pair(level, cap, value, chosen)
            return
        k = order[level]
        n = np.arange(_affordable(prefix[k], cap), -1, -1)
        caps = cap - prefix[k][n]
        vals = value + n * values[k]
        ceilings = vals + _dantzig(tables[level + 1], caps) + slack
        for i in np.flatnonzero(ceilings > best_value):
            if ceilings[i] > best_value:  # the best may have risen meanwhile
                descend(level + 1, caps[i], vals[i], [*chosen, int(n[i])])

    descend(0, capacity, 0.0, [])
    for k, n in zip(order, best_counts):
        counts[k] = n
    return counts


def _affordable(prefix: np.ndarray, cap: float) -> int:
    """Most steps whose cumulative cost stays within ``cap``."""
    return int(np.searchsorted(prefix, cap, side="right")) - 1


def _bound_table(costs, values, loads):
    """Cumulative cost and value of the loads' steps in falling
    value/cost order, with each step's ratio; a trailing zero ratio
    stands past the last step."""
    cost = np.concatenate([costs[k] for k in loads])
    value = np.concatenate([np.full(len(costs[k]), values[k]) for k in loads])
    ratio = value / cost
    rank = np.argsort(-ratio, kind="stable")
    return (
        np.concatenate(([0.0], np.cumsum(cost[rank]))),
        np.concatenate(([0.0], np.cumsum(value[rank]))),
        np.concatenate((ratio[rank], [0.0])),
    )


def _dantzig(table, caps: np.ndarray) -> np.ndarray:
    """Fractional-knapsack value of each capacity in ``caps``."""
    cum_cost, cum_value, ratio = table
    j = np.searchsorted(cum_cost, caps, side="right") - 1
    return cum_value[j] + (caps - cum_cost[j]) * ratio[j]


def solve_greedy(avg, loads, tariff, budget):
    """AFG's greedy pass as it was: the items sorted as tuples, then
    served one at a time from a running ``remaining``."""
    smax = max_durations(avg)
    per_load_cap = smax.sum(axis=1)  # demanded hours across the horizon
    gammas = loads.gammas
    s = np.zeros_like(smax)

    items = []
    for k in range(len(loads)):
        if per_load_cap[k] == 0:
            continue  # never demanded; excluded from the objective
        benefit = gammas[k] / per_load_cap[k]
        for d in range(avg.power.shape[1]):
            if smax[k, d] == 0:
                continue
            cost_per_hour = tariff.alpha * avg.power[k, d]
            items.append((benefit / cost_per_hour, gammas[k], d, k, cost_per_hour))
    items.sort(key=lambda it: (-it[0], -it[1], it[2], it[3]))

    remaining = effective_budget(budget)
    for _, _, d, k, cost_per_hour in items:
        if remaining <= 0:
            break
        hours = min(smax[k, d], remaining / cost_per_hour)
        s[k, d] = hours
        remaining -= cost_per_hour * hours
        if hours < smax[k, d]:
            break  # budget exhausted; everything ranked lower stays zero
    return EnablePlan(s, smax)


def compute_thresholds(plan, recharges, avg, tariff, step_hours):
    """AFG's thresholds as they were placed: load-day by load-day."""
    num_loads, num_days = plan.durations.shape
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
