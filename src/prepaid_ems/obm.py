"""Optimal schedule benchmark (OBM) solved as a count search.

OBM picks demanded load-steps to serve within the budget, valuing every
demanded step of load k the same, gamma_k over its demanded-step count
(the knapsack ``milp.builders.build_obm`` writes out). Because the value
is flat within a load, a load serving n steps should serve its n
cheapest: swapping a served step for a cheaper unserved one keeps the
value and frees money (exchange argument). Sorting each load's steps by
(cost, step) therefore turns the knapsack into a choice of one count per
load against that load's convex prefix-cost curve.

The counts are searched exactly, depth first, loads in order of their
best value/cost ratio and counts from largest to smallest, pruned by
the Dantzig bound (the fractional-knapsack relaxation over the loads not
yet fixed; Martello & Toth, *Knapsack Problems*, 1990). The last two
loads are solved in closed form: for every count of the first, the
second takes as many steps as the money left buys. Among equally valued
count vectors the first one visited is kept.

Ties between steps of equal cost go to the earlier step. The reported
objective adds the chosen steps' values one at a time in (load, step)
order, the same float sum the knapsack backend reports.
"""

import itertools

import numpy as np

from prepaid_ems.model import Budget, DemandSeries, LoadSet, Tariff, effective_budget

#: Pruning slack, as a share of the total value on offer. The cumulative
#: sums behind the bound carry a relative float error of at most about
#: (items) x 2**-53, some 1e-12 at 10^4 items; a bound computed a hair
#: low must never prune an optimum, so a branch is kept until its bound
#: falls this far below the best value found.
BOUND_SLACK = 1e-9


def solve_obm(
    view: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> tuple[np.ndarray, float]:
    """Optimal schedule for ``view`` within the budget.

    Returns the int8 actuation matrix ``[load, step]`` and its objective,
    the priority-weighted share of demanded steps served.
    """
    if view.num_loads != len(loads):
        raise ValueError(
            f"series has {view.num_loads} loads, load set has {len(loads)}"
        )
    cost_factor = tariff.alpha * view.grid.step_hours
    steps, costs, values = [], [], []
    for k in range(view.num_loads):
        demanded = np.flatnonzero(view.power[k] > 0)
        cost = cost_factor * view.power[k, demanded]
        order = np.argsort(cost, kind="stable")
        steps.append(demanded[order])
        costs.append(cost[order])
        values.append(loads.gammas[k] / float(len(demanded)) if len(demanded) else 0.0)

    counts = _count_search(costs, values, effective_budget(budget))
    schedule = np.zeros((view.num_loads, view.grid.total_steps), dtype=np.int8)
    for k, n in enumerate(counts):
        schedule[k, steps[k][:n]] = 1
    objective = sum(
        itertools.chain.from_iterable(
            itertools.repeat(values[k], n) for k, n in enumerate(counts)
        )
    )
    return schedule, float(objective)


def _count_search(costs, values, capacity: float) -> list[int]:
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
