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

With three or more loads the search starts from an incumbent, the
greedy count vector: every demanded step is ranked once by falling
value/cost (the Dantzig table of all loads; the bound's tables for the
later levels filter that ranking), and each load counts its ranked
steps before the break. Each count is cut to what the search's own
chain of remaining money affords, the last load takes all it affords,
and the total is evaluated with the search's float expressions, so the
incumbent is a count vector the search visits, with total T. The
search starts at the float just below T and keeps a vector only when
it beats the best so far. This cannot change the result: the search
returns the first vector, in visit order, whose total equals the
maximum M; T <= M, so until that vector is reached the best so far
stays below M, its branch's bound (at least M) keeps it from being
pruned, and it is kept as before. Without the incumbent a limited
view, whose best-ratio load serves far fewer steps than it could
afford, raises its best value a small gain at a time over thousands
of closed-form pairs.

Ties between steps of equal cost go to the earlier step. The reported
objective adds the chosen steps' values one at a time, left to right,
in (load, step) order: the same float sum the knapsack backend reports,
on every Python version.
"""

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
    objective = np.cumsum(np.concatenate(([0.0], np.repeat(values, counts))))[-1]
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
    slack = BOUND_SLACK * sum(values[k] * len(costs[k]) for k in order)
    best_value, best_counts, tables = -np.inf, [], {}
    if len(order) > 2:
        tables, greedy = _ranked_tables(costs, values, order, capacity)
        total = _search_total(greedy, order, prefix, values, capacity)
        best_value = np.nextafter(total, -np.inf)

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
    # descend reaches itself through its closure; dropping it frees the
    # search's arrays now rather than at the next garbage collection.
    del descend
    assert best_counts, "the search lost its incumbent"
    for k, n in zip(order, best_counts):
        counts[k] = n
    return counts


def _ranked_tables(costs, values, order, capacity: float):
    """Dantzig tables of the loads ``order[level:]`` for the levels the
    search bounds, and the greedy counts per level.

    Every demanded step is ranked once by falling value/cost (stable);
    the suffix tables filter that ranking, which keeps its order. The
    greedy counts are the ranked steps before the break of ``capacity``,
    counted per load."""
    cost = np.concatenate([costs[k] for k in order])
    value = np.array([values[k] for k in order])
    level_of = np.repeat(np.arange(len(order)), [len(costs[k]) for k in order])
    ratio = value[level_of] / cost
    rank = np.argsort(-ratio, kind="stable")
    tables = {}
    for level in range(1, len(order) - 1):
        sub = rank[level_of[rank] >= level]
        tables[level] = _bound_table(cost[sub], value[level_of[sub]], ratio[sub])
    fits = int(np.searchsorted(np.cumsum(cost[rank]), capacity, side="right"))
    return tables, np.bincount(level_of[rank[:fits]], minlength=len(order))


def _search_total(greedy, order, prefix, values, cap: float):
    """The search's float total for the greedy counts, each cut to what
    the search's cap chain affords and the last load given all it
    affords: a count vector the search visits."""
    value = 0.0
    for k, n in zip(order[:-2], greedy):
        n = min(int(n), _affordable(prefix[k], cap))
        cap, value = cap - prefix[k][n], value + n * values[k]
    a, b = order[-2:]
    na = min(int(greedy[-2]), _affordable(prefix[a], cap))
    nb = _affordable(prefix[b], cap - prefix[a][na])
    return (value + na * values[a]) + nb * values[b]


def _affordable(prefix: np.ndarray, cap: float) -> int:
    """Most steps whose cumulative cost stays within ``cap``."""
    return int(np.searchsorted(prefix, cap, side="right")) - 1


def _bound_table(cost, value, ratio):
    """Cumulative cost and value of the ranked steps, with each step's
    ratio; a trailing zero ratio stands past the last step."""
    return (
        np.concatenate(([0.0], np.cumsum(cost))),
        np.concatenate(([0.0], np.cumsum(value))),
        np.concatenate((ratio, [0.0])),
    )


def _dantzig(table, caps: np.ndarray) -> np.ndarray:
    """Fractional-knapsack value of each capacity in ``caps``."""
    cum_cost, cum_value, ratio = table
    j = np.searchsorted(cum_cost, caps, side="right") - 1
    return cum_value[j] + (caps - cum_cost[j]) * ratio[j]
