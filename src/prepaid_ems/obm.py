"""Optimal schedule benchmark (OBM) solved as a count search.

OBM picks demanded load-steps to serve within the budget, valuing every
demanded step of load k the same, gamma_k over its demanded-step count
(the knapsack ``milp.builders.build_obm`` writes out). A load serving n
steps then serves its n cheapest, so the knapsack is a choice of one
count per load, which ``prepaid_ems.mck``'s count search solves exactly
(``mck.CountSearch``; the module docstring gives the argument).

**Per view, once.** :func:`plan_view` sorts a view's steps, and builds
the search's prefix sums and ranked tables, once for all its budgets;
each budget then runs only the search. The counts depend on nothing but
each load's sorted costs and value, so a shuffled view, which has its
source's costs, reuses its source's search and counts (``known``), and
DFM shares them on a flat view that both plan.

Ties between steps of equal cost go to the earlier step. The reported
objective adds the chosen steps' values one at a time, left to right,
in (load, step) order: the same float sum the knapsack backend reports,
on every Python version.
"""

import numpy as np

from prepaid_ems.mck import view_search
from prepaid_ems.model import Budget, DemandSeries, LoadSet, Tariff, effective_budget


def plan_view(
    view: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budgets: list[Budget],
    known: dict | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Optimal schedule for ``view`` within each budget, as an int8
    ``[load, step]`` actuation, and its objective, the priority-weighted
    share of demanded steps served, from one set of the view's tables
    (see the module docstring). ``known`` keeps the searches, and the
    counts they found, across views: a shuffled view has its source's
    costs, so it has its source's counts."""
    if view.num_loads != len(loads):
        raise ValueError(
            f"series has {view.num_loads} loads, load set has {len(loads)}"
        )
    steps, values, search = view_search(
        view, loads, tariff, {} if known is None else known
    )
    plans = []
    for budget in budgets:
        counts = search.counts(effective_budget(budget))
        schedule = np.zeros((view.num_loads, view.grid.total_steps), dtype=np.int8)
        for k, n in enumerate(counts):
            schedule[k, steps[k][:n]] = 1
        served = np.repeat(values, counts)
        objective = np.cumsum(np.concatenate(([0.0], served)))[-1]
        plans.append((schedule, float(objective)))
    return plans
