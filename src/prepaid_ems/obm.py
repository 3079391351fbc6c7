"""Optimal schedule benchmark (OBM) solved as a count search.

OBM picks demanded load-steps to serve within the budget, valuing every
demanded step of load k the same, gamma_k over its demanded-step count
(the knapsack ``milp.builders.build_obm`` writes out). Because the value
is flat within a load, a load serving n steps should serve its n
cheapest: swapping a served step for a cheaper unserved one keeps the
value and frees money (exchange argument). Sorting each load's steps by
(cost, step) therefore turns the knapsack into a choice of one count per
load against that load's convex prefix-cost curve.

**Per view, once.** :func:`plan_view` sorts a view's steps, and builds
the search's prefix sums and ranked tables, once for all its budgets;
each budget then runs only the search. The counts depend on nothing but
each load's sorted costs and value, so a shuffled view, which has its
source's costs, reuses its source's search and counts (``known``).

**The search.** The counts are searched exactly, depth first, loads in
order of their best value/cost ratio and counts from largest to
smallest, pruned by the Dantzig bound (the fractional-knapsack
relaxation over the loads not yet fixed; Martello & Toth, *Knapsack
Problems*, 1990). The last two loads are solved in closed form: for
every count of the first, the second takes as many steps as the money
left buys. Among equally valued count vectors the first one visited is
kept. A level's ceiling is concave in its count, so the counts above
the best form one run, found on a coarse grid first (``_window``); so
are the closed form's counts whose ceiling, with the second load taken
fractionally, is within one of its steps of the most it reaches.

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
pruned, and it is kept as before.

**The last two loads' staircase.** The Dantzig bound sits up to one
step's value above what the last two loads really reach, and on a
limited view, whose costs take a few values per load, thousands of
branches of the last searched level fall in that gap. Once a view's
searches have made ``PAIR_CALLS_BEFORE_FRONTIER`` closed-form calls,
they build the exact bound instead: the staircase of the two loads'
count pairs, the most value within each money (``_pair_frontier``).
With it a branch is searched at once only when it can beat the best
by more than float dust (``BOUND_SLACK``). A branch that can only tie
the best is put aside with its place in the visit order; at the end
the put-aside branches that still tie the final best are scored on the
staircase's tying pairs, with the closed form's float expressions, and
the first vector in visit order with the highest total wins. That is
the vector the plain search keeps: its ties differ only in float
rounding, which the search's own expressions reproduce, and a pruned
branch holds no vector within float dust of the best.

Ties between steps of equal cost go to the earlier step. The reported
objective adds the chosen steps' values one at a time, left to right,
in (load, step) order: the same float sum the knapsack backend reports,
on every Python version.
"""

import numpy as np

from prepaid_ems.model import (
    BOUND_SLACK,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    effective_budget,
)

#: Pair calls a view's searches make before they build the last two
#: loads' staircase, which costs about as much as this many calls at
#: paper scale: a view that needs few pair calls never pays for it.
PAIR_CALLS_BEFORE_FRONTIER = 256

#: Most candidate pairs a staircase is built from; past it the search
#: keeps the Dantzig bound. Paper-scale limited views need ~130k-240k.
FRONTIER_CAP = 1 << 20

#: Candidate pairs merged into the staircase at a time; it bounds the
#: memory a build takes (~3 MiB for a paper-scale limited view).
CHUNK = 1 << 15

#: Grid step of the first look at a level's counts (see ``_window``).
STRIDE = 32


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
    cost_factor = tariff.alpha * view.grid.step_hours
    steps, costs, values = [], [], []
    for k in range(view.num_loads):
        demanded = np.flatnonzero(view.power[k] > 0)
        cost = cost_factor * view.power[k, demanded]
        order = np.argsort(cost, kind="stable")
        steps.append(demanded[order])
        costs.append(cost[order])
        values.append(loads.gammas[k] / float(len(demanded)) if len(demanded) else 0.0)

    known = {} if known is None else known
    key = (tuple(c.tobytes() for c in costs), tuple(values))
    if key not in known:
        known[key] = _CountSearch(costs, values)
    search = known[key]
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


class _CountSearch:
    """Per-load served counts maximizing sum(n_k * values[k]) subject to
    the n_k cheapest costs of all loads summing to at most a capacity,
    for any number of capacities; the tables are built once."""

    def __init__(self, costs, values):
        self.values = values
        self.order = sorted(
            (k for k in range(len(costs)) if len(costs[k])),
            key=lambda k: -values[k] / costs[k][0],
        )
        self.prefix = [np.concatenate(([0.0], np.cumsum(c))) for c in costs]
        self.slack = BOUND_SLACK * sum(values[k] * len(costs[k]) for k in self.order)
        if len(self.order) > 2:
            self.tables, self.ranked, self.pair_a = _ranked_tables(
                costs, values, self.order
            )
        if len(self.order) > 1:
            b = self.order[-1]
            self.b_table = _bound_table(
                costs[b], np.full(len(costs[b]), values[b]), values[b] / costs[b]
            )
        self.pair_calls = 0
        self.frontier = None
        self.solved = {}

    def counts(self, capacity: float) -> list[int]:
        if capacity not in self.solved:
            self.solved[capacity] = self._search(capacity)
        return self.solved[capacity]

    def _search(self, capacity: float) -> list[int]:
        order, prefix, values = self.order, self.prefix, self.values
        slack = self.slack
        counts = [0] * len(prefix)
        if len(order) <= 1:
            for k in order:
                counts[k] = _affordable(prefix[k], capacity)
            return counts
        last = len(order) - 2
        a, b = order[last], order[last + 1]
        best_value = -np.inf
        if len(order) > 2:
            cum_cost, level_of = self.ranked
            fits = int(np.searchsorted(cum_cost, capacity, side="right"))
            greedy = np.bincount(level_of[:fits], minlength=len(order))
            total = _search_total(greedy, order, prefix, values, capacity)
            best_value = np.nextafter(total, -np.inf)
        # (position in visit order, total, counts) of each pair that
        # raised the best, and the pairs whose ceilings tie the best.
        found, tied = [], []
        visited = 0

        def pair(cap, value, chosen):
            # The last two loads: every count of the first, the rest to the second.
            nonlocal best_value, visited
            self.pair_calls += 1
            visited += 1

            def ceiling(na):  # the second load's steps taken fractionally
                money_left = cap - prefix[a][na]
                return value + na * values[a] + _dantzig(self.b_table, money_left)

            # A total above the best, or at the most the pair reaches, has
            # a ceiling within one step of the second load of that most.
            top = _affordable(prefix[a], cap)
            na = _window(top, ceiling, best_value - slack, values[b] + slack)
            nb = np.searchsorted(prefix[b], cap - prefix[a][na], side="right") - 1
            totals = (value + na * values[a]) + nb * values[b]
            i = int(np.argmax(totals))
            if totals[i] > best_value:
                best_value = totals[i]
                found.append((visited, totals[i], [*chosen, int(na[i]), int(nb[i])]))

        def descend(level, cap, value, chosen):
            nonlocal visited
            if level == last:
                pair(cap, value, chosen)
                return
            k, table = order[level], self.tables[level + 1]

            def ceiling(n):
                money_left = cap - prefix[k][n]
                return value + n * values[k] + _dantzig(table, money_left) + slack

            n = _window(_affordable(prefix[k], cap), ceiling, best_value)
            caps = cap - prefix[k][n]
            vals = value + n * values[k]
            ceilings = vals + _dantzig(table, caps) + slack
            live = np.flatnonzero(ceilings > best_value)
            frontier = self._frontier() if level + 1 == last else None
            if frontier is None:
                for i in live:
                    if ceilings[i] > best_value:  # the best may have risen meanwhile
                        descend(level + 1, caps[i], vals[i], [*chosen, int(n[i])])
                return
            # Exact pair bounds: a pair that can beat the best by more
            # than float dust is searched now; one that can only tie it
            # is put aside with its place in the visit order.
            exact = vals[live] + _staircase(frontier, caps[live])[0]
            close = exact > best_value - slack
            live, exact = live[close], exact[close]
            while len(live):
                ahead = np.flatnonzero(exact > best_value + slack)
                stop = ahead[0] if len(ahead) else len(live)
                near = live[:stop][exact[:stop] > best_value - slack]
                seqs = visited + 1 + np.arange(len(near))
                tied.append((seqs, caps[near], vals[near], n[near], chosen))
                visited += len(near)
                if stop < len(live):
                    i = live[stop]
                    descend(level + 1, caps[i], vals[i], [*chosen, int(n[i])])
                live, exact = live[stop + 1 :], exact[stop + 1 :]

        descend(0, capacity, 0.0, [])
        # descend reaches itself through its closure; dropping it frees the
        # search's arrays now rather than at the next garbage collection.
        del descend
        if tied:
            found.extend(self._tied_pair(tied, best_value - slack))
        # The first pair in visit order with the best total.
        top = max(total for _, total, _ in found)
        best_counts = min((seq, c) for seq, total, c in found if total == top)[1]
        for k, n in zip(order, best_counts):
            counts[k] = n
        return counts

    def _tied_pair(self, tied, floor):
        """``[(position, total, counts)]`` of the best of the put-aside
        pairs whose ceilings still reach ``floor``, as ``pair`` would
        find it; ``[]`` when none does.

        Every pair within float dust of a ceiling's best value is a
        staircase point between the first that reaches that value and
        the last the ceiling's money affords (see ``_pair_frontier``), so
        only those counts are scored."""
        a, b = self.order[-2:]
        prefix_a, prefix_b = self.prefix[a], self.prefix[b]
        _cost, best, n_a = self.frontier
        seqs, caps, vals, ns = (np.concatenate(x) for x in list(zip(*tied))[:4])
        entry = np.repeat(np.arange(len(tied)), [len(t[0]) for t in tied])
        top, upto = _staircase(self.frontier, caps)
        keep = np.flatnonzero(vals + top > floor)
        if not len(keep):
            return []
        since = np.searchsorted(best, top[keep] - self.slack, side="left")
        child, point = _runs(keep, since, upto[keep])
        na = n_a[point]
        affords = na <= np.searchsorted(prefix_a, caps[child], side="right") - 1
        child, na = child[affords], na[affords]
        if not len(child):  # only widened caps reached the tying pairs
            return []
        nb = np.searchsorted(prefix_b, caps[child] - prefix_a[na], side="right") - 1
        totals = (vals[child] + na * self.values[a]) + nb * self.values[b]
        i = np.lexsort((-na, seqs[child], -totals))[0]
        j = child[i]
        chosen = tied[entry[j]][4]
        return [(seqs[j], totals[i], [*chosen, int(ns[j]), int(na[i]), int(nb[i])])]

    def _frontier(self):
        """The last two loads' staircase, built once the searches have
        made ``PAIR_CALLS_BEFORE_FRONTIER`` pair calls; ``None`` before
        that and when it would pass ``FRONTIER_CAP`` candidates."""
        if self.frontier is None and self.pair_calls >= PAIR_CALLS_BEFORE_FRONTIER:
            a, b = self.order[-2:]
            frontier = _pair_frontier(
                self.prefix[a],
                self.values[a],
                self.prefix[b],
                self.values[b],
                self.tables[len(self.order) - 2],
                self.pair_a,
                self.slack,
            )
            self.frontier = False if frontier is None else frontier  # never retried
        return self.frontier or None


def _ranked_tables(costs, values, order):
    """Dantzig tables of the loads ``order[level:]`` for the levels the
    search bounds; the cumulative cost and level of every ranked step,
    for the greedy counts; and which steps of the last table are the
    first of the last two loads'.

    Every demanded step is ranked once by falling value/cost (stable);
    the suffix tables filter that ranking, which keeps its order."""
    cost = np.concatenate([costs[k] for k in order])
    value = np.array([values[k] for k in order])
    level_of = np.repeat(np.arange(len(order)), [len(costs[k]) for k in order])
    ratio = value[level_of] / cost
    rank = np.argsort(-ratio, kind="stable")
    tables = {}
    for level in range(1, len(order) - 1):
        sub = rank[level_of[rank] >= level]
        tables[level] = _bound_table(cost[sub], value[level_of[sub]], ratio[sub])
    ranked = (np.cumsum(cost[rank]), level_of[rank])
    return tables, ranked, level_of[sub] == len(order) - 2


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


def _window(top: int, ceiling, floor, drop=np.inf) -> np.ndarray:
    """The counts from ``top`` down to 0 that may have a ``ceiling``
    above ``floor``, and no further than ``drop`` below the highest
    ceiling. The ceiling is concave in the count (a linear value plus
    the Dantzig value, concave, of a money left that is concave), so
    those counts form one run: it is found on a grid of step ``STRIDE``
    and lies within a step of the grid points above the floor, or of the
    highest grid point when none is."""
    grid = np.arange(top, -1, -STRIDE)
    if grid[-1]:
        grid = np.append(grid, 0)
    ceilings = ceiling(grid)
    above = np.flatnonzero(ceilings > max(floor, ceilings.max() - drop))
    first, last = (above[0], above[-1]) if len(above) else (np.argmax(ceilings),) * 2
    high, low = grid[max(first - 1, 0)], grid[min(last + 1, len(grid) - 1)]
    return np.arange(high, low - 1, -1)


def _pair_frontier(prefix_a, va, prefix_b, vb, table, is_a, tol):
    """Cost-sorted staircase of the count pairs of two loads, as arrays
    ``(cost, best, n_a)``: each kept pair's cost ``prefix_a[n_a] +
    prefix_b[n_b]`` and ``best``, the best value ``n_a va + n_b vb`` of
    any pair costing at most that much. A pair is kept unless a cheaper
    one beats it by more than ``tol``, so the pairs that tie the best
    within ``tol`` are kept too. ``table`` is the
    pair's Dantzig table and ``is_a`` marks its ranked steps of load a.
    ``None`` when there are more than ``FRONTIER_CAP`` candidates.

    A pair whose value falls more than one step's value (``max(va,
    vb)``) below the Dantzig value D of its own cost is beaten by the
    greedy pair of that cost, which loses at most its break step; so
    only the pairs within that band are candidates. Along a row (fixed
    n_a) the loss D - value falls to zero where the row meets the
    greedy path, at the b steps ranked before a's step n_a, and rises
    after, so each row's band is one run of n_b, found by bisection.
    The candidates are merged into the staircase a chunk at a time.
    """
    rows = np.arange(len(prefix_a))
    tau = max(va, vb) + 2 * tol

    def within(cols):
        cost = prefix_a[rows] + prefix_b[cols]
        return _dantzig(table, cost) - (rows * va + cols * vb) <= tau

    # The b steps ranked before each a step: the row's greedy column.
    ranked_a = np.flatnonzero(is_a)
    path = np.append(ranked_a - np.arange(len(ranked_a)), len(prefix_b) - 1)
    first = _bisect(within, np.zeros_like(path), path, lowest=True)
    last = _bisect(within, path, np.full_like(path, len(prefix_b) - 1), lowest=False)
    widths = last - first + 1
    if widths.sum() > FRONTIER_CAP:
        return None
    cost, value, n_a = np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64)
    ends = np.cumsum(widths)
    cuts = np.searchsorted(ends, np.arange(0, ends[-1], CHUNK), side="right")
    for lo, hi in zip(cuts, [*cuts[1:], len(rows)]):
        row, col = _runs(rows[lo:hi], first[lo:hi], last[lo:hi])
        chunk = prefix_a[row] + prefix_b[col]
        by_cost = np.argsort(chunk)
        cost = np.concatenate((cost, chunk[by_cost]))
        value = np.concatenate((value, (row * va + col * vb)[by_cost]))
        n_a = np.concatenate((n_a, row[by_cost]))
        # Two sorted runs: the stable sort merges them in linear time.
        by_cost = np.argsort(cost, kind="stable")
        cost, value, n_a = cost[by_cost], value[by_cost], n_a[by_cost]
        kept = value >= np.maximum.accumulate(value) - tol
        cost, value, n_a = cost[kept], value[kept], n_a[kept]
    return cost, np.maximum.accumulate(value), n_a


def _runs(owner, start, stop):
    """Each ``owner`` repeated once per index of its run ``start..stop``
    (inclusive), beside those indices."""
    width = stop - start + 1
    offset = start - (np.cumsum(width) - width)
    return np.repeat(owner, width), np.arange(width.sum()) + np.repeat(offset, width)


def _bisect(holds, lo, hi, lowest: bool):
    """Per row, the lowest (``lowest``) or highest column in ``[lo, hi]``
    where ``holds`` is true, for a ``holds`` true at ``hi`` (at ``lo``)
    that changes at most once along the row."""
    while (lo < hi).any():
        mid = (lo + hi) // 2 if lowest else (lo + hi + 1) // 2
        ok = holds(mid) | (lo == hi)
        if lowest:
            hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1)
        else:
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid - 1)
    return lo


def _staircase(frontier, caps: np.ndarray):
    """Best value of the pairs within each capacity in ``caps``, and the
    index of the last staircase point it affords. Each capacity is
    widened by 1e-12 of itself: a pair the search affords,
    ``prefix_b[n_b] <= cap - prefix_a[n_a]``, may sum an ulp past it."""
    cost, best, _n_a = frontier
    upto = np.searchsorted(cost, caps * (1 + 1e-12), side="right") - 1
    return best[upto], upto
