"""Exact in-process solver for the detailed-forecast threshold model (DFM).

DFM gives the virtual wallet an even share of the budget at each day
start (:func:`dfm_recharges`) and sets one threshold per load-day.
Within a day the virtual balance only falls, so a load is on from the
day start until its threshold trips and stays off after: a threshold
plan comes down to one served count per load-day, the load serving the
first n of its demanded steps that day. The solver searches those
counts exactly. It is a multiple-choice knapsack over the days, solved
by a dominance (Pareto) dynamic program (Kellerer, Pferschy & Pisinger,
*Knapsack Problems*, 2004; Pisinger, *EJOR* 83, 1995). A limited view
is a view whose costs are constant within a load-day, so both views
run the same code.

**Day options.** A count vector of one day has a spend, a value
(``n_k gamma_k / N_k`` summed over the loads, ``N_k`` the load's
demanded steps over the horizon) and ``pre``, the spend before the
day's last served step. The options are built by merging one load at
a time. A partial vector also carries its last served step and that
step's cost, and a partial A is dropped when another B spends at most
``pre_A`` minus the most the loads still to merge can cost at one
step, for at least A's value: every completion of B then spends no
more, before and at its last step, than A's. After the last load only
the Pareto-optimal ``(spend, pre, value)`` options are kept. They
depend only on the day's demand, so :func:`view_options` builds them
once for all budgets and for every view that repeats the day.

**Feasibility, and the edge at 0.0.** With ``m`` the sliver of the
budget that every policy holds back (``model.BUDGET_MARGIN`` of it):

* every served step begins with a virtual balance of at least ``m``:
  day d's option is feasible after a spend S on the days before iff
  ``S + pre <= (recharges through day d) - m``; a day that serves
  nothing needs no money;
* the real balance stays at least ``m`` after every served step: the
  total spend is at most ``effective_budget``.

So no plan starts a served step at virtual balance 0.0 or ends one at
real balance 0.0. Flat demand often puts a balance on exactly 0.0, and
there the float dust between the program's sums and the simulator's
running differences (some 1e-16 of the budget) would decide whether
the step is served. Balances do not gather at ``m`` as they do at 0.0,
and the dust is far smaller than ``m``.

**Dynamic program.** After each day the states are the Pareto-optimal
``(S, value)`` pairs, S the spend so far. A state is dropped when its
value plus the Dantzig bound of the days left (the LP relaxation over
their options' upper hulls, against the money left) falls below an
incumbent: the value of a beam pass that keeps the ``BEAM`` states
with the best bound each day. The bound respects the virtual wallet:
the spend through each day stays within that day's limit plus its
largest last-step cost. The last day takes the best feasible (state,
option) pair; ties go to the first in option order.

**Decoding.** The counts become an actuation on the view, and each
load-day's threshold goes mid-band on that actuation's virtual
balances (:func:`mid_band_thresholds`). The tests decode a solved
threshold MILP the same way.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.model import (
    BOUND_SLACK,
    BUDGET_MARGIN,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    effective_budget,
    pinned_off,
)

#: Most pairs one solve may form: the (partial vector, count) pairs that
#: build its view's day options plus, in each pass of its dynamic
#: program, each day's states times options. A cell that needs more is
#: reported unsolved.
WORK_BOUND = 30_000_000

#: Pairs formed at a time, which bounds the memory of one merge and of
#: one day of the dynamic program.
CHUNK = 1 << 18

#: States per day that the incumbent's beam pass keeps.
BEAM = 4


class DfmTooLarge(ValueError):
    """The solve would form more than ``WORK_BOUND`` pairs."""


def dfm_recharges(budget: Budget, num_days: int) -> np.ndarray:
    """The DFM's daily recharges: the budget split evenly over the days."""
    return np.full(num_days, budget.initial_balance / num_days)


@dataclass(frozen=True)
class DayOptions:
    """The Pareto-optimal count vectors of one day. ``pre`` is ``-inf``
    for the vector that serves nothing, which is feasible on any day."""

    spend: np.ndarray  # [option], $
    pre: np.ndarray  # [option], $ spent before the day's last served step
    value: np.ndarray  # [option]
    counts: np.ndarray  # [option, load]
    hull: tuple[np.ndarray, np.ndarray]  # spend and value steps of the upper hull
    overshoot: float  # largest cost of an option's last served step, $
    work: int  # pairs formed to build them


def _charge(work: int, pairs: int) -> int:
    work += pairs
    if work > WORK_BOUND:
        raise DfmTooLarge(f"DFM needs more than {WORK_BOUND} candidate pairs")
    return work


def _staircase(spend, value) -> np.ndarray:
    """Indices of the vectors on the (spend, value) frontier, by rising
    spend: no other one spends at most as much for at least as much."""
    order = np.lexsort((-value, spend))
    v = value[order]
    return order[v > np.maximum.accumulate(np.concatenate(([-np.inf], v[:-1])))]


def _pareto(spend, pre, value) -> np.ndarray:
    """Indices of the Pareto-optimal ``(spend, pre, value)`` vectors,
    less spend and pre and more value being better; of equal vectors
    the first is kept. The caller has already dropped every vector that
    one spending at most its ``pre`` beats."""
    order = np.lexsort((-value, pre, spend))
    s, p, v = spend[order], pre[order], value[order]
    # Left to check: the vectors sorted before each one that spend more
    # than its pre, a window of them right before it.
    width = np.arange(len(s)) - np.searchsorted(s, p, side="right")
    beaten = np.zeros(len(s), dtype=bool)
    wide = np.argsort(-width, kind="stable")
    # at_least[w]: how many vectors have a window of at least w.
    at_least = np.cumsum(np.bincount(np.maximum(width, 0))[::-1])[::-1]
    for shift in range(1, len(at_least)):
        i = wide[: at_least[shift]]
        j = i - shift
        beaten[i] |= (p[j] <= p[i]) & (v[j] >= v[i])
    return order[~beaten]


def _day_options(power, cost, values) -> DayOptions:
    """The options of one day, ``power`` and ``cost`` its ``[load, step]``
    demand and step costs, merging the most expensive loads first.

    Each merge pairs every partial vector with every count of the load.
    A pair is dropped when another spends at most its ``pre`` less the
    reserve (the most the loads still to merge cost at one step) for at
    least its value. The best value within a spend is read off the
    (spend, value) staircase of all pairs, which the pairs of the
    partial vectors on their own staircase already span.
    """
    demanded = [k for k in range(len(power)) if power[k].any()]
    demanded.sort(key=lambda k: -cost[k].max())
    work = 0
    spend, value, over = np.zeros(1), np.zeros(1), np.zeros(1)
    last = np.full(1, -1)
    counts = np.zeros((1, 0), dtype=np.int64)
    for i, k in enumerate(demanded):
        steps = np.flatnonzero(power[k] > 0)
        choices = len(steps) + 1
        work = _charge(work, len(spend) * choices)
        step_cost = np.concatenate(([0.0], cost[k, steps]))
        step_of = np.concatenate(([-1], steps))
        prefix, gain = np.cumsum(step_cost), np.arange(choices) * values[k]
        front = _staircase(spend, value)
        stair_spend = (spend[front, None] + prefix).ravel()
        stair_value = (value[front, None] + gain).ravel()
        stair = _staircase(stair_spend, stair_value)
        stair_spend, stair_value = stair_spend[stair], stair_value[stair]
        rest = demanded[i + 1 :]
        reserve = float(cost[rest].sum(axis=0).max()) if rest else 0.0
        kept = []
        rows = max(1, CHUNK // choices)
        for lo in range(0, len(spend), rows):
            part = slice(lo, lo + rows)
            # The pairs of these partial vectors, as [vector, count] arrays.
            new_spend = spend[part, None] + prefix
            new_value = value[part, None] + gain
            # The cost of the pair's last served step.
            before, prior = last[part, None], over[part, None]
            ties = np.where(step_of == before, prior + step_cost, prior)
            new_over = np.where(step_of > before, step_cost, ties)
            # Serving nothing (no last step) is beaten by nothing.
            reach = np.where(new_over > 0, new_spend - new_over - reserve, -np.inf)
            reach = np.searchsorted(stair_spend, reach, side="right")
            keep = np.flatnonzero((reach == 0) | (stair_value[reach - 1] < new_value))
            pairs = (new_spend, new_value, new_over)
            kept.append([keep + lo * choices, *(x.ravel()[keep] for x in pairs)])
        keep, spend, value, over = (np.concatenate(x) for x in zip(*kept))
        if not rest:
            best = _pareto(spend, spend - over, value)
            keep, spend, value, over = keep[best], spend[best], value[best], over[best]
        a, n = np.divmod(keep, choices)
        last = np.maximum(last[a], step_of[n])
        counts = np.column_stack([counts[a], n])
    full = np.zeros((len(spend), len(power)), dtype=np.int64)
    full[:, demanded] = counts
    pre = np.where(last < 0, -np.inf, spend - over)
    hull = _hull_steps(spend, value)
    return DayOptions(spend, pre, value, full, hull, float(over.max()), work)


def _hull_steps(spend, value) -> tuple[np.ndarray, np.ndarray]:
    """Spend and value steps along the upper concave hull of the
    options from ``(0, 0)``, slopes falling."""
    front = _staircase(spend, value)
    s, v = spend[front], value[front]
    vertex = [0]
    while vertex[-1] < len(s) - 1:
        i = vertex[-1]
        slope = (v[i + 1 :] - v[i]) / (s[i + 1 :] - s[i])
        # The last of equally steep points, so each step is a full edge.
        vertex.append(i + len(slope) - int(np.argmax(slope[::-1])))
    return np.diff(s[vertex]), np.diff(v[vertex])


def _bound_tables(hulls, ceilings) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per day d, the Dantzig bound of the days after d as a function of
    the spend S through day d: breakpoints ``(S ascending, value)``.

    It is the LP relaxation over the days' hulls (``hulls[e]``, their
    spend and value steps) in which the spend through each day e stays
    within ``ceilings[e]``. Built backwards: the bound after day d is
    the max-plus convolution of day d + 1's hull with the bound after
    day d + 1 cut at ``ceilings[d + 1]``, a merge of their steps in
    falling slope order.
    """
    last = len(hulls) - 1
    xs, ys = np.array([ceilings[last]]), np.zeros(1)
    tables = [(xs, ys)]
    for d in range(last - 1, -1, -1):
        top = ceilings[d + 1]
        later = xs < top
        xs = np.append(xs[later], top)
        ys = np.append(ys[later], np.interp(top, *tables[-1]))
        # Steps leftward from the cut, so slopes fall, and the day's hull.
        width = np.concatenate((np.diff(xs)[::-1], hulls[d + 1][0]))
        rise = np.concatenate(((ys[:-1] - ys[1:])[::-1], hulls[d + 1][1]))
        width, rise = width[width > 0], rise[width > 0]
        order = np.argsort(-(rise / width), kind="stable")
        xs = top - np.concatenate(([0.0], np.cumsum(width[order])))[::-1]
        ys = ys[-1] + np.concatenate(([0.0], np.cumsum(rise[order])))[::-1]
        tables.append((xs, ys))
    return tables[::-1]


def view_options(
    view: DemandSeries, loads: LoadSet, tariff: Tariff, known: dict | None = None
) -> list[DayOptions]:
    """Every day's options on ``view``, for any budget. ``known`` maps
    each day built so far to its options, for views on one grid and
    tariff: a shuffled view repeats every day of its source. A day's
    work counts against ``WORK_BOUND`` whether it is built or known."""
    if view.num_loads != len(loads):
        raise ValueError(
            f"series has {view.num_loads} loads, load set has {len(loads)}"
        )
    known = {} if known is None else known
    grid = view.grid
    demanded = (view.power > 0).sum(axis=1)
    values = np.where(demanded > 0, loads.gammas / np.maximum(demanded, 1), 0.0)
    cost_factor = tariff.alpha * grid.step_hours
    cost = cost_factor * view.power
    n = grid.steps_per_day
    days, work = [], 0
    for d in range(grid.num_days):
        span = slice(d * n, (d + 1) * n)
        key = (view.power[:, span].tobytes(), values.tobytes(), cost_factor)
        if key not in known:
            known[key] = _day_options(view.power[:, span], cost[:, span], values)
        days.append(known[key])
        work = _charge(work, known[key].work)
    return days


def _pairs(spend_so_far, day: DayOptions, limit: float, capacity: float):
    """Every feasible (state, option) pair of one day, in chunks of about
    ``CHUNK`` pairs in option order: the state index, the option index
    and the spend after the day."""
    # States are sorted by spend, so each option takes a prefix of them.
    room = np.minimum(limit - day.pre, capacity - day.spend)
    takes = np.searchsorted(spend_so_far, room, side="right")
    ends = np.cumsum(takes)
    cuts = np.searchsorted(ends, np.arange(CHUNK, ends[-1], CHUNK), side="right")
    for lo, hi in zip([0, *cuts], [*cuts, len(takes)]):
        taken = takes[lo:hi]
        option = np.repeat(np.arange(lo, hi), taken)
        state = np.arange(len(option)) - np.repeat(np.cumsum(taken) - taken, taken)
        yield state, option, spend_so_far[state] + day.spend[option]


def _search(days: list[DayOptions], limits, capacity, tables, floor, beam, work):
    """The dynamic program over the days. States whose bound falls below
    ``floor`` are dropped; with ``beam``, at most that many states with
    the best bounds are kept per day. Returns the best value, the chosen
    option per day and the work done."""
    spend, value = np.zeros(1), np.zeros(1)
    links = []  # per day before the last: each state's previous state and option
    last = len(days) - 1
    for d, day in enumerate(days):
        work = _charge(work, int(len(day.spend) * len(spend)))
        kept = []
        for state, option, new_spend in _pairs(spend, day, limits[d], capacity):
            new_value = value[state] + day.value[option]
            bound = new_value + np.interp(new_spend, *tables[d])
            keep = bound >= floor
            kept.append([x[keep] for x in (state, option, new_spend, new_value, bound)])
        state, option, new_spend, new_value, bound = (
            np.concatenate(x) for x in zip(*kept)
        )
        if d == last:
            break
        order = _staircase(new_spend, new_value)
        if beam is not None and len(order) > beam:
            top = np.argsort(-bound[order], kind="stable")[:beam]
            order = order[np.sort(top)]
        spend, value = new_spend[order], new_value[order]
        links.append((state[order], option[order]))
    best = int(np.argmax(new_value))
    chosen, index = [int(option[best])], state[best]
    for prev, opt in reversed(links):
        chosen.append(int(opt[index]))
        index = prev[index]
    return float(new_value[best]), chosen[::-1], work


def mid_band_thresholds(
    served: np.ndarray,
    demand: DemandSeries,
    tariff: Tariff,
    recharges: np.ndarray,
) -> np.ndarray:
    """Threshold matrix ``[load, day]`` that makes the simulator repeat
    the actuation ``served[load, step]`` on ``demand``, with
    ``recharges`` the daily recharges.

    The actuation is paid for on ``demand``, and each load-day's
    threshold goes mid-band: halfway between the virtual balance at the
    start of the load's last served step and the balance after paying
    for it, the next lower one the view reaches. A load-day never
    served is pinned off, as in AFG.
    """
    grid = demand.grid
    num_loads, num_days, n = demand.num_loads, grid.num_days, grid.steps_per_day
    cost = tariff.alpha * grid.step_hours * (demand.power * served).sum(axis=0)
    cost = cost.reshape(num_days, n)
    # Virtual balance at each step start of each day, and after its last step.
    spent = np.cumsum(cost.sum(axis=1))
    start = np.cumsum(recharges) - np.concatenate([[0.0], spent[:-1]])
    balance = start[:, None] - np.concatenate(
        [np.zeros((num_days, 1)), np.cumsum(cost, axis=1)], axis=1
    )
    served = np.asarray(served).reshape(num_loads, num_days, n).astype(bool)
    last = n - 1 - np.argmax(served[..., ::-1], axis=2)
    days = np.arange(num_days)
    mid = (balance[days, last] + balance[days, last + 1]) / 2
    return np.where(served.any(axis=2), np.maximum(mid, 0.0), pinned_off(recharges))


def solve_dfm(
    view: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budget: Budget,
    known: dict | None = None,
) -> tuple[ThresholdPlan, float]:
    """Optimal threshold plan on ``view`` within the budget, and its
    objective, the priority-weighted share of demanded steps served.
    ``known`` keeps day options across calls (:func:`view_options`).
    Raises :class:`DfmTooLarge` past ``WORK_BOUND``."""
    days = view_options(view, loads, tariff, known)
    grid = view.grid
    recharges = dfm_recharges(budget, grid.num_days)
    margin = BUDGET_MARGIN * budget.initial_balance
    limits = np.cumsum(recharges) - margin
    capacity = effective_budget(budget)
    # The spend through day d is at most its limit plus the day's largest
    # last-step cost, or an earlier day's such ceiling if it serves nothing.
    overshoot = [day.overshoot for day in days]
    ceilings = np.minimum(np.maximum.accumulate(limits + overshoot), capacity)
    tables = _bound_tables([day.hull for day in days], ceilings)
    work = sum(day.work for day in days)
    incumbent, _, work = _search(days, limits, capacity, tables, -np.inf, BEAM, work)
    floor = incumbent - BOUND_SLACK * float(loads.gammas.sum())
    objective, chosen, _ = _search(days, limits, capacity, tables, floor, None, work)

    counts = np.stack([day.counts[o] for day, o in zip(days, chosen)], axis=1)
    demanded = view.power.reshape(view.num_loads, grid.num_days, -1) > 0
    # A load-day serving n steps serves its first n demanded ones.
    served = demanded & (np.cumsum(demanded, axis=2) <= counts[..., None])
    served = served.reshape(view.num_loads, -1)
    thresholds = mid_band_thresholds(served, view, tariff, recharges)
    return ThresholdPlan(thresholds, recharges), objective
