"""Exact in-process solver for the detailed-forecast threshold model (DFM).

DFM sets one threshold per load-day on a virtual wallet. Within a day
the virtual balance only falls, so a load is on from the day start
until its threshold trips and stays off after: a threshold plan comes
down to one served count per load-day, the load serving the first n of
its demanded steps that day. The solver searches those counts exactly.
It is a multiple-choice knapsack over the days (Kellerer, Pferschy &
Pisinger, *Knapsack Problems*, 2004; Pisinger, *EJOR* 83, 1995). A
limited view is a view whose costs are constant within a load-day, so
both views run the same code.

**Recharges.** Day d's recharge is what the plan spends on day d on
its view, and day 0 also gets ``m``, the sliver of the budget that
every policy holds back (``model.BUDGET_MARGIN`` of it):
:func:`planned_recharges`. This is AFG's rule
(``afg.compute_recharges``). The paper's own rule is unknown here: only
its abstract is at hand. An even share of the budget per day would
keep the plan from moving money between days, and so make the detailed
model lose to AFG when both are given the truth.

**Feasibility, and the edge at 0.0.** Under this rule day d starts at a
virtual balance of ``m`` plus the day's spend, so every served step
begins with a virtual balance above ``m``, whatever the order of the
day's steps. What is left is the real wallet: the total spend is at
most ``effective_budget``, so the real balance stays at least ``m``
after every served step. No plan ends a step at real balance 0.0. Flat
demand often puts a balance on exactly 0.0, and there the float dust
between the program's sums and the simulator's running differences
(some 1e-16 of the budget) would decide whether the step is served.
Balances do not gather at ``m`` as they do at 0.0, and the dust is far
smaller than ``m``.

**Day options.** A count vector of one day has a spend and a value
(``n_k gamma_k / N_k`` summed over the loads, ``N_k`` the load's
demanded steps over the horizon). A day's options are the strict
(spend, value) staircase of its count vectors: no other vector spends
at most as much for at least as much. They are built by merging one
load at a time, each merge pairing the staircase so far with every
count of the load and keeping the pairs' staircase. They depend only
on the day's demand, so :func:`plan_view` builds them once for all
budgets, and for every view that repeats the day.

**Dynamic program.** After each day the states are the (S, value)
staircase, S the spend so far. A state is dropped when its value plus
the Dantzig bound of the days left (``prepaid_ems.mck``: the LP
relaxation over their options' upper hulls, against the money left)
falls below an incumbent: the value of a beam pass that keeps the
``BEAM`` states with the best bound each day. The last day takes the
best feasible (state, option) pair; ties go to the first in option
order.

**Decoding.** The counts become an actuation on the view, and each
load-day's threshold goes mid-band on that actuation's virtual
balances (:func:`mid_band_thresholds`). The tests decode a solved
threshold MILP the same way.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.mck import chunked_runs, dantzig, ranked_table
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

#: Most pairs one budget's solve may form: the (option, count) pairs
#: that build its view's day options plus, in each pass of its dynamic
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


@dataclass(frozen=True)
class DayOptions:
    """The (spend, value) staircase of one day's count vectors, by
    rising spend; the first option serves nothing."""

    spend: np.ndarray  # [option], $
    value: np.ndarray  # [option]
    counts: np.ndarray  # [option, load]
    hull: tuple[np.ndarray, np.ndarray]  # spend and value steps of the upper hull
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


def _day_options(power, cost, values) -> DayOptions:
    """The options of one day, ``power`` and ``cost`` its ``[load, step]``
    demand and step costs. Each demanded load in turn pairs every option
    so far with every count of its own; the pairs' staircase is the
    staircase of the chunks' staircases."""
    demanded = np.flatnonzero(power.any(axis=1))
    work = 0
    spend, value = np.zeros(1), np.zeros(1)
    counts = np.zeros((1, 0), dtype=np.int64)
    for k in demanded:
        prefix = np.concatenate(([0.0], np.cumsum(cost[k, power[k] > 0])))
        choices = len(prefix)
        work = _charge(work, len(spend) * choices)
        gain = np.arange(choices) * values[k]
        rows = max(1, CHUNK // choices)
        kept = []
        for lo in range(0, len(spend), rows):
            new_spend = (spend[lo : lo + rows, None] + prefix).ravel()
            new_value = (value[lo : lo + rows, None] + gain).ravel()
            stair = _staircase(new_spend, new_value)
            kept.append((stair + lo * choices, new_spend[stair], new_value[stair]))
        keep, spend, value = (np.concatenate(x) for x in zip(*kept))
        stair = _staircase(spend, value)
        keep, spend, value = keep[stair], spend[stair], value[stair]
        a, n = np.divmod(keep, choices)
        counts = np.column_stack([counts[a], n])
    full = np.zeros((len(spend), len(power)), dtype=np.int64)
    full[:, demanded] = counts
    return DayOptions(spend, value, full, _hull_steps(spend, value), work)


def _hull_steps(spend, value) -> tuple[np.ndarray, np.ndarray]:
    """Spend and value steps along the upper concave hull of a staircase
    that starts at ``(0, 0)``, slopes falling."""
    vertex = [0]
    while vertex[-1] < len(spend) - 1:
        i = vertex[-1]
        slope = (value[i + 1 :] - value[i]) / (spend[i + 1 :] - spend[i])
        # The last of equally steep points, so each step is a full edge.
        vertex.append(i + len(slope) - int(np.argmax(slope[::-1])))
    return np.diff(spend[vertex]), np.diff(value[vertex])


def _bound_tables(hulls) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per day d, the Dantzig bound of the days after d as a function of
    the money left: the ranked table of their hull steps. Every hull
    step is ranked once by falling slope (stable); each day's table
    filters that ranking, which keeps its order."""
    width, rise = (np.concatenate(steps) for steps in zip(*hulls))
    day_of = np.repeat(np.arange(len(hulls)), [len(w) for w, _ in hulls])
    rank = np.argsort(-(rise / width), kind="stable")
    tables = []
    for d in range(len(hulls)):
        later = rank[day_of[rank] > d]
        tables.append(ranked_table(width[later], rise[later]))
    return tables


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


def _search(days: list[DayOptions], capacity, tables, floor, beam, work):
    """The dynamic program over the days. States whose bound falls below
    ``floor`` are dropped; with ``beam``, at most that many states with
    the best bounds are kept per day. Returns the best value, the chosen
    option per day and the work done."""
    spend, value = np.zeros(1), np.zeros(1)
    links = []  # per day before the last: each state's previous state and option
    last = len(days) - 1
    for d, day in enumerate(days):
        work = _charge(work, int(len(day.spend) * len(spend)))
        # The states are sorted by spend, so each option takes a prefix of
        # them; the feasible pairs come in option order, a chunk at a time.
        takes = np.searchsorted(spend, capacity - day.spend, side="right")
        options, first = np.arange(len(takes)), np.zeros_like(takes)
        kept = []
        for option, state in chunked_runs(options, first, takes, CHUNK):
            new_spend = spend[state] + day.spend[option]
            new_value = value[state] + day.value[option]
            bound = new_value + dantzig(tables[d], capacity - new_spend)
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


def _step_costs(served, demand: DemandSeries, tariff: Tariff) -> np.ndarray:
    """What the actuation ``served[load, step]`` costs on ``demand``, as
    ``[day, step of the day]``."""
    grid = demand.grid
    cost = tariff.alpha * grid.step_hours * (demand.power * served).sum(axis=0)
    return cost.reshape(grid.num_days, grid.steps_per_day)


def planned_recharges(
    served: np.ndarray, demand: DemandSeries, tariff: Tariff, budget: Budget
) -> np.ndarray:
    """DFM's daily recharges for the actuation ``served[load, step]``:
    what it spends each day on ``demand``, day 0 also getting the
    budget's margin."""
    recharges = _step_costs(served, demand, tariff).sum(axis=1)
    recharges[0] += BUDGET_MARGIN * budget.initial_balance
    return recharges


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
    cost = _step_costs(served, demand, tariff)
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


def plan_view(
    view: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budgets: list[Budget],
    known: dict | None = None,
) -> list[tuple[ThresholdPlan, float] | DfmTooLarge]:
    """Optimal threshold plan on ``view`` within each budget, and its
    objective, the priority-weighted share of demanded steps served; for
    a budget past ``WORK_BOUND``, the :class:`DfmTooLarge` it raised.
    ``known`` keeps day options across views (:func:`view_options`)."""
    try:
        days = view_options(view, loads, tariff, known)
    except DfmTooLarge as exc:
        return [exc.with_traceback(None)] * len(budgets)
    tables = _bound_tables([day.hull for day in days])
    work = sum(day.work for day in days)
    slack = BOUND_SLACK * float(loads.gammas.sum())
    demanded = view.power.reshape(view.num_loads, len(days), -1) > 0
    rank = np.cumsum(demanded, axis=2)
    plans = []
    for budget in budgets:
        problem = (days, effective_budget(budget), tables)
        try:
            incumbent, _, spent = _search(*problem, -np.inf, BEAM, work)
            objective, chosen, _ = _search(*problem, incumbent - slack, None, spent)
        except DfmTooLarge as exc:
            plans.append(exc.with_traceback(None))  # frees the search's frames
            continue
        counts = np.stack([day.counts[o] for day, o in zip(days, chosen)], axis=1)
        # A load-day serving n steps serves its first n demanded ones.
        served = (demanded & (rank <= counts[..., None])).reshape(view.num_loads, -1)
        recharges = planned_recharges(served, view, tariff, budget)
        thresholds = mid_band_thresholds(served, view, tariff, recharges)
        plans.append((ThresholdPlan(thresholds, recharges), objective))
    return plans
