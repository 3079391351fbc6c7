"""Exact in-process solver for the detailed-forecast threshold model (DFM).

DFM sets one threshold per load-day on a virtual wallet. Within a day
the virtual balance only falls, so a load is on from the day start
until its threshold trips and stays off after: a threshold plan comes
down to one served count per load-day, the load serving the first n of
its demanded steps that day. The solver searches those counts exactly.
It is a multiple-choice knapsack over the days (Kellerer, Pferschy &
Pisinger, *Knapsack Problems*, 2004; Pisinger, *EJOR* 83, 1995).

**Flat views.** A view is flat when, in every load-day, the demanded
steps have one power: every limited view is, and so is a detailed view
of loads that run at one power (the synthetic households' rectangular
profiles). There any n demanded steps of a load-day cost the same, so
serving the first n restricts nothing, and DFM's knapsack is OBM's:
any demanded steps within the budget, each worth its load's value
(``prepaid_ems.mck``). Its count search finds how many steps each load
serves, its n cheapest; every DFM count vector is a set of steps it
could pick, so any n cheapest steps that make a prefix of each of the
load's days are an optimal DFM count vector. DFM takes them cheapest
first and, among steps of one cost, the first demanded step of every
day before any day's second, and so on. That choice is worth the same
on the view. Under a forecast that misplaces days it keeps a load's
service spread over its equally priced days instead of packed into the
earliest, which the shuffled forecasts reward. A flat view is solved
there, with no day options and no work bound, by the search OBM builds
for the same view when the sweep plans both (``known``). The dynamic
program below solves the views whose load-days vary, such as noisy
detailed demand.

**Recharges.** Day d's recharge is what the plan spends on day d on
its view, and day 0 also gets ``m``, the sliver of the budget that
every policy holds back (``model.BUDGET_MARGIN`` of it):
:func:`planned_recharges`. This is AFG's rule too
(``afg.compute_thresholds``), which prices its whole steps at the daily
averages. The paper's own rule is unknown here: only
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

**Decoding.** Either way, a budget's counts are scored as the dynamic
program sums them: each day's ``n_k gamma_k / N_k`` over the loads in
order, then the days in order. They become an actuation on the view,
and each load-day's threshold goes mid-band on that actuation's virtual
balances (``model.mid_band_thresholds``); all of a view's budgets are
recharged and decoded as one stack. That is the one decoder of
the threshold policies: AFG decodes its whole steps on its averages
view with it, and the tests decode a solved threshold MILP with it.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.mck import chunked_runs, dantzig, ranked_table, view_search
from prepaid_ems.model import (
    BOUND_SLACK,
    BUDGET_MARGIN,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    _step_costs,
    effective_budget,
    mid_band_thresholds,
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
    view: DemandSeries, loads: LoadSet, tariff: Tariff, known: dict
) -> list[DayOptions]:
    """Every day's options on ``view``, for any budget. ``known`` maps
    each day built so far to its options, for views on one grid and
    tariff: a shuffled view repeats every day of its source. A day's
    work counts against ``WORK_BOUND`` whether it is built or known."""
    grid = view.grid
    values = _values(view, loads)
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


def planned_recharges(
    served: np.ndarray,
    demand: DemandSeries,
    tariff: Tariff,
    budget: Budget | list[Budget],
) -> np.ndarray:
    """DFM's daily recharges for the actuation ``served[load, step]``:
    what it spends each day on ``demand``, day 0 also getting the
    budget's margin; or a stack of them, for ``served[plan, load, step]``
    and a list of one budget per plan."""
    recharges = _step_costs(served, demand, tariff).sum(axis=-1)
    balance = (
        np.array([b.initial_balance for b in budget])
        if np.ndim(served) == 3
        else budget.initial_balance
    )
    recharges[..., 0] += BUDGET_MARGIN * balance
    return recharges


def _values(view: DemandSeries, loads: LoadSet) -> np.ndarray:
    """Each load's value per demanded step, ``gamma_k / N_k``."""
    demanded = (view.power > 0).sum(axis=1)
    return np.where(demanded > 0, loads.gammas / np.maximum(demanded, 1), 0.0)


def _flat(view: DemandSeries) -> bool:
    """Whether every load-day's demanded steps have one power."""
    power = view.power.reshape(view.num_loads, view.grid.num_days, -1)
    return bool(((power == 0) | (power == power.max(axis=2, keepdims=True))).all())


def _count_search(view, loads, tariff, budgets, known) -> list[np.ndarray]:
    """Each budget's counts ``[load, day]`` on the flat ``view``: how many
    steps each load serves comes from the count search that OBM shares,
    and which ones from a round of the days (see the module docstring)."""
    _, _, search = view_search(view, loads, tariff, known)
    n, days = view.grid.steps_per_day, view.grid.num_days
    demanded = view.power > 0
    place = np.cumsum(demanded.reshape(-1, days, n), axis=2).reshape(demanded.shape)
    # Each load's demanded steps by power, then place in their day, then
    # day: the cheapest first, and equal costs a step of each day at a time.
    day_order = []
    for power, on, places in zip(view.power, demanded, place):
        t = np.flatnonzero(on)
        day_order.append(t[np.lexsort((t, places[t], power[t]))] // n)
    plans = []
    for budget in budgets:
        chosen = search.counts(effective_budget(budget))
        by_day = [np.bincount(d[:c], minlength=days) for d, c in zip(day_order, chosen)]
        plans.append(np.stack(by_day))
    return plans


def _dynamic_program(
    view, loads, tariff, budgets, known
) -> list[np.ndarray | DfmTooLarge]:
    """Each budget's counts ``[load, day]`` on ``view`` from the dynamic
    program over its day options; for a budget past ``WORK_BOUND``, the
    :class:`DfmTooLarge` it raised."""
    try:
        days = view_options(view, loads, tariff, known)
    except DfmTooLarge as exc:
        return [exc.with_traceback(None)] * len(budgets)
    tables = _bound_tables([day.hull for day in days])
    work = sum(day.work for day in days)
    slack = BOUND_SLACK * float(loads.gammas.sum())
    plans = []
    for budget in budgets:
        problem = (days, effective_budget(budget), tables)
        try:
            incumbent, _, spent = _search(*problem, -np.inf, BEAM, work)
            _, chosen, _ = _search(*problem, incumbent - slack, None, spent)
        except DfmTooLarge as exc:
            plans.append(exc.with_traceback(None))  # frees the search's frames
            continue
        plans.append(np.stack([day.counts[o] for day, o in zip(days, chosen)], axis=1))
    return plans


def plan_view(
    view: DemandSeries,
    loads: LoadSet,
    tariff: Tariff,
    budgets: list[Budget],
    known: dict | None = None,
) -> list[tuple[ThresholdPlan, float] | DfmTooLarge]:
    """Optimal threshold plan on ``view`` within each budget, and its
    objective, the priority-weighted share of demanded steps served; for
    a budget past ``WORK_BOUND``, the :class:`DfmTooLarge` it raised. A
    flat view takes the count search, any other the dynamic program.
    ``known`` keeps day options (:func:`view_options`) and count searches
    (``mck.view_search``) across views."""
    if view.num_loads != len(loads):
        raise ValueError(
            f"series has {view.num_loads} loads, load set has {len(loads)}"
        )
    known = {} if known is None else known
    solve = _count_search if _flat(view) else _dynamic_program
    plans = solve(view, loads, tariff, budgets, known)
    solved = [i for i, plan in enumerate(plans) if not isinstance(plan, DfmTooLarge)]
    if not solved:
        return plans
    counts = np.stack([plans[i] for i in solved])  # [plan, load, day]
    # A load-day serving n steps serves its first n demanded ones.
    demanded = view.power.reshape(view.num_loads, view.grid.num_days, -1) > 0
    rank = np.cumsum(demanded, axis=2)
    served = demanded & (rank <= counts[..., None])
    served = served.reshape(len(solved), view.num_loads, -1)
    recharges = planned_recharges(served, view, tariff, [budgets[i] for i in solved])
    thresholds = mid_band_thresholds(served, view, tariff, recharges)
    # Each day's value over the loads in order, then the days in order.
    values, day_value = _values(view, loads), 0.0
    for k in range(view.num_loads):
        day_value = day_value + counts[:, k] * values[k]
    objectives = np.cumsum(day_value, axis=1)[:, -1]
    for i, *plan, objective in zip(solved, thresholds, recharges, objectives):
        plans[i] = (ThresholdPlan(*plan), float(objective))
    return plans
