"""The exact DFM solver against a brute-force oracle judged by the
simulator, against HiGHS where HiGHS can be trusted, and on the edge
of an empty wallet."""

import itertools

import numpy as np
import pytest

from milp_reference import build_dfm, extract_plan
from prepaid_ems import dfm, sim
from prepaid_ems.dfm import mid_band_thresholds, planned_recharges
from prepaid_ems.forecast import shuffle_days, to_limited
from prepaid_ems.milp import SolveStatus
from prepaid_ems.model import (
    BUDGET_MARGIN,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    TimeGrid,
    compute_budget,
)

TARIFF = Tariff(0.001)

#: Most count vectors one oracle case enumerates.
MAX_VECTORS = 400


def _actuation(view, counts):
    """Serve the first ``counts[load, day]`` demanded steps of each load-day."""
    served = np.zeros(view.power.shape, dtype=np.int8)
    n = view.grid.steps_per_day
    for k, d in np.ndindex(counts.shape):
        steps = d * n + np.flatnonzero(view.power[k, d * n : (d + 1) * n] > 0)
        served[k, steps[: counts[k, d]]] = 1
    return served


def _keeps_the_margin(result, budget):
    """The wallet rule of ``prepaid_ems.dfm``: every served step begins
    with a virtual balance of at least the margin, and the real balance
    ends at least the margin above zero."""
    margin = BUDGET_MARGIN * budget.initial_balance
    on = result.actuation.any(axis=0)
    return (result.virtual_balance_trace[on] >= margin).all() and (
        result.final_real_balance >= margin
    )


def brute_force(view, loads, budget):
    """Best PSF on ``view`` over every count vector whose mid-band plan,
    recharged with what the vector spends each day, the simulator serves
    exactly, within the wallet rule."""
    grid = view.grid
    demanded = (view.power > 0).reshape(view.num_loads, grid.num_days, -1).sum(axis=2)
    vectors, plans = [], []
    for combo in itertools.product(*(range(m + 1) for m in demanded.ravel())):
        served = _actuation(view, np.reshape(combo, demanded.shape))
        recharges = planned_recharges(served, view, TARIFF, budget)
        thresholds = mid_band_thresholds(served, view, TARIFF, recharges)
        vectors.append(served)
        plans.append(ThresholdPlan(thresholds, recharges))
    results = sim.simulate_threshold_plans(
        plans, view, loads, TARIFF, [budget] * len(plans)
    )
    return max(
        r.psf
        for served, r in zip(vectors, results)
        if np.array_equal(r.actuation, served) and _keeps_the_margin(r, budget)
    )


def _case(seed):
    """One seeded instance: 1-4 loads, 1-3 days of 2-4 steps, detailed
    or limited, flat or noisy demand, and a zero, ample or partial
    budget. Load-days lose their demand until at most MAX_VECTORS count
    vectors remain."""
    rng = np.random.default_rng(seed)
    num_loads, days = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    steps = int(rng.choice([2, 3, 4]))
    grid = TimeGrid(24.0 / steps, steps, days)
    flat = seed % 2 == 0
    if flat:
        levels = rng.choice([100.0, 200.0, 250.0, 500.0], num_loads)
        power = np.repeat(levels[:, None], grid.total_steps, axis=1)
    else:
        power = rng.uniform(50.0, 1500.0, (num_loads, grid.total_steps))
    power *= rng.random(power.shape) < 0.7
    view = DemandSeries(grid, power)
    if seed % 3 == 0:
        view = to_limited(view)
    power = view.power.reshape(num_loads, days, steps).copy()
    while np.prod((power > 0).sum(axis=2) + 1) > MAX_VECTORS:
        busy = np.argwhere((power > 0).any(axis=2))
        k, d = busy[rng.integers(len(busy))]
        power[k, d] = 0.0
    view = DemandSeries(grid, power.reshape(num_loads, -1))
    loads = LoadSet.from_pairs(
        (f"l{k}", float(g)) for k, g in enumerate(rng.uniform(0.1, 1.0, num_loads))
    )
    return view, loads, compute_budget(view, TARIFF, _fraction(seed, rng))


def _fraction(seed, rng):
    """A zero, ample, half or random budget fraction, by the seed."""
    kind = seed % 5
    if kind == 2:
        return 0.5  # flat demand then often fills the wallet to 0.0 exactly
    return 0.0 if kind == 0 else 1.0 if kind == 1 else float(rng.uniform(0.2, 0.9))


def _tie_case(seed):
    """One seeded instance with ties across loads and days: 2-4 loads of
    one priority and one flat power over 2-3 days of 2-4 steps, every day
    a copy of the first, and a budget as in ``_case``. Steps lose their
    demand on every day until at most MAX_VECTORS count vectors remain."""
    rng = np.random.default_rng(seed)
    num_loads, days = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    steps = int(rng.choice([2, 3, 4]))
    grid = TimeGrid(24.0 / steps, steps, days)
    day = 250.0 * (rng.random((num_loads, steps)) < 0.7)
    while int(np.prod((day > 0).sum(axis=1) + 1)) ** days > MAX_VECTORS:
        busy = np.argwhere(day > 0)
        k, t = busy[rng.integers(len(busy))]
        day[k, t] = 0.0
    view = DemandSeries(grid, np.tile(day, days))
    loads = LoadSet.from_pairs((f"l{k}", 0.5) for k in range(num_loads))
    return view, loads, compute_budget(view, TARIFF, _fraction(seed, rng))


def _check_against_brute_force(view, loads, budget):
    plan, objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
    assert objective == pytest.approx(brute_force(view, loads, budget), abs=1e-9)
    result = sim.simulate_thresholds(plan, view, loads, TARIFF, budget)
    assert result.psf == pytest.approx(objective, abs=1e-9)
    assert _keeps_the_margin(result, budget)
    assert result.final_real_balance >= 0.0


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force(seed):
    _check_against_brute_force(*_case(seed))


@pytest.mark.parametrize("seed", range(20))
def test_ties_match_brute_force(seed):
    _check_against_brute_force(*_tie_case(seed))


def _days(view, loads):
    """Each day of ``view`` as ``_day_options`` takes it: its ``[load,
    step]`` demand and costs, and the loads' values per step."""
    n = view.grid.steps_per_day
    demanded = (view.power > 0).sum(axis=1)
    values = np.where(demanded > 0, loads.gammas / np.maximum(demanded, 1), 0.0)
    cost = TARIFF.alpha * view.grid.step_hours * view.power
    for d in range(view.grid.num_days):
        span = slice(d * n, (d + 1) * n)
        yield view.power[:, span], cost[:, span], values


def _spend_and_value(power, cost, values, counts):
    """A day's count vector summed as the merge sums it, load by load."""
    spend = value = 0.0
    for k in np.flatnonzero(power.any(axis=1)):
        prefix = np.concatenate(([0.0], np.cumsum(cost[k, power[k] > 0])))
        spend += float(prefix[counts[k]])
        value += counts[k] * values[k]
    return spend, value


@pytest.mark.parametrize(
    "case", [*((_case, s) for s in range(40)), *((_tie_case, s) for s in range(20))]
)
def test_day_options_are_the_staircase_of_every_count_vector(monkeypatch, case):
    """A day's options, merged whole or one option's pairs at a time,
    are the strict (spend, value) staircase of all its count vectors,
    and each option's counts give its spend and value."""
    make, seed = case
    view, loads, _ = make(seed)
    for power, cost, values in _days(view, loads):
        options = dfm._day_options(power, cost, values)
        limits = [int(m) for m in (power > 0).sum(axis=1)]
        points = {
            _spend_and_value(power, cost, values, counts)
            for counts in itertools.product(*(range(m + 1) for m in limits))
        }
        stair = sorted(
            (s, v)
            for s, v in points
            if not any((t <= s and w >= v) and (t, w) != (s, v) for t, w in points)
        )
        assert list(zip(options.spend.tolist(), options.value.tolist())) == stair
        for counts, s, v in zip(options.counts, options.spend, options.value):
            assert _spend_and_value(power, cost, values, counts) == (s, v)
        monkeypatch.setattr(dfm, "CHUNK", 2)
        chunked = dfm._day_options(power, cost, values)
        monkeypatch.undo()
        for name in ("spend", "value", "counts"):
            assert np.array_equal(getattr(chunked, name), getattr(options, name))


def test_matches_highs_where_highs_holds():
    """HiGHS on ``build_dfm`` is an oracle only where it reports an
    optimum whose own plan realizes its objective within the wallet
    rule; elsewhere it errs or sits on the 0.0 edge. The detailed cases
    of the corpus are compared where it holds, most of them."""
    pytest.importorskip("scipy")
    from highs_milp import solve_highs

    compared = 0
    for seed in [s for s in range(40) if s % 3 != 0][:12]:
        view, loads, budget = _case(seed)
        model = build_dfm(view, loads, TARIFF, budget)
        solution = solve_highs(model)
        if solution.status is not SolveStatus.OPTIMAL:
            continue
        plan = extract_plan(model, solution, view, TARIFF, budget)
        highs = sim.simulate_thresholds(plan, view, loads, TARIFF, budget)
        if abs(highs.psf - solution.objective) > 1e-9:
            continue
        if not _keeps_the_margin(highs, budget):
            continue
        _, objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
        assert objective == pytest.approx(solution.objective, abs=1e-9), seed
        compared += 1
    assert compared >= 6


def test_plans_keep_off_the_zero_edge():
    """Day 0's three 4 $ steps and day 1's two 2 $ steps cost the whole
    16 $ budget, so serving all five would leave the real wallet at
    exactly 0.0; the plan serves four."""
    grid = TimeGrid(8.0, 3, 2)
    view = DemandSeries(grid, [[500.0, 500.0, 500.0, 250.0, 250.0, 0.0]])
    loads = LoadSet.from_pairs([("x", 1.0)])
    budget = Budget(16.0)
    plan, objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
    result = sim.simulate_thresholds(plan, view, loads, TARIFF, budget)
    assert result.actuation.sum() == 4
    assert objective == pytest.approx(0.8) and result.psf == pytest.approx(0.8)
    assert result.final_real_balance >= 2.0
    assert objective == pytest.approx(brute_force(view, loads, budget), abs=1e-12)
    # On the edge: recharged for all five steps, thresholds of zero serve
    # them and empty the real wallet.
    served = np.array([[1, 1, 1, 1, 1, 0]], dtype=np.int8)
    recharges = planned_recharges(served, view, TARIFF, budget)
    edge = ThresholdPlan(np.zeros((1, 2)), recharges)
    edge_result = sim.simulate_thresholds(edge, view, loads, TARIFF, budget)
    assert np.array_equal(edge_result.actuation, served)
    assert edge_result.final_real_balance == 0.0


def test_known_days_serve_every_budget_and_view():
    view, loads, _ = _case(7)
    known = {}
    for fraction in (0.3, 0.6, 0.9):
        budget = compute_budget(view, TARIFF, fraction)
        plan, objective = dfm.plan_view(view, loads, TARIFF, [budget], known)[0]
        fresh, fresh_objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
        assert objective == fresh_objective
        assert np.array_equal(plan.thresholds, fresh.thresholds)
    # A shuffled view repeats every day, so it builds none.
    built = len(known)
    shuffled = shuffle_days(view, 5)
    plan, objective = dfm.plan_view(shuffled, loads, TARIFF, [budget], known)[0]
    assert len(known) == built
    fresh, fresh_objective = dfm.plan_view(shuffled, loads, TARIFF, [budget])[0]
    assert objective == fresh_objective
    assert np.array_equal(plan.thresholds, fresh.thresholds)


def test_work_bound(monkeypatch):
    view, loads, budget = _case(7)
    monkeypatch.setattr(dfm, "WORK_BOUND", 10)
    [error] = dfm.plan_view(view, loads, TARIFF, [budget])
    assert isinstance(error, dfm.DfmTooLarge)
    assert str(error) == "DFM needs more than 10 candidate pairs"


@pytest.mark.parametrize("work_bound", [None, 80])
def test_view_plans_match_single_budget_solves(monkeypatch, work_bound):
    """One ``plan_view`` over all of a view's budgets gives each budget
    the threshold, recharge and objective bits of a ``plan_view`` of that
    budget alone; under a lowered ``WORK_BOUND``, where some views solve
    some budgets and not others, it leaves the same budgets unsolved."""
    if work_bound is not None:
        monkeypatch.setattr(dfm, "WORK_BOUND", work_bound)
    mixed = 0
    for view, loads, _ in [*map(_case, range(40)), *map(_tie_case, range(40))]:
        budgets = [compute_budget(view, TARIFF, f) for f in (0.0, 0.3, 0.5, 0.7, 1.0)]
        plans = dfm.plan_view(view, loads, TARIFF, budgets)
        unsolved = [isinstance(plan, dfm.DfmTooLarge) for plan in plans]
        mixed += any(unsolved) and not all(unsolved)
        for budget, plan in zip(budgets, plans):
            [alone] = dfm.plan_view(view, loads, TARIFF, [budget])
            assert type(plan) is type(alone)
            if isinstance(alone, dfm.DfmTooLarge):
                assert str(plan) == str(alone)
                continue
            (plan, objective), (alone, alone_objective) = plan, alone
            assert plan.thresholds.tobytes() == alone.thresholds.tobytes()
            assert plan.recharges.tobytes() == alone.recharges.tobytes()
            assert objective.hex() == alone_objective.hex()
    assert mixed > 0 if work_bound else mixed == 0


@pytest.mark.parametrize("seed", [7, 13, 33])
def test_chunks_do_not_change_the_plan(monkeypatch, seed):
    view, loads, budget = _case(seed)
    plan, objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
    monkeypatch.setattr(dfm, "CHUNK", 5)
    chunked, chunked_objective = dfm.plan_view(view, loads, TARIFF, [budget])[0]
    assert chunked_objective == objective
    assert np.array_equal(chunked.thresholds, plan.thresholds)
