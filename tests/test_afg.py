import numpy as np
import pytest

import sim_reference
from prepaid_ems.afg import (
    EnablePlan,
    compute_recharges,
    compute_thresholds,
    max_durations,
    plan_view,
    solve_greedy,
)
from prepaid_ems.model import (
    BUDGET_MARGIN,
    THRESHOLD_MARGIN,
    Budget,
    DailyAverageDemand,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    TimeGrid,
    daily_average,
    effective_budget,
    pinned_off,
)
from prepaid_ems.sim import simulate_thresholds


@pytest.fixture
def worked():
    """2 loads, 1 day: priorities (0.7, 0.3), averages (100, 200) W,
    1 $/kWh, balance 3 $ -> durations (24 h, 3 h)."""
    loads = LoadSet.from_pairs([("heater", 0.7), ("pump", 0.3)])
    avg = DailyAverageDemand([[100.0], [200.0]])
    return loads, avg, Tariff(0.001), Budget(3.0)


def lp_optimum(avg, loads, tariff, budget):
    """Independent LP oracle for the enable-duration problem."""
    from scipy.optimize import linprog

    smax = np.where(avg.power > 0, 24.0, 0.0)
    cap = smax.sum(axis=1)
    c, w, bounds = [], [], []
    for k in range(len(loads)):
        if cap[k] == 0:
            continue
        for d in range(avg.power.shape[1]):
            if smax[k, d] == 0:
                continue
            c.append(-loads.gammas[k] / cap[k])
            w.append(tariff.alpha * avg.power[k, d])
            bounds.append((0.0, smax[k, d]))
    if not c:
        return 0.0
    res = linprog(
        c,
        A_ub=[w],
        b_ub=[effective_budget(budget)],
        bounds=bounds,
        method="highs",
    )
    assert res.success
    return -res.fun


def fractional_entry(plan):
    """The plan's one fractional (marginal) load-day, or None."""
    s, smax = plan.durations, plan.max_durations
    entries = np.argwhere((s > 0) & (s < smax))
    return tuple(int(i) for i in entries[0]) if len(entries) else None


def greedy_psf(plan, loads):
    cap = plan.max_durations.sum(axis=1)
    mask = cap > 0
    return float(
        (loads.gammas[mask] * plan.durations.sum(axis=1)[mask] / cap[mask]).sum()
    )


class TestMaxDurations:
    def test_zero_average_zero_cap(self):
        avg = DailyAverageDemand([[0.0, 50.0], [10.0, 0.0]])
        smax = max_durations(avg)
        assert smax.tolist() == [[0.0, 24.0], [24.0, 0.0]]

    def test_all_positive_all_day(self):
        avg = DailyAverageDemand(np.full((3, 4), 5.0))
        assert (max_durations(avg) == 24.0).all()


class TestSolveGreedy:
    def test_worked_example(self, worked):
        loads, avg, tariff, budget = worked
        plan = solve_greedy(avg, loads, tariff, budget)
        assert plan.durations[0, 0] == pytest.approx(24.0)
        assert plan.durations[1, 0] == pytest.approx(3.0, abs=1e-6)
        assert fractional_entry(plan) == (1, 0)
        assert greedy_psf(plan, loads) == pytest.approx(0.7375, abs=1e-6)

    def test_worked_example_matches_lp(self, worked):
        loads, avg, tariff, budget = worked
        plan = solve_greedy(avg, loads, tariff, budget)
        assert greedy_psf(plan, loads) == pytest.approx(
            lp_optimum(avg, loads, tariff, budget), abs=1e-9
        )

    def test_ample_budget_serves_everything(self, worked):
        loads, avg, tariff, _ = worked
        plan = solve_greedy(avg, loads, tariff, Budget(1000.0))
        assert np.array_equal(plan.durations, plan.max_durations)
        assert fractional_entry(plan) is None

    def test_zero_budget(self, worked):
        loads, avg, tariff, _ = worked
        plan = solve_greedy(avg, loads, tariff, Budget(0.0))
        assert plan.durations.sum() == 0.0

    def test_never_demanded_load_stays_zero(self):
        loads = LoadSet.from_pairs([("a", 0.9), ("b", 0.1)])
        avg = DailyAverageDemand([[100.0, 100.0], [0.0, 0.0]])
        plan = solve_greedy(avg, loads, Tariff(0.001), Budget(100.0))
        assert plan.durations[1].sum() == 0.0
        assert (plan.durations[0] == 24.0).all()

    def test_spend_within_budget(self):
        rng = np.random.default_rng(0)
        tariff = Tariff(0.001)
        for _ in range(50):
            k, d = rng.integers(1, 6), rng.integers(1, 6)
            avg = DailyAverageDemand(
                rng.uniform(0, 500, (k, d)) * (rng.random((k, d)) < 0.8)
            )
            loads = LoadSet.from_pairs(
                (f"l{i}", g) for i, g in enumerate(rng.uniform(0.05, 1, k))
            )
            budget = Budget(rng.uniform(0, 1) * 0.001 * 24 * avg.power.sum())
            plan = solve_greedy(avg, loads, tariff, budget)
            spend = 0.001 * (plan.durations * avg.power).sum()
            assert spend <= effective_budget(budget) + 1e-9
            fractional = (plan.durations > 0) & (
                plan.durations < plan.max_durations
            )
            assert fractional.sum() <= 1

    def test_exchange_property(self):
        # moving budget from a better ratio to a worse one cannot help
        rng = np.random.default_rng(4)
        tariff = Tariff(0.001)
        for _ in range(20):
            avg = DailyAverageDemand(rng.uniform(10, 500, (3, 3)))
            loads = LoadSet.from_pairs(
                (f"l{i}", g) for i, g in enumerate(rng.uniform(0.1, 1, 3))
            )
            budget = Budget(0.5 * 0.001 * 24 * avg.power.sum())
            plan = solve_greedy(avg, loads, tariff, budget)
            base = greedy_psf(plan, loads)
            cap = plan.max_durations.sum(axis=1)
            ratio = (loads.gammas[:, None] / cap[:, None]) / (
                tariff.alpha * avg.power
            )
            donors = np.argwhere(plan.durations > 1e-6)
            receivers = np.argwhere(plan.durations < plan.max_durations - 1e-6)
            for kd, kr in ((tuple(a), tuple(b)) for a in donors for b in receivers):
                if ratio[kd] <= ratio[kr]:
                    continue
                move = 0.001  # dollars shifted down the ranking
                s = plan.durations.copy()
                s[kd] -= move / (tariff.alpha * avg.power[kd])
                s[kr] += move / (tariff.alpha * avg.power[kr])
                if (s < 0).any() or (s > plan.max_durations).any():
                    continue
                swapped = float(
                    (loads.gammas * s.sum(axis=1) / cap).sum()
                )
                assert swapped <= base + 1e-12

    def test_runtime_scales_like_sorting(self):
        import time

        rng = np.random.default_rng(1)
        avg = DailyAverageDemand(rng.uniform(1, 500, (40, 250)))  # 10k items
        loads = LoadSet.from_pairs(
            (f"l{i}", g) for i, g in enumerate(rng.uniform(0.01, 1, 40))
        )
        budget = Budget(0.4 * 0.001 * 24 * avg.power.sum())
        start = time.monotonic()
        solve_greedy(avg, loads, Tariff(0.001), budget)
        assert time.monotonic() - start < 1.0


class TestRecharges:
    def test_worked_example(self, worked):
        loads, avg, tariff, budget = worked
        plan = solve_greedy(avg, loads, tariff, budget)
        recharges = compute_recharges(plan, avg, tariff)
        assert recharges[0] == pytest.approx(3.0, abs=1e-6)
        assert recharges.sum() <= effective_budget(budget) + 1e-12

    def test_zero_plan(self, worked):
        loads, avg, tariff, _ = worked
        plan = solve_greedy(avg, loads, tariff, Budget(0.0))
        assert compute_recharges(plan, avg, tariff).sum() == 0.0

    def test_identical_days_equal_recharges(self):
        loads = LoadSet.from_pairs([("a", 1.0)])
        avg = DailyAverageDemand([[150.0, 150.0]])
        plan = solve_greedy(avg, loads, Tariff(0.001), Budget(100.0))
        recharges = compute_recharges(plan, avg, Tariff(0.001))
        assert recharges[0] == pytest.approx(recharges[1])


class TestThresholds:
    def test_worked_example(self, worked):
        loads, avg, tariff, budget = worked
        plan = solve_greedy(avg, loads, tariff, budget)
        recharges = compute_recharges(plan, avg, tariff)
        tplan = compute_thresholds(plan, recharges, avg, tariff, 0.25)
        assert tplan.thresholds[0, 0] == 0.0
        # Both loads drain 0.3 $/h, 0.075 $ per 15-min step, from the 3 $
        # recharge. The pump's 3 h are 12 steps, so its threshold sits
        # mid-band between the balances after 12 and 11 steps:
        # 3.0 - 11.5 * 0.075 = 2.1375.
        assert tplan.thresholds[1, 0] == pytest.approx(2.1375, abs=1e-6)

    def test_fully_enabled_all_zero(self):
        loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.5)])
        avg = DailyAverageDemand([[100.0], [100.0]])
        plan = solve_greedy(avg, loads, Tariff(0.001), Budget(50.0))
        recharges = compute_recharges(plan, avg, Tariff(0.001))
        tplan = compute_thresholds(plan, recharges, avg, Tariff(0.001), 0.25)
        assert (tplan.thresholds == 0.0).all()

    def test_disabled_above_recharge(self):
        loads = LoadSet.from_pairs([("a", 0.9), ("b", 0.1)])
        # b is priced out entirely
        avg = DailyAverageDemand([[100.0], [10000.0]])
        tariff = Tariff(0.001)
        budget = Budget(2.4)
        plan = solve_greedy(avg, loads, tariff, budget)
        assert plan.durations[1, 0] == 0.0
        recharges = compute_recharges(plan, avg, tariff)
        tplan = compute_thresholds(plan, recharges, avg, tariff, 0.25)
        assert tplan.thresholds[1, 0] > recharges[0]

    def test_disabled_load_stays_off_after_carry_over(self):
        # a: 100 W both days, always funded. b: 100 W on day 0 (marginal,
        # 2.5 h planned), 400 W on day 1 (priced out). At 1-h steps b runs
        # 2 whole steps on day 0 and leaves 0.05 $ unspent, which carries
        # into day 1 above that day's own 2.4 $ recharge.
        loads = LoadSet.from_pairs([("a", 0.7), ("b", 0.3)])
        grid = TimeGrid(1.0, 24, 2)
        avg = DailyAverageDemand([[100.0, 100.0], [100.0, 400.0]])
        tariff = Tariff(0.001)
        budget = Budget(5.05)
        plan = solve_greedy(avg, loads, tariff, budget)
        assert fractional_entry(plan) == (1, 0)
        assert plan.durations[1, 1] == 0.0
        recharges = compute_recharges(plan, avg, tariff)
        tplan = compute_thresholds(plan, recharges, avg, tariff, grid.step_hours)
        truth = DemandSeries(grid, np.repeat(avg.power, grid.steps_per_day, axis=1))
        result = simulate_thresholds(tplan, truth, loads, tariff, budget)
        assert result.virtual_balance_trace[24] > recharges[1] + THRESHOLD_MARGIN
        assert result.actuation[1, :24].sum() == 2
        assert result.actuation[1, 24:].sum() == 0
        assert result.actuation[0].sum() == 48

    def test_marginal_threshold_in_range(self):
        rng = np.random.default_rng(9)
        tariff = Tariff(0.001)
        for _ in range(30):
            avg = DailyAverageDemand(rng.uniform(5, 400, (4, 3)))
            loads = LoadSet.from_pairs(
                (f"l{i}", g) for i, g in enumerate(rng.uniform(0.1, 1, 4))
            )
            budget = Budget(rng.uniform(0.2, 0.9) * 0.001 * 24 * avg.power.sum())
            plan = solve_greedy(avg, loads, tariff, budget)
            recharges = compute_recharges(plan, avg, tariff)
            tplan = compute_thresholds(plan, recharges, avg, tariff, 0.25)
            if fractional_entry(plan) is not None:
                k, d = fractional_entry(plan)
                assert 0.0 <= tplan.thresholds[k, d] <= recharges[d] + 1e-12


class TestPlanValidation:
    def test_enable_plan_rejects_two_fractionals(self):
        with pytest.raises(ValueError, match="fractional"):
            EnablePlan(np.array([[3.0, 5.0]]), np.array([[24.0, 24.0]]))

    def test_enable_plan_rejects_excess_duration(self):
        with pytest.raises(ValueError):
            EnablePlan(np.array([[25.0]]), np.array([[24.0]]))

    def test_threshold_plan_shape_checks(self):
        with pytest.raises(ValueError):
            ThresholdPlan(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            ThresholdPlan(np.zeros((2, 1)), np.array([-0.5]))



def afg_corpus():
    """Views and budgets: 1-10 loads over 1-30 days at steps of 1 h,
    4 h and 15 min; quantised powers and shared priorities, so ranks
    tie; a never-demanded load in some;
    zero, partial and ample budgets; and a budget that leaves the
    marginal load-day less than one step, so its count n is 0."""
    rng = np.random.default_rng(20241015)
    tariff = Tariff(0.00016)
    for _ in range(150):
        num_loads = int(rng.integers(1, 11))
        step_hours, steps = [(1.0, 24), (4.0, 6), (0.25, 96)][int(rng.integers(3))]
        grid = TimeGrid(step_hours, steps, int(rng.integers(1, 31)))
        power = np.zeros((num_loads, grid.total_steps))
        for k in range(num_loads):
            if k and rng.random() < 0.15:
                continue  # never demanded
            rated = float(rng.choice([150.0, 500.0, 1100.0, 1200.0]))
            on = rng.random(grid.total_steps) < rng.uniform(0.1, 1.0)
            level = np.round(rated * rng.uniform(0.5, 1.5, grid.total_steps), -2)
            power[k] = np.where(on, level, 0.0)
        gammas = rng.choice([0.1, 0.2, 0.3, 0.45], num_loads)
        loads = LoadSet.from_pairs((f"l{k}", float(g)) for k, g in enumerate(gammas))
        view = DemandSeries(grid, power)
        full = tariff.alpha * step_hours * power.sum()
        budgets = [Budget(full * f) for f in (0.0, 0.3, rng.uniform(0.1, 0.95), 2.0)]
        # Shrink a budget until its marginal load-day gets 0.3 of a step.
        avg = daily_average(view)
        plan = sim_reference.solve_greedy(avg, loads, tariff, budgets[2])
        if fractional_entry(plan) is not None:
            k, d = fractional_entry(plan)
            extra = plan.durations[k, d] - 0.3 * step_hours
            if extra > 0:
                spare = tariff.alpha * avg.power[k, d] * extra / (1 - BUDGET_MARGIN)
                budgets.append(Budget(budgets[2].initial_balance - spare))
        yield view, loads, tariff, budgets


def test_view_plans_match_the_item_loops():
    """``plan_view``, ``solve_greedy`` and ``compute_thresholds`` give
    the bytes of the item-by-item pass and the load-day loop they
    replaced (``sim_reference``), on every budget of every view."""
    cells = marginal = disabled_marginal = 0
    for view, loads, tariff, budgets in afg_corpus():
        avg, step_hours = daily_average(view), view.grid.step_hours
        plans = plan_view(view, loads, tariff, budgets)
        for budget, (thresholds, planned) in zip(budgets, plans):
            want = sim_reference.solve_greedy(avg, loads, tariff, budget)
            plan = solve_greedy(avg, loads, tariff, budget)
            assert plan.durations.tobytes() == want.durations.tobytes()
            recharges = compute_recharges(want, avg, tariff)
            want_plan = sim_reference.compute_thresholds(
                want, recharges, avg, tariff, step_hours
            )
            got_plan = compute_thresholds(plan, recharges, avg, tariff, step_hours)
            for got in (got_plan, thresholds):
                assert got.thresholds.tobytes() == want_plan.thresholds.tobytes()
                assert got.recharges.tobytes() == recharges.tobytes()
            assert planned.hex() == greedy_psf(want, loads).hex()
            cells += 1
            if fractional_entry(want) is not None:
                k, d = fractional_entry(want)
                marginal += 1
                disabled_marginal += (
                    want_plan.thresholds[k, d] == pinned_off(recharges)[d]
                )
    assert cells > 700 and marginal > 400 and disabled_marginal > 100
