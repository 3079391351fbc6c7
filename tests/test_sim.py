import dataclasses
import os

import numpy as np
import pytest

import sim_reference
from conftest import assert_sim_invariants, constant_series
from prepaid_ems import afg, files, sim
from prepaid_ems.milp.grid_search import CHUNK, solve_dfm_grid
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    TimeGrid,
    compute_budget,
    daily_average,
    demand_indicator,
)
from prepaid_ems.sim import (
    ShapeMismatch,
    SimResult,
    simulate_baseline,
    simulate_schedule,
    simulate_schedules,
    simulate_threshold_plans,
    simulate_thresholds,
    write_trace_csv,
    write_trace_csvs,
)


def afg_plan(avg, loads, tariff, budget, step_hours):
    plan = afg.solve_greedy(avg, loads, tariff, budget)
    recharges = afg.compute_recharges(plan, avg, tariff)
    return plan, afg.compute_thresholds(plan, recharges, avg, tariff, step_hours)


class TestSimulateThresholds:
    def test_worked_closed_loop(self, two_loads, tariff):
        # constant daily-average truth at 15-min steps: heater runs all 96
        # steps, pump exactly 12 (3 h), wallet ends non-negative
        avg = daily_average(
            constant_series(TimeGrid(0.25, 96, 1), [100.0, 200.0])
        )
        budget = Budget(3.0)
        _, tplan = afg_plan(avg, two_loads, tariff, budget, 0.25)
        truth = constant_series(TimeGrid(0.25, 96, 1), [100.0, 200.0])
        result = simulate_thresholds(tplan, truth, two_loads, tariff, budget)
        assert result.actuation[0].sum() == 96
        assert result.actuation[1].sum() == 12
        assert result.final_real_balance >= 0.0
        assert result.psf == pytest.approx(0.7375, abs=1e-6)
        assert_sim_invariants(result, truth, two_loads, tariff, budget)

    def test_zero_thresholds_full_recharge_serves_all(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 2)
        truth = constant_series(grid, [100.0, 50.0])
        total_cost = tariff.alpha * grid.step_hours * truth.power.sum()
        budget = Budget(2 * total_cost)
        tplan = ThresholdPlan(np.zeros((2, 2)), np.full(2, total_cost))
        result = simulate_thresholds(tplan, truth, two_loads, tariff, budget)
        assert np.array_equal(result.actuation, demand_indicator(truth))
        assert result.disconnection_days == 0

    def test_threshold_above_recharge_never_actuates(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 1)
        truth = constant_series(grid, [100.0, 50.0])
        budget = Budget(100.0)
        tplan = ThresholdPlan(np.array([[0.0], [5.0 + 1e-4]]), np.array([5.0]))
        result = simulate_thresholds(tplan, truth, two_loads, tariff, budget)
        assert result.actuation[1].sum() == 0
        assert result.actuation[0].sum() == 24

    def test_plan_shape_mismatch(self, two_loads, tariff):
        truth = constant_series(TimeGrid(1.0, 24, 2), [100.0, 50.0])
        tplan = ThresholdPlan(np.zeros((2, 1)), np.array([1.0]))
        with pytest.raises(ShapeMismatch):
            simulate_thresholds(tplan, truth, two_loads, tariff, Budget(1.0))

    def test_latching_keeps_disabled_loads_off(self, two_loads, tariff):
        # pump's threshold trips mid-day; once off it must stay off even
        # though the balance never dips further (constant drain)
        grid = TimeGrid(1.0, 24, 1)
        truth = constant_series(grid, [100.0, 200.0])
        budget = Budget(3.0)
        avg = daily_average(truth)
        _, tplan = afg_plan(avg, two_loads, tariff, budget, grid.step_hours)
        result = simulate_thresholds(tplan, truth, two_loads, tariff, budget)
        on = result.actuation[1]
        first_off = int(np.argmin(on)) if 0 in on else len(on)
        assert on[first_off:].sum() == 0  # prefix pattern

    def test_virtual_trace_recharges_at_day_start(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 2)
        truth = constant_series(grid, [0.0, 0.0])
        tplan = ThresholdPlan(np.full((2, 2), 99.0), np.array([1.5, 2.5]))
        result = simulate_thresholds(tplan, truth, two_loads, tariff, Budget(4.0))
        assert result.virtual_balance_trace[0] == pytest.approx(1.5)
        assert result.virtual_balance_trace[24] == pytest.approx(4.0)


class TestSimulateSchedule:
    def test_full_schedule_full_budget(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 1)
        truth = constant_series(grid, [100.0, 50.0])
        budget = compute_budget(truth, tariff, 1.0)
        d = demand_indicator(truth)
        result = simulate_schedule(d, truth, two_loads, tariff, budget)
        assert np.allclose(result.sf, 1.0)
        assert result.disconnection_days == 0
        assert_sim_invariants(result, truth, two_loads, tariff, budget)

    def test_scheduling_idle_slots_costs_nothing(self, two_loads, tariff):
        grid = TimeGrid(12.0, 2, 1)
        truth = DemandSeries(grid, [[100.0, 0.0], [0.0, 0.0]])
        schedule = np.ones((2, 2), dtype=np.int8)
        budget = Budget(10.0)
        result = simulate_schedule(schedule, truth, two_loads, tariff, budget)
        assert result.total_spend == pytest.approx(0.001 * 12 * 100)
        assert result.actuation.sum() == 1

    def test_shape_mismatch(self, two_loads, tariff):
        truth = constant_series(TimeGrid(1.0, 24, 1), [100.0, 50.0])
        with pytest.raises(ShapeMismatch):
            simulate_schedule(
                np.ones((2, 5)), truth, two_loads, tariff, Budget(1.0)
            )
        with pytest.raises(ShapeMismatch):
            simulate_schedule(
                np.full((2, 24), 2), truth, two_loads, tariff, Budget(1.0)
            )


class TestSimulateBaseline:
    def test_full_budget_serves_everything(self, two_loads, tariff):
        grid = TimeGrid(0.25, 96, 3)
        rng = np.random.default_rng(2)
        truth = DemandSeries(
            grid, rng.uniform(0, 800, (2, grid.total_steps)) * (rng.random((2, grid.total_steps)) < 0.5)
        )
        budget = compute_budget(truth, tariff, 1.0)
        result = simulate_baseline(truth, two_loads, tariff, budget)
        assert np.array_equal(result.actuation, demand_indicator(truth))
        assert result.disconnection_days == 0
        assert_sim_invariants(result, truth, two_loads, tariff, budget)

    def test_hand_stepped_disconnection(self, tariff):
        # one load at 1 $/h demanded around the clock for 2 days, 5 $
        # balance: served hours 0-4, disconnected from hour 5, day 2 dark
        loads = LoadSet.from_pairs([("x", 1.0)])
        grid = TimeGrid(1.0, 24, 2)
        truth = constant_series(grid, [1000.0])
        budget = Budget(5.0)
        result = simulate_baseline(truth, loads, tariff, budget)
        assert result.actuation[0].sum() == 5
        assert result.first_disconnect_step == 5
        assert result.disconnection_days == 1
        assert_sim_invariants(result, truth, loads, tariff, budget)

    def test_negative_zero_demand_spends_positive_zero(self, two_loads, tariff):
        # -0.0 W is never served, but it enters each step's cost as -0.0;
        # a run that paid nothing still spends 0.0, as the step loop does.
        truth = constant_series(TimeGrid(6.0, 4, 2), [-0.0, -0.0])
        plan = ThresholdPlan(np.zeros((2, 2)), np.ones(2))
        for result, reference in (
            (
                simulate_baseline(truth, two_loads, tariff, Budget(1.0)),
                sim_reference.simulate_schedule(
                    np.ones((2, 8), dtype=np.int8),
                    truth,
                    two_loads,
                    tariff,
                    Budget(1.0),
                ),
            ),
            (
                simulate_thresholds(plan, truth, two_loads, tariff, Budget(1.0)),
                sim_reference.simulate_thresholds(
                    plan, truth, two_loads, tariff, Budget(1.0)
                ),
            ),
        ):
            assert result.total_spend.hex() == (0.0).hex()
            assert_bit_identical(result, reference)

    def test_zero_demand_never_disconnects(self, two_loads, tariff):
        truth = constant_series(TimeGrid(1.0, 24, 2), [0.0, 0.0])
        result = simulate_baseline(truth, two_loads, tariff, Budget(1.0))
        assert result.total_spend == 0.0
        assert result.first_disconnect_step is None
        assert np.isnan(result.sf).all()
        assert result.psf == 0.0

    def test_monotone_in_budget(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 2)
        rng = np.random.default_rng(8)
        truth = DemandSeries(grid, rng.uniform(0, 500, (2, grid.total_steps)))
        last = -1.0
        for balance in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            result = simulate_baseline(truth, two_loads, tariff, Budget(balance))
            assert result.psf >= last - 1e-12
            last = result.psf


def runs_cut_at(num_days, balances):
    """Runs of one load costing 1 $ a step around the clock, one per
    initial balance ``b``, so that each is cut at step ``b``: a stack of
    schedules that serve every step, and a stack of threshold plans whose
    virtual wallet never trips."""
    loads = LoadSet.from_pairs([("x", 1.0)])
    truth = constant_series(TimeGrid(1.0, 24, num_days), [1000.0])
    tariff = Tariff(0.001)
    budgets = [Budget(b) for b in balances]
    schedule = np.ones_like(truth.power, dtype=np.int8)
    plan = ThresholdPlan(np.zeros((1, num_days)), np.full(num_days, 24.0))
    return [
        simulate_schedules([schedule] * len(budgets), truth, loads, tariff, budgets),
        simulate_threshold_plans([plan] * len(budgets), truth, loads, tariff, budgets),
    ]


class TestDisconnectionDays:
    def test_positive_trace(self):
        for (result,) in runs_cut_at(3, [100.0]):
            assert (result.real_balance_trace > 0).all()
            assert result.disconnection_days == 0
            assert result.first_disconnect_step is None

    def test_noon_day_13_of_30(self):
        for (result,) in runs_cut_at(30, [12 * 24 + 12]):
            assert (result.real_balance_trace[: 12 * 24 + 12] > 0).all()
            assert result.disconnection_days == 17
            assert result.first_disconnect_step == 12 * 24 + 12
        # In a stack, next to a run that is never cut, one cut at step 0,
        # and cuts at the first and second steps of day 13.
        for stack in runs_cut_at(30, [300.0, 1000.0, 0.0, 288.0, 289.0]):
            assert [r.disconnection_days for r in stack] == [17, 0, 30, 18, 17]
            assert [r.first_disconnect_step for r in stack] == [300, None, 0, 288, 289]

    def test_flat_zero(self):
        for (result,) in runs_cut_at(4, [0.0]):
            assert not result.real_balance_trace.any()
            assert result.disconnection_days == 4
            assert result.first_disconnect_step == 0


class TestInvariantsAcrossPolicies:
    def test_money_conservation_random_battery(self, two_loads, tariff):
        rng = np.random.default_rng(5)
        for trial in range(20):
            grid = TimeGrid(1.0, 24, int(rng.integers(1, 4)))
            power = rng.uniform(0, 1200, (2, grid.total_steps))
            power *= rng.random((2, grid.total_steps)) < 0.6
            truth = DemandSeries(grid, power)
            budget = compute_budget(truth, tariff, float(rng.uniform(0.2, 1.0)))
            baseline = simulate_baseline(truth, two_loads, tariff, budget)
            assert_sim_invariants(baseline, truth, two_loads, tariff, budget)
            avg = daily_average(truth)
            _, tplan = afg_plan(avg, two_loads, tariff, budget, grid.step_hours)
            threshold = simulate_thresholds(tplan, truth, two_loads, tariff, budget)
            assert_sim_invariants(threshold, truth, two_loads, tariff, budget)
            schedule = (rng.random(power.shape) < 0.5).astype(np.int8)
            scheduled = simulate_schedule(schedule, truth, two_loads, tariff, budget)
            assert_sim_invariants(scheduled, truth, two_loads, tariff, budget)


def test_trace_csv(tmp_path, two_loads, tariff):
    grid = TimeGrid(1.0, 24, 1)
    truth = constant_series(grid, [100.0, 50.0])
    budget = compute_budget(truth, tariff, 0.5)
    result = simulate_baseline(truth, two_loads, tariff, budget)
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(result, two_loads, trace_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "t,real_balance,virtual_balance,a_heater,a_pump"
    assert len(lines) == 25
    tplan = ThresholdPlan(np.array([[0.0], [0.2]]), np.array([0.9]))
    for run in (result, simulate_thresholds(tplan, truth, two_loads, tariff, budget)):
        write_trace_csv(run, two_loads, trace_path)
        with open(trace_path, newline="") as fh:
            assert fh.read() == sim_reference.trace_csv_text(run, two_loads)


def assert_bit_identical(result, reference):
    for field in dataclasses.fields(SimResult):
        got, want = getattr(result, field.name), getattr(reference, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        elif isinstance(want, float):
            assert float(got).hex() == want.hex(), field.name
        else:
            assert got == want, field.name


def random_instance(rng):
    """1-7 loads, 2/4/24/96 steps a day, 1-5 days, flat demand tied
    across loads or noisy demand, and a budget from zero to more than
    the demand costs."""
    num_loads = int(rng.integers(1, 8))
    steps_per_day = int(rng.choice([2, 4, 24, 96]))
    grid = TimeGrid(24.0 / steps_per_day, steps_per_day, int(rng.integers(1, 6)))
    if rng.random() < 0.3:
        levels = rng.choice([0.0, 100.0, 250.0], num_loads)
        truth = constant_series(grid, levels)
    else:
        power = rng.uniform(0, 1500, (num_loads, grid.total_steps))
        truth = DemandSeries(grid, power * (rng.random(power.shape) < rng.random()))
    loads = LoadSet.from_pairs(
        (f"l{k}", float(g)) for k, g in enumerate(rng.uniform(0.1, 1.0, num_loads))
    )
    tariff = Tariff(0.001)
    fraction = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.2))
    budget = Budget(fraction * tariff.alpha * grid.step_hours * float(truth.power.sum()))
    return truth, loads, tariff, budget


def random_threshold_plans(rng, truth, loads, tariff, budget):
    """An AFG plan, a grid-style plan and a random plan."""
    grid = truth.grid
    avg = daily_average(truth)
    _, greedy = afg_plan(avg, loads, tariff, budget, grid.step_hours)
    shape = (truth.num_loads, grid.num_days)
    recharge = budget.initial_balance / grid.num_days
    levels = np.array([0.0, recharge / 2, recharge, recharge + 1e-6])
    grid_style = ThresholdPlan(
        levels[rng.integers(0, 4, shape)], np.full(grid.num_days, recharge)
    )
    recharges = rng.uniform(0, 2 * recharge + 1e-3, grid.num_days)
    random_plan = ThresholdPlan(
        rng.uniform(0, 1.5 * recharges.max(), shape), recharges
    )
    return [greedy, grid_style, random_plan]


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_step_loop_bit_for_bit(seed):
    rng = np.random.default_rng(9100 + seed)
    for _ in range(40):
        truth, loads, tariff, budget = random_instance(rng)
        for plan in random_threshold_plans(rng, truth, loads, tariff, budget):
            result = simulate_thresholds(plan, truth, loads, tariff, budget)
            for latching in (True, False):
                assert_bit_identical(
                    result,
                    sim_reference.simulate_thresholds(
                        plan, truth, loads, tariff, budget, latching=latching
                    ),
                )
        schedule = (rng.random(truth.power.shape) < rng.random()).astype(np.int8)
        assert_bit_identical(
            simulate_schedule(schedule, truth, loads, tariff, budget),
            sim_reference.simulate_schedule(schedule, truth, loads, tariff, budget),
        )
        assert_bit_identical(
            simulate_baseline(truth, loads, tariff, budget),
            sim_reference.simulate_schedule(
                np.ones_like(truth.power, dtype=np.int8), truth, loads, tariff, budget
            ),
        )


def stack_instances(rng):
    """``(instance, step_loop_agrees)`` pairs for the stacked-pass
    identity: random instances (1-7 loads), a zero budget, a small
    instance the DFM grid solves, and 9 loads, where numpy sums one-step
    spans pairwise. The step loop sums the served loads with
    ``ndarray.sum``, pairwise from 8 on, so on 9 loads it joins only on
    whole-watt demand, which sums exactly in any order."""
    for _ in range(10):
        yield random_instance(rng), True
    truth, loads, tariff, _ = random_instance(rng)
    yield (truth, loads, tariff, Budget(0.0)), True
    grid = TimeGrid(6.0, 4, 2)
    power = rng.uniform(0, 1500, (2, grid.total_steps))
    truth = DemandSeries(grid, power)
    loads = LoadSet.from_pairs([("a", 0.7), ("b", 0.3)])
    tariff = Tariff(0.001)
    yield (truth, loads, tariff, compute_budget(truth, tariff, 0.7)), True
    loads = LoadSet.from_pairs(
        (f"l{k}", float(g)) for k, g in enumerate(rng.uniform(0.1, 1.0, 9))
    )
    for steps_per_day in (1, 24):
        grid = TimeGrid(24.0 / steps_per_day, steps_per_day, 3)
        noisy = rng.uniform(0, 1500, (9, grid.total_steps))
        noisy *= rng.random(noisy.shape) < 0.8
        for power, exact in ((noisy, False), (np.floor(noisy), True)):
            truth = DemandSeries(grid, power)
            yield (truth, loads, tariff, compute_budget(truth, tariff, 0.6)), exact


def day_zero_plans(truth, tariff, budget):
    """Two plans with every threshold 0 and all their recharge on day 0.
    One recharges the budget, so its virtual wallet is the real one and
    every load trips as the real balance falls below 0; the other also
    recharges what all demand costs, so no load trips before the real
    wallet runs out."""
    demand_cost = tariff.alpha * truth.grid.step_hours * float(truth.power.sum())
    plans = []
    for extra in (0.0, demand_cost):
        recharges = np.zeros(truth.grid.num_days)
        recharges[0] = budget.initial_balance + extra
        thresholds = np.zeros((truth.num_loads, len(recharges)))
        plans.append(ThresholdPlan(thresholds, recharges))
    return plans


def disconnect_cases(plan, truth, budget, result):
    """The disconnection cases a threshold plan's run shows."""
    cases = ["zero_budget"] if budget.initial_balance == 0 else []
    t = result.first_disconnect_step
    if t is None:
        return cases
    day, start = divmod(t, truth.grid.steps_per_day)
    # The virtual balance only falls within a day: a load is still on at
    # t if the balance then is at or above its threshold.
    enabled = result.virtual_balance_trace[t] >= plan.thresholds[:, day]
    if start == 0:
        cases.append("cut_at_day_start")
    elif enabled.any():
        cases.append("cut_while_on")
    else:
        cases.append("cut_after_all_off")
    if (plan.recharges[day + 1 :] > 0).any():
        cases.append("recharge_after_cut")
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_stacked_pass_matches_one_plan_and_step_loop(seed):
    """Every result of a stacked pass is bit for bit the one-plan call's
    and the step loop's: AFG, DFM-grid and random threshold plans share
    one pass, the baseline and random schedules another, with the same
    budget for every plan and with a different budget per plan. The
    threshold plans the step loop checks must disconnect in each of the
    ways the kernel settles apart: mid-day with a load on, mid-day after
    every load is off, at a day's first step, from a zero budget, and
    before a later day's positive recharge."""
    rng = np.random.default_rng(9300 + seed)
    balance_rng = np.random.default_rng(9400 + seed)
    covered = dict.fromkeys(
        [
            "dfm",
            "mid_day_disconnect",
            "cut_while_on",
            "cut_after_all_off",
            "cut_at_day_start",
            "zero_budget",
            "recharge_after_cut",
        ],
        0,
    )
    for (truth, loads, tariff, budget), exact in stack_instances(rng):
        plans = random_threshold_plans(rng, truth, loads, tariff, budget)
        plans += day_zero_plans(truth, tariff, budget)
        if truth.num_loads * truth.grid.num_days <= 4:
            plans.insert(1, solve_dfm_grid(truth, loads, tariff, budget, 2)[0])
            covered["dfm"] += 1
        schedules = [np.ones_like(truth.power, dtype=np.int8)]
        for _ in range(2):
            on = rng.random(truth.power.shape) < rng.random()
            schedules.append(on.astype(np.int8))
        stacked = simulate_threshold_plans(
            plans, truth, loads, tariff, [budget] * len(plans)
        )
        for plan, result in zip(plans, stacked, strict=True):
            assert_bit_identical(
                result, simulate_thresholds(plan, truth, loads, tariff, budget)
            )
            if exact:
                reference = sim_reference.simulate_thresholds(
                    plan, truth, loads, tariff, budget
                )
                assert_bit_identical(result, reference)
                for case in disconnect_cases(plan, truth, budget, result):
                    covered[case] += 1
        stacked = simulate_schedules(
            schedules, truth, loads, tariff, [budget] * len(schedules)
        )
        for schedule, result in zip(schedules, stacked, strict=True):
            assert_bit_identical(
                result, simulate_schedule(schedule, truth, loads, tariff, budget)
            )
            if exact:
                reference = sim_reference.simulate_schedule(
                    schedule, truth, loads, tariff, budget
                )
                assert_bit_identical(result, reference)
            step = result.first_disconnect_step
            if step is not None and step % truth.grid.steps_per_day > 0:
                covered["mid_day_disconnect"] += 1
        # Each plan with its own initial balance, one of them empty, as
        # the budget fractions of a sweep share one pass.
        scale = max(budget.initial_balance, 1e-3)
        for stack, many, one in (
            (plans, simulate_threshold_plans, simulate_thresholds),
            (schedules, simulate_schedules, simulate_schedule),
        ):
            budgets = [Budget(0.0)] + [
                Budget(float(balance_rng.uniform(0.1, 1.5)) * scale)
                for _ in stack[1:]
            ]
            stacked = many(stack, truth, loads, tariff, budgets)
            for plan, own, result in zip(stack, budgets, stacked, strict=True):
                assert_bit_identical(result, one(plan, truth, loads, tariff, own))
            with pytest.raises(ShapeMismatch):
                many(stack, truth, loads, tariff, budgets[1:])
    assert min(covered.values()) > 0, covered


@pytest.mark.parametrize(
    "seed, num_loads, steps_per_day, num_days, resolution",
    [
        (0, 1, 4, 2, 3),
        (1, 2, 24, 1, 2),
        (2, 2, 2, 2, 3),  # 625 combinations: more than one batch
        (3, 3, 4, 1, 2),
    ],
)
def test_dfm_grid_matches_step_loop_enumeration(
    seed, num_loads, steps_per_day, num_days, resolution
):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(24.0 / steps_per_day, steps_per_day, num_days)
    power = rng.uniform(0, 1500, (num_loads, grid.total_steps))
    truth = DemandSeries(grid, power * (rng.random(power.shape) < 0.7))
    loads = LoadSet.from_pairs(
        (f"l{k}", float(g)) for k, g in enumerate(rng.uniform(0.1, 1.0, num_loads))
    )
    tariff = Tariff(0.001)
    budget = compute_budget(truth, tariff, float(rng.uniform(0.3, 0.9)))
    plan, objective = solve_dfm_grid(truth, loads, tariff, budget, resolution)
    thresholds, best_psf, _ = sim_reference.solve_dfm_grid(
        truth, loads, tariff, budget, resolution
    )
    assert plan.thresholds.tobytes() == thresholds.tobytes()
    assert objective.hex() == best_psf.hex()


def test_dfm_grid_tie_keeps_first_combination(tariff):
    # The spike, demanded on day 0 only, is unaffordable, so the best
    # plans pin it off; base and fan then run all day under several
    # thresholds alike; the tied plans straddle a batch boundary.
    loads = LoadSet.from_pairs([("base", 0.6), ("spike", 0.3), ("fan", 0.1)])
    grid = TimeGrid(6.0, 4, 2)
    truth = DemandSeries(
        grid, [[100.0] * 8, [5000.0] * 4 + [0.0] * 4, [50.0] * 8]
    )
    budget = Budget(12.0)
    plan, objective = solve_dfm_grid(truth, loads, tariff, budget, 3)
    thresholds, best_psf, ties = sim_reference.solve_dfm_grid(
        truth, loads, tariff, budget, 3
    )
    assert ties[0] < CHUNK <= ties[-1]
    assert plan.thresholds.tobytes() == thresholds.tobytes()
    assert objective.hex() == best_psf.hex()



def _traced(actuation, real, virtual):
    """A SimResult carrying only what the trace writer reads."""
    num_loads = actuation.shape[0]
    return SimResult(
        actuation=actuation,
        real_balance_trace=real,
        virtual_balance_trace=virtual,
        final_real_balance=0.0,
        sf=np.full(num_loads, np.nan),
        psf=0.0,
        total_spend=0.0,
        disconnection_days=0,
        first_disconnect_step=None,
    )


def _trace_corpus():
    """SimResults whose traces stress the writer: 1-7 loads, schedule
    results (no virtual wallet), long runs of equal balances, 0.0 next to
    -0.0, negative balances and one-step horizons."""
    pool = [0.0, -0.0, 1.5, -0.25, 0.1 + 0.2, -1e-17, 123456.789, 5e-324]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        num_loads = 1 + seed % 7
        total = 1 if seed % 5 == 0 else int(rng.integers(2, 400))

        def trace():
            runs = rng.integers(1, 60, total)  # run lengths, long ones too
            values = np.where(
                rng.random(total) < 0.5,
                rng.choice(pool, total),
                rng.normal(0.0, 10.0, total),
            )
            return np.repeat(values, runs)[:total]

        actuation = (rng.random((num_loads, total)) < 0.5).astype(np.int8)
        schedule = seed % 3 == 0
        yield _traced(actuation, trace(), None if schedule else trace())
    signed = np.array([0.0, -0.0, -0.0, 0.0, -0.0])
    yield _traced(np.ones((2, 5), dtype=np.int8), signed, signed[::-1].copy())


def test_trace_writer_matches_oracle(tmp_path):
    path = tmp_path / "trace.csv"
    for result in _trace_corpus():
        num_loads = result.actuation.shape[0]
        loads = LoadSet.from_pairs(
            (f"load{k}", 1.0 / num_loads) for k in range(num_loads)
        )
        write_trace_csv(result, loads, path)
        assert path.read_bytes() == sim_reference.trace_csv_text(
            result, loads
        ).encode()


def test_trace_group_matches_oracle(tmp_path):
    """Results formatted together share balance texts at the same step
    and across steps; every file is still the row-by-row writer's, with
    0.0 and -0.0 at one step each keeping their own text. A result
    listed twice, and a bit-equal copy of it, are one file with several
    names; a copy with a -0.0 for a 0.0 is a file of its own."""
    rng = np.random.default_rng(77)
    total = 300
    base = np.repeat(rng.normal(0.0, 10.0, total), rng.integers(1, 9, total))[:total]
    same_step = base.copy()
    same_step[::7] = rng.normal(0.0, 10.0, len(same_step[::7]))
    shifted = np.roll(base, 13)  # the same values at other steps
    signed = base.copy()
    signed[40:60] = 0.0
    flipped = signed.copy()
    flipped[40:60:3] = -0.0
    on = (rng.random((3, total)) < 0.5).astype(np.int8)
    shared = _traced(on, signed, None)
    one_sign = signed.copy()
    one_sign[41] = -0.0
    results = [
        _traced(on, base, same_step),
        shared,
        _traced(1 - on, shifted, None),
        _traced(on[::-1].copy(), flipped, signed),
        _traced(on, same_step, flipped),
        shared,
        _traced(on.copy(), signed.copy(), None),
        _traced(on, one_sign, None),
    ]
    loads = LoadSet.from_pairs([("a", 0.5), ("b,c", 0.3), ("Küche", 0.2)])
    paths = [tmp_path / f"trace{i}.csv" for i in range(len(results))]
    write_trace_csvs(sim.trace_groups(results, paths), loads)
    expected = tmp_path / "expected.csv"
    for result, path in zip(results, paths):
        # The text encoded as a file opened for writing text encodes it.
        with open(expected, "w", newline="") as fh:
            fh.write(sim_reference.trace_csv_text(result, loads))
        assert path.read_bytes() == expected.read_bytes()
    assert os.path.samefile(paths[1], paths[5])
    assert os.path.samefile(paths[1], paths[6])
    assert not os.path.samefile(paths[1], paths[7])


def test_group_formats_each_bit_pattern_once(tmp_path, monkeypatch):
    """The balances of a group go to the formatter once per distinct bit
    pattern, whatever step and trace they occur at; 0.0 and -0.0 at the
    same step keep their own text. Results with equal traces are built
    into bytes once and handed over as one file with a twin."""
    formatted = []
    format_all = sim.repr_bytes

    def recording(values):
        formatted.append(values.copy())
        return format_all(values)

    monkeypatch.setattr(sim, "repr_bytes", recording)
    runs = np.repeat([1.5, 0.1 + 0.2, 1.5, -0.25, 0.0], [3, 2, 4, 1, 2])
    signed = runs.copy()
    signed[-1] = -0.0
    on = np.ones((2, len(runs)), dtype=np.int8)
    results = [
        _traced(on, runs, runs[::-1].copy()),
        _traced(on, signed, runs),
        _traced(on.copy(), runs.copy(), runs[::-1].copy()),
    ]
    loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.5)])
    paths = [tmp_path / "zero.csv", tmp_path / "signed.csv", tmp_path / "copy.csv"]
    handed = []

    def write(path, chunks, twins):
        handed.append((path, list(twins)))
        files.write_file(path, chunks, twins)

    write_trace_csvs(sim.trace_groups(results, paths), loads, write)
    (values,) = formatted
    patterns = values.view(np.int64).tolist()
    assert len(set(patterns)) == len(patterns)
    assert set(patterns) == set(np.concatenate([runs, signed]).view(np.int64).tolist())
    assert handed == [(paths[2], [paths[0]]), (paths[1], [])]
    last = [path.read_text().splitlines()[-1].split(",")[1] for path in paths]
    assert last == ["0.0", "-0.0", "0.0"]
