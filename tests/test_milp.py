import functools
import operator

import numpy as np
import pytest

from conftest import constant_series
from lp_text import format_lp, parse_lp
from milp_reference import (
    MissingVariable,
    build_dfm,
    check_feasibility,
    extract_thresholds,
)
from prepaid_ems.afg import ThresholdPlan
from prepaid_ems.dfm import dfm_recharges
from prepaid_ems.forecast import ApplianceProfile, synth_household
from prepaid_ems.milp import (
    InstanceTooLarge,
    MilpModel,
    Solution,
    SolveStatus,
    StructureMismatch,
    build_obm,
    extract_schedule,
    solve_dfm_grid,
    solve_knapsack_bb,
)
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    demand_indicator,
)
from prepaid_ems.sim import simulate_thresholds

@pytest.fixture
def one_load():
    return LoadSet.from_pairs([("x", 1.0)])


def three_step_obm(budget=2.0):
    loads = LoadSet.from_pairs([("x", 1.0)])
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((1, 24))
    power[0, :3] = 1000.0
    demand = DemandSeries(grid, power)
    return build_obm(demand, loads, Tariff(0.001), Budget(budget)), demand, loads


def knapsack_model(values, weights, capacity):
    model = MilpModel()
    for i in range(len(values)):
        model.add_variable(f"item{i}", binary=True)
    model.add_constraint(
        "cap", {f"item{i}": w for i, w in enumerate(weights) if w}, "<=", capacity
    )
    model.set_objective({f"item{i}": v for i, v in enumerate(values) if v})
    return model


def enumerate_knapsack(values, weights, capacity):
    """Subset-enumeration oracle; values summed left to right in
    declaration order."""
    n = len(values)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    total_w = bits @ np.asarray(weights)
    total_v = bits @ np.asarray(values)
    feasible = total_w <= capacity
    best = int(np.flatnonzero(feasible)[np.argmax(total_v[feasible])])
    return functools.reduce(
        operator.add, (values[i] for i in range(n) if best >> i & 1), 0.0
    )


class TestBuildObm:
    def test_three_hour_knapsack(self):
        model, demand, _ = three_step_obm()
        assert len(model.variables) == 3
        assert all(v.binary for v in model.variables)
        assert len(model.constraints) == 1
        solution = solve_knapsack_bb(model)
        # budget held strictly below 2 $ admits exactly one 1 $ step
        assert solution.objective == pytest.approx(1 / 3)
        # oracle: all 8 schedules
        assert solution.objective == pytest.approx(
            enumerate_knapsack([1 / 3] * 3, [1.0] * 3, 2.0 * (1 - 1e-9))
        )

    def test_ample_budget_serves_all(self):
        model, demand, loads = three_step_obm(budget=100.0)
        solution = solve_knapsack_bb(model)
        assert solution.objective == pytest.approx(1.0)
        schedule = extract_schedule(model, solution, 1, 24)
        assert np.array_equal(schedule, demand_indicator(demand))

    def test_zero_demand_empty_model(self, one_load, tariff):
        demand = constant_series(TimeGrid(1.0, 24, 1), [0.0])
        model = build_obm(demand, one_load, tariff, Budget(5.0))
        assert not model.variables and not model.constraints
        solution = solve_knapsack_bb(model)
        assert solution.objective == 0.0
        assert solution.status is SolveStatus.OPTIMAL


class TestKnapsackBb:
    def test_worked_example(self):
        model = knapsack_model([6.0, 5.0, 4.0], [4.0, 3.0, 2.0], 5.0)
        solution = solve_knapsack_bb(model)
        assert solution.objective == 9.0
        assert solution.values == {"item0": 0.0, "item1": 1.0, "item2": 1.0}

    def test_zero_capacity(self):
        model = knapsack_model([6.0, 5.0], [4.0, 3.0], 0.0)
        assert solve_knapsack_bb(model).objective == 0.0

    def test_capacity_covers_everything(self):
        model = knapsack_model([6.0, 5.0], [4.0, 3.0], 100.0)
        solution = solve_knapsack_bb(model)
        assert solution.objective == 11.0

    def test_zero_weight_items_always_taken(self):
        model = knapsack_model([2.0, 5.0], [0.0, 3.0], 1.0)
        solution = solve_knapsack_bb(model)
        assert solution.objective == 2.0
        assert solution.values["item0"] == 1.0

    def test_negative_capacity_infeasible(self):
        model = knapsack_model([1.0], [1.0], -1.0)
        assert solve_knapsack_bb(model).status is SolveStatus.INFEASIBLE

    def test_structure_mismatch(self):
        model = knapsack_model([1.0, 1.0], [1.0, 1.0], 1.0)
        model.add_constraint("extra", {"item0": 1.0}, "<=", 1.0)
        with pytest.raises(StructureMismatch, match="exactly one"):
            solve_knapsack_bb(model)

        model = knapsack_model([1.0], [1.0], 1.0)
        model.constraints[0] = type(model.constraints[0])(
            "cap", {"item0": 1.0}, ">=", 1.0
        )
        with pytest.raises(StructureMismatch, match="<="):
            solve_knapsack_bb(model)

        model = MilpModel()
        model.add_variable("cont", 0.0, 2.0)
        model.add_constraint("cap", {"cont": 1.0}, "<=", 1.0)
        with pytest.raises(StructureMismatch, match="non-binary"):
            solve_knapsack_bb(model)

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 15))
            values = [float(v) for v in rng.uniform(0.1, 10, n)]
            weights = [float(w) for w in rng.uniform(0.1, 10, n)]
            capacity = float(rng.uniform(0, 1) * sum(weights))
            model = knapsack_model(values, weights, capacity)
            got = solve_knapsack_bb(model).objective
            assert got == enumerate_knapsack(values, weights, capacity)

    def test_identical_items_grouped_fast(self):
        import time

        # 400 copies of two item types: per-item branching would blow up
        values = [0.25] * 200 + [0.1] * 200
        weights = [1.0] * 200 + [0.4] * 200
        model = knapsack_model(values, weights, 130.0)
        start = time.monotonic()
        solution = solve_knapsack_bb(model)
        assert time.monotonic() - start < 1.0
        small = enumerate_knapsack([0.25] * 10 + [0.1] * 10, [1.0] * 10 + [0.4] * 10, 6.5)
        model_small = knapsack_model(
            [0.25] * 10 + [0.1] * 10, [1.0] * 10 + [0.4] * 10, 6.5
        )
        assert solve_knapsack_bb(model_small).objective == small
        assert solution.objective > 0

    def test_toy_solver_matches_bb_on_obm(self):
        from toy_milp_solver import solve_model

        model, _, _ = three_step_obm()
        toy = solve_model(model)
        assert toy.status is SolveStatus.OPTIMAL
        internal = solve_knapsack_bb(model)
        assert toy.objective == pytest.approx(internal.objective, abs=1e-6)
        assert check_feasibility(model, toy) == []


class TestBuildDfm:
    def test_core_variable_count(self, two_loads, tariff):
        # 2 loads x 4 steps x 1 day: steps*(3*loads + 2) + loads = 34
        # in-horizon variables; the boundary balance and its enable
        # binaries are bookkeeping on top.
        grid = TimeGrid(6.0, 4, 1)
        demand = DemandSeries(grid, [[100, 0, 50, 25], [0, 200, 0, 100]])
        model = build_dfm(demand, two_loads, tariff, Budget(1.0))
        total = grid.total_steps
        core = [
            name
            for name, ann in model.annotations.items()
            if not (ann[0] in ("real_balance", "real_enable") and ann[-1] == total)
        ]
        assert len(core) == total * (3 * 2 + 2) + 2
        assert len(model.variables) == len(core) + 1 + len(two_loads)

    def test_big_m_brackets_wallet_range(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 1)
        demand = constant_series(grid, [100.0, 50.0])
        model = build_dfm(demand, two_loads, tariff, Budget(2.0))
        bound = 2.0 + 0.001 * 1.0 * 150.0
        thresholds = [v for v in model.variables if v.name.startswith("thr_")]
        assert [v.upper for v in thresholds] == pytest.approx([bound, bound])
        by_name = {c.name: c for c in model.constraints}
        assert by_name["real_on_k0_t0"].coeffs["uz_k0_t0"] == pytest.approx(-bound)
        assert by_name["virt_off_k1_t3"].rhs == pytest.approx(-bound)

    def test_all_zero_solution_violates_first_wallet_constraint(
        self, two_loads, tariff
    ):
        grid = TimeGrid(6.0, 4, 1)
        demand = constant_series(grid, [100.0, 50.0])
        model = build_dfm(demand, two_loads, tariff, Budget(3.0))
        zero = Solution(
            {v.name: 0.0 for v in model.variables}, 0.0, SolveStatus.FEASIBLE
        )
        names = {v.constraint for v in check_feasibility(model, zero)}
        assert names == {"real_wallet_t0", "virtual_wallet_t0"}

    def test_actuation_without_demand_flagged(self, two_loads, tariff):
        grid = TimeGrid(12.0, 2, 1)
        demand = DemandSeries(grid, [[100.0, 0.0], [50.0, 50.0]])
        model = build_dfm(demand, two_loads, tariff, Budget(3.0))
        values = {v.name: 0.0 for v in model.variables}
        values["z_t0"] = 3.0
        values["x_t0"] = 3.0
        values["a_k0_t1"] = 1.0  # no demand at that slot
        bad = Solution(values, 0.0, SolveStatus.FEASIBLE)
        names = {v.constraint for v in check_feasibility(model, bad)}
        assert "act_nodemand_k0_t1" in names

    def test_recharge_lands_on_day_starts(self, one_load, tariff):
        grid = TimeGrid(12.0, 2, 2)
        demand = constant_series(grid, [100.0])
        model = build_dfm(demand, one_load, tariff, Budget(4.0))
        by_name = {c.name: c for c in model.constraints}
        assert by_name["virtual_wallet_t0"].rhs == pytest.approx(2.0)
        assert by_name["virtual_wallet_t1"].rhs == 0.0
        assert by_name["virtual_wallet_t2"].rhs == pytest.approx(2.0)
        assert by_name["virtual_wallet_t3"].rhs == 0.0
        assert by_name["real_wallet_t0"].rhs == pytest.approx(4.0)


class TestChecker:
    def test_missing_variable(self):
        model = knapsack_model([1.0], [1.0], 1.0)
        with pytest.raises(MissingVariable):
            check_feasibility(model, Solution({}, 0.0, SolveStatus.FEASIBLE))

    def test_optimal_solution_clean(self):
        model = knapsack_model([6.0, 5.0, 4.0], [4.0, 3.0, 2.0], 5.0)
        solution = solve_knapsack_bb(model)
        assert check_feasibility(model, solution) == []

    def test_residual_reported(self):
        model = knapsack_model([1.0, 1.0], [2.0, 3.0], 4.0)
        bad = Solution(
            {"item0": 1.0, "item1": 1.0}, 2.0, SolveStatus.FEASIBLE
        )
        violations = check_feasibility(model, bad)
        assert len(violations) == 1
        assert violations[0].constraint == "cap"
        assert violations[0].residual == pytest.approx(1.0)


class TestWriteLp:
    def test_sections_and_name_coverage(self, two_loads, tariff):
        grid = TimeGrid(6.0, 4, 1)
        demand = DemandSeries(grid, [[100, 0, 50, 25], [0, 200, 0, 100]])
        model = build_dfm(demand, two_loads, tariff, Budget(1.0))
        text = format_lp(model)
        assert text.count("Maximize") == 1 and text.count("End") == 1
        problem = parse_lp(text)
        assert set(problem.variables) == {v.name for v in model.variables}
        assert len(problem.constraints) == len(model.constraints)

    def test_deterministic_bytes(self):
        model = knapsack_model([1.5, 2.5], [1.0, 2.0], 2.0)
        assert format_lp(model) == format_lp(model)

    def test_parse_back_values(self):
        model = knapsack_model([6.0, 5.0, 4.0], [4.0, 3.0, 2.0], 5.0)
        problem = parse_lp(format_lp(model))
        assert problem.objective == {"item0": 6.0, "item1": 5.0, "item2": 4.0}
        name, coeffs, sense, rhs = problem.constraints[0]
        assert (name, sense, rhs) == ("cap", "<=", 5.0)
        assert coeffs == {"item0": 4.0, "item1": 3.0, "item2": 2.0}


class TestSolveDfmGrid:
    def test_affordable_demand_gets_zero_thresholds(self, one_load, tariff):
        grid = TimeGrid(6.0, 4, 1)
        truth = constant_series(grid, [100.0])
        plan, objective = solve_dfm_grid(truth, one_load, tariff, Budget(50.0), 3)
        assert plan.thresholds[0, 0] == 0.0
        assert objective == pytest.approx(1.0)

    def test_half_budget_serves_half(self, one_load, tariff):
        # 4 steps of 6 $ each, balance 12 $: wallet covers exactly half
        grid = TimeGrid(6.0, 4, 1)
        truth = constant_series(grid, [1000.0])
        _, objective = solve_dfm_grid(truth, one_load, tariff, Budget(12.0), 3)
        assert objective == pytest.approx(0.5)

    def test_instance_too_large(self, two_loads, tariff):
        # 5 candidates for each of 14 demanded load-days: 5**7 already
        # exceeds the cap, so the search stops before enumerating.
        grid = TimeGrid(1.0, 24, 7)
        truth = constant_series(grid, [100.0, 50.0])
        with pytest.raises(InstanceTooLarge, match="more than 20000"):
            solve_dfm_grid(truth, two_loads, tariff, Budget(5.0), 3)

    def test_zero_demand_days_pinned_off(self, two_loads, tariff):
        grid = TimeGrid(12.0, 2, 2)
        truth = DemandSeries(grid, [[100.0, 100.0, 0.0, 0.0], [0.0, 0.0, 50.0, 50.0]])
        plan, _ = solve_dfm_grid(truth, two_loads, tariff, Budget(100.0), 3)
        recharge = 50.0
        assert plan.thresholds[0, 1] > recharge
        assert plan.thresholds[1, 0] > recharge

    def test_pinned_off_stays_off_after_carry_over(self, tariff):
        # Day 0 leaves 3.6 $ of its 6 $ recharge unspent, so day 1 starts
        # at 9.6 $: a pinned-off threshold of recharge + eps would let the
        # unaffordable spike run on day 1.
        loads = LoadSet.from_pairs([("base", 0.7), ("spike", 0.3)])
        truth = constant_series(TimeGrid(6.0, 4, 2), [100.0, 5000.0])
        budget = Budget(12.0)
        plan, objective = solve_dfm_grid(truth, loads, tariff, budget, 3)
        assert objective == pytest.approx(0.7, abs=1e-12)
        assert plan.thresholds[1, 1] > 2 * 6.0
        result = simulate_thresholds(plan, truth, loads, tariff, budget)
        assert result.psf == pytest.approx(0.7, abs=1e-12)

    def test_dominated_by_external_milp_on_shared_instance(self, tariff):
        from toy_milp_solver import solve_model

        # Two loads over two one-step days; the spike is unaffordable in
        # any feasible plan, so thresholds must pin it off. Real-wallet
        # margins stay clear of zero, keeping the simulator inside the
        # regime where the MILP's wallet rules and the simulator agree.
        loads = LoadSet.from_pairs([("base", 0.7), ("spike", 0.3)])
        grid = TimeGrid(24.0, 1, 2)
        truth = DemandSeries(grid, [[100.0, 100.0], [5000.0, 0.0]])
        budget = Budget(6.0)
        plan, grid_objective = solve_dfm_grid(truth, loads, tariff, budget, 3)
        grid_sim = simulate_thresholds(plan, truth, loads, tariff, budget)
        model = build_dfm(truth, loads, tariff, budget)
        exact = solve_model(model)
        assert exact.status is SolveStatus.OPTIMAL
        assert check_feasibility(model, exact) == []
        assert grid_objective <= exact.objective + 1e-6
        assert grid_sim.psf == pytest.approx(0.7, abs=1e-9)
        assert exact.objective == pytest.approx(0.7, abs=1e-6)


class TestExtractors:
    def test_threshold_extraction(self, two_loads, tariff):
        # Steps cost 1.2 (heater) and 0.6 (pump); 5 is recharged each day.
        # Day 0 serves both loads at step 0 and the pump at step 1, so the
        # virtual balance runs 5 -> 3.2 -> 2.6; day 1 serves only the
        # heater: 7.6 -> 6.4 -> 5.2.
        grid = TimeGrid(12.0, 2, 2)
        demand = constant_series(grid, [100.0, 50.0])
        budget = Budget(10.0)
        model = build_dfm(demand, two_loads, tariff, budget)
        served = np.array([[1, 0, 1, 1], [1, 1, 0, 0]], dtype=np.int8)
        values = {v.name: 0.0 for v in model.variables}
        values.update(
            (f"a_k{k}_t{t}", 1.0) for k, t in zip(*np.nonzero(served))
        )
        solution = Solution(values, 0.0, SolveStatus.FEASIBLE)
        recharges = np.array([5.0, 5.0])
        thresholds = extract_thresholds(model, solution, demand, tariff, recharges)
        assert thresholds == pytest.approx(
            np.array([[(5.0 + 3.2) / 2, (6.4 + 5.2) / 2], [(3.2 + 2.6) / 2, 10.0001]])
        )
        plan = ThresholdPlan(thresholds, recharges)
        result = simulate_thresholds(plan, demand, two_loads, tariff, budget)
        assert np.array_equal(result.actuation, served)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_external_plan_realizes_the_milp_objective(self, seed):
        """Under a perfect detailed view, the decoded thresholds do in
        simulation exactly what the exact MILP optimum promised."""
        pytest.importorskip("scipy")
        from highs_milp import solve_highs

        loads = LoadSet.from_pairs([("fridge", 0.7), ("heater", 0.3)])
        profiles = {
            "fridge": ApplianceProfile(160.0, 1.0, 10.0),
            "heater": ApplianceProfile(1000.0, 1.0, 4.0),
        }
        grid = TimeGrid.from_minutes(60, 2)
        truth = synth_household(seed, loads, grid, profiles)
        tariff = Tariff(0.00016)
        for fraction in (0.7, 0.8, 0.9):
            budget = compute_budget(truth, tariff, fraction)
            model = build_dfm(truth, loads, tariff, budget)
            solution = solve_highs(model)
            assert solution.status is SolveStatus.OPTIMAL
            recharges = dfm_recharges(budget, grid.num_days)
            thresholds = extract_thresholds(model, solution, truth, tariff, recharges)
            plan = ThresholdPlan(thresholds, recharges)
            result = simulate_thresholds(plan, truth, loads, tariff, budget)
            assert result.psf == pytest.approx(solution.objective, abs=1e-9), fraction

    def test_schedule_extraction_rejects_fractional(self):
        model, _, _ = three_step_obm()
        values = {v.name: 0.5 for v in model.variables}
        with pytest.raises(ValueError, match="not binary"):
            extract_schedule(
                model, Solution(values, 0.0, SolveStatus.FEASIBLE), 1, 24
            )
