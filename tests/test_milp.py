import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_series
from lp_text import parse_lp
from prepaid_ems.milp import (
    InfeasibleConstants,
    InstanceTooLarge,
    MilpConstants,
    MilpModel,
    MissingVariable,
    Solution,
    SolutionParseError,
    SolveStatus,
    SolverNotFound,
    SolverTimeout,
    StructureMismatch,
    build_dfm,
    build_obm,
    check_feasibility,
    default_constants,
    extract_schedule,
    extract_thresholds,
    solve_dfm_grid,
    solve_external,
    solve_knapsack_bb,
    write_lp,
)
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    demand_indicator,
)
from prepaid_ems.sim import simulate_thresholds

TOY_SOLVER = f"{sys.executable} {Path(__file__).parent / 'toy_milp_solver.py'} {{lp}} {{sol}}"


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
    """Subset-enumeration oracle; values summed in declaration order."""
    n = len(values)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    total_w = bits @ np.asarray(weights)
    total_v = bits @ np.asarray(values)
    feasible = total_w <= capacity
    best = int(np.flatnonzero(feasible)[np.argmax(total_v[feasible])])
    return sum(values[i] for i in range(n) if best >> i & 1)


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

    def test_infeasible_constants_rejected(self, two_loads, tariff):
        grid = TimeGrid(6.0, 4, 1)
        demand = constant_series(grid, [100.0, 50.0])
        with pytest.raises(InfeasibleConstants):
            build_dfm(
                demand,
                two_loads,
                tariff,
                Budget(10.0),
                constants=MilpConstants(1e-6, -5.0, 5.0),
            )
        with pytest.raises(ValueError):
            MilpConstants(0.0, -5.0, 5.0)

    def test_default_constants_bracket_wallet_range(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 1)
        demand = constant_series(grid, [100.0, 50.0])
        budget = Budget(2.0)
        constants = default_constants(demand, tariff, budget)
        swing = 0.001 * 1.0 * 150.0
        assert constants.pos_big == pytest.approx(2.0 + swing)
        assert constants.neg_big == pytest.approx(-(2.0 + swing))

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
    def test_sections_and_name_coverage(self, tmp_path, two_loads, tariff):
        grid = TimeGrid(6.0, 4, 1)
        demand = DemandSeries(grid, [[100, 0, 50, 25], [0, 200, 0, 100]])
        model = build_dfm(demand, two_loads, tariff, Budget(1.0))
        path = tmp_path / "model.lp"
        write_lp(model, path)
        text = path.read_text()
        assert text.count("Maximize") == 1 and text.count("End") == 1
        problem = parse_lp(text)
        assert set(problem.variables) == {v.name for v in model.variables}
        assert len(problem.constraints) == len(model.constraints)

    def test_deterministic_bytes(self, tmp_path):
        model = knapsack_model([1.5, 2.5], [1.0, 2.0], 2.0)
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        write_lp(model, a)
        write_lp(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_parse_back_values(self, tmp_path):
        model = knapsack_model([6.0, 5.0, 4.0], [4.0, 3.0, 2.0], 5.0)
        path = tmp_path / "k.lp"
        write_lp(model, path)
        problem = parse_lp(path.read_text())
        assert problem.objective == {"item0": 6.0, "item1": 5.0, "item2": 4.0}
        name, coeffs, sense, rhs = problem.constraints[0]
        assert (name, sense, rhs) == ("cap", "<=", 5.0)
        assert coeffs == {"item0": 4.0, "item1": 3.0, "item2": 2.0}


class TestSolveExternal:
    def test_missing_executable(self):
        model = knapsack_model([1.0], [1.0], 1.0)
        with pytest.raises(SolverNotFound):
            solve_external(model, "/nonexistent/solver {lp} {sol}")

    def test_template_placeholders_required(self):
        model = knapsack_model([1.0], [1.0], 1.0)
        with pytest.raises(ValueError, match="placeholders"):
            solve_external(model, "solver only-{lp}")

    def test_toy_solver_matches_bb_on_obm(self):
        model, _, _ = three_step_obm()
        external = solve_external(model, TOY_SOLVER)
        assert external.status is SolveStatus.OPTIMAL
        internal = solve_knapsack_bb(model)
        assert external.objective == pytest.approx(internal.objective, abs=1e-6)
        assert check_feasibility(model, external) == []

    def test_nonzero_exit_is_error_status(self, tmp_path):
        model = knapsack_model([1.0], [1.0], 1.0)
        script = tmp_path / "fail.py"
        script.write_text("import sys; sys.exit(3)\n")
        solution = solve_external(model, f"{sys.executable} {script} {{lp}} {{sol}}")
        assert solution.status is SolveStatus.ERROR
        assert "status 3" in solution.message

    def test_timeout(self, tmp_path):
        model = knapsack_model([1.0], [1.0], 1.0)
        script = tmp_path / "slow.py"
        script.write_text("import time; time.sleep(30)\n")
        with pytest.raises(SolverTimeout):
            solve_external(
                model,
                f"{sys.executable} {script} {{lp}} {{sol}}",
                timeout_seconds=0.5,
            )

    def test_unknown_names_warned_and_ignored(self, tmp_path, caplog):
        model = knapsack_model([1.0], [1.0], 1.0)
        script = tmp_path / "chatty.py"
        script.write_text(
            "import sys\n"
            "open(sys.argv[2], 'w').write('item0 1.0\\nmystery 5.0\\n')\n"
        )
        import logging

        with caplog.at_level(logging.WARNING):
            solution = solve_external(
                model, f"{sys.executable} {script} {{lp}} {{sol}}"
            )
        assert solution.values["item0"] == 1.0
        assert "mystery" in caplog.text

    def test_missing_solution_file(self, tmp_path):
        model = knapsack_model([1.0], [1.0], 1.0)
        script = tmp_path / "silent.py"
        script.write_text("pass\n")
        with pytest.raises(SolutionParseError):
            solve_external(model, f"{sys.executable} {script} {{lp}} {{sol}}")


class TestSolveDfmGrid:
    def test_affordable_demand_gets_zero_thresholds(self, one_load, tariff):
        grid = TimeGrid(6.0, 4, 1)
        truth = constant_series(grid, [100.0])
        plan, solution = solve_dfm_grid(truth, one_load, tariff, Budget(50.0))
        assert plan.thresholds[0, 0] == 0.0
        assert solution.objective == pytest.approx(1.0)

    def test_half_budget_serves_half(self, one_load, tariff):
        # 4 steps of 6 $ each, balance 12 $: wallet covers exactly half
        grid = TimeGrid(6.0, 4, 1)
        truth = constant_series(grid, [1000.0])
        plan, solution = solve_dfm_grid(truth, one_load, tariff, Budget(12.0))
        assert solution.objective == pytest.approx(0.5)

    def test_instance_too_large(self, two_loads, tariff):
        grid = TimeGrid(1.0, 24, 7)
        truth = constant_series(grid, [100.0, 50.0])
        with pytest.raises(InstanceTooLarge):
            solve_dfm_grid(truth, two_loads, tariff, Budget(5.0), candidate_cap=1000)

    def test_zero_demand_days_pinned_off(self, two_loads, tariff):
        grid = TimeGrid(12.0, 2, 2)
        truth = DemandSeries(grid, [[100.0, 100.0, 0.0, 0.0], [0.0, 0.0, 50.0, 50.0]])
        plan, _ = solve_dfm_grid(truth, two_loads, tariff, Budget(100.0))
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
        plan, solution = solve_dfm_grid(truth, loads, tariff, budget, grid_resolution=3)
        assert solution.objective == pytest.approx(0.7, abs=1e-12)
        assert plan.thresholds[1, 1] > 2 * 6.0
        result = simulate_thresholds(plan, truth, loads, tariff, budget)
        assert result.psf == pytest.approx(0.7, abs=1e-12)

    def test_dominated_by_external_milp_on_shared_instance(self, tariff):
        # Two loads over two one-step days; the spike is unaffordable in
        # any feasible plan, so thresholds must pin it off. Real-wallet
        # margins stay clear of zero, keeping the simulator inside the
        # regime where the MILP's wallet rules and the simulator agree.
        loads = LoadSet.from_pairs([("base", 0.7), ("spike", 0.3)])
        grid = TimeGrid(24.0, 1, 2)
        truth = DemandSeries(grid, [[100.0, 100.0], [5000.0, 0.0]])
        budget = Budget(6.0)
        plan, grid_solution = solve_dfm_grid(truth, loads, tariff, budget)
        grid_sim = simulate_thresholds(plan, truth, loads, tariff, budget)
        model = build_dfm(truth, loads, tariff, budget)
        external = solve_external(model, TOY_SOLVER, timeout_seconds=300)
        assert external.status is SolveStatus.OPTIMAL
        assert check_feasibility(model, external) == []
        assert grid_solution.objective <= external.objective + 1e-6
        assert grid_sim.psf == pytest.approx(0.7, abs=1e-9)
        assert external.objective == pytest.approx(0.7, abs=1e-6)


class TestExtractors:
    def test_threshold_extraction(self, two_loads, tariff):
        grid = TimeGrid(12.0, 2, 2)
        demand = constant_series(grid, [100.0, 50.0])
        model = build_dfm(demand, two_loads, tariff, Budget(10.0))
        values = {v.name: 0.0 for v in model.variables}
        values["thr_k0_d1"] = 1.25
        values["thr_k1_d0"] = 0.5
        solution = Solution(values, 0.0, SolveStatus.FEASIBLE)
        thresholds = extract_thresholds(model, solution, 2, 2)
        assert thresholds[0, 1] == 1.25 and thresholds[1, 0] == 0.5

    def test_schedule_extraction_rejects_fractional(self):
        model, _, _ = three_step_obm()
        values = {v.name: 0.5 for v in model.variables}
        with pytest.raises(ValueError, match="not binary"):
            extract_schedule(
                model, Solution(values, 0.0, SolveStatus.FEASIBLE), 1, 24
            )
