"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints one ``[criterion N] PASS`` line (run with ``pytest -v -s`` to see
them). Oracles are independent of the code paths they check: a
linear-programming solver for the greedy policy, subset enumeration for
the knapsack backend, constraint-by-constraint evaluation plus truth
tables for the threshold MILP, and hand-stepped wallets elsewhere.
"""

import functools
import itertools
import json
import operator
import time

import numpy as np
import pytest

from conftest import assert_sim_invariants
from milp_reference import build_dfm, check_feasibility
from prepaid_ems import afg, dfm, obm, sim
from prepaid_ems.config import from_dict
from prepaid_ems.experiment import emit_outputs, run_experiment
from prepaid_ems.forecast import ApplianceProfile, shuffle_days, synth_household
from prepaid_ems.milp import (
    MilpModel,
    Solution,
    SolveStatus,
    build_obm,
    extract_schedule,
    solve_dfm_grid,
    solve_knapsack_bb,
)
from prepaid_ems.model import (
    Budget,
    DailyAverageDemand,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    daily_average,
    demand_indicator,
    effective_budget,
)

def report(criterion: int, detail: str):
    print(f"[criterion {criterion}] PASS {detail}")


def random_average_instance(rng, max_loads=5, max_days=5):
    k = int(rng.integers(1, max_loads + 1))
    d = int(rng.integers(1, max_days + 1))
    power = rng.uniform(5.0, 400.0, (k, d))
    power *= rng.random((k, d)) < 0.85  # some zero-demand load-days
    avg = DailyAverageDemand(power)
    loads = LoadSet.from_pairs(
        (f"l{i}", float(g)) for i, g in enumerate(rng.uniform(0.05, 1.0, k))
    )
    total_cost = 0.001 * 24.0 * power.sum()
    budget = Budget(float(rng.uniform(0.0, 1.05)) * total_cost)
    return avg, loads, Tariff(0.001), budget


def greedy_psf(plan, loads):
    cap = plan.max_durations.sum(axis=1)
    mask = cap > 0
    return float(
        (loads.gammas[mask] * plan.durations.sum(axis=1)[mask] / cap[mask]).sum()
    )


def test_criterion_1_afg_matches_lp_oracle():
    """Greedy enable durations match an independent LP optimum."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(20240901)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        avg, loads, tariff, budget = random_average_instance(rng)
        plan = afg.solve_greedy(avg, loads, tariff, budget)
        got = greedy_psf(plan, loads)

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
        expected = 0.0
        if c:
            res = linprog(
                c,
                A_ub=[w],
                b_ub=[effective_budget(budget)],
                bounds=bounds,
                method="highs",
            )
            assert res.success
            expected = -res.fun
        assert got == pytest.approx(expected, abs=1e-6)
        worst = max(worst, abs(got - expected))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"200 instances, max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_threshold_closed_loop():
    """Simulating the computed thresholds against constant daily-average
    demand reproduces the planned durations within one timestep.

    Instances carry an always-on "anchor" load whose benefit/cost ratio
    tops the ranking, so every day with demand has a fully enabled load
    next to the marginal one. The anchor does not keep the wallets from
    overdrawing: that rests on the thresholds being placed for the
    simulator's step, so the marginal load runs the whole steps that fit
    in its plan and disabled loads stay off on every later day.
    """
    rng = np.random.default_rng(77)
    grid_step = 0.5
    checked = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))  # extra loads on top of the anchor
        d = int(rng.integers(1, 5))
        anchor = rng.uniform(20.0, 60.0, (1, d))
        extras = rng.uniform(50.0, 400.0, (k, d))
        extras *= rng.random((k, d)) < 0.8
        avg = DailyAverageDemand(np.vstack([anchor, extras]))
        loads = LoadSet.from_pairs(
            [("anchor", 5.0)]
            + [(f"l{i}", float(g)) for i, g in enumerate(rng.uniform(0.05, 0.3, k))]
        )
        tariff = Tariff(0.001)
        anchor_cost = 0.001 * 24.0 * anchor.sum()
        extras_cost = 0.001 * 24.0 * extras.sum()
        budget = Budget(anchor_cost + float(rng.uniform(0.05, 0.95)) * extras_cost)

        plan = afg.solve_greedy(avg, loads, tariff, budget)
        recharges = afg.compute_recharges(plan, avg, tariff)
        grid = TimeGrid(grid_step, int(24 / grid_step), d)
        tplan = afg.compute_thresholds(plan, recharges, avg, tariff, grid_step)
        truth = DemandSeries(
            grid, np.repeat(avg.power, grid.steps_per_day, axis=1)
        )
        result = sim.simulate_thresholds(tplan, truth, loads, tariff, budget)
        served_hours = (
            result.actuation.reshape(len(loads), d, grid.steps_per_day).sum(axis=2)
            * grid_step
        )
        assert np.all(np.abs(served_hours - plan.durations) <= grid_step + 1e-9)
        assert result.total_spend <= budget.initial_balance + 1e-12
        checked += 1
    report(2, f"{checked} plans reproduced within one timestep")


def test_criterion_3_knapsack_matches_enumeration():
    """Branch and bound equals subset enumeration exactly."""
    rng = np.random.default_rng(4242)
    start = time.monotonic()
    for _ in range(500):
        n = int(rng.integers(1, 21))
        values = [float(v) for v in rng.uniform(0.1, 10.0, n)]
        weights = [float(w) for w in rng.uniform(0.1, 10.0, n)]
        capacity = float(rng.uniform(0.0, 1.0) * sum(weights))

        model = MilpModel()
        for i in range(n):
            model.add_variable(f"item{i}", binary=True)
        model.add_constraint(
            "cap", {f"item{i}": weights[i] for i in range(n)}, "<=", capacity
        )
        model.set_objective({f"item{i}": values[i] for i in range(n)})
        got = solve_knapsack_bb(model).objective

        # Subset sums by doubling: after item i, entry j holds the sum
        # over the items whose bit is set in j, added in item order.
        weight_sums = value_sums = np.zeros(1)
        for w, v in zip(weights, values):
            weight_sums = np.concatenate([weight_sums, weight_sums + w])
            value_sums = np.concatenate([value_sums, value_sums + v])
        feasible = weight_sums <= capacity
        best_idx = int(np.flatnonzero(feasible)[np.argmax(value_sums[feasible])])
        chosen = (values[i] for i in range(n) if best_idx >> i & 1)
        expected = functools.reduce(operator.add, chosen, 0.0)
        assert got == expected  # exact float equality, same summation order
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"500 instances exact, {elapsed:.2f}s")


def _dfm_truth_table_case(demand, loads, tariff, budget, thr_grids):
    """Exhaustively check feasibility <=> indicator semantics."""
    model = build_dfm(demand, loads, tariff, budget)
    grid = demand.grid
    k_n, total = demand.power.shape
    eps = 1e-6
    cost = tariff.alpha * grid.step_hours * demand.power
    d = demand_indicator(demand)
    recharge = budget.initial_balance / grid.num_days

    binary_names = (
        [f"uz_k{k}_t{t}" for k in range(k_n) for t in range(total + 1)]
        + [f"ux_k{k}_t{t}" for k in range(k_n) for t in range(total)]
        + [f"a_k{k}_t{t}" for k in range(k_n) for t in range(total)]
    )
    pure_binary = [
        c for c in model.constraints if all(v in set(binary_names) for v in c.coeffs)
    ]
    mixed = [c for c in model.constraints if c not in pure_binary]

    feasible_found = 0
    prefilter_rejects_checked = 0
    for bits in itertools.product((0.0, 1.0), repeat=len(binary_names)):
        assignment = dict(zip(binary_names, bits))
        ok_binary = True
        for c in pure_binary:
            lhs = sum(coef * assignment[v] for v, coef in c.coeffs.items())
            if c.sense == "<=" and lhs > c.rhs + 1e-9:
                ok_binary = False
                break
            if c.sense == ">=" and lhs < c.rhs - 1e-9:
                ok_binary = False
                break
        uz = np.array(
            [[assignment[f"uz_k{k}_t{t}"] for t in range(total + 1)] for k in range(k_n)]
        )
        ux = np.array(
            [[assignment[f"ux_k{k}_t{t}"] for t in range(total)] for k in range(k_n)]
        )
        a = np.array(
            [[assignment[f"a_k{k}_t{t}"] for t in range(total)] for k in range(k_n)]
        )
        # wallet trajectories implied by the actuations
        z = np.empty(total + 1)
        x = np.empty(total)
        z[0] = budget.initial_balance
        x[0] = recharge
        for t in range(1, total + 1):
            spend = float((cost[:, t - 1] * a[:, t - 1]).sum())
            z[t] = z[t - 1] - spend
            if t < total:
                x[t] = x[t - 1] - spend + (
                    recharge if t % grid.steps_per_day == 0 else 0.0
                )

        if not ok_binary:
            # spot-check that the independent checker agrees the combo is
            # infeasible no matter the thresholds
            if prefilter_rejects_checked < 50:
                thr = {f"thr_k{k}_d{day}": 0.0 for k in range(k_n) for day in range(grid.num_days)}
                values = dict(assignment)
                values.update(thr)
                values.update({f"z_t{t}": z[t] for t in range(total + 1)})
                values.update({f"x_t{t}": x[t] for t in range(total)})
                solution = Solution(values, 0.0, SolveStatus.FEASIBLE)
                assert check_feasibility(model, solution, tol=1e-6)
                prefilter_rejects_checked += 1
            continue

        for thr_combo in itertools.product(*thr_grids):
            thr = np.array(thr_combo).reshape(k_n, grid.num_days)
            values = dict(assignment)
            values.update(
                {
                    f"thr_k{k}_d{day}": thr[k, day]
                    for k in range(k_n)
                    for day in range(grid.num_days)
                }
            )
            values.update({f"z_t{t}": z[t] for t in range(total + 1)})
            values.update({f"x_t{t}": x[t] for t in range(total)})
            solution = Solution(values, 0.0, SolveStatus.FEASIBLE)
            feasible = not check_feasibility(model, solution, tol=1e-6)

            semantics = True
            for k in range(k_n):
                for t in range(total + 1):
                    if uz[k, t] != (1.0 if z[t] >= eps else 0.0):
                        semantics = False
                for t in range(total):
                    day = grid.day_of(t)
                    if ux[k, t] != (1.0 if x[t] >= thr[k, day] else 0.0):
                        semantics = False
                    conj = d[k, t] and ux[k, t] and uz[k, t] and uz[k, t + 1]
                    if a[k, t] != (1.0 if conj else 0.0):
                        semantics = False
            assert feasible == semantics, (
                f"feasible={feasible} but semantics={semantics} for "
                f"a={a.tolist()} ux={ux.tolist()} uz={uz.tolist()} thr={thr.tolist()}"
            )
            feasible_found += feasible
    assert feasible_found > 0
    return feasible_found


def test_criterion_4_dfm_indicator_semantics():
    """On exhaustive tiny instances, a solution is feasible iff the
    enable binaries spell out the wallet rules."""
    tariff = Tariff(0.001)
    # one load, three 8 h steps with an idle slot; step cost 1 $
    grid_a = TimeGrid(8.0, 3, 1)
    demand_a = DemandSeries(grid_a, [[125.0, 0.0, 125.0]])
    loads_a = LoadSet.from_pairs([("x", 1.0)])
    thr_a = [(0.0, 0.25, 0.75, 1.25, 1.75, 2.25, 2.75)]
    count_a = _dfm_truth_table_case(demand_a, loads_a, tariff, Budget(2.5), thr_a)

    # two loads, two 12 h steps; costs 1.5 and 0.75 $, one idle slot
    grid_b = TimeGrid(12.0, 2, 1)
    demand_b = DemandSeries(grid_b, [[125.0, 125.0], [62.5, 0.0]])
    loads_b = LoadSet.from_pairs([("x", 0.7), ("y", 0.3)])
    thr_b = [(0.0, 0.75, 1.0, 1.75, 2.25), (0.0, 0.75, 1.0, 1.75, 2.25)]
    count_b = _dfm_truth_table_case(demand_b, loads_b, tariff, Budget(2.0), thr_b)
    report(4, f"{count_a + count_b} feasible decodings all satisfy the semantics")


# Budget fractions and generator seeds for households whose greedy and
# threshold-search traces stay within the wallet balance when simulated
# (verified by assertion below). The optimal-schedule benchmark is only
# an upper bound for traces that respect the budget: the simulator's
# one-step overshoot rule otherwise grants threshold policies up to one
# extra step of spend, which is real service the schedule benchmark was
# never allowed to buy.
DOMINANCE_CELLS = [
    (10, 0.7), (22, 0.7), (24, 0.6), (32, 0.8), (38, 0.8), (40, 0.7),
    (41, 0.8), (58, 0.7), (59, 0.8), (73, 0.7), (79, 0.7), (80, 0.8),
    (88, 0.7), (109, 0.7), (128, 0.8), (140, 0.8), (145, 0.7), (171, 0.6),
    (172, 0.7), (184, 0.7), (196, 0.7), (197, 0.8), (203, 0.8), (208, 0.7),
    (209, 0.8), (230, 0.8), (231, 0.6), (237, 0.6), (241, 0.7), (243, 0.6),
    (256, 0.7), (257, 0.8), (278, 0.8), (289, 0.7), (291, 0.6), (308, 0.8),
    (316, 0.7), (319, 0.7), (320, 0.8), (323, 0.8), (351, 0.6), (367, 0.7),
    (378, 0.6), (388, 0.7), (390, 0.6), (396, 0.6), (407, 0.8), (438, 0.6),
    (440, 0.8), (451, 0.7),
]


def _dominance_household(seed):
    loads = LoadSet.from_pairs([("fridge", 0.7), ("heater", 0.3)])
    grid = TimeGrid(1.0, 24, 2)
    profiles = {
        "fridge": ApplianceProfile(150.0 + 10 * (seed % 7), 1.0, 8.0 + (seed % 5)),
        "heater": ApplianceProfile(900.0 + 25 * (seed % 11), 0.9, 3.0 + (seed % 4)),
    }
    return loads, synth_household(seed, loads, grid, profiles)


def test_criterion_5_perfect_forecast_dominance():
    """With perfect detailed forecasts, the schedule benchmark bounds the
    simulated greedy and threshold-search policies."""
    tariff = Tariff(0.001)
    assert len(DOMINANCE_CELLS) == 50
    for seed, fraction in DOMINANCE_CELLS:
        loads, truth = _dominance_household(seed)
        budget = compute_budget(truth, tariff, fraction)
        limit = effective_budget(budget) + 1e-12

        model = build_obm(truth, loads, tariff, budget)
        solution = solve_knapsack_bb(model)
        schedule = extract_schedule(model, solution, 2, truth.grid.total_steps)
        obm = sim.simulate_schedule(schedule, truth, loads, tariff, budget)

        avg = daily_average(truth)
        plan = afg.solve_greedy(avg, loads, tariff, budget)
        recharges = afg.compute_recharges(plan, avg, tariff)
        tplan = afg.compute_thresholds(
            plan, recharges, avg, tariff, truth.grid.step_hours
        )
        greedy = sim.simulate_thresholds(tplan, truth, loads, tariff, budget)

        dplan, _ = solve_dfm_grid(truth, loads, tariff, budget, grid_resolution=3)
        threshold_search = sim.simulate_thresholds(
            dplan, truth, loads, tariff, budget
        )

        # precondition of the comparison: these cells stay within budget
        assert greedy.total_spend <= limit, (seed, fraction, "greedy overspends")
        assert threshold_search.total_spend <= limit, (
            seed,
            fraction,
            "threshold search overspends",
        )
        # the schedule benchmark reproduces its objective exactly
        assert obm.psf == pytest.approx(solution.objective, abs=1e-9)
        assert obm.psf >= greedy.psf - 1e-6
        assert obm.psf >= threshold_search.psf - 1e-6
    report(5, "50 households: schedule benchmark dominates both policies")


def test_criterion_5_holds_for_the_sweep_solvers():
    """Criterion 5 on the planners the sweep runs: on the same cells, the
    plans of ``obm.plan_view``, ``afg.plan_view`` and ``dfm.plan_view``
    simulated against the truth they were planned on. OBM and DFM
    realize their planned objectives, AFG and DFM stay within the
    budget, and OBM's PSF bounds both. DFM is not checked against AFG:
    AFG beats it on 3 of the cells (seeds 80, 172 and 203), where DFM's
    even daily recharges keep it from moving money between days."""
    tariff = Tariff(0.001)
    assert len(DOMINANCE_CELLS) == 50
    margins = []
    for seed, fraction in DOMINANCE_CELLS:
        loads, truth = _dominance_household(seed)
        budget = compute_budget(truth, tariff, fraction)

        [(schedule, obm_objective)] = obm.plan_view(truth, loads, tariff, [budget])
        [(afg_plan, _)] = afg.plan_view(truth, loads, tariff, [budget])
        [(dfm_plan, dfm_objective)] = dfm.plan_view(truth, loads, tariff, [budget])
        [optimal] = sim.simulate_schedules([schedule], truth, loads, tariff, [budget])
        greedy, detailed = sim.simulate_threshold_plans(
            [afg_plan, dfm_plan], truth, loads, tariff, [budget, budget]
        )

        cell = (seed, fraction)
        assert greedy.total_spend <= effective_budget(budget), cell
        assert detailed.total_spend <= effective_budget(budget), cell
        assert abs(optimal.psf - obm_objective) <= 1e-9, cell
        assert abs(detailed.psf - dfm_objective) <= 1e-9, cell
        assert optimal.psf >= greedy.psf - 1e-9, cell
        assert optimal.psf >= detailed.psf - 1e-9, cell
        margins.append((optimal.psf - greedy.psf, optimal.psf - detailed.psf))
    low = np.min(margins, axis=0)
    report(
        5,
        f"50 households, sweep solvers: OBM - AFG >= {low[0]:.3g}, "
        f"OBM - DFM >= {low[1]:.3g}",
    )


def test_criterion_6_money_conservation_and_prepaid_safety():
    """Every simulator conserves money to 1e-9 and never serves a step
    that began with an empty wallet."""
    rng = np.random.default_rng(99)
    tariff = Tariff(0.00016)
    simulations = 0
    for trial in range(25):
        k = int(rng.integers(1, 5))
        days = int(rng.integers(1, 4))
        grid = TimeGrid.from_minutes(int(rng.choice([15, 30, 60])), days)
        power = rng.uniform(0, 1500, (k, grid.total_steps))
        power *= rng.random((k, grid.total_steps)) < 0.6
        truth = DemandSeries(grid, power)
        loads = LoadSet.from_pairs(
            (f"l{i}", float(g)) for i, g in enumerate(rng.uniform(0.05, 1, k))
        )
        budget = compute_budget(truth, tariff, float(rng.uniform(0, 1)))

        results = [sim.simulate_baseline(truth, loads, tariff, budget)]
        schedule = (rng.random(power.shape) < 0.5).astype(np.int8)
        results.append(sim.simulate_schedule(schedule, truth, loads, tariff, budget))
        avg = daily_average(truth)
        plan = afg.solve_greedy(avg, loads, tariff, budget)
        recharges = afg.compute_recharges(plan, avg, tariff)
        tplan = afg.compute_thresholds(
            plan, recharges, avg, tariff, grid.step_hours
        )
        results.append(sim.simulate_thresholds(tplan, truth, loads, tariff, budget))
        for result in results:
            assert_sim_invariants(result, truth, loads, tariff, budget)
            expected = tariff.alpha * grid.step_hours * float(
                (truth.power * result.actuation).sum()
            )
            assert abs(result.final_real_balance - (budget.initial_balance - expected)) <= 1e-9
        simulations += len(results)
    report(6, f"{simulations} simulations conserve money at 1e-9")


def test_criterion_7_baseline_disconnection():
    """Unrationed use always disconnects when the budget covers less
    than full demand, spending within one step of the balance."""
    rng = np.random.default_rng(123)
    tariff = Tariff(0.00016)
    for trial in range(30):
        grid = TimeGrid.from_minutes(int(rng.choice([15, 60])), int(rng.integers(1, 5)))
        power = rng.uniform(50, 2000, (2, grid.total_steps))
        power *= rng.random((2, grid.total_steps)) < 0.7
        power[0, 0] = max(power[0, 0], 100.0)  # ensure some demand exists
        truth = DemandSeries(grid, power)
        loads = LoadSet.from_pairs([("a", 0.6), ("b", 0.4)])
        fraction = float(rng.choice([0.3, 0.6, 0.9]))
        budget = compute_budget(truth, tariff, fraction)
        result = sim.simulate_baseline(truth, loads, tariff, budget)
        max_step_cost = tariff.alpha * grid.step_hours * float(
            truth.power.sum(axis=0).max()
        )
        assert result.first_disconnect_step is not None
        assert abs(result.total_spend - budget.initial_balance) <= max_step_cost + 1e-9

        full = sim.simulate_baseline(
            truth, loads, tariff, compute_budget(truth, tariff, 1.0)
        )
        assert full.disconnection_days == 0
        assert np.array_equal(full.actuation, demand_indicator(truth))
    report(7, "30 households: partial budgets disconnect, full budgets do not")


def test_criterion_8_imperfect_forecast_degrades_obm():
    """A schedule optimized on shuffled days underperforms the same
    schedule optimized on the true order."""
    tariff = Tariff(0.001)
    loads = LoadSet.from_pairs([("fridge", 0.7), ("heater", 0.3)])
    grid = TimeGrid.from_minutes(30, 4)
    degraded = 0
    for seed in range(12):
        profiles = {
            "fridge": ApplianceProfile(160.0, 1.0, 6.0 + (seed % 5)),
            "heater": ApplianceProfile(1100.0, 0.7, 2.0 + (seed % 3)),
        }
        truth = synth_household(seed, loads, grid, profiles)
        if truth.power.sum() == 0:
            continue
        budget = compute_budget(truth, tariff, 0.7)

        perfect_model = build_obm(truth, loads, tariff, budget)
        perfect = extract_schedule(
            perfect_model, solve_knapsack_bb(perfect_model), 2, grid.total_steps
        )
        perfect_psf = sim.simulate_schedule(perfect, truth, loads, tariff, budget).psf

        forecast = shuffle_days(truth, seed + 1000)
        shuffled_model = build_obm(forecast, loads, tariff, budget)
        shuffled = extract_schedule(
            shuffled_model, solve_knapsack_bb(shuffled_model), 2, grid.total_steps
        )
        shuffled_psf = sim.simulate_schedule(shuffled, truth, loads, tariff, budget).psf
        assert shuffled_psf <= perfect_psf + 1e-12
        if shuffled_psf < perfect_psf - 1e-9:
            degraded += 1
    assert degraded >= 8  # strict degradation on the bulk of the seeds
    report(8, f"shuffled-forecast schedules strictly worse on {degraded} seeds")


FIXTURE_CONFIG = {
    "loads": [{"name": "fridge", "gamma": 0.7}, {"name": "heater", "gamma": 0.3}],
    "data": {
        "synthetic": {
            "seed": 21,
            "profiles": {
                "fridge": {"rated_w": 160, "on_probability": 1.0, "mean_on_hours": 10},
                "heater": {"rated_w": 1000, "on_probability": 0.8, "mean_on_hours": 4},
            },
        }
    },
    "alpha_per_wh": 0.00016,
    "step_minutes": 60,
    "horizon_days": 7,
    "budget_fractions": [0.7, 0.8, 0.9],
    "regimes": [
        "perfect-detailed",
        "perfect-limited",
        "imperfect-detailed",
        "imperfect-limited",
    ],
    "shuffle_seed": 5,
    "policies": ["BSL", "AFG", "DFM", "OBM"],
    "dfm": {"backend": "grid"},
    "output_dir": "out",
}


def test_criterion_9_end_to_end_reproducibility(tmp_path):
    """The full sweep is byte-deterministic and finishes quickly."""
    config_path = tmp_path / "fixture.json"
    config_path.write_text(json.dumps(FIXTURE_CONFIG))
    start = time.monotonic()
    digests = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        config = from_dict(json.loads(config_path.read_text()), tmp_path)
        config.output_dir = out_dir
        results = run_experiment(config)
        assert len(results.cells) == 3 * 4 * 4
        emit_outputs(results, out_dir)
        digests.append(
            {
                p.relative_to(out_dir).as_posix(): p.read_bytes()
                for p in sorted(out_dir.rglob("*.csv"))
            }
        )
    elapsed = time.monotonic() - start
    assert digests[0] == digests[1]
    assert elapsed < 60.0
    summary = (tmp_path / "first" / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 48
    report(9, f"48-cell sweep byte-identical twice in {elapsed:.1f}s")


def test_criterion_10_external_solver_cross_check():
    """An independent MILP solver, reading each model only as LP text,
    agrees with the in-process backends."""
    pytest.importorskip("scipy")
    from toy_milp_solver import solve_model

    tariff = Tariff(0.001)

    # schedule benchmark: the toy solver's optimum matches branch and bound
    rng = np.random.default_rng(7)
    for _ in range(3):
        grid = TimeGrid(2.0, 12, 1)
        power = rng.uniform(100, 1200, (1, 12)) * (rng.random((1, 12)) < 0.7)
        truth = DemandSeries(grid, power)
        loads = LoadSet.from_pairs([("x", 1.0)])
        budget = compute_budget(truth, tariff, 0.5)
        model = build_obm(truth, loads, tariff, budget)
        if not model.variables:
            continue
        toy = solve_model(model)
        assert toy.status is SolveStatus.OPTIMAL
        internal = solve_knapsack_bb(model)
        assert abs(toy.objective - internal.objective) <= 1e-6
        assert check_feasibility(model, toy) == []

    # threshold benchmark on a shared tiny instance: the exact MILP
    # optimum bounds the grid search, which here stays within budget
    loads = LoadSet.from_pairs([("base", 0.7), ("spike", 0.3)])
    grid = TimeGrid(24.0, 1, 2)
    truth = DemandSeries(grid, [[100.0, 100.0], [5000.0, 0.0]])
    budget = Budget(6.0)
    dplan, grid_objective = solve_dfm_grid(truth, loads, tariff, budget, 3)
    grid_sim = sim.simulate_thresholds(dplan, truth, loads, tariff, budget)
    assert grid_sim.total_spend <= effective_budget(budget) + 1e-12
    model = build_dfm(truth, loads, tariff, budget)
    toy = solve_model(model)
    assert toy.status is SolveStatus.OPTIMAL
    assert check_feasibility(model, toy) == []
    assert grid_objective <= toy.objective + 1e-6
    assert grid_sim.psf <= toy.objective + 1e-6
    report(10, "toy-solver OBM matches branch and bound; DFM optimum bounds the grid")
