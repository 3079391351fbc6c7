"""The OBM count search against the knapsack branch and bound."""

import time
from fractions import Fraction

import numpy as np
import pytest

from prepaid_ems.config import DEFAULT_HOUSEHOLD, from_dict
from prepaid_ems.experiment import run_experiment
from prepaid_ems.forecast import export_csv, synth_household
from prepaid_ems.milp import build_obm, extract_schedule, solve_knapsack_bb
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    effective_budget,
)
from prepaid_ems.obm import solve_obm

KINDS = ("flat", "tied", "quantised", "noisy")


def corpus_instance(rng, kind):
    """1-4 loads over 1-2 days; a fifth of the loads never demand."""
    num_loads = int(rng.integers(1, 5))
    days = int(rng.integers(1, 3))
    # Noisy steps are all distinct items, which the depth-first oracle
    # only finishes quickly when there are few of them.
    grid = TimeGrid(4.0, 6, days) if kind == "noisy" else TimeGrid(1.0, 24, days)
    total = grid.total_steps
    power = np.zeros((num_loads, total))
    for k in range(num_loads):
        if rng.random() < 0.2:
            continue
        rated = float(rng.choice([150.0, 500.0, 1100.0, 1200.0]))
        on = rng.random(total) < rng.uniform(0.2, 1.0)
        if kind == "flat":
            level = np.full(total, rated)
        elif kind == "tied":  # every load draws the same power at the same steps
            rated, on = 500.0, np.arange(total) % 3 != 0
            level = np.full(total, rated)
        elif kind == "quantised":
            level = np.round(rated * rng.uniform(0.5, 1.5, total) / 100.0) * 100.0
        else:
            level = rated * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, total))
        power[k] = np.where(on, level, 0.0)
    if kind == "tied":
        gammas = [1.0] * num_loads
    else:
        gammas = [float(g) for g in rng.uniform(0.1, 1.0, num_loads)]
    loads = LoadSet.from_pairs((f"l{k}", g) for k, g in enumerate(gammas))
    demand = DemandSeries(grid, power)
    tariff = Tariff(0.00016)
    full = tariff.alpha * grid.step_hours * power.sum()
    fraction = float(rng.choice([0.0, 0.3, 0.7, 0.9, 2.0]))
    return demand, loads, tariff, Budget(full * fraction)


def step_costs(demand, tariff):
    return tariff.alpha * demand.grid.step_hours * demand.power


def exact_value(demand, loads, counts):
    demanded = (demand.power > 0).sum(axis=1)
    return sum(
        Fraction(loads.gammas[k] / float(demanded[k])) * int(n)
        for k, n in enumerate(counts)
        if n
    )


def assert_cheapest_prefixes(schedule, demand, tariff):
    cost = step_costs(demand, tariff)
    for k in range(demand.num_loads):
        demanded = np.flatnonzero(demand.power[k] > 0)
        ranked = demanded[np.argsort(cost[k, demanded], kind="stable")]
        count = int(schedule[k].sum())
        assert set(np.flatnonzero(schedule[k])) == set(ranked[:count])


@pytest.mark.parametrize("kind", KINDS)
def test_matches_branch_and_bound_on_seeded_corpus(kind):
    rng = np.random.default_rng(20240814 + KINDS.index(kind))
    for _ in range(150):
        demand, loads, tariff, budget = corpus_instance(rng, kind)
        schedule, objective = solve_obm(demand, loads, tariff, budget)
        model = build_obm(demand, loads, tariff, budget)
        solution = solve_knapsack_bb(model)
        reference = extract_schedule(
            model, solution, demand.num_loads, demand.grid.total_steps
        )
        assert objective.hex() == solution.objective.hex()
        assert exact_value(demand, loads, schedule.sum(axis=1)) == exact_value(
            demand, loads, reference.sum(axis=1)
        )
        assert schedule.dtype == np.int8
        assert not ((schedule == 1) & (demand.power <= 0)).any()
        assert_cheapest_prefixes(schedule, demand, tariff)
        spend = float((step_costs(demand, tariff) * schedule).sum())
        assert spend <= effective_budget(budget)


def test_zero_budget_and_ample_budget():
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((2, 24))
    power[0, :6] = 1000.0
    power[1, 3:9] = 200.0
    demand = DemandSeries(grid, power)
    loads = LoadSet.from_pairs([("a", 0.6), ("b", 0.4)])
    schedule, objective = solve_obm(demand, loads, Tariff(0.001), Budget(0.0))
    assert objective == 0.0 and not schedule.any()
    schedule, objective = solve_obm(demand, loads, Tariff(0.001), Budget(100.0))
    assert (schedule == (power > 0)).all()
    assert objective == pytest.approx(1.0, abs=1e-12)


def test_no_demand_and_shape_mismatch():
    grid = TimeGrid(1.0, 24, 1)
    loads = LoadSet.from_pairs([("a", 1.0)])
    schedule, objective = solve_obm(
        DemandSeries(grid, np.zeros((1, 24))), loads, Tariff(0.001), Budget(5.0)
    )
    assert objective == 0.0 and schedule.shape == (1, 24) and not schedule.any()
    with pytest.raises(ValueError, match="load set"):
        solve_obm(
            DemandSeries(grid, np.ones((2, 24))), loads, Tariff(0.001), Budget(5.0)
        )


def test_equal_cost_ties_go_to_the_earlier_step():
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((1, 24))
    power[0, [2, 5, 7, 11]] = 1000.0
    power[0, 9] = 500.0
    demand = DemandSeries(grid, power)
    schedule, _ = solve_obm(
        demand, LoadSet.from_pairs([("a", 1.0)]), Tariff(0.001), Budget(2.6)
    )
    assert np.flatnonzero(schedule[0]).tolist() == [2, 5, 9]


def test_tied_count_vectors_keep_the_first_visited():
    # Three identical loads, money for three of their six steps: every
    # split is optimal; the search visits load 0's largest count first.
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((3, 24))
    power[:, [4, 9]] = 1000.0
    loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.5), ("c", 0.5)])
    schedule, objective = solve_obm(
        DemandSeries(grid, power), loads, Tariff(0.001), Budget(3.5)
    )
    assert schedule.sum(axis=1).tolist() == [2, 1, 0]
    assert objective == 0.75


def noisy_household(seed, step_minutes=15, days=30):
    loads = LoadSet.from_pairs((name, g) for name, (g, _p) in DEFAULT_HOUSEHOLD.items())
    profiles = {name: p for name, (_g, p) in DEFAULT_HOUSEHOLD.items()}
    grid = TimeGrid.from_minutes(step_minutes, days)
    clean = synth_household(seed, loads, grid, profiles)
    rng = np.random.default_rng(seed)
    noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, clean.power.shape)
    return DemandSeries(grid, clean.power * noise), loads


def dantzig_bound(demand, loads, tariff, capacity):
    """Fractional-knapsack value over every demanded step."""
    cost = step_costs(demand, tariff)
    demanded = (demand.power > 0).sum(axis=1)
    items = [
        (loads.gammas[k] / demanded[k], cost[k, t])
        for k in range(demand.num_loads)
        for t in np.flatnonzero(demand.power[k] > 0)
    ]
    items.sort(key=lambda item: -item[0] / item[1])
    total = 0.0
    for v, c in items:
        if c > capacity:
            return total + capacity * v / c
        total += v
        capacity -= c
    return total


def test_paper_scale_noisy_household_within_one_item_of_the_bound():
    demand, loads = noisy_household(seed=5)
    tariff = Tariff(0.00016)
    item_value = max(
        loads.gammas[k] / (demand.power[k] > 0).sum() for k in range(demand.num_loads)
    )
    start = time.perf_counter()
    for fraction in (0.7, 0.8, 0.9):
        budget = compute_budget(demand, tariff, fraction)
        schedule, objective = solve_obm(demand, loads, tariff, budget)
        bound = dantzig_bound(demand, loads, tariff, effective_budget(budget))
        assert bound - item_value <= objective <= bound + 1e-12
        assert float((step_costs(demand, tariff) * schedule).sum()) <= effective_budget(
            budget
        )
        assert_cheapest_prefixes(schedule, demand, tariff)
    assert time.perf_counter() - start < 10.0


def test_experiment_runs_obm_on_a_noisy_csv_household(tmp_path):
    demand, loads = noisy_household(seed=8)
    export_csv(demand, loads, tmp_path / "noisy.csv")
    config = from_dict(
        {
            "loads": [
                {"name": n, "gamma": float(g)} for n, g in zip(loads.names, loads.gammas)
            ],
            "data": {"csv": "noisy.csv"},
            "alpha_per_wh": 0.00016,
            "step_minutes": 15,
            "horizon_days": 30,
            "budget_fractions": [0.7, 0.8, 0.9],
            "regimes": [
                "perfect-detailed",
                "perfect-limited",
                "imperfect-detailed",
                "imperfect-limited",
            ],
            "shuffle_seed": 8,
            "policies": ["BSL", "OBM"],
            "output_dir": "out",
        },
        tmp_path,
    )
    results = run_experiment(config)
    obm = [c for c in results.cells if c.policy == "OBM"]
    assert len(obm) == 12
    assert all(c.status == "ok" and c.result is not None for c in obm)
    for cell in obm:
        if cell.regime.label == "perfect-detailed":
            assert cell.result.psf == pytest.approx(cell.solver_objective, abs=1e-9)
