"""The OBM count search against the knapsack branch and bound and against
the plain search it replaced (`sim_reference.count_search`)."""

import functools
import itertools
import math
import operator
import time
from fractions import Fraction

import numpy as np
import pytest

import sim_reference
from prepaid_ems.config import DEFAULT_HOUSEHOLD, from_dict
from prepaid_ems.experiment import run_experiment
from prepaid_ems.forecast import (
    Fidelity,
    ForecastSpec,
    Granularity,
    export_csv,
    synth_household,
    to_limited,
)
from prepaid_ems.milp import build_obm, extract_schedule, solve_knapsack_bb
from prepaid_ems.model import (
    BUDGET_MARGIN,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    effective_budget,
)
from prepaid_ems import obm
from prepaid_ems.obm import plan_view

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
        schedule, objective = plan_view(demand, loads, tariff, [budget])[0]
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
    schedule, objective = plan_view(demand, loads, Tariff(0.001), [Budget(0.0)])[0]
    assert objective == 0.0 and not schedule.any()
    schedule, objective = plan_view(demand, loads, Tariff(0.001), [Budget(100.0)])[0]
    assert (schedule == (power > 0)).all()
    assert objective == pytest.approx(1.0, abs=1e-12)


def test_no_demand_and_shape_mismatch():
    grid = TimeGrid(1.0, 24, 1)
    loads = LoadSet.from_pairs([("a", 1.0)])
    schedule, objective = plan_view(
        DemandSeries(grid, np.zeros((1, 24))), loads, Tariff(0.001), [Budget(5.0)]
    )[0]
    assert objective == 0.0 and schedule.shape == (1, 24) and not schedule.any()
    with pytest.raises(ValueError, match="load set"):
        plan_view(
            DemandSeries(grid, np.ones((2, 24))), loads, Tariff(0.001), [Budget(5.0)]
        )


def test_equal_cost_ties_go_to_the_earlier_step():
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((1, 24))
    power[0, [2, 5, 7, 11]] = 1000.0
    power[0, 9] = 500.0
    demand = DemandSeries(grid, power)
    schedule, _ = plan_view(
        demand, LoadSet.from_pairs([("a", 1.0)]), Tariff(0.001), [Budget(2.6)]
    )[0]
    assert np.flatnonzero(schedule[0]).tolist() == [2, 5, 9]


def test_tied_count_vectors_keep_the_first_visited():
    # Three identical loads, money for three of their six steps: every
    # split is optimal; the search visits load 0's largest count first.
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((3, 24))
    power[:, [4, 9]] = 1000.0
    loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.5), ("c", 0.5)])
    schedule, objective = plan_view(
        DemandSeries(grid, power), loads, Tariff(0.001), [Budget(3.5)]
    )[0]
    assert schedule.sum(axis=1).tolist() == [2, 1, 0]
    assert objective == 0.75


def default_household(seed, step_minutes=15, days=30):
    """The default household, synthesized (paper scale by default)."""
    loads = LoadSet.from_pairs((name, g) for name, (g, _p) in DEFAULT_HOUSEHOLD.items())
    profiles = {name: p for name, (_g, p) in DEFAULT_HOUSEHOLD.items()}
    grid = TimeGrid.from_minutes(step_minutes, days)
    return synth_household(seed, loads, grid, profiles), loads


def noisy_household(seed, step_minutes=15, days=30):
    clean, loads = default_household(seed, step_minutes, days)
    rng = np.random.default_rng(seed)
    noise = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, clean.power.shape)
    return DemandSeries(clean.grid, clean.power * noise), loads


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
        schedule, objective = plan_view(demand, loads, tariff, [budget])[0]
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


def search_items(view, loads, tariff):
    """Each load's demanded step costs, cheapest first, and its value per
    served step: what ``plan_view`` hands the count search."""
    cost = step_costs(view, tariff)
    costs, values = [], []
    for k in range(view.num_loads):
        demanded = cost[k, view.power[k] > 0]
        costs.append(np.sort(demanded, kind="stable"))
        values.append(loads.gammas[k] / float(len(demanded)) if len(demanded) else 0.0)
    return costs, values


def greedy_ranking(costs, values):
    """Load and cost of every demanded step in falling value/cost order,
    stable over the loads in the search's order (best first step first)."""
    order = sorted(
        (k for k in range(len(costs)) if len(costs[k])),
        key=lambda k: -values[k] / costs[k][0],
    )
    load = np.concatenate([np.zeros(0, int), *(np.full(len(costs[k]), k) for k in order)])
    cost = np.concatenate([np.zeros(0), *(costs[k] for k in order)])
    rank = np.argsort(-np.asarray(values)[load] / cost, kind="stable")
    return load[rank], cost[rank]


def greedy_counts(costs, values, capacity):
    """Steps per load taken by the greedy ranking before its break."""
    load, cost = greedy_ranking(costs, values)
    fits = int(np.searchsorted(np.cumsum(cost), capacity, side="right"))
    return np.bincount(load[:fits], minlength=len(costs)).tolist()


def budget_spending(capacity):
    """A budget whose effective amount is ``capacity`` exactly, if any."""
    balance = capacity / (1.0 - BUDGET_MARGIN)
    for candidate in (balance, np.nextafter(balance, np.inf), np.nextafter(balance, 0)):
        if effective_budget(Budget(float(candidate))) == capacity:
            return Budget(float(candidate))
    return None


def even_instance(rng):
    """3-4 loads of eight demanded steps each and equal priority: every
    step is worth 1/8, so count vectors with the same total tie exactly."""
    num_loads = int(rng.integers(3, 5))
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((num_loads, grid.total_steps))
    for k in range(num_loads):
        steps = rng.choice(grid.total_steps, 8, replace=False)
        power[k, steps] = rng.choice([200.0, 400.0, 600.0, 1000.0], 8)
    loads = LoadSet.from_pairs((f"l{k}", 1.0) for k in range(num_loads))
    tariff = Tariff(0.001)
    full = tariff.alpha * power.sum()
    return DemandSeries(grid, power), loads, tariff, Budget(full * rng.uniform(0.2, 0.8))


def identity_corpus():
    """OBM cells: paper-scale limited and detailed views, the small
    seeded corpus, equal-priority plateaus, and budgets that spend
    exactly a prefix of the greedy ranking."""
    tariff = Tariff(0.00016)
    for seed in (3, 11):
        truth, loads = default_household(seed)
        for view in (to_limited(truth), truth):
            for fraction in (0.7, 0.8, 0.9):
                yield view, loads, tariff, compute_budget(truth, tariff, fraction)
    rng = np.random.default_rng(20241007)
    for kind in KINDS:
        for _ in range(60):
            yield corpus_instance(rng, kind)
    for _ in range(150):
        yield even_instance(rng)
    for kind in ("flat", "quantised", "noisy", "even"):
        for _ in range(60):
            if kind == "even":
                demand, loads, tariff, _budget = even_instance(rng)
            else:
                demand, loads, tariff, _budget = corpus_instance(rng, kind)
            _load, cost = greedy_ranking(*search_items(demand, loads, tariff))
            if len(cost):
                spent = float(np.cumsum(cost)[rng.integers(len(cost))])
                budget = budget_spending(spent)
                if budget is not None:
                    yield demand, loads, tariff, budget


def test_counts_and_objective_match_the_reference_search():
    """Starting from the greedy incumbent keeps the first maximum the
    plain search visits: same counts, same objective bits."""
    cells = greedy_optimal_elsewhere = greedy_too_dear = 0
    for view, loads, tariff, budget in identity_corpus():
        capacity = effective_budget(budget)
        costs, values = search_items(view, loads, tariff)
        want = sim_reference.count_search(costs, values, capacity)
        schedule, objective = plan_view(view, loads, tariff, [budget])[0]
        got = schedule.sum(axis=1).tolist()
        assert got == want
        served = itertools.chain.from_iterable(
            itertools.repeat(values[k], n) for k, n in enumerate(want)
        )
        assert objective.hex() == functools.reduce(operator.add, served, 0.0).hex()
        greedy = greedy_counts(costs, values, capacity)
        greedy_value = exact_value(view, loads, greedy)
        best_value = exact_value(view, loads, want)
        cells += 1
        greedy_optimal_elsewhere += greedy_value == best_value and greedy != want
        greedy_too_dear += greedy_value > best_value
    # The corpus holds greedy vectors that tie the optimum but come after
    # the first maximum visited, and greedy vectors the search's own
    # float cost chain cannot afford.
    assert cells > 600 and greedy_optimal_elsewhere >= 20 and greedy_too_dear >= 20


def test_incumbent_is_cut_to_the_search_cap_chain():
    # Steps of 355.4 $ and 382.7 $ add up to the budget in the greedy
    # ranking's float sum, but the search's chain leaves
    # 738.0999999999999 - 355.4 = 382.69999999999993 for the second.
    grid = TimeGrid(1.0, 24, 1)
    power = np.zeros((4, 24))
    power[:, 5] = [355.4, 382.7, 5000.0, 6000.0]
    demand = DemandSeries(grid, power)
    loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.4), ("c", 0.02), ("d", 0.01)])
    tariff, budget = Tariff(1.0), budget_spending(355.4 + 382.7)
    costs, values = search_items(demand, loads, tariff)
    assert greedy_counts(costs, values, effective_budget(budget)) == [1, 1, 0, 0]
    schedule, objective = plan_view(demand, loads, tariff, [budget])[0]
    assert schedule.sum(axis=1).tolist() == [1, 0, 0, 0] and objective == 0.5


def test_objective_adds_left_to_right():
    """The objective is the left-to-right float sum of the served steps'
    values, on a list where pairwise and compensated sums (numpy's
    ``sum``, Python's ``sum`` since 3.12) give other bits."""
    demand, loads = noisy_household(seed=8, step_minutes=60, days=2)
    tariff = Tariff(0.00016)
    schedule, objective = plan_view(demand, loads, tariff, [Budget(1e6)])[0]
    assert (schedule == (demand.power > 0)).all()
    served = [
        loads.gammas[k] / float(n)
        for k, n in enumerate(schedule.sum(axis=1))
        for _ in range(n)
    ]
    left_to_right = functools.reduce(operator.add, served, 0.0)
    assert math.fsum(served) != left_to_right != float(np.sum(served))
    assert objective == left_to_right


def test_limited_view_without_a_long_tail():
    """A paper-scale limited view whose plain search kept raising its
    best value a little at a time for 0.6 s."""
    truth, loads = default_household(19 << 20)
    view, tariff = to_limited(truth), Tariff(0.00016)
    budget = compute_budget(truth, tariff, 0.7)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        plan_view(view, loads, tariff, [budget])
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1


def reference_plan(view, loads, tariff, budget):
    """Counts and objective bits of the plain search for one budget."""
    costs, values = search_items(view, loads, tariff)
    counts = sim_reference.count_search(costs, values, effective_budget(budget))
    served = itertools.chain.from_iterable(
        itertools.repeat(values[k], n) for k, n in enumerate(counts)
    )
    return counts, functools.reduce(operator.add, served, 0.0).hex()


@pytest.mark.parametrize(
    "pair_calls, frontier_cap",
    [
        pytest.param(
            obm.PAIR_CALLS_BEFORE_FRONTIER,
            obm.FRONTIER_CAP,
            id=str(obm.PAIR_CALLS_BEFORE_FRONTIER),
        ),
        pytest.param(0, obm.FRONTIER_CAP, id="0"),
        pytest.param(0, 1, id="0-frontier_cap-1"),
    ],
)
def test_view_plans_match_single_budget_solves(monkeypatch, pair_calls, frontier_cap):
    """One ``plan_view`` over all of a view's budgets gives each budget
    the schedule and objective bits of a ``plan_view`` of that budget
    alone and the counts of the plain search, with the staircase bound
    built as late as the sweep builds it, from the first pair call on,
    and never (past ``FRONTIER_CAP``, the search keeps the Dantzig
    bound)."""
    monkeypatch.setattr(obm, "PAIR_CALLS_BEFORE_FRONTIER", pair_calls)
    monkeypatch.setattr(obm, "FRONTIER_CAP", frontier_cap)
    staircases = []
    build = obm._pair_frontier

    def counted(*args):
        staircases.append(build(*args))
        return staircases[-1]

    monkeypatch.setattr(obm, "_pair_frontier", counted)
    cells = 0
    for _, group in itertools.groupby(identity_corpus(), key=lambda c: id(c[0])):
        group = list(group)
        view, loads, tariff, _ = group[0]
        plans = plan_view(view, loads, tariff, [budget for *_, budget in group])
        for (_, _, _, budget), (schedule, objective) in zip(group, plans):
            alone, alone_objective = plan_view(view, loads, tariff, [budget])[0]
            assert (schedule == alone).all()
            assert objective.hex() == alone_objective.hex()
            want = reference_plan(view, loads, tariff, budget)
            assert (schedule.sum(axis=1).tolist(), objective.hex()) == want
            cells += 1
    assert cells > 600
    assert staircases
    fallbacks = [staircase is None for staircase in staircases]
    assert all(fallbacks) if frontier_cap == 1 else not any(fallbacks)


def test_shuffled_view_reuses_its_source_counts():
    truth, loads = default_household(11)
    tariff = Tariff(0.00016)
    budgets = [compute_budget(truth, tariff, f) for f in (0.7, 0.8, 0.9)]
    shuffled = ForecastSpec(Fidelity.IMPERFECT_SHUFFLED, Granularity.LIMITED, 4)
    views = [to_limited(truth), shuffled.apply(truth)]
    known = {}
    for view in views:
        plans = plan_view(view, loads, tariff, budgets, known)
        for budget, (schedule, objective) in zip(budgets, plans):
            alone, alone_objective = plan_view(view, loads, tariff, [budget])[0]
            assert (schedule == alone).all()
            assert objective.hex() == alone_objective.hex()
    assert len(known) == 1


def test_limited_view_plateau():
    """A paper-scale limited view where thousands of count vectors tie
    the optimum: the plain search took ~2 s, proving each tie against a
    bound one step loose. Counts and objective bits are the plain
    search's."""
    truth, loads = default_household((77 << 20) + 18)
    view, tariff = to_limited(truth), Tariff(0.00016)
    budget = compute_budget(truth, tariff, 0.8)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        schedule, objective = plan_view(view, loads, tariff, [budget])[0]
        elapsed.append(time.perf_counter() - start)
    assert schedule.sum(axis=1).tolist() == [2802, 768, 2396, 1156]
    assert objective.hex() == "0x1.b86d61f8f0677p-1"
    assert min(elapsed) < 0.1


@pytest.mark.parametrize("seed", range(6))
def test_pair_staircase_is_the_best_value_within_each_cap(seed):
    """The staircase's best value within a cap is the most the two
    loads reach within it, on flat costs with tying values."""
    rng = np.random.default_rng(seed)
    costs, values = [], []
    for _ in range(2):
        levels = rng.choice([0.001, 0.0015, 0.002, 0.003], int(rng.integers(1, 4)))
        costs.append(np.sort(rng.choice(levels, int(rng.integers(1, 120)))))
        values.append(float(rng.integers(1, 5)) / 1000.0)
    costs.append(np.array([0.0005]))  # a third load, so the search keeps tables
    values.append(1.0)
    search = obm._CountSearch(costs, values)
    a, b = search.order[-2:]
    frontier = obm._pair_frontier(
        search.prefix[a],
        values[a],
        search.prefix[b],
        values[b],
        search.tables[1],
        search.pair_a,
        search.slack,
    )
    caps = rng.uniform(0.0, search.prefix[a][-1] + search.prefix[b][-1], 200)
    best, _ = obm._staircase(frontier, caps)
    for cap, got in zip(caps, best):
        na = np.arange(np.searchsorted(search.prefix[a], cap, side="right"))
        nb = np.searchsorted(search.prefix[b], cap - search.prefix[a][na], side="right")
        want = float(np.max(na * values[a] + (nb - 1) * values[b]))
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("loads", [2, 3])
def test_equal_ratios_keep_the_first_maximum(loads):
    """Loads whose steps all give the same value per dollar: every count
    of the first of the last two loads comes within a step of the most,
    and float rounding alone picks the first maximum visited."""
    grid = TimeGrid(1.0, 24, 10)
    power = np.zeros((loads, grid.total_steps))
    power[0, ::2] = 3000.0
    power[1, 1::3] = 7000.0
    if loads == 3:
        power[2, ::5] = 1100.0
    demand = DemandSeries(grid, power)
    demanded = (power > 0).sum(axis=1)
    # gamma_k / N_k proportional to the step cost: one ratio for all.
    load_set = LoadSet.from_pairs(
        (f"l{k}", float(power[k].max() * demanded[k] / 2e4)) for k in range(loads)
    )
    tariff = Tariff(0.001)
    costs, values = search_items(demand, load_set, tariff)
    full = float(sum(c.sum() for c in costs))
    for capacity in np.linspace(0.0, full, 61):
        budget = budget_spending(float(capacity))
        if budget is None:
            continue
        schedule, objective = plan_view(demand, load_set, tariff, [budget])[0]
        want = reference_plan(demand, load_set, tariff, budget)
        assert (schedule.sum(axis=1).tolist(), objective.hex()) == want
