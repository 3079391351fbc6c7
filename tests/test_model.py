import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepaid_ems.model import (
    Budget,
    DemandSeries,
    Load,
    LoadSet,
    Tariff,
    TimeGrid,
    compute_budget,
    daily_average,
    demand_indicator,
    effective_budget,
    psf,
)


class TestTypes:
    def test_load_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            Load("fridge", 0.0)
        with pytest.raises(ValueError):
            Load("fridge", -1.0)
        with pytest.raises(ValueError):
            Load("fridge", float("nan"))

    def test_loadset_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            LoadSet.from_pairs([("a", 1.0), ("a", 2.0)])

    def test_grid_must_fill_a_day(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 23, 1)
        grid = TimeGrid(0.25, 96, 30)
        assert grid.total_steps == 2880
        assert grid.day_of(96) == 1

    def test_grid_from_minutes(self):
        grid = TimeGrid.from_minutes(15, 30)
        assert grid.step_hours == 0.25 and grid.steps_per_day == 96
        with pytest.raises(ValueError):
            TimeGrid.from_minutes(7, 1)

    def test_tariff_and_budget_validation(self):
        with pytest.raises(ValueError):
            Tariff(0.0)
        with pytest.raises(ValueError):
            Budget(-0.01)
        assert Budget(0.0).initial_balance == 0.0

    def test_demand_series_validation(self):
        grid = TimeGrid(1.0, 24, 1)
        with pytest.raises(ValueError, match="negative"):
            DemandSeries(grid, [[-1.0] * 24])
        with pytest.raises(ValueError, match="timesteps"):
            DemandSeries(grid, [[1.0] * 23])
        with pytest.raises(ValueError, match="finite"):
            DemandSeries(grid, [[float("nan")] * 24])

    def test_demand_series_immutable(self):
        grid = TimeGrid(1.0, 24, 1)
        series = DemandSeries(grid, [[1.0] * 24])
        with pytest.raises(ValueError):
            series.power[0, 0] = 5.0


class TestComputeBudget:
    def test_worked_example(self):
        # one load, 100 W constant, 24 one-hour steps, alpha=0.001, 70%
        grid = TimeGrid(1.0, 24, 1)
        demand = DemandSeries(grid, [[100.0] * 24])
        budget = compute_budget(demand, Tariff(0.001), 0.7)
        assert budget.initial_balance == pytest.approx(1.68, abs=1e-12)

    def test_zero_fraction(self):
        grid = TimeGrid(1.0, 24, 1)
        demand = DemandSeries(grid, [[123.0] * 24])
        assert compute_budget(demand, Tariff(0.001), 0.0).initial_balance == 0.0

    def test_fraction_out_of_range(self):
        grid = TimeGrid(1.0, 24, 1)
        demand = DemandSeries(grid, [[1.0] * 24])
        with pytest.raises(ValueError):
            compute_budget(demand, Tariff(0.001), 1.1)
        with pytest.raises(ValueError):
            compute_budget(demand, Tariff(0.001), -0.1)

    @given(
        f1=st.floats(0, 0.5),
        f2=st.floats(0, 0.5),
        level=st.floats(0, 5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_fraction(self, f1, f2, level):
        grid = TimeGrid(1.0, 24, 1)
        demand = DemandSeries(grid, [[level] * 24])
        tariff = Tariff(0.001)
        z1 = compute_budget(demand, tariff, f1).initial_balance
        z2 = compute_budget(demand, tariff, f2).initial_balance
        z12 = compute_budget(demand, tariff, f1 + f2).initial_balance
        assert z1 + z2 == pytest.approx(z12, abs=1e-9)

    def test_effective_budget_holds_back_a_sliver(self):
        budget = Budget(10.0)
        assert 0 < budget.initial_balance - effective_budget(budget) < 1e-7


class TestDemandIndicator:
    def test_definition(self):
        grid = TimeGrid(8.0, 3, 1)
        demand = DemandSeries(grid, [[0.0, 5.0, 0.0]])
        assert demand_indicator(demand).tolist() == [[0, 1, 0]]

    def test_all_zero(self):
        grid = TimeGrid(8.0, 3, 1)
        demand = DemandSeries(grid, [[0.0, 0.0, 0.0]])
        assert demand_indicator(demand).sum() == 0

    def test_tiny_positive_counts(self):
        # strict > 0, no epsilon
        grid = TimeGrid(8.0, 3, 1)
        demand = DemandSeries(grid, [[0.0, 1e-9, 0.0]])
        assert demand_indicator(demand).tolist() == [[0, 1, 0]]


class TestDailyAverage:
    def test_two_half_day_steps(self):
        grid = TimeGrid(12.0, 2, 1)
        demand = DemandSeries(grid, [[0.0, 400.0]])
        avg = daily_average(demand)
        assert avg.power[0, 0] == pytest.approx(200.0)

    def test_constant_is_fixed_point(self):
        grid = TimeGrid(1.0, 24, 2)
        demand = DemandSeries(grid, [[100.0] * 48])
        assert np.allclose(daily_average(demand).power, 100.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cost_preserved(self, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(0.5, 48, 3)
        demand = DemandSeries(grid, rng.uniform(0, 2000, size=(3, grid.total_steps)))
        avg = daily_average(demand)
        alpha = 0.00016
        detailed = alpha * grid.step_hours * demand.power.sum()
        averaged = alpha * 24.0 * avg.power.sum()
        assert averaged == pytest.approx(detailed, rel=1e-9)


class TestPsf:
    def test_single_load(self):
        loads = LoadSet.from_pairs([("x", 1.0)])
        d = np.array([[1, 1, 1, 1, 0]])
        a = np.array([[1, 1, 1, 0, 0]])
        sf, value = psf(a, d, loads)
        assert sf[0] == pytest.approx(0.75)
        assert value == pytest.approx(0.75)

    def test_full_service_reaches_gamma_sum(self, two_loads):
        d = np.ones((2, 10), dtype=int)
        sf, value = psf(d, d, two_loads)
        assert np.allclose(sf, 1.0)
        assert value == pytest.approx(1.0)

    def test_worked_weighted_example(self, two_loads):
        # SF = (1, 3/24) with weights (0.7, 0.3)
        d = np.ones((2, 24), dtype=int)
        a = np.zeros((2, 24), dtype=int)
        a[0] = 1
        a[1, :3] = 1
        _, value = psf(a, d, two_loads)
        assert value == pytest.approx(0.7375)

    def test_served_without_demand_rejected(self, two_loads):
        d = np.zeros((2, 4), dtype=int)
        a = np.zeros((2, 4), dtype=int)
        a[1, 2] = 1
        with pytest.raises(ValueError, match="without demand"):
            psf(a, d, two_loads)

    def test_stacked_checks_report_the_first_offender(self, two_loads):
        d = np.array([[1, 0, 1, 0], [0, 1, 1, 0]])
        a = np.zeros((3, 2, 4), dtype=np.int8)
        a[2, 0, 1] = 1
        a[1, 1, 3] = 1
        with pytest.raises(ValueError, match="'pump' marked served at step 3 "):
            psf(a, d, two_loads)
        for bad in (2, np.nan):
            stack = a.astype(float)
            stack[2, 1, 2] = bad
            with pytest.raises(ValueError, match="must be binary"):
                psf(stack, d, two_loads)

    def test_never_demanded_load_excluded(self, two_loads):
        d = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
        a = np.array([[1, 1, 0, 0], [0, 0, 0, 0]])
        sf, value = psf(a, d, two_loads)
        assert sf[0] == pytest.approx(0.5)
        assert np.isnan(sf[1])
        assert value == pytest.approx(0.7 * 0.5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_actuation(self, seed):
        rng = np.random.default_rng(seed)
        loads = LoadSet.from_pairs([("a", 0.5), ("b", 0.3), ("c", 0.2)])
        d = (rng.random((3, 16)) < 0.6).astype(int)
        a = d * (rng.random((3, 16)) < 0.5).astype(int)
        _, base = psf(a, d, loads)
        off = np.argwhere((d == 1) & (a == 0))
        if len(off):
            k, t = off[rng.integers(len(off))]
            a2 = a.copy()
            a2[k, t] = 1
            _, bumped = psf(a2, d, loads)
            assert bumped >= base - 1e-12
        _, full = psf(d, d, loads)
        assert base <= full + 1e-12 <= 1.0 + 1e-9
