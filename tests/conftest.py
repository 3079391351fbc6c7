import numpy as np
import pytest

from prepaid_ems import afg
from prepaid_ems.model import DemandSeries, LoadSet, Tariff, TimeGrid


@pytest.fixture
def two_loads():
    return LoadSet.from_pairs([("heater", 0.7), ("pump", 0.3)])


@pytest.fixture
def tariff():
    return Tariff(0.001)


def constant_series(grid: TimeGrid, levels) -> DemandSeries:
    """Series where each load draws a constant power all horizon."""
    power = np.repeat(np.asarray(levels, dtype=float)[:, None], grid.total_steps, axis=1)
    return DemandSeries(grid, power)


def whole_steps(hours, grid: TimeGrid) -> np.ndarray:
    """The whole steps of ``grid`` that fit in ``hours``."""
    return np.floor(hours / grid.step_hours).astype(int)


def afg_plan(avg, loads, tariff, budget, grid: TimeGrid):
    """AFG's enable plan on the daily averages ``avg``, and the threshold
    plan that its whole steps of ``grid`` decode to."""
    plan = afg.solve_greedy(avg, loads, tariff, budget)
    steps = whole_steps(plan.durations, grid)[None]
    [thresholds] = afg.compute_thresholds(steps, avg, tariff, grid, [budget])
    return plan, thresholds


def assert_sim_invariants(result, truth, loads, tariff, budget):
    """Wallet-accounting invariants every simulation must satisfy."""
    grid = truth.grid
    cost = tariff.alpha * grid.step_hours * float(
        (truth.power * result.actuation).sum()
    )
    assert abs(result.total_spend - cost) <= 1e-9
    assert (
        abs(result.final_real_balance - (budget.initial_balance - result.total_spend))
        <= 1e-9
    )
    # never serve phantom demand
    assert not ((result.actuation == 1) & (truth.power <= 0)).any()
    # prepaid safety: nothing runs at a step that began without money
    served_any = result.actuation.any(axis=0)
    assert not (served_any & (result.real_balance_trace <= 0)).any()
    # the balance only moves by serving from a positive start, so it can
    # never sit below the cost of one fully-loaded step, and it freezes
    # once the wallet is empty
    z = result.real_balance_trace
    assert z[0] >= -1e-12
    max_step_cost = (
        tariff.alpha * grid.step_hours * float(truth.power.sum(axis=0).max())
        if truth.power.size
        else 0.0
    )
    assert (z >= -max_step_cost - 1e-9).all()
    assert result.final_real_balance >= -max_step_cost - 1e-9
    assert (np.diff(z) <= 1e-12).all()  # prepaid wallets never refill
