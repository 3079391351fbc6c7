"""Step-by-step reference simulator.

These are the wallet simulator's original per-step loops, kept as the
oracle the event-driven kernel in ``prepaid_ems.sim`` is compared
against bit for bit. Threshold plans run under either enable rule:
``latching=True`` keeps a load off for the rest of the day once its
threshold trips, ``latching=False`` re-evaluates every step. The two
agree because the virtual balance never rises within a day. The DFM
grid search's original enumeration loop and the original row-by-row
trace writer are kept the same way.
"""

import csv
import io
import itertools

import numpy as np

from prepaid_ems.afg import ThresholdPlan
from prepaid_ems.milp.core import default_constants
from prepaid_ems.model import daily_average
from prepaid_ems.sim import _finalize


def simulate_thresholds(plan, truth, loads, tariff, budget, latching=True):
    num_loads, total = truth.power.shape
    grid = truth.grid
    cost_factor = tariff.alpha * grid.step_hours
    real = budget.initial_balance
    virtual = 0.0
    spend = 0.0
    disconnected = False
    actuation = np.zeros((num_loads, total), dtype=np.int8)
    z_trace = np.empty(total)
    x_trace = np.empty(total)
    eligible = np.ones(num_loads, dtype=bool)

    for t in range(total):
        day = grid.day_of(t)
        if t % grid.steps_per_day == 0:
            virtual += plan.recharges[day]
            eligible[:] = True
        z_trace[t] = real
        x_trace[t] = virtual
        if real <= 0:
            disconnected = True
        if disconnected:
            continue
        meets = virtual >= plan.thresholds[:, day]
        if latching:
            eligible &= meets
            enabled = eligible
        else:
            enabled = meets
        served = enabled & (truth.power[:, t] > 0)
        if served.any():
            actuation[served, t] = 1
            cost = cost_factor * float(truth.power[served, t].sum())
            real -= cost
            virtual -= cost
            spend += cost
    return _finalize(
        truth, loads, budget, actuation, z_trace, x_trace, real, virtual, spend
    )


def simulate_schedule(schedule, truth, loads, tariff, budget):
    sched = np.asarray(schedule)
    grid = truth.grid
    num_loads, total = truth.power.shape
    cost_factor = tariff.alpha * grid.step_hours
    real = budget.initial_balance
    spend = 0.0
    disconnected = False
    actuation = np.zeros((num_loads, total), dtype=np.int8)
    z_trace = np.empty(total)

    for t in range(total):
        z_trace[t] = real
        if real <= 0:
            disconnected = True
        if disconnected:
            continue
        served = (sched[:, t] == 1) & (truth.power[:, t] > 0)
        if served.any():
            actuation[served, t] = 1
            cost = cost_factor * float(truth.power[served, t].sum())
            real -= cost
            spend += cost
    return _finalize(truth, loads, budget, actuation, z_trace, None, real, None, spend)


def solve_dfm_grid(demand, loads, tariff, budget, grid_resolution):
    """The DFM grid search's original enumeration: every combination of
    per-load-day candidates simulated in turn by the step loop. Returns
    the first best thresholds, their PSF and the enumeration indices of
    every combination that reaches that PSF."""
    num_days = demand.grid.num_days
    recharge = budget.initial_balance / num_days
    recharges = np.full(num_days, recharge)
    avg = daily_average(demand)
    eps = default_constants(demand, tariff, budget).indicator_eps
    active = [recharge * (i + 1) / grid_resolution for i in range(grid_resolution)]
    cells = []
    candidates = []
    for k in range(demand.num_loads):
        for day in range(num_days):
            cells.append((k, day))
            pinned_off = recharge * (day + 1) + eps
            candidates.append(
                [0.0, *active, pinned_off] if avg.power[k, day] > 0 else [pinned_off]
            )
    best_psf = -np.inf
    best_thresholds = None
    ties = []
    thresholds = np.zeros((demand.num_loads, num_days))
    for index, combo in enumerate(itertools.product(*candidates)):
        for (k, day), value in zip(cells, combo):
            thresholds[k, day] = value
        plan = ThresholdPlan(thresholds, recharges)
        result = simulate_thresholds(plan, demand, loads, tariff, budget, latching=False)
        if result.psf > best_psf:
            best_psf = result.psf
            best_thresholds = thresholds.copy()
            ties = [index]
        elif result.psf == best_psf:
            ties.append(index)
    return best_thresholds, best_psf, ties


def trace_csv_text(result, loads):
    """The trace file ``sim.write_trace_csv`` writes, row by row through
    ``csv.writer`` as the original writer did."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["t", "real_balance", "virtual_balance", *(f"a_{n}" for n in loads.names)]
    )
    virtual = result.virtual_balance_trace
    for t in range(result.actuation.shape[1]):
        writer.writerow(
            [
                t,
                repr(float(result.real_balance_trace[t])),
                "" if virtual is None else repr(float(virtual[t])),
                *(int(v) for v in result.actuation[:, t]),
            ]
        )
    return buf.getvalue()
