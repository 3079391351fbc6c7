"""Builders for the two MILP rationing formulations.

``build_obm`` produces the schedule benchmark: one binary per demanded
load-step and a single budget constraint -- a 0/1 knapsack.

``build_dfm`` produces the threshold benchmark: wallet balances evolve
through linear recurrences, big-M indicator pairs tie binary enable
signals to the balances ("is there money", "is the balance at or above
the threshold"), and the actuation of a demanded load-step is exactly
the conjunction of its enable signals.
"""

import numpy as np

from prepaid_ems.afg import pinned_off
from prepaid_ems.milp.core import MilpModel, Solution
from prepaid_ems.model import (
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    demand_indicator,
    effective_budget,
)

#: Smallest balance the indicator rows treat as "money in the wallet".
INDICATOR_EPS = 1e-6


def dfm_recharges(budget: Budget, num_days: int) -> np.ndarray:
    """The DFM's daily recharges: the budget split evenly over the days."""
    return np.full(num_days, budget.initial_balance / num_days)


def _wallet_bound(demand: DemandSeries, tariff: Tariff, budget: Budget) -> float:
    """Big-M bound on the magnitude of every balance the wallets reach.

    The wallet starts at the budget and can overshoot below zero by at
    most one step's worth of every load running simultaneously, so
    ``budget + alpha * dt * sum_k max_t P`` bounds its magnitude.
    """
    swing = tariff.alpha * demand.grid.step_hours * float(
        demand.power.max(axis=1).sum()
    )
    bound = budget.initial_balance + swing
    return bound if bound > 0 else 1.0  # degenerate zero-budget zero-demand model


def build_obm(
    demand: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> MilpModel:
    """Schedule benchmark: pick demanded load-steps within the budget.

    Binary actuation variables exist only where demand occurs (steps
    without demand are fixed off by omission); the objective weighs each
    load's steps by its priority over its demanded-step count, and one
    constraint keeps spend within the budget. The sweep solves OBM with
    ``prepaid_ems.obm.solve_obm``; this model feeds the knapsack oracle
    that ``solve_obm`` is checked against.
    """
    if demand.num_loads != len(loads):
        raise ValueError(
            f"series has {demand.num_loads} loads, load set has {len(loads)}"
        )
    d = demand_indicator(demand)
    demanded_steps = d.sum(axis=1)
    model = MilpModel()
    objective: dict[str, float] = {}
    costs: dict[str, float] = {}
    cost_factor = tariff.alpha * demand.grid.step_hours
    for k in range(demand.num_loads):
        if demanded_steps[k] == 0:
            continue
        weight = loads.gammas[k] / float(demanded_steps[k])
        for t in range(demand.grid.total_steps):
            if d[k, t] == 0:
                continue
            name = model.add_variable(
                f"a_k{k}_t{t}", binary=True, annotation=("actuation", k, t)
            )
            objective[name] = weight
            costs[name] = cost_factor * float(demand.power[k, t])
    if costs:
        model.add_constraint("budget", costs, "<=", effective_budget(budget))
    model.set_objective(objective)
    return model


def build_dfm(
    demand: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> MilpModel:
    """Threshold benchmark over per-timestep demand forecasts.

    Decision variables: per-load per-day thresholds, real and virtual
    wallet balances per step, real/virtual enable binaries, and binary
    actuations. The virtual wallet gets :func:`dfm_recharges` at each
    day start.

    The real balance needs one step beyond the horizon: serving the last
    step requires the wallet to stay positive after paying for it, so a
    boundary balance and its enable binaries are appended under the same
    recurrence and indicator constraints.
    """
    if demand.num_loads != len(loads):
        raise ValueError(
            f"series has {demand.num_loads} loads, load set has {len(loads)}"
        )
    eps = INDICATOR_EPS
    big = _wallet_bound(demand, tariff, budget)
    neg = -big

    grid = demand.grid
    num_loads = demand.num_loads
    total = grid.total_steps
    recharges = dfm_recharges(budget, grid.num_days)
    d = demand_indicator(demand)
    cost_factor = tariff.alpha * grid.step_hours

    model = MilpModel()
    # Balances: real gets a boundary step past the horizon.
    for t in range(total + 1):
        model.add_variable(
            f"z_t{t}", -np.inf, np.inf, annotation=("real_balance", t)
        )
    for t in range(total):
        model.add_variable(
            f"x_t{t}", -np.inf, np.inf, annotation=("virtual_balance", t)
        )
    # Thresholds: anything above the day's reachable balance behaves the
    # same, so a big upper bound loses nothing and tightens the big-M pairs.
    for k in range(num_loads):
        for day in range(grid.num_days):
            model.add_variable(
                f"thr_k{k}_d{day}", 0.0, big, annotation=("threshold", k, day)
            )
    for k in range(num_loads):
        for t in range(total + 1):
            model.add_variable(
                f"uz_k{k}_t{t}", binary=True, annotation=("real_enable", k, t)
            )
    for k in range(num_loads):
        for t in range(total):
            model.add_variable(
                f"ux_k{k}_t{t}", binary=True, annotation=("virtual_enable", k, t)
            )
    for k in range(num_loads):
        for t in range(total):
            model.add_variable(
                f"a_k{k}_t{t}", binary=True, annotation=("actuation", k, t)
            )

    def spend_coeffs(t: int) -> dict[str, float]:
        return {
            f"a_k{k}_t{t}": cost_factor * float(demand.power[k, t])
            for k in range(num_loads)
            if demand.power[k, t] > 0
        }

    # Real wallet recurrence; the budget enters at the first step.
    model.add_constraint("real_wallet_t0", {"z_t0": 1.0}, "=", budget.initial_balance)
    for t in range(1, total + 1):
        coeffs = {f"z_t{t}": 1.0, f"z_t{t - 1}": -1.0}
        coeffs.update(spend_coeffs(t - 1))
        model.add_constraint(f"real_wallet_t{t}", coeffs, "=", 0.0)
    # Virtual wallet recurrence; the recharge enters at each day start.
    model.add_constraint("virtual_wallet_t0", {"x_t0": 1.0}, "=", recharges[0])
    for t in range(1, total):
        coeffs = {f"x_t{t}": 1.0, f"x_t{t - 1}": -1.0}
        coeffs.update(spend_coeffs(t - 1))
        rhs = recharges[grid.day_of(t)] if t % grid.steps_per_day == 0 else 0.0
        model.add_constraint(f"virtual_wallet_t{t}", coeffs, "=", rhs)

    for k in range(num_loads):
        # Real enable iff the real balance is positive.
        for t in range(total + 1):
            model.add_constraint(
                f"real_on_k{k}_t{t}",
                {f"uz_k{k}_t{t}": neg, f"z_t{t}": 1.0},
                "<=",
                0.0,
            )
            model.add_constraint(
                f"real_off_k{k}_t{t}",
                {f"z_t{t}": 1.0, f"uz_k{k}_t{t}": -(big + eps)},
                ">=",
                -big,
            )
        for t in range(total):
            day = grid.day_of(t)
            thr = f"thr_k{k}_d{day}"
            # Virtual enable iff the balance is at or above the threshold.
            model.add_constraint(
                f"virt_on_k{k}_t{t}",
                {f"x_t{t}": 1.0, thr: -1.0, f"ux_k{k}_t{t}": -(big + eps)},
                "<=",
                -eps,
            )
            model.add_constraint(
                f"virt_off_k{k}_t{t}",
                {f"x_t{t}": 1.0, thr: -1.0, f"ux_k{k}_t{t}": neg},
                ">=",
                neg,
            )
            # Actuation = demand AND virtual enable AND real enable now
            # and after paying for the step.
            a = f"a_k{k}_t{t}"
            if d[k, t]:
                model.add_constraint(
                    f"act_virtual_k{k}_t{t}",
                    {a: 1.0, f"ux_k{k}_t{t}": -1.0},
                    "<=",
                    0.0,
                )
            else:
                model.add_constraint(f"act_nodemand_k{k}_t{t}", {a: 1.0}, "<=", 0.0)
            model.add_constraint(
                f"act_real_now_k{k}_t{t}",
                {a: 1.0, f"uz_k{k}_t{t}": -1.0},
                "<=",
                0.0,
            )
            model.add_constraint(
                f"act_real_next_k{k}_t{t}",
                {a: 1.0, f"uz_k{k}_t{t + 1}": -1.0},
                "<=",
                0.0,
            )
            force = {
                f"uz_k{k}_t{t}": 1.0,
                f"uz_k{k}_t{t + 1}": 1.0,
                a: -1.0,
            }
            if d[k, t]:
                force[f"ux_k{k}_t{t}"] = 1.0
            model.add_constraint(f"act_force_k{k}_t{t}", force, "<=", 2.0)

    demanded_steps = d.sum(axis=1)
    objective = {}
    for k in range(num_loads):
        if demanded_steps[k] == 0:
            continue
        weight = loads.gammas[k] / float(demanded_steps[k])
        for t in range(total):
            objective[f"a_k{k}_t{t}"] = weight
    model.set_objective(objective)
    return model


def _decode_binary(value: float, name: str) -> int:
    rounded = round(value)
    if abs(value - rounded) > 1e-6 or rounded not in (0, 1):
        raise ValueError(f"variable {name!r} is not binary: {value}")
    return int(rounded)


def extract_schedule(
    model: MilpModel, solution: Solution, num_loads: int, num_steps: int
) -> np.ndarray:
    """Actuation matrix from a solved model; absent entries are off."""
    schedule = np.zeros((num_loads, num_steps), dtype=np.int8)
    for name, annotation in model.annotations.items():
        if annotation[0] != "actuation":
            continue
        _, k, t = annotation
        schedule[k, t] = _decode_binary(solution.values.get(name, 0.0), name)
    return schedule


def extract_thresholds(
    model: MilpModel,
    solution: Solution,
    demand: DemandSeries,
    tariff: Tariff,
    recharges: np.ndarray,
) -> np.ndarray:
    """Threshold matrix ``[load, day]`` that makes the simulator repeat a
    solved DFM model's actuation on ``demand``, the model's forecast view,
    with ``recharges`` the model's daily recharges: the
    :func:`mid_band_thresholds` of the decoded actuation. The solver's
    own thresholds sit on a balance the virtual wallet reaches, so float
    dust in the simulator would decide whether the load is still on
    there.
    """
    grid = demand.grid
    served = extract_schedule(model, solution, demand.num_loads, grid.total_steps)
    return mid_band_thresholds(served, demand, tariff, recharges)


def mid_band_thresholds(
    served: np.ndarray,
    demand: DemandSeries,
    tariff: Tariff,
    recharges: np.ndarray,
) -> np.ndarray:
    """Threshold matrix ``[load, day]`` that makes the simulator repeat
    the actuation ``served[load, step]`` on ``demand``, with
    ``recharges`` the daily recharges.

    The actuation is paid for on ``demand``, and each load-day's
    threshold goes mid-band: halfway between the virtual balance at the
    start of the load's last served step and the balance after paying
    for it, the next lower one the view reaches. A load-day never
    served is pinned off, as in AFG.
    """
    grid = demand.grid
    num_loads, num_days, n = demand.num_loads, grid.num_days, grid.steps_per_day
    cost = tariff.alpha * grid.step_hours * (demand.power * served).sum(axis=0)
    cost = cost.reshape(num_days, n)
    # Virtual balance at each step start of each day, and after its last step.
    spent = np.cumsum(cost.sum(axis=1))
    start = np.cumsum(recharges) - np.concatenate([[0.0], spent[:-1]])
    balance = start[:, None] - np.concatenate(
        [np.zeros((num_days, 1)), np.cumsum(cost, axis=1)], axis=1
    )
    served = np.asarray(served).reshape(num_loads, num_days, n).astype(bool)
    last = n - 1 - np.argmax(served[..., ::-1], axis=2)
    days = np.arange(num_days)
    mid = (balance[days, last] + balance[days, last + 1]) / 2
    return np.where(served.any(axis=2), np.maximum(mid, 0.0), pinned_off(recharges))
