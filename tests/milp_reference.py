"""The threshold MILP (DFM) as a plain model, its decode, and an
independent feasibility checker: reference code for the tests.

``build_dfm`` produces the threshold benchmark: wallet balances evolve
through linear recurrences, big-M indicator pairs tie binary enable
signals to the balances ("is there money", "is the balance at or above
the threshold"), and the actuation of a demanded load-step is exactly
the conjunction of its enable signals. The sweep never builds it: DFM
is solved exactly by ``prepaid_ems.dfm``, which these models check.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.dfm import planned_recharges
from prepaid_ems.milp import MilpModel, Solution, extract_schedule
from prepaid_ems.model import (
    BUDGET_MARGIN,
    Budget,
    DemandSeries,
    LoadSet,
    Tariff,
    ThresholdPlan,
    demand_indicator,
    mid_band_thresholds,
)

#: Smallest balance the indicator rows treat as "money in the wallet",
#: and the least a balance must fall below a threshold to disable a
#: load. It is kept well above HiGHS's MIP feasibility tolerance (1e-6):
#: at 1e-6, HiGHS returned plans that end the real wallet at 0.0 and that
#: keep a load off at a balance equal to its threshold.
INDICATOR_EPS = 1e-4


def _wallet_bound(demand: DemandSeries, tariff: Tariff, budget: Budget) -> float:
    """Big-M bound on the magnitude of every balance the wallets reach.

    The real wallet starts at the budget and can overshoot below zero
    by at most one step's worth of every load running simultaneously.
    The virtual wallet holds at most the margin plus what one day
    spends, which the real wallet keeps within the budget. So
    ``budget + margin + alpha * dt * sum_k max_t P`` bounds both.
    """
    swing = tariff.alpha * demand.grid.step_hours * float(
        demand.power.max(axis=1).sum()
    )
    bound = budget.initial_balance * (1.0 + BUDGET_MARGIN) + swing
    return bound if bound > 0 else 1.0  # degenerate zero-budget zero-demand model


def build_dfm(
    demand: DemandSeries, loads: LoadSet, tariff: Tariff, budget: Budget
) -> MilpModel:
    """Threshold benchmark over per-timestep demand forecasts.

    Decision variables: per-load per-day thresholds, real and virtual
    wallet balances per step, real/virtual enable binaries, and binary
    actuations. Each day start recharges the virtual wallet with what
    the day spends, and day 0 also with the budget's margin: the rule of
    ``dfm.planned_recharges``.

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
    n = grid.steps_per_day
    margin = BUDGET_MARGIN * budget.initial_balance
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
    # Virtual wallet recurrence; each day start is recharged with the
    # day's spend, and the margin enters at the first step.
    for t in range(total):
        coeffs = {f"x_t{t}": 1.0}
        if t > 0:
            coeffs[f"x_t{t - 1}"] = -1.0
            coeffs.update(spend_coeffs(t - 1))
        if t % n == 0:
            for s in range(t, t + n):
                coeffs.update((name, -c) for name, c in spend_coeffs(s).items())
        rhs = margin if t == 0 else 0.0
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


def extract_plan(
    model: MilpModel,
    solution: Solution,
    demand: DemandSeries,
    tariff: Tariff,
    budget: Budget,
) -> ThresholdPlan:
    """Threshold plan that makes the simulator repeat a solved DFM
    model's actuation on ``demand``, the model's forecast view: the
    model's recharges for the decoded actuation, and its
    ``mid_band_thresholds``. The solver's own thresholds sit on a
    balance the virtual wallet reaches, so float dust in the simulator
    would decide whether the load is still on there.
    """
    grid = demand.grid
    served = extract_schedule(model, solution, demand.num_loads, grid.total_steps)
    recharges = planned_recharges(served, demand, tariff, budget)
    thresholds = mid_band_thresholds(served, demand, tariff, recharges)
    return ThresholdPlan(thresholds, recharges)


class MissingVariable(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    constraint: str
    residual: float


def check_feasibility(
    model: MilpModel, solution: Solution, tol: float = 1e-6
) -> list[Violation]:
    """Evaluate every constraint at the solution.

    Returns the constraints violated by more than ``tol``, with the
    violation amount; an empty list means feasible. Every declared
    variable must have a value.
    """
    values = solution.values
    missing = [v.name for v in model.variables if v.name not in values]
    if missing:
        raise MissingVariable(f"solution has no value for {missing[:5]}")
    violations = []
    for constraint in model.constraints:
        lhs = sum(c * values[name] for name, c in constraint.coeffs.items())
        if constraint.sense == "<=":
            residual = lhs - constraint.rhs
        elif constraint.sense == ">=":
            residual = constraint.rhs - lhs
        else:
            residual = abs(lhs - constraint.rhs)
        if residual > tol:
            violations.append(Violation(constraint.name, float(residual)))
    return violations
