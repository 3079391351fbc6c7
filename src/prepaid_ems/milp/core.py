"""Plain-data MILP representation shared by builders and backends."""

import enum
import math
from dataclasses import dataclass

from prepaid_ems.model import Budget, DemandSeries, Tariff

_SENSES = ("<=", ">=", "=")


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    ERROR = "error"


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    binary: bool


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float


class MilpModel:
    """Maximization model over continuous and binary variables.

    Variables and constraints keep declaration order; every constraint
    may only reference declared variables. ``annotations`` tags variable
    names with their semantic role and indices (e.g.
    ``("actuation", k, t)``) so solutions can be decoded without parsing
    names.
    """

    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[str, float] = {}
        self.annotations: dict[str, tuple] = {}
        self._by_name: dict[str, Variable] = {}

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        binary: bool = False,
        annotation: tuple | None = None,
    ) -> str:
        if name in self._by_name:
            raise ValueError(f"duplicate variable {name!r}")
        if binary:
            lower, upper = 0.0, 1.0
        else:
            lower, upper = float(lower), float(upper)
            if lower > upper:
                raise ValueError(
                    f"variable {name!r} has empty bounds [{lower}, {upper}]"
                )
        var = Variable(name, lower, upper, binary)
        self.variables.append(var)
        self._by_name[name] = var
        if annotation is not None:
            self.annotations[name] = annotation
        return name

    def add_constraint(
        self, name: str, coeffs: dict[str, float], sense: str, rhs: float
    ) -> None:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        unknown = [v for v in coeffs if v not in self._by_name]
        if unknown:
            raise ValueError(f"constraint {name!r} references unknown {unknown}")
        self.constraints.append(
            Constraint(name, {v: float(c) for v, c in coeffs.items()}, sense, float(rhs))
        )

    def set_objective(self, coeffs: dict[str, float]) -> None:
        """Maximization objective; absent variables have coefficient 0."""
        unknown = [v for v in coeffs if v not in self._by_name]
        if unknown:
            raise ValueError(f"objective references unknown {unknown}")
        self.objective = {v: float(c) for v, c in coeffs.items()}

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def objective_value(self, values: dict[str, float]) -> float:
        return float(sum(c * values.get(v, 0.0) for v, c in self.objective.items()))


@dataclass(frozen=True)
class Solution:
    """Values returned by a backend, keyed by variable name."""

    values: dict[str, float]
    objective: float
    status: SolveStatus
    message: str = ""


@dataclass(frozen=True)
class MilpConstants:
    """Numerical constants for the indicator (big-M) constraints.

    ``indicator_eps`` is the smallest balance treated as "money in the
    wallet"; ``neg_big``/``pos_big`` must bracket every balance the
    wallet can reach (``neg_big <= -balance``, ``pos_big >= balance``).
    """

    indicator_eps: float
    neg_big: float
    pos_big: float

    def __post_init__(self):
        if not (math.isfinite(self.indicator_eps) and self.indicator_eps > 0):
            raise ValueError(f"indicator_eps must be positive, got {self.indicator_eps}")
        if not (math.isfinite(self.neg_big) and self.neg_big < 0):
            raise ValueError(f"neg_big must be negative, got {self.neg_big}")
        if not (math.isfinite(self.pos_big) and self.pos_big > 0):
            raise ValueError(f"pos_big must be positive, got {self.pos_big}")


def default_constants(
    demand: DemandSeries, tariff: Tariff, budget: Budget, indicator_eps: float = 1e-6
) -> MilpConstants:
    """Constants with headroom for the wallet's full dynamic range.

    The wallet starts at the budget and can overshoot below zero by at
    most one step's worth of every load running simultaneously, so
    ``budget + alpha * dt * sum_k max_t P`` bounds its magnitude.
    """
    if demand.power.size:
        swing = tariff.alpha * demand.grid.step_hours * float(
            demand.power.max(axis=1).sum()
        )
    else:
        swing = 0.0
    bound = budget.initial_balance + swing
    if bound <= 0:
        bound = 1.0  # degenerate zero-budget zero-demand model
    return MilpConstants(indicator_eps, -bound, bound)
