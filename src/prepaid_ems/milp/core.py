"""Plain-data MILP representation shared by builders and backends."""

import enum
import math
from dataclasses import dataclass

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

    def objective_value(self, values: dict[str, float]) -> float:
        return float(sum(c * values.get(v, 0.0) for v, c in self.objective.items()))


@dataclass(frozen=True)
class Solution:
    """Values returned by a backend, keyed by variable name."""

    values: dict[str, float]
    objective: float
    status: SolveStatus
    message: str = ""
