"""CPLEX LP text for the test oracles: a writer for ``MilpModel`` and a
parser for exactly the subset of the grammar the writer emits.

The toy solver (``toy_milp_solver.py``) reads a model only through this
text, so it shares no code with the package's own backends.
"""

import math
from dataclasses import dataclass, field

from prepaid_ems.milp import MilpModel


def _format_terms(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for name, coeff in coeffs.items():
        if not parts:
            parts.append(f"{coeff!r} {name}")
        elif coeff < 0:
            parts.append(f"- {-coeff!r} {name}")
        else:
            parts.append(f"+ {coeff!r} {name}")
    return " ".join(parts)


def format_lp(model: MilpModel) -> str:
    """The model in CPLEX LP text format.

    Variables and constraints appear in declaration order, coefficients
    in full float precision, so the text is deterministic for a given
    model.
    """
    objective = _format_terms(model.objective) or "0"
    lines = ["Maximize", f" obj: {objective}", "Subject To"]
    for constraint in model.constraints:
        if not constraint.coeffs:
            continue
        lines.append(
            f" {constraint.name}: {_format_terms(constraint.coeffs)} "
            f"{constraint.sense} {constraint.rhs!r}"
        )
    lines.append("Bounds")
    for var in model.variables:
        if var.binary:
            continue
        lower_inf = math.isinf(var.lower) and var.lower < 0
        upper_inf = math.isinf(var.upper) and var.upper > 0
        if lower_inf and upper_inf:
            lines.append(f" {var.name} free")
        elif lower_inf:
            lines.append(f" -infinity <= {var.name} <= {var.upper!r}")
        elif upper_inf:
            lines.append(f" {var.name} >= {var.lower!r}")
        else:
            lines.append(f" {var.lower!r} <= {var.name} <= {var.upper!r}")
    lines.append("Binary")
    for var in model.variables:
        if var.binary:
            lines.append(f" {var.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass
class LpProblem:
    objective: dict[str, float] = field(default_factory=dict)
    constraints: list[tuple[str, dict[str, float], str, float]] = field(
        default_factory=list
    )
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    binaries: list[str] = field(default_factory=list)

    @property
    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for name in self.bounds:
            seen.setdefault(name)
        for name in self.binaries:
            seen.setdefault(name)
        return list(seen)


def _parse_terms(text: str) -> dict[str, float]:
    tokens = text.split()
    coeffs: dict[str, float] = {}
    sign = 1.0
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "+":
            sign = 1.0
            i += 1
        elif token == "-":
            sign = -1.0
            i += 1
        else:
            coeff = float(token)
            name = tokens[i + 1]
            coeffs[name] = coeffs.get(name, 0.0) + sign * coeff
            sign = 1.0
            i += 2
    return coeffs


def parse_lp(text: str) -> LpProblem:
    problem = LpProblem()
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        keyword = line.lower()
        if keyword in ("maximize", "subject to", "bounds", "binary", "end"):
            section = keyword
            continue
        if section == "maximize":
            _, expr = line.split(":", 1)
            problem.objective = _parse_terms(expr)
        elif section == "subject to":
            name, rest = line.split(":", 1)
            for sense in ("<=", ">=", "="):
                if f" {sense} " in rest:
                    expr, rhs = rest.rsplit(f" {sense} ", 1)
                    problem.constraints.append(
                        (name.strip(), _parse_terms(expr), sense, float(rhs))
                    )
                    break
            else:
                raise ValueError(f"constraint without sense: {raw!r}")
        elif section == "bounds":
            tokens = line.split()
            if tokens[-1] == "free":
                problem.bounds[tokens[0]] = (-float("inf"), float("inf"))
            elif len(tokens) == 3 and tokens[1] == ">=":
                problem.bounds[tokens[0]] = (float(tokens[2]), float("inf"))
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                lo = -float("inf") if tokens[0] == "-infinity" else float(tokens[0])
                problem.bounds[tokens[2]] = (lo, float(tokens[4]))
            else:
                raise ValueError(f"unsupported bounds line: {raw!r}")
        elif section == "binary":
            problem.binaries.append(line)
        elif section == "end":
            raise ValueError(f"content after End: {raw!r}")
        else:
            raise ValueError(f"content before any section: {raw!r}")
    return problem
