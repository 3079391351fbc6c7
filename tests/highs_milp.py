"""In-process HiGHS (``scipy.optimize.milp``) on a ``MilpModel``.

Used as an exact oracle for models too large for the toy solver. The
binaries of the returned solution are rounded to 0/1, and its objective
is the model's objective at those values.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from prepaid_ems.milp.core import Solution, SolveStatus


def solve_highs(model, time_limit=60.0):
    index = {var.name: i for i, var in enumerate(model.variables)}
    entries = [
        (row, index[name], coeff)
        for row, con in enumerate(model.constraints)
        for name, coeff in con.coeffs.items()
    ]
    rows, cols, coeffs = zip(*entries)
    matrix = coo_matrix((coeffs, (rows, cols)), shape=(len(model.constraints), len(index)))
    lower = [c.rhs if c.sense in (">=", "=") else -np.inf for c in model.constraints]
    upper = [c.rhs if c.sense in ("<=", "=") else np.inf for c in model.constraints]
    cost = np.zeros(len(index))
    for name, coeff in model.objective.items():
        cost[index[name]] = -coeff  # milp minimizes
    binary = np.array([var.binary for var in model.variables])
    result = milp(
        cost,
        integrality=binary,
        bounds=Bounds([v.lower for v in model.variables], [v.upper for v in model.variables]),
        constraints=LinearConstraint(matrix, lower, upper),
        options={"time_limit": time_limit},
    )
    if result.status != 0:
        return Solution({}, float("nan"), SolveStatus.ERROR, result.message)
    x = np.where(binary, np.round(result.x), result.x)
    values = {var.name: float(x[i]) for i, var in enumerate(model.variables)}
    return Solution(values, model.objective_value(values), SolveStatus.OPTIMAL)
