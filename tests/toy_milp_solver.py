"""Reference MILP solver that the tests compare the package's backends
against.

Solves tiny maximization MILPs exactly: enumerate every assignment of
the binary variables, reject assignments that violate any binary-only
constraint, solve the remaining LP over the continuous variables with
scipy, and keep the best. When the objective touches no continuous
variable, assignments are tried in descending objective order and the
first feasible one is optimal. Deliberately independent of the
package's solvers: it reads a model only through its LP text
(``lp_text``).
"""

import itertools

import numpy as np
from scipy.optimize import linprog

from lp_text import format_lp, parse_lp
from prepaid_ems.milp import MilpModel, Solution, SolveStatus

MAX_BINARIES = 16


def solve(problem):
    binaries = problem.binaries
    if len(binaries) > MAX_BINARIES:
        raise ValueError(f"instance too large: {len(binaries)} binaries")
    bin_index = {name: i for i, name in enumerate(binaries)}
    continuous = [name for name in problem.bounds if name not in bin_index]
    cont_index = {name: i for i, name in enumerate(continuous)}
    cont_bounds = [problem.bounds[name] for name in continuous]
    obj_bin_vec = np.array([problem.objective.get(n, 0.0) for n in binaries])
    obj_cont = [problem.objective.get(name, 0.0) for name in continuous]
    pure_binary_objective = not any(obj_cont)

    binary_only = []  # (bin coeff pairs, sense, rhs)
    mixed = []  # (bin coeff pairs, continuous row, sense, rhs)
    for _, coeffs, sense, rhs in problem.constraints:
        bin_terms = [(bin_index[n], c) for n, c in coeffs.items() if n in bin_index]
        row = np.zeros(len(continuous))
        has_cont = False
        for name, coeff in coeffs.items():
            if name in cont_index:
                row[cont_index[name]] = coeff
                has_cont = True
        if has_cont:
            mixed.append((bin_terms, row, sense, rhs))
        else:
            binary_only.append((bin_terms, sense, rhs))

    combos = list(itertools.product((1.0, 0.0), repeat=len(binaries)))
    if pure_binary_objective:
        combos.sort(key=lambda c: float(np.dot(obj_bin_vec, c)), reverse=True)

    best = None  # (objective, assignment dict)
    for combo in combos:
        obj_bin = float(np.dot(obj_bin_vec, combo))
        if pure_binary_objective and best is not None and obj_bin <= best[0] + 1e-12:
            break  # sorted order: nothing better remains
        ok = True
        for bin_terms, sense, rhs in binary_only:
            lhs = sum(c * combo[i] for i, c in bin_terms)
            residual = lhs - rhs
            if sense == "<=":
                ok = residual <= 1e-9
            elif sense == ">=":
                ok = residual >= -1e-9
            else:
                ok = abs(residual) <= 1e-9
            if not ok:
                break
        if not ok:
            continue
        assignment = dict(zip(binaries, combo))
        if continuous:
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for bin_terms, row, sense, rhs in mixed:
                const = sum(c * combo[i] for i, c in bin_terms)
                if sense == "<=":
                    a_ub.append(row)
                    b_ub.append(rhs - const)
                elif sense == ">=":
                    a_ub.append(-row)
                    b_ub.append(const - rhs)
                else:
                    a_eq.append(row)
                    b_eq.append(rhs - const)
            res = linprog(
                c=[-c for c in obj_cont],
                A_ub=np.array(a_ub) if a_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(a_eq) if a_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=cont_bounds,
                method="highs",
            )
            if not res.success:
                continue
            total = obj_bin - res.fun
            values = assignment
            values.update(zip(continuous, res.x))
        else:
            total = obj_bin
            values = assignment
        if best is None or total > best[0] + 1e-12:
            best = (total, values)
    return best


def solve_model(model: MilpModel) -> Solution:
    """The optimum of ``model``, solved from its LP text."""
    best = solve(parse_lp(format_lp(model)))
    if best is None:
        return Solution({}, float("nan"), SolveStatus.INFEASIBLE)
    values = {name: float(value) for name, value in best[1].items()}
    return Solution(values, model.objective_value(values), SolveStatus.OPTIMAL)
