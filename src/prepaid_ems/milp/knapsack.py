"""Exact 0/1 knapsack backend for schedule-benchmark models.

The sweep solves OBM with the count search in ``prepaid_ems.obm``; this
generic solver is kept as the oracle it is cross-checked against (the
acceptance criteria and ``tests/test_obm.py``) and for any knapsack-shaped
``MilpModel``.

Depth-first branch and bound with the fractional-knapsack upper bound.
Items sharing an identical (value, weight) pair -- the normal case for
schedule models built from flat synthetic demand, where every demanded
step of a load looks the same -- are collapsed into one group and
branched on by count, which avoids the exponential tie-exploration a
per-item search would do on such instances. The search is exact either
way.
"""

from dataclasses import dataclass

import numpy as np

from prepaid_ems.milp.core import MilpModel, Solution, SolveStatus


class StructureMismatch(ValueError):
    """The model is not a pure maximization 0/1 knapsack."""


@dataclass
class _Group:
    value: float
    weight: float
    names: list[str]  # member items in declaration order


def _validate(model: MilpModel):
    non_binary = [v.name for v in model.variables if not v.binary]
    if non_binary:
        raise StructureMismatch(f"non-binary variables: {non_binary[:3]}")
    if len(model.constraints) != 1:
        raise StructureMismatch(
            f"expected exactly one constraint, got {len(model.constraints)}"
        )
    constraint = model.constraints[0]
    if constraint.sense != "<=":
        raise StructureMismatch(f"constraint sense must be <=, got {constraint.sense}")
    if any(w < 0 for w in constraint.coeffs.values()):
        raise StructureMismatch("constraint coefficients must be non-negative")
    if any(c < 0 for c in model.objective.values()):
        raise StructureMismatch("objective coefficients must be non-negative")
    return constraint


def solve_knapsack_bb(model: MilpModel) -> Solution:
    """Solve a knapsack-shaped model exactly.

    Deterministic: within a group the earliest-declared items are
    chosen, and the reported objective is re-accumulated in declaration
    order, left to right, so it is bit-identical to a subset-enumeration
    oracle on every Python version (the builtin ``sum`` compensates float
    rounding since Python 3.12).
    """
    if not model.variables:
        return Solution({}, 0.0, SolveStatus.OPTIMAL)
    constraint = _validate(model)
    capacity = constraint.rhs
    if capacity < 0:
        return Solution({}, float("nan"), SolveStatus.INFEASIBLE)

    chosen: set[str] = set()
    groups: dict[tuple[float, float], _Group] = {}
    for var in model.variables:
        value = model.objective.get(var.name, 0.0)
        weight = constraint.coeffs.get(var.name, 0.0)
        if weight == 0.0:
            if value > 0.0:
                chosen.add(var.name)  # free value: always take
            continue
        group = groups.setdefault((value, weight), _Group(value, weight, []))
        group.names.append(var.name)

    order = sorted(
        groups.values(), key=lambda g: g.value / g.weight, reverse=True
    )
    counts = _search(order, capacity)
    for group, take in zip(order, counts):
        chosen.update(group.names[:take])

    values = {v.name: (1.0 if v.name in chosen else 0.0) for v in model.variables}
    served = [
        model.objective.get(v.name, 0.0) for v in model.variables if v.name in chosen
    ]
    objective = np.cumsum([0.0, *served])[-1]
    return Solution(values, float(objective), SolveStatus.OPTIMAL)


def _search(order: list[_Group], capacity: float) -> list[int]:
    """Best per-group take counts via iterative DFS branch and bound."""
    n = len(order)
    if n == 0:
        return []
    values = [g.value for g in order]
    weights = [g.weight for g in order]
    sizes = [len(g.names) for g in order]

    def bound(g: int, cap: float) -> float:
        # Greedy fractional completion from group g with capacity cap.
        total = 0.0
        for i in range(g, n):
            full = sizes[i] * weights[i]
            if full <= cap:
                total += sizes[i] * values[i]
                cap -= full
            else:
                total += (cap / weights[i]) * values[i]
                break
        return total

    best_value = 0.0
    best_counts = [0] * n
    counts = [0] * n
    # Frame: [group, remaining capacity, value so far, next count to try].
    # Counts are tried largest-first so the first dive is the greedy
    # integral solution, which makes the bound prune aggressively.
    stack = [[0, capacity, 0.0, min(sizes[0], int(capacity // weights[0]))]]
    while stack:
        frame = stack[-1]
        g, cap, value, take = frame
        if take < 0:
            stack.pop()
            continue
        frame[3] = take - 1
        counts[g] = take
        new_cap = cap - take * weights[g]
        new_value = value + take * values[g]
        if new_value > best_value:
            best_value = new_value
            best_counts = counts[: g + 1] + [0] * (n - g - 1)
        nxt = g + 1
        if nxt < n and new_value + bound(nxt, new_cap) > best_value:
            stack.append(
                [nxt, new_cap, new_value, min(sizes[nxt], int(new_cap // weights[nxt]))]
            )
    return best_counts
