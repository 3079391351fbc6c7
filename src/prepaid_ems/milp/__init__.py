"""Solver-agnostic MILP machinery.

Builders translate the rationing problems into a plain variable and
constraint representation.

The sweep runs none of it: OBM is solved by ``prepaid_ems.obm.solve_obm``
and DFM by ``prepaid_ems.dfm.solve_dfm``. The models, the exact knapsack
backend, the DFM threshold grid search and the feasibility checker are
oracles that the tests check the planners against. ``build_obm``, ``solve_knapsack_bb`` and
``solve_dfm_grid`` stay importable from ``prepaid_ems.experiment``
because the benchmark's per-layer run hooks them there.
"""

from prepaid_ems.milp.builders import (
    build_dfm,
    build_obm,
    dfm_recharges,
    extract_schedule,
    extract_thresholds,
)
from prepaid_ems.milp.checker import MissingVariable, Violation, check_feasibility
from prepaid_ems.milp.core import (
    Constraint,
    MilpModel,
    Solution,
    SolveStatus,
    Variable,
)
from prepaid_ems.milp.grid_search import InstanceTooLarge, solve_dfm_grid
from prepaid_ems.milp.knapsack import StructureMismatch, solve_knapsack_bb

__all__ = [
    "Constraint",
    "InstanceTooLarge",
    "MilpModel",
    "MissingVariable",
    "Solution",
    "SolveStatus",
    "StructureMismatch",
    "Variable",
    "Violation",
    "build_dfm",
    "build_obm",
    "check_feasibility",
    "dfm_recharges",
    "extract_schedule",
    "extract_thresholds",
    "solve_dfm_grid",
    "solve_knapsack_bb",
]
