"""Solver-agnostic MILP machinery.

Builders translate the rationing problems into a plain variable and
constraint representation. An LP-file writer and subprocess bridge hand
the DFM model to an external solver when one is configured.

The sweep runs neither the OBM model with its exact knapsack backend,
nor the DFM threshold grid search, nor the feasibility checker: OBM is
solved by ``prepaid_ems.obm.solve_obm`` and DFM by
``prepaid_ems.dfm.solve_dfm``, and these are oracles that the tests
check the planners against. ``build_obm``, ``solve_knapsack_bb`` and
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
from prepaid_ems.milp.lp_io import (
    SolutionParseError,
    SolverNotFound,
    SolverTimeout,
    solve_external,
    write_lp,
)

__all__ = [
    "Constraint",
    "InstanceTooLarge",
    "MilpModel",
    "MissingVariable",
    "Solution",
    "SolutionParseError",
    "SolveStatus",
    "SolverNotFound",
    "SolverTimeout",
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
    "solve_external",
    "solve_knapsack_bb",
    "write_lp",
]
