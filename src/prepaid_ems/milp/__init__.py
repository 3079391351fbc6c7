"""Solver-agnostic MILP machinery, left only for the benchmark's hooks.

The sweep runs none of it: OBM is solved by ``prepaid_ems.obm`` and DFM
by ``prepaid_ems.dfm``. The package stays in the program only because
the benchmark's per-layer run hooks four of its names through
``prepaid_ems.experiment``: ``build_obm``, ``extract_schedule``,
``solve_knapsack_bb`` and ``solve_dfm_grid``. The tests use the same
code as oracles for the planners; the DFM threshold model and the
feasibility checker live with them, in ``tests/milp_reference.py``.
"""

from prepaid_ems.milp.builders import build_obm, extract_schedule
from prepaid_ems.milp.core import MilpModel, Solution, SolveStatus
from prepaid_ems.milp.grid_search import InstanceTooLarge, solve_dfm_grid
from prepaid_ems.milp.knapsack import StructureMismatch, solve_knapsack_bb

__all__ = [
    "InstanceTooLarge",
    "MilpModel",
    "Solution",
    "SolveStatus",
    "StructureMismatch",
    "build_obm",
    "extract_schedule",
    "solve_dfm_grid",
    "solve_knapsack_bb",
]
