"""Correctness checks applied to every benchmarked sweep.

These restate the wallet-accounting invariants the simulator promises
(money conservation, prepaid safety, no phantom service), the shape of
the sweep, and that a plan under a perfect detailed forecast does in
simulation what its planner promised. A failed check marks the whole
run incorrect; it never only slows it down.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MONEY_TOL = 1e-9
PLAN_TOL = 1e-9
PLANNED_POLICIES = ("OBM", "DFM")


@dataclass
class SweepOutcome:
    cells: int = 0
    unsolved: int = 0
    overdrawn: int = 0  # AFG/DFM/OBM cells ending below zero real balance
    plan_misses: int = 0
    problems: list[str] = field(default_factory=list)


def bundle_sha256(out_dir: Path) -> str:
    """Digest of every emitted CSV: relative path and bytes, in path order."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cell_problems(result, power, step_hours, alpha, balance) -> list[str]:
    cost_factor = alpha * step_hours
    problems = []
    actuation = np.asarray(result.actuation)
    served_cost = cost_factor * float((power * actuation).sum())
    if abs(result.total_spend - served_cost) > MONEY_TOL:
        problems.append(f"spend {result.total_spend!r} != served cost {served_cost!r}")
    if abs(result.final_real_balance - (balance - result.total_spend)) > MONEY_TOL:
        problems.append("final balance != initial balance - spend")
    if ((actuation == 1) & (power <= 0)).any():
        problems.append("served a step without demand")
    z = np.asarray(result.real_balance_trace)
    if z.size and abs(z[0] - balance) > MONEY_TOL:
        problems.append("balance trace does not start at the initial balance")
    if (actuation.any(axis=0) & (z <= 0)).any():
        problems.append("served a step that began with an empty wallet")
    if (np.diff(z) > 1e-12).any():
        problems.append("real balance increased")
    max_step_cost = cost_factor * float(power.sum(axis=0).max()) if power.size else 0.0
    if min(z.min(initial=0.0), result.final_real_balance) < -max_step_cost - MONEY_TOL:
        problems.append("real balance fell below minus one step's cost")
    return problems


def check_sweep(config, results, truth) -> SweepOutcome:
    """Check one sweep's cells against the true demand ``truth``."""
    outcome = SweepOutcome(cells=len(results.cells))
    expected = (
        len(config.budget_fractions) * len(config.regimes) * len(config.policies)
    )
    if outcome.cells != expected:
        outcome.problems.append(f"{outcome.cells} cells, expected {expected}")
    power = np.asarray(truth.power, dtype=float)
    step_hours = truth.grid.step_hours
    energy_wh = step_hours * float(power.sum())
    for cell in results.cells:
        where = f"{cell.regime.label} b={cell.fraction} {cell.policy}"
        if cell.status == "unsolved":
            outcome.unsolved += 1
            continue
        if cell.status != "ok" or cell.result is None:
            outcome.problems.append(f"{where}: status {cell.status!r} without result")
            continue
        r = cell.result
        balance = cell.fraction * config.alpha_per_wh * energy_wh
        for problem in _cell_problems(
            r, power, step_hours, config.alpha_per_wh, balance
        ):
            outcome.problems.append(f"{where}: {problem}")
        if not 0.0 <= r.psf <= 1.0 + PLAN_TOL:
            outcome.problems.append(f"{where}: psf {r.psf!r} outside [0, 1]")
        if cell.policy != "BSL" and r.final_real_balance < 0:
            outcome.overdrawn += 1
        if (
            cell.policy in PLANNED_POLICIES
            and cell.regime.label == "perfect-detailed"
            and (
                cell.solver_objective is None
                or abs(r.psf - cell.solver_objective) > PLAN_TOL
            )
        ):
            outcome.plan_misses += 1
            outcome.problems.append(
                f"{where}: realized psf {r.psf!r} != planned {cell.solver_objective!r}"
            )
    return outcome
