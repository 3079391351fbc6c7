"""LP-file export and the external-solver subprocess bridge."""

import logging
import math
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

from prepaid_ems.milp.core import MilpModel, Solution, SolveStatus

logger = logging.getLogger(__name__)


class SolverNotFound(RuntimeError):
    pass


class SolverTimeout(RuntimeError):
    pass


class SolutionParseError(RuntimeError):
    pass


def _terms(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for name, coeff in coeffs.items():
        if not parts:
            parts.append(f"{coeff!r} {name}")
        elif coeff < 0:
            parts.append(f"- {-coeff!r} {name}")
        else:
            parts.append(f"+ {coeff!r} {name}")
    return " ".join(parts)


def write_lp(model: MilpModel, path) -> None:
    """Write the model in CPLEX LP text format.

    Variables and constraints appear in declaration order, coefficients
    in full float precision, so the output is byte-deterministic for a
    given model.
    """
    lines = ["Maximize", f" obj: {_terms(model.objective) or '0'}", "Subject To"]
    for constraint in model.constraints:
        if not constraint.coeffs:
            continue
        lines.append(
            f" {constraint.name}: {_terms(constraint.coeffs)} "
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
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_solution_file(model: MilpModel, path: Path) -> dict[str, float]:
    if not path.exists():
        raise SolutionParseError(f"solver wrote no solution file at {path}")
    values = {var.name: 0.0 for var in model.variables}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SolutionParseError(
                f"{path}:{lineno}: expected 'name value', got {raw!r}"
            )
        name, text = fields
        if not model.has_variable(name):
            logger.warning("solution file %s:%d: unknown variable %r ignored", path, lineno, name)
            continue
        try:
            values[name] = float(text)
        except ValueError:
            raise SolutionParseError(
                f"{path}:{lineno}: unparseable value {text!r} for {name!r}"
            ) from None
    return values


def check_command_template(command_template: str) -> None:
    """Raise ``ValueError`` unless the template is a string with the
    ``{lp}`` and ``{sol}`` placeholders that renders to a command line."""
    if not (
        isinstance(command_template, str)
        and "{lp}" in command_template
        and "{sol}" in command_template
    ):
        raise ValueError(
            "solver command template must be a string with {lp} and {sol} "
            "placeholders"
        )
    try:
        shlex.split(command_template.format(lp="model.lp", sol="model.sol"))
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(
            f"solver command template {command_template!r} does not render "
            f"to a command line ({type(exc).__name__}: {exc})"
        ) from None


def solve_external(
    model: MilpModel, command_template: str, timeout_seconds: float | None = None
) -> Solution:
    """Solve via an external program.

    ``command_template`` must contain ``{lp}`` and ``{sol}``
    placeholders; the program reads the LP file and writes a solution
    file of ``name value`` lines. Each call uses a fresh temporary
    directory, so concurrent solves never collide.
    """
    check_command_template(command_template)
    workdir = Path(tempfile.mkdtemp(prefix="milp_"))
    try:
        lp_path = workdir / "model.lp"
        sol_path = workdir / "model.sol"
        write_lp(model, lp_path)
        command = command_template.format(lp=lp_path, sol=sol_path)
        try:
            proc = subprocess.run(
                shlex.split(command),
                capture_output=True,
                text=True,
                timeout=timeout_seconds,
            )
        except FileNotFoundError as exc:
            raise SolverNotFound(f"solver executable not found: {exc}") from None
        except subprocess.TimeoutExpired:
            raise SolverTimeout(
                f"solver exceeded {timeout_seconds} s wall-clock limit"
            ) from None
        if proc.returncode != 0:
            return Solution(
                {},
                float("nan"),
                SolveStatus.ERROR,
                message=(
                    f"solver exited with status {proc.returncode}\n"
                    f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
                ),
            )
        values = _parse_solution_file(model, sol_path)
        return Solution(values, model.objective_value(values), SolveStatus.OPTIMAL)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
