"""What importing a module loads, checked in a fresh interpreter.

A sweep without DFM must not load ``prepaid_ems.dfm`` (the experiment
loads it on first use), and DFM must not need the MILP package, which
the program keeps only for the benchmark's hooks. The threshold MILP
and the feasibility checker live in ``tests/milp_reference.py``. The
simulator, which judges every policy, and the DFM solver and grid
oracle load no other policy and no experiment: threshold plans are
``prepaid_ems.model`` types."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after(statement: str) -> set[str]:
    """The ``prepaid_ems`` modules loaded after running ``statement`` in
    a fresh interpreter."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('prepaid_ems'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout))


def test_experiment_does_not_load_dfm():
    loaded = _loaded_after("import prepaid_ems.experiment")
    assert "prepaid_ems.experiment" in loaded
    assert "prepaid_ems.dfm" not in loaded


FRIDGE = {"rated_w": 150, "on_probability": 1.0, "mean_on_hours": 10}


@pytest.mark.parametrize("policies", [["BSL", "AFG", "OBM"], ["DFM"]])
def test_sweep_loads_dfm_only_to_plan_it(policies):
    config = {
        "loads": [{"name": "fridge", "gamma": 1.0}],
        "data": {"synthetic": {"profiles": {"fridge": FRIDGE}}},
        "alpha_per_wh": 0.00016,
        "step_minutes": 60,
        "horizon_days": 2,
        "policies": policies,
    }
    loaded = _loaded_after(
        "from prepaid_ems.config import from_dict; "
        "from prepaid_ems.experiment import run_experiment; "
        f"run_experiment(from_dict({config!r}))"
    )
    assert "prepaid_ems.obm" in loaded
    assert ("prepaid_ems.dfm" in loaded) == ("DFM" in policies)


def test_dfm_does_not_load_milp():
    loaded = _loaded_after("import prepaid_ems.dfm")
    assert "prepaid_ems.dfm" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["prepaid_ems", "milp"]}


@pytest.mark.parametrize(
    "module", ["prepaid_ems.sim", "prepaid_ems.dfm", "prepaid_ems.milp.grid_search"]
)
def test_simulator_and_threshold_solvers_load_no_policy(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    policies = {"prepaid_ems.afg", "prepaid_ems.obm", "prepaid_ems.experiment"}
    assert not loaded & policies


def test_milp_keeps_no_dfm_model_or_checker():
    import prepaid_ems.milp as milp

    for name in ("build_dfm", "check_feasibility", "extract_plan"):
        assert not hasattr(milp, name), name
