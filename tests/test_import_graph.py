"""What importing a module loads, checked in a fresh interpreter.

A sweep without DFM must not load ``prepaid_ems.dfm`` (the experiment
loads it on first use), and DFM must not need the MILP package, which
the program keeps only for the benchmark's hooks. The threshold MILP
and the feasibility checker live in ``tests/milp_reference.py``."""

import json
import subprocess
import sys
from pathlib import Path

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


def test_dfm_does_not_load_milp():
    loaded = _loaded_after("import prepaid_ems.dfm")
    assert "prepaid_ems.dfm" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["prepaid_ems", "milp"]}


def test_milp_keeps_no_dfm_model_or_checker():
    import prepaid_ems.milp as milp

    for name in ("build_dfm", "check_feasibility", "extract_thresholds"):
        assert not hasattr(milp, name), name
