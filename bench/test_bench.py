"""Tests of the benchmark's own code: tracing arithmetic, input
generation, the correctness checks and the metric names it emits."""

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_times_subtract_children_coverage():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 5.0, 9.0),
        Span("b.inner", 2, 6.0, 7.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_self_times_count_overlapping_children_once():
    spans = [Span("root", None, 0.0, 10.0), Span("a", 0, 1.0, 4.0), Span("b", 0, 3.0, 6.0)]
    assert self_times(spans)[0] == 5.0


def test_tracer_records_nesting_counts_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    hooks = [
        (mod, "outer", "outer", None),
        (mod, "inner", "inner", lambda args, result: {"seen": args[0]}),
    ]
    with tracer.patched(hooks):
        with tracer.span("root"):
            assert mod.outer(3) == 8
    assert (mod.inner, mod.outer) == originals
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("root", None),
        ("outer", 0),
        ("inner", 1),
    ]
    assert tracer.spans[2].counts == {"seen": 3}
    assert sum(self_times(tracer.spans)) == tracer.spans[0].end - tracer.spans[0].start


def test_tracer_marks_raising_spans():
    tracer = Tracer()
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    with tracer.patched([(mod, "fail", "fail", None)]):
        with pytest.raises(ZeroDivisionError):
            mod.fail()
    assert tracer.spans[0].error == "ZeroDivisionError"


def test_noisy_generator_is_deterministic_per_seed(tmp_path):
    power = np.full((4, 48), 100.0)
    same = workloads.noisy_demand(power, 7)
    np.testing.assert_array_equal(same, workloads.noisy_demand(power, 7))
    assert not np.array_equal(same, workloads.noisy_demand(power, 8))
    assert np.abs(same / power - 1.0).max() <= workloads.NOISE
    assert len(np.unique(same)) == same.size  # every item distinct

    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    for path, seed in ((a, 7), (b, 7), (c, 8)):
        workloads.write_inputs(workloads.WORKLOADS["noisy-csv"], seed, path)
    assert (a / "noisy_seed7.csv").read_bytes() == (b / "noisy_seed7.csv").read_bytes()
    assert (a / "config.json").read_bytes() == (b / "config.json").read_bytes()
    assert (c / "noisy_seed8.csv").read_bytes() != (a / "noisy_seed7.csv").read_bytes()


def _tiny(seed, workdir):
    """One day at 60-minute steps with every policy: a sweep in well under 1 s."""
    return workloads.sweep_config(
        workloads.FRIDGE_HEATER, seed, 60, 1, ["BSL", "AFG", "DFM", "OBM"]
    )


def _small_sweep(tmp_path):
    pkg = run.import_package()
    path = workloads.write_inputs(_tiny, 3, tmp_path)
    config = pkg.config.from_file(path)
    truth = pkg.experiment.load_truth(config)
    return config, pkg.experiment.run_experiment(config), truth


def test_checks_pass_on_a_real_sweep_and_catch_tampering(tmp_path):
    config, results, truth = _small_sweep(tmp_path)
    outcome = checks.check_sweep(config, results, truth)
    assert outcome.problems == []
    assert outcome.cells == 48 and outcome.unsolved == 0

    cell = next(c for c in results.cells if c.policy == "OBM")
    cell.result = dataclasses.replace(cell.result, total_spend=cell.result.total_spend + 1)
    assert any("spend" in p for p in checks.check_sweep(config, results, truth).problems)

    obm = next(
        c
        for c in results.cells
        if c.policy == "OBM" and c.regime.label == "perfect-detailed" and c is not cell
    )
    obm.solver_objective += 1e-6
    outcome = checks.check_sweep(config, results, truth)
    assert outcome.plan_misses == 1

    results.cells.pop()
    assert any("expected 48" in p for p in checks.check_sweep(config, results, truth).problems)


def test_bundle_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    first = checks.bundle_sha256(tmp_path)
    (tmp_path / "a.csv").rename(tmp_path / "b.csv")
    assert checks.bundle_sha256(tmp_path) != first


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(tmp_path, monkeypatch, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    all_names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    all_names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)

    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    report = run.run_workload(run.import_package(), "tiny", 5, 0.0, bool(trace))
    assert report["correct"], report["problems"]
    emitted = report["metrics"]
    assert sorted(emitted) == sorted(names)
    units = {m["name"]: m["unit"] for m in declared}
    assert all(emitted[n]["unit"] == units[n] for n in names)
    if trace:
        self_sum = sum(v["value"] for k, v in emitted.items() if k.endswith(".self_s"))
        remainder = emitted["sweep.remainder_s"]["value"]
        assert self_sum + remainder == pytest.approx(emitted["sweep.traced_s"]["value"])
