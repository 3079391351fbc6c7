"""Sweep benchmark for ``prepaid_ems``.

Usage (from the repository root)::

    python3 bench/run.py --workload paper-synth --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Each run imports the package from ``src/`` of this checkout and drives
the sweep through its public calls (``config.from_file``,
``experiment.run_experiment``, ``experiment.emit_outputs``) in this one
process and thread. Input ``i`` of a run is generated from seed
``(seed << 20) + i``.

``--trace 0`` sweeps a fresh input at a time and reports the
end-to-end metrics: ``sweep_rel`` (wall time of run + emit as a
multiple of the wall time of a fixed reference job timed right before
and after it, see ``reference.py``; the median over the run's sweeps),
``setup_s`` (importing the package and parsing the config, in a fresh
process; the median of the probes), and ``peak_rss_mb`` (peak resident
memory of a fresh process running one sweep). The sweeps' wall times in
seconds are in the details file. ``--trace 1`` sweeps a fresh input at
a time, untraced and traced, and reports per-layer self times and
counts, per sweep, plus the tracing overhead.

Every sweep is checked (see ``checks.py``); details, the environment
and, for traced runs, the spans go to ``.bench_out/`` in the checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 1 when a check failed and 2 when the package cannot be imported.
"""

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import workloads
from reference import reference_job
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

MIN_INPUTS = 3
MIN_SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"sweep_rel": "x", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a failed check)."""


def import_package():
    """Import ``prepaid_ems`` from this checkout's ``src``, nothing else."""
    if not (SRC / "prepaid_ems" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import prepaid_ems
    import prepaid_ems.config
    import prepaid_ems.experiment

    if Path(prepaid_ems.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported prepaid_ems from {prepaid_ems.__file__}")
    return prepaid_ems


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run seeded with ``seed``."""
    return (seed << 20) + index


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_commit = None
    return {
        "git_commit": git_commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run of one workload: inputs, sweeps and checks."""

    def __init__(self, pkg, workload: str, seed: int, workdir: Path):
        self.pkg = pkg
        self.make_config = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.sweeps: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def prepare(self, index: int):
        """Write input ``index`` and parse it; returns (path, config, truth)."""
        seed = sub_seed(self.seed, index)
        path = workloads.write_inputs(
            self.make_config, seed, self.workdir / f"in{index}"
        )
        config = self.pkg.config.from_file(path)
        return path, config, self.pkg.experiment.load_truth(config)

    def sweep(self, index, config, truth, tracer=None) -> dict:
        """Run, emit and check one sweep; returns its record."""
        out = self.workdir / f"out{len(self.sweeps)}"
        experiment = self.pkg.experiment
        # Every sweep starts without garbage left by the one before it.
        gc.collect()
        if tracer is None:
            start = time.perf_counter()
            results = experiment.run_experiment(config)
            experiment.emit_outputs(results, out)
            elapsed = time.perf_counter() - start
        else:
            with tracer.patched(layers.resolve_hooks(self.pkg)):
                with tracer.span(layers.ROOT) as root:
                    results = experiment.run_experiment(config)
                    experiment.emit_outputs(results, out)
            elapsed = root.end - root.start
        outcome = checks.check_sweep(config, results, truth)
        record = {
            "input": index,
            "seed": sub_seed(self.seed, index),
            "traced": tracer is not None,
            "sweep_s": elapsed,
            "sha256": checks.bundle_sha256(out),
            "cells": outcome.cells,
            "unsolved_cells": outcome.unsolved,
            "overdrawn_cells": outcome.overdrawn,
            "plan_misses": outcome.plan_misses,
        }
        self.attempted += outcome.cells
        self.failed += outcome.unsolved
        self.problems.extend(f"input {index}: {p}" for p in outcome.problems)
        self.sweeps.append(record)
        return record

    def child(self, config_path: Path, mode: str) -> dict:
        args = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(config_path)]
        args += [mode] + ([str(self.workdir / "child_out")] if mode == "sweep" else [])
        proc = subprocess.run(
            args, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"child {mode} failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def same_output(self, record: dict, sha: str, what: str) -> None:
        if record["sha256"] != sha:
            self.problems.append(
                f"input {record['input']}: {what} bundle {sha} != {record['sha256']}"
            )


def timed_reference() -> float:
    """Wall time of one reference job, started like a sweep."""
    gc.collect()
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Time sweeps for ``seconds``; returns (metrics, details).

    On a shared host the same sweep of the same input takes up to 1.8
    times as long while the host is busy, for spells longer than a run,
    so raw wall times of runs made minutes apart disagree by more than a
    program change should have to beat. Every sweep is therefore
    followed by the reference job, and ``sweep_rel`` is each sweep's
    wall time over the mean of the jobs just before and after it, as a
    median over the run. Every sweep gets a fresh input, because a
    sweep's cost depends on its input (on ``paper-synth`` by up to a
    quarter between seeds), and a median over many inputs moves less
    from run to run than one over a few. Every sweep is also followed
    by a fresh-process set-up probe, so ``setup_s`` (their median)
    covers the same stretch of the run. Input 0 is also swept in a
    fresh process, for peak memory, and must emit the same bundle, byte
    for byte.
    """
    sweep_s, sweep_rel, setup_s = [], [], []
    reference_s = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_INPUTS or time.perf_counter() < deadline:
        config_path, config, truth = run.prepare(index)
        if index == 0:
            run.child(config_path, "setup")  # warm-up: bytecode caches
            probe = run.child(config_path, "sweep")
            reference_job()  # warm-up
            reference_s.append(timed_reference())
        record = run.sweep(index, config, truth)
        if index == 0:
            run.same_output(record, probe["sha256"], "fresh-process")
        reference_s.append(timed_reference())
        sweep_rel.append(record["sweep_s"] / statistics.fmean(reference_s[-2:]))
        sweep_s.append(record["sweep_s"])
        setup_s.append(run.child(config_path, "setup")["setup_s"])
        index += 1
    while len(setup_s) < MIN_SETUP_PROBES:
        setup_s.append(run.child(config_path, "setup")["setup_s"])
    metrics = {
        "sweep_rel": statistics.median(sweep_rel),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": probe["peak_rss_mb"],
    }
    details = {
        "sweep_s_median": statistics.median(sweep_s),
        "reference_s": reference_s,
        "sweep_rel_by_sweep": sweep_rel,
        "setup_probes_s": setup_s,
        "fresh_process_sha256": probe["sha256"],
    }
    return metrics, details


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    """Sweep each input untraced and traced, in alternating order, for
    ``seconds``; returns (per-layer metrics, details with the spans)."""
    untraced_s, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_INPUTS or time.perf_counter() < deadline:
        _path, config, truth = run.prepare(index)
        tracer = Tracer()
        order = (None, tracer) if index % 2 else (tracer, None)
        records = {bool(t): run.sweep(index, config, truth, t) for t in order}
        run.same_output(records[False], records[True]["sha256"], "traced")
        untraced_s.append(records[False]["sweep_s"])
        traced.append((records[True], tracer.spans))
        index += 1
    details = {
        "traced_sweeps": [
            {
                "input": record["input"],
                "spans": [[s.name, s.parent, s.start, s.end, s.error, s.counts] for s in spans],
            }
            for record, spans in traced
        ]
    }
    return per_layer(traced, untraced_s), details


def per_layer(traced: list, untraced_s: list[float]) -> dict:
    """Per-sweep means of layer self times and counts over traced sweeps.

    Means (not medians) keep the table additive: the layers' self times
    plus ``sweep.remainder_s`` equal ``sweep.traced_s``.
    """
    n = len(traced)
    tables = [layers.layer_table(spans) for _record, spans in traced]
    metrics = {
        "sweep.untraced_s": statistics.fmean(untraced_s),
        "sweep.traced_s": statistics.fmean(r["sweep_s"] for r, _s in traced),
        "sweep.remainder_s": sum(t[layers.ROOT]["self_s"] for t in tables) / n,
    }
    metrics["sweep.tracing_overhead_s"] = (
        metrics["sweep.traced_s"] - metrics["sweep.untraced_s"]
    )
    for stat in ("cells", "unsolved_cells", "overdrawn_cells", "plan_misses"):
        metrics[f"sweep.{stat}"] = sum(r[stat] for r, _s in traced) / n
    for name in layers.LAYER_NAMES:
        for stat in tables[0][name]:
            metrics[f"{name}.{stat}"] = sum(t[name][stat] for t in tables) / n
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    stat = name.rsplit(".", 1)[1]
    return "s" if stat.endswith("_s") else "bytes" if stat == "bytes" else "count"


def run_workload(pkg, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Sweep outputs are deleted only after the run: deleting files between
    # timed sweeps slows later writes on some file systems.
    workdir = WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(pkg, workload, seed, workdir)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, details = measure(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "sweeps": run.sweeps,
        **details,
    }
    if trace:
        report["self_time_table"] = sorted(
            (
                [name[: -len(".self_s")], value]
                for name, value in metrics.items()
                if name.endswith(".self_s")
            ),
            key=lambda row: -row[1],
        )
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1))
    report["path"] = path
    return report


def print_report(report: dict, prefix: str = "") -> None:
    for problem in report["problems"]:
        print(f"CHECK FAILED {prefix}{problem}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")
    if "sweep_s_median" in report:
        print(f"{prefix}sweep wall time (median) = {report['sweep_s_median']:.6g} s")
    print(
        f"{prefix}{len(report['sweeps'])} sweeps, {report['attempted']} cells, "
        f"{report['failed']} unsolved, correct={report['correct']}, "
        f"details in {report['path'].relative_to(ROOT)}"
    )


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = import_package()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        reports = [
            run_workload(pkg, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        ]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print_report(report, f"{report['workload']}: " if len(reports) > 1 else "")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
