"""The benchmark's per-layer run wraps program functions by name; every
name it hooks must still resolve, or its traced run stops with an
``AttributeError``."""

import json
from pathlib import Path

import prepaid_ems
import prepaid_ems.experiment  # noqa: F401  (binds the submodules the hooks name)
from prepaid_ems.config import from_file

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import layers

    for target, attr, name, _counter in layers.resolve_hooks(prepaid_ems):
        assert callable(getattr(target, attr, None)), name


def test_every_benchmark_input_loads(tmp_path, monkeypatch):
    """Each workload's generated config is a valid config for
    ``prepaid-ems run``; the ``dfm`` section the workloads still write is
    an ignored key."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    for name, make_config in workloads.WORKLOADS.items():
        config_path = workloads.write_inputs(make_config, 1, tmp_path / name)
        data = json.loads(config_path.read_text())
        assert from_file(config_path).policies == data["policies"], name
