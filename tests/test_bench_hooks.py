"""The benchmark's per-layer run wraps program functions by name; every
name it hooks must still resolve, or its traced run stops with an
``AttributeError``."""

from pathlib import Path

import prepaid_ems
import prepaid_ems.experiment  # noqa: F401  (binds the submodules the hooks name)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import layers

    for target, attr, name, _counter in layers.resolve_hooks(prepaid_ems):
        assert callable(getattr(target, attr, None)), name
