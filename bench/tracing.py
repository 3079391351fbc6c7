"""Span tracing around the package's public calls.

A :class:`Tracer` replaces functions at the attribute a caller looks
them up under (for example ``prepaid_ems.experiment.build_obm``, which
``run_experiment`` calls by that global name) with a wrapper that
records a span -- name, start, end, parent -- and per-call counts. The
originals are restored when the ``patched`` block exits, so untraced
sweeps run the program unmodified.

Self time of a span is its duration minus the part of its interval
covered by its children. Every span is a child of the sweep's root
span, so the self times of all spans add up to the root's duration.
"""

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = float("nan")
    error: str | None = None
    counts: dict[str, float] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((span.end - span.start) - covered)
    return result


#: (target object, attribute, layer name, counter) -- the counter maps
#: (args, result) to extra per-call counts, or is None.
Hook = tuple[object, str, str, Callable | None]


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self.spans[index].error = type(exc).__name__
            raise
        finally:
            self.spans[index].end = self.clock()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span.counts.update(counter(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, hooks: list[Hook]):
        """Install wrappers for ``hooks``; restore the originals on exit."""
        saved = []
        try:
            for target, attr, name, counter in hooks:
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)
