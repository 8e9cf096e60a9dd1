"""Span recorder for the benchmark's traced run.

The program has no tracing of its own, so spans are recorded from outside
it: each traced function is replaced by a timing wrapper at every place a
``kgcm`` module binds it. Replacing only the defining module's attribute
would miss every call, because callers bind names with ``from .graph import
run_dgso`` and look the name up in their own namespace.

A span is ``[name, parent, start, end, phase, probe]``; ``parent`` is the
index of the enclosing span, or -1. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NAME, PARENT, START, END, PHASE, PROBE = range(6)


def timed(call, *args):
    """``call(*args)`` and its wall time in seconds."""
    start = time.perf_counter()
    out = call(*args)
    return out, time.perf_counter() - start


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr``, or ``module.Class.attr`` for a method."""

    module: str
    attr: str
    cls: str | None = None
    probe: object = None  # zero-argument callable whose value is stored on entry

    @property
    def span_name(self) -> str:
        """``layer.function``, where the layer is the defining module."""
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0, self.phase,
                      probe() if probe is not None else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Record a span for every call of each target; restore on exit."""
        with patched(targets, lambda target, fn: self.wrap(target.span_name, fn, target.probe)):
            yield


@contextmanager
def patched(targets: list[Target], make_wrapper):
    """Replace every binding of each target inside ``kgcm`` by ``make_wrapper(target, original)``."""
    replaced: list[tuple[object, str, object]] = []
    modules = [m for name, m in sys.modules.items() if name == "kgcm" or name.startswith("kgcm.")]
    try:
        for target in targets:
            home = sys.modules[target.module]
            if target.cls is not None:
                owner = getattr(home, target.cls)
                original = owner.__dict__[target.attr]
                replaced.append((owner, target.attr, original))
                setattr(owner, target.attr, make_wrapper(target, original))
                continue
            original = getattr(home, target.attr)
            wrapper = make_wrapper(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # seconds inside the span
    self: float = 0.0  # seconds inside the span and outside its children
    probe_sum: float = 0.0


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def subtree(spans: list[list], root: int) -> range:
    """Indices of ``root`` and its descendants: spans start in order, so they are contiguous."""
    end = root + 1
    while end < len(spans) and spans[end][START] < spans[root][END]:
        end += 1
    return range(root, end)


def summarize(spans: list[list], selves: list[float], indices) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for i in indices:
        span = spans[i]
        stats = out[span[NAME]]
        stats.calls += 1
        stats.total += span[END] - span[START]
        stats.self += selves[i]
        if span[PROBE] is not None:
            stats.probe_sum += span[PROBE]
    return out


def by_phase(spans: list[list], phase: str) -> list[int]:
    return [i for i, span in enumerate(spans) if span[PHASE] == phase]


def layer_self_seconds(spans: list[list], selves: list[float], indices) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for i in indices:
        out[spans[i][NAME].split(".", 1)[0]] += selves[i]
    return dict(out)
