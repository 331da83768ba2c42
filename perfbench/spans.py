"""Span recorder for the traced run, applied to vibronic from the outside.

Every target is a public function of a ``vibronic`` module.  ``install``
replaces it by a timing wrapper in its defining module and in every other
``vibronic`` module namespace that bound the same function object, so calls
through ``from .oracle import eigensolve`` are caught too.  A function-local
import reads the defining module at call time and therefore sees the
wrapper as well.  A target that no longer exists is listed as absent and
the run goes on, so renaming a function never breaks the traced run.

A span is (name, start, end, parent).  Spans stay in memory until the pass
ends.  A span's self time is its duration minus the part of it that its
child spans cover; each layer metric is a sum of self times, so the layer
metrics of one pass add up to the top-level spans' duration minus the
counter bookkeeping (the ``trace.count`` spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

COUNT_SPAN = "trace.count"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters in memory; not thread-safe (passes are serial)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.counter_errors = 0
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            rec._stack.append(index)
            start = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec.clock()
                rec._stack.pop()
                rec.spans[index] = Span(name, start, end, parent)
            if count is not None:
                c0 = rec.clock()
                try:
                    count(rec, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    rec.counter_errors += 1
                rec.spans.append(Span(COUNT_SPAN, c0, rec.clock(), parent))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(recorder: Recorder, targets, package: str = "vibronic") -> tuple[list[str], list]:
    """Wrap every target; returns (absent target names, undo list).

    ``targets`` holds (module, attribute path, counter or None) triples; the
    span name is the module's last component plus the attribute path.
    """
    absent = []
    undo = []
    for module_name, path, count in targets:
        span_name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
        try:
            module = importlib.import_module(module_name)
            owner, attr, original = _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(span_name)
            continue
        if not callable(original):
            absent.append(span_name)
            continue
        wrapper = recorder.wrap(span_name, original, count)
        bindings = [(owner, attr)]
        if owner is module:
            for name, mod in list(sys.modules.items()):
                if mod is None or mod is module:
                    continue
                if name != package and not name.startswith(package + "."):
                    continue
                bindings += [(mod, key) for key, value in vars(mod).items() if value is original]
        for obj, key in bindings:
            undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)
    return absent, undo


def uninstall(undo) -> None:
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)
