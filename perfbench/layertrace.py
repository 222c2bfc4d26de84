"""Per-layer tracing of drdp from outside the package.

While installed, every function that a drdp layer module lists in
``__all__`` is replaced, in each ``drdp`` namespace that holds it by name,
by a wrapper that times the call. The package source is never edited, and
uninstalling puts every original function object back.

Most calls become spans (name, layer, start, end, parent, op id) kept in
memory until the run ends. Functions called once or more per meter-slot are
too frequent for that: their calls are aggregated into a count and a self
time under the nearest enclosing span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("noise", "metering", "billing", "metrics", "coop", "cli")

# Called once or more per meter-slot (about 2.9M calls in one csv-replay op).
HOT = frozenset({"sample_laplace", "protect_reading", "adjust_reading"})

# Layer name of the benchmark's own root span around each op.
BENCH = "bench"


@dataclass
class Span:
    span_id: int
    op_id: int
    parent_id: int | None
    parent_layer: str | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    escaped: bool = False

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class _HotFrame:
    """Stack entry of one aggregated call; charges its time to ``span_id``."""

    __slots__ = ("layer", "span_id", "op_id", "child_s")

    def __init__(self, layer: str, span_id: int, op_id: int) -> None:
        self.layer = layer
        self.span_id = span_id
        self.op_id = op_id
        self.child_s = 0.0


@dataclass
class HotStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0
    escaped: int = 0


@dataclass
class OpProfile:
    """What one traced op did, summed over its spans and aggregated calls."""

    self_s: Counter = field(default_factory=Counter)  # layer -> seconds
    inclusive_s: Counter = field(default_factory=Counter)  # span name -> seconds
    calls: Counter = field(default_factory=Counter)  # function name -> calls
    calls_by_layer: Counter = field(default_factory=Counter)  # layer -> calls
    calls_under: Counter = field(default_factory=Counter)  # (name, parent layer) -> calls
    errors: Counter = field(default_factory=Counter)  # layer -> exceptions leaving it


def public_functions() -> dict:
    """``{id(function): (function, name, layer)}`` for every traced function."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"drdp.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[id(obj)] = (obj, name, layer)
    return found


def drdp_namespaces() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "drdp" or name.startswith("drdp.")
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.hot: dict[tuple[int, str], HotStats] = {}
        self._ids = itertools.count(1)
        self._op_of_span: dict[int, int] = {}
        root = Span(0, -1, None, None, "outside", BENCH, time.perf_counter())
        self._stack: list = [root]
        self._op_id = -1

    @contextlib.contextmanager
    def installed(self):
        """Rebind every public layer function to its wrapper, then restore."""
        bindings = []
        try:
            targets = {
                key: (fn, self._wrap(fn, name, layer))
                for key, (fn, name, layer) in public_functions().items()
            }
            for namespace in drdp_namespaces():
                for attr, value in list(vars(namespace).items()):
                    target = targets.get(id(value))
                    if target is not None and target[0] is value:
                        setattr(namespace, attr, target[1])
                        bindings.append((namespace, attr, value))
            yield self
        finally:
            for namespace, attr, original in reversed(bindings):
                setattr(namespace, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one op; every traced call inside it carries ``op_id``."""
        self._op_id = op_id
        root = self._open(kind, BENCH)
        try:
            yield
        except BaseException:
            self._close(root, escaped=True)
            raise
        else:
            self._close(root, escaped=False)
        finally:
            self._op_id = -1

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1]
        span = Span(
            next(self._ids), self._op_id, parent.span_id, parent.layer,
            name, layer, time.perf_counter(),
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span, escaped: bool) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._stack[-1].child_s += span.end - span.start
        span.escaped = escaped and span.parent_layer != span.layer
        self.spans.append(span)
        self._op_of_span[span.span_id] = span.op_id

    def _wrap(self, fn, name: str, layer: str):
        if name in HOT:
            return self._wrap_hot(fn, name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, escaped=True)
                raise
            self._close(span, escaped=False)
            return result

        return traced

    def _wrap_hot(self, fn, name: str, layer: str):
        stack = self._stack
        hot = self.hot
        clock = time.perf_counter

        def leave(frame: _HotFrame, start: float, escaped: bool) -> None:
            elapsed = clock() - start
            stack.pop()
            parent = stack[-1]
            parent.child_s += elapsed
            key = (frame.span_id, name)
            stats = hot.get(key)
            if stats is None:
                stats = hot[key] = HotStats(layer)
                self._op_of_span.setdefault(frame.span_id, frame.op_id)
            stats.calls += 1
            stats.self_s += elapsed - frame.child_s
            if escaped and parent.layer != layer:
                stats.escaped += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = _HotFrame(layer, parent.span_id, self._op_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, start, escaped=True)
                raise
            leave(frame, start, escaped=False)
            return result

        return traced

    def profiles(self) -> dict[int, OpProfile]:
        """One profile per op id seen, with the benchmark's root spans left out."""
        out: dict[int, OpProfile] = {}
        for span in self.spans:
            if span.op_id < 0:
                continue
            profile = out.setdefault(span.op_id, OpProfile())
            if span.layer == BENCH:
                continue
            profile.self_s[span.layer] += span.self_s
            profile.inclusive_s[span.name] += span.end - span.start
            profile.calls[span.name] += 1
            profile.calls_by_layer[span.layer] += 1
            profile.calls_under[span.name, span.parent_layer] += 1
            profile.errors[span.layer] += span.escaped
        for (span_id, name), stats in self.hot.items():
            op_id = self._op_of_span.get(span_id, -1)
            if op_id < 0:
                continue
            profile = out.setdefault(op_id, OpProfile())
            profile.self_s[stats.layer] += stats.self_s
            profile.calls[name] += stats.calls
            profile.calls_by_layer[stats.layer] += stats.calls
            profile.errors[stats.layer] += stats.escaped
        return out
