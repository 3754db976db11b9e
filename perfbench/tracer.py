"""Spans and counters recorded around delibsim's public functions.

Nothing in delibsim is edited.  A ``Patcher`` replaces a function at every
binding site: its defining module, the package namespace and every other
delibsim module that imported it by name.  Calls made through a module
attribute, or through a ``from .x import y`` inside a function body, resolve
to the replacement at call time, so they are covered too.

Spans are aggregated in memory per (parent, name) edge of the call tree and
written out once, after the run.  A span's self time is its duration minus
the durations of the spans opened inside it.  The self times therefore sum to
the outermost spans' time by construction; what the spans miss is the traced
wall time minus that sum.

A wrapper's own work before its clock starts and after it stops lands in the
enclosing span's self time.  ``wrapper_costs`` measures that cost per call,
so a span's share of tracer cost can be estimated from the wrapped calls made
directly inside it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional, Union


def _delibsim_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "delibsim" or name.startswith("delibsim.")):
            yield name, module


class Patcher:
    """Swaps module and class attributes; ``restore`` puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace_function(self, fn: Callable, replacement: Callable, skip: tuple = ()) -> int:
        """Rebind ``fn`` to ``replacement`` wherever a delibsim module holds it.

        Modules named in ``skip`` keep the original.  Returns the number of
        binding sites replaced.
        """
        sites = 0
        for name, module in _delibsim_modules():
            if name in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)
                    sites += 1
        return sites

    def replace_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` with ``make(original)``; absent attributes are skipped."""
        original = cls.__dict__.get(attr)
        if original is not None:
            self._saved.append((cls, attr, original))
            setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span aggregation; wrappers pass straight through while inactive."""

    def __init__(self) -> None:
        self.active = False
        #: (parent name, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[Optional[str], str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        #: span name (None outside every span) -> counter calls made directly inside it
        self.counter_parents: dict[Optional[str], int] = defaultdict(int)
        #: summed duration of spans opened with no span around them
        self.root_s = 0.0
        self._stack: list[list] = []

    def reset(self) -> None:
        self.edges.clear()
        self.counts.clear()
        self.counter_parents.clear()
        self.root_s = 0.0

    def span(
        self,
        name: Union[str, Callable[..., str]],
        fn: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span.

        ``name`` is the span name, or a function taking ``fn``'s arguments
        that returns it.

        ``after(args, result)`` runs once the span has closed, inside a
        span of its own, so its cost lands neither here nor in the caller.
        """
        if after is not None:
            after = self.span("bench.hook", after)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                edge = edges[(parent, label)]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        parents = self.counter_parents
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
                parents[stack[-1][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name, summed over parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (_, label), (calls, _, self_s) in self.edges.items():
            out[label][0] += calls
            out[label][1] += self_s
        return {label: (calls, self_s) for label, (calls, self_s) in out.items()}

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded since the last reset."""
        return {
            "edges": [
                {"parent": parent, "name": label, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (parent, label), e in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
            "counts": dict(sorted(self.counts.items())),
            "counter_parents": {str(k): v for k, v in sorted(
                self.counter_parents.items(), key=lambda kv: kv[0] or "")},
            "root_s": self.root_s,
        }

    def wrapped_calls_inside(self) -> dict[str, tuple[int, int]]:
        """Span calls and counter calls made directly inside each span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for (parent, _), (calls, _, _) in self.edges.items():
            if parent is not None:
                out[parent][0] += calls
        for parent, calls in self.counter_parents.items():
            if parent is not None:
                out[parent][1] += calls
        return {name: (spans, counters) for name, (spans, counters) in out.items()}


def wrapper_costs(calls: int = 10000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one span wrapper and one counter wrapper add to the span around them.

    Times a span around ``calls`` calls of a wrapped no-op, minus the same
    loop calling the bare no-op; the median over ``repeats`` batches.
    """
    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    tracer = Tracer()
    tracer.active = True
    outer = tracer.span("outer", loop)
    clock = time.perf_counter
    span_costs, counter_costs = [], []
    for _ in range(repeats):
        start = clock()
        loop(noop)
        bare = clock() - start
        for inner, costs in ((tracer.span("inner", noop), span_costs),
                             (tracer.counter("inner", noop), counter_costs)):
            tracer.reset()
            outer(inner)
            costs.append((tracer.edges[(None, "outer")][2] - bare) / calls)
    return max(0.0, statistics.median(span_costs)), max(0.0, statistics.median(counter_costs))
