"""Spans and counters for the traced run (``--trace 1``).

The benchmark measures each layer from outside: :func:`instrument`
wraps public entry points of ``repro`` (the DP search, rewriting, graph
signatures, allocation and spill planning, the plan verifier, and every
kernel-table entry) in functions defined here, and the workloads open
spans around the calls they make themselves. Spans stay in memory and
are written once, at the end, as Chrome trace events
(``chrome://tracing`` / Perfetto). A layer's self time is its span time
minus the part its child spans cover.

Untraced runs never call :func:`instrument`, so they time the program
as shipped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self) -> None:
        #: (name, thread id, start s, end s, parent span index or -1)
        self.spans: list[tuple[str, int, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: label kernel calls are counted under ("" = solo, "b8." =
        #: batched); None while no inference loop is being measured
        self.kernel_scope: str | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, threading.get_ident(), time.perf_counter(), 0.0, parent))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._lock:
                n, tid, start, _, par = self.spans[index]
                self.spans[index] = (n, tid, start, end, par)
                self.counts[name + ".s"] += end - start

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.counts)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, for spans from ``since``."""
        with self._lock:
            spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for name, _, start, end, parent in spans[since:]:
            if parent >= 0 and end:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in range(since, len(spans)):
            name, _, start, end, _ = spans[i]
            if end:
                out[name] += (end - start) - child_time[i]
        return dict(out)

    def chrome_trace(self) -> dict[str, Any]:
        pid = os.getpid()
        with self._lock:
            spans = list(self.spans)
        t0 = min((s[2] for s in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
            }
            for name, tid, start, end, _ in spans
            if end
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


def _rebind(old: Any, new: Any) -> None:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``
    (covers ``from x import f`` bindings made at import time)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _wrap_function(tracer: Tracer, module: Any, attr: str, span: str,
                   after: Callable[[Any], None] | None = None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    _rebind(fn, wrapper)


def _wrap_kernel_table(tracer: Tracer, table: dict[str, Callable]) -> None:
    for op, fn in list(table.items()):
        def kernel(*args, _fn=fn, _op=op):
            scope = tracer.kernel_scope
            if scope is None:
                return _fn(*args)
            with tracer.span(f"kernel.{scope}{_op}"):
                return _fn(*args)

        table[op] = kernel


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers. Call once, before building anything:
    executors bind kernel-table entries when they compile their steps."""
    import repro.analysis.verifier as verifier
    import repro.compiler.model as model_mod
    import repro.rewriting.rewriter as rewriter
    import repro.runtime.kernels as kernels
    from repro.allocator import arena
    from repro.exceptions import NoSolutionError, StepTimeoutError
    from repro.graph import serialization
    from repro.scheduler.dp import DPScheduler

    dp_schedule = DPScheduler.schedule

    @functools.wraps(dp_schedule)
    def schedule(self, graph, model=None):
        tracer.count("scheduler.asb_probes")
        try:
            with tracer.span("scheduler.dp"):
                result = dp_schedule(self, graph, model)
        except (NoSolutionError, StepTimeoutError):
            tracer.count("scheduler.asb_wasted_probes")
            raise
        tracer.count("scheduler.states_expanded", result.states_expanded)
        tracer.count("scheduler.states_memoized", result.states_memoized)
        return result

    DPScheduler.schedule = schedule

    _wrap_function(
        tracer, rewriter, "rewrite_graph", "rewriting",
        after=lambda r: tracer.count("rewriting.applied", r.applied),
    )
    _wrap_function(tracer, serialization, "graph_signature", "graph.signature")
    _wrap_function(tracer, arena, "plan_allocation", "allocator.plan")
    _wrap_function(tracer, verifier, "analyze_model", "analysis.verify")

    cls = model_mod.CompiledModel
    spill_plan = cls.spill_plan

    @functools.wraps(spill_plan)
    def traced_spill_plan(self, *args, **kwargs):
        with tracer.span("allocator.spill_plan"):
            return spill_plan(self, *args, **kwargs)

    cls.spill_plan = traced_spill_plan

    for table in (
        kernels.KERNELS,
        kernels.OUT_KERNELS,
        kernels.BATCH_KERNELS,
        kernels.BATCH_OUT_KERNELS,
    ):
        _wrap_kernel_table(tracer, table)
