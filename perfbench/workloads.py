"""The benchmark's workloads and the three phases every workload runs.

A workload is a set of cells (input graphs). Each run takes its cells
through the first two phases, then serves, so every run reports every
metric:

1. **compile** - cold SERENITY compile (no schedule cache), save, and
   reload with ``verify="full"``, in whole rounds over the cells;
2. **infer** - the reloaded artifacts run by ``PlanExecutor`` solo,
   batched 8-wide, and at a reduced on-chip capacity with whole-buffer
   and with tiled spill staging;
3. **serve** - the two ``serving_suite`` cells behind the in-process
   ``RequestScheduler`` and a 2-shard ``ShardedScheduler``, under one
   fixed-rate open-loop schedule, plus repeated burst drains.

Timed regions call only the program; checks, reference executions and
input generation sit outside them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from checks import layout_problems, peak_problems, same_bits, topological_problems
from harness import (
    RunState,
    SpeedMeter,
    StealWindow,
    Stopwatch,
    geomean,
    median,
    quantile,
)
from tracing import Tracer

#: modeled off-chip link for spilled runs: 500 MB/s, no per-transfer latency
LINK_BYTES_PER_S = 500e6
#: tile size for tiled spill staging (the Fig 11 simulator's default)
TILE_BYTES = 8192
#: stacked samples per batched run and per serving executor
BATCH = 8
#: serving shards behind the sharded front end
SHARDS = 2
#: share of ``--seconds`` each measured phase runs for; compile and
#: drain always finish the round or burst they are in
SHARE = {"compile": 0.30, "infer": 0.35, "open": 0.13, "drain": 0.09}
#: distinct seeded feeds per model in the serving schedule
FEEDS_PER_MODEL = 16
#: open-loop arrival rate of the serve phase, requests per second
SERVE_RATE_RPS = 300.0
#: open-loop latency percentiles are taken per window of this many
#: requests (half a second of arrivals) and then reduced by the median
#: over windows, so a steal burst moves the few windows it lands in
SERVE_WINDOW = 150
#: requests per burst drain
SERVE_BURST = 1000

#: kernel op kinds timed one by one; the rest are summed as ``other``
KERNEL_OPS = (
    "conv2d",
    "depthwise_conv2d",
    "partial_conv2d",
    "partial_depthwise_conv2d",
    "fused_sep_conv3x3",
    "add",
    "relu",
    "concat",
    "other",
)


def kernel_bucket(op: str) -> str:
    return op if op in KERNEL_OPS else "other"


END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "arena_kib": "KiB",
    "peak_reduction_x": "x",
    "run_ms": "ms",
    "batch8_sps": "samples/s",
    "offchip_kib": "KiB",
}

PER_LAYER = {
    "host.steal_s": "s",
    "host.probe_ms": "ms",
    "compile.wall_s": "s",
    "scheduler.dp_s": "s",
    "scheduler.states_expanded": "count",
    "scheduler.states_memoized": "count",
    "scheduler.asb_probes": "count",
    "scheduler.asb_wasted_probes": "count",
    "scheduler.asb_wasted_frac": "ratio",
    "rewriting.s": "s",
    "rewriting.applied": "count",
    "graph.signature_s": "s",
    "allocator.plan_s": "s",
    "allocator.spill_plan_s": "s",
    "compiler.artifact_s": "s",
    "compiler.artifact_kib": "KiB",
    "analysis.verify_s": "s",
    **{f"kernel.{op}_ms": "ms" for op in KERNEL_OPS},
    **{f"kernel.b8.{op}_ms": "ms" for op in KERNEL_OPS},
    "runtime.self_ms": "ms",
    "runtime.b8_self_ms": "ms",
    "runtime.build_ms": "ms",
    "spill.whole_run_ms": "ms",
    "spill.tiled_run_ms": "ms",
    "spill.whole_kib": "KiB",
    "spill.fetches": "count",
    "spill.writebacks": "count",
    "engine.whole_stall_ms": "ms",
    "engine.whole_hidden_ms": "ms",
    "engine.whole_hidden_frac": "ratio",
    "engine.tiled_stall_ms": "ms",
    "engine.tiled_hidden_ms": "ms",
    "engine.tiled_hidden_frac": "ratio",
    "serving.p50_ms": "ms",
    "serving.p90_ms": "ms",
    "serving.drain_rps": "1/s",
    "serving.queue_ms": "ms",
    "serving.run_ms": "ms",
    "serving.overhead_ms": "ms",
    "serving.mean_batch": "count",
    "pool.hit_rate": "ratio",
    "serving.generator_late_ms": "ms",
    "shard.p50_ms": "ms",
    "shard.ipc_ms": "ms",
}


def _paper_cells() -> dict:
    from repro.models.suite import suite_cells

    return {spec.key: spec.factory for spec in suite_cells()}


def _micro_cells() -> dict:
    from repro.models.suite import serving_suite

    return serving_suite()


#: workload name -> the cells its compile and infer phases run (why
#: each was chosen is in BENCHMARK.json and the README)
WORKLOADS = {"paper": _paper_cells, "micro": _micro_cells}


@dataclass
class Run:
    """One benchmark process: its state, scratch directory and tracer."""

    state: RunState
    tmp: Path
    tracer: Tracer | None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def counts(self) -> dict[str, float]:
        return self.tracer.snapshot() if self.tracer is not None else {}


def _delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


# ----------------------------------------------------------------------
# phase 1: compile
# ----------------------------------------------------------------------
def compile_phase(run: Run, factories: dict) -> dict:
    """Compile, save and reload every cell in whole rounds (at least
    two); returns the last round's reloaded artifacts by cell name.

    ``compile_s`` sums each cell's fastest round in process CPU time:
    the work is deterministic, and host contention only adds to it."""
    from repro.compiler.model import CompiledModel
    from repro.compiler.pipeline import CompilationPipeline
    from repro.exceptions import ReproError

    state = run.state
    pipeline = CompilationPipeline("serenity")  # cache=None: always cold
    cell_cpu: dict[str, list[float]] = {name: [] for name in factories}
    rounds_wall: list[float] = []
    artifact_bytes = 0
    before = run.counts()
    spans_from = len(run.tracer.spans) if run.tracer else 0
    deadline = time.perf_counter() + state.seconds * SHARE["compile"]
    models: dict = {}
    with StealWindow(state):
        while True:
            models = {}
            wall = 0.0
            for name, factory in factories.items():
                graph = factory()
                path = run.tmp / f"{name}.json"
                gc.collect()
                state.attempted += 1
                c0, w0 = time.process_time(), time.perf_counter()
                try:
                    with run.span("compile.cell"):
                        compiled = pipeline.compile(graph)
                        with run.span("compiler.save"):
                            compiled.save(path)
                        del compiled
                        with run.span("compiler.load"):
                            models[name] = CompiledModel.load(path, verify="full")
                except ReproError as exc:
                    state.failed += 1
                    state.problem(f"compile {name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    cell_cpu[name].append(time.process_time() - c0)
                    wall += time.perf_counter() - w0
                artifact_bytes += path.stat().st_size
                del graph
            rounds_wall.append(wall)
            if len(rounds_wall) >= 2 and time.perf_counter() >= deadline:
                break
    rounds = len(rounds_wall)
    best = {name: min(times) for name, times in cell_cpu.items()}
    state.metrics["compile_s"] = sum(best.values())
    state.layers["compile.wall_s"] = median(rounds_wall)
    if run.tracer is not None:
        after = run.counts()
        own = run.tracer.self_times(spans_from)
        per = 1.0 / rounds
        for key in (
            "scheduler.states_expanded",
            "scheduler.states_memoized",
            "scheduler.asb_probes",
            "scheduler.asb_wasted_probes",
            "rewriting.applied",
        ):
            state.layers[key] = _delta(after, before, key) * per
        probes = state.layers["scheduler.asb_probes"]
        state.layers["scheduler.asb_wasted_frac"] = (
            state.layers["scheduler.asb_wasted_probes"] / probes if probes else 0.0
        )
        state.layers["scheduler.dp_s"] = own.get("scheduler.dp", 0.0) * per
        state.layers["rewriting.s"] = own.get("rewriting", 0.0) * per
        state.layers["graph.signature_s"] = own.get("graph.signature", 0.0) * per
        state.layers["allocator.plan_s"] = own.get("allocator.plan", 0.0) * per
        state.layers["analysis.verify_s"] = own.get("analysis.verify", 0.0) * per
        state.layers["compiler.artifact_s"] = (
            own.get("compiler.save", 0.0) + own.get("compiler.load", 0.0)
        ) * per
        state.layers["compiler.artifact_kib"] = artifact_bytes / 1024 * per
    print(
        f"compile: {rounds} round(s), best cpu {sum(best.values()):.2f} s, "
        f"wall {rounds_wall[-1]:.2f} s; "
        + ", ".join(f"{k} {v:.2f}" for k, v in best.items()),
        file=sys.stderr,
    )
    return models


def compile_checks(run: Run, factories: dict, models: dict) -> None:
    """Schedules, peaks and arena layouts of the reloaded artifacts."""
    from repro.allocator.arena import arena_peak_bytes
    from repro.scheduler.greedy import greedy_schedule
    from repro.scheduler.memory import simulate_schedule
    from repro.scheduler.topological import dfs_schedule, kahn_schedule

    state = run.state
    ratios = []
    arena_total = 0
    for name, model in models.items():
        graph = model.graph
        inputs_of = {node.name: tuple(node.inputs) for node in graph}
        for p in topological_problems(name, model.schedule.order, inputs_of):
            state.problem(p)
        peak = simulate_schedule(graph, model.schedule, validate=False).peak_bytes
        baselines = {
            order: simulate_schedule(graph, fn(graph), validate=False).peak_bytes
            for order, fn in (
                ("kahn", kahn_schedule),
                ("dfs", dfs_schedule),
                ("greedy", greedy_schedule),
            )
        }
        for p in peak_problems(name, peak, baselines):
            state.problem(p)
        offsets = model.plan.offsets
        buffers = []
        for lt in model.plan.lifetimes:
            if lt.buffer_id not in offsets:
                state.problem(f"{name}: buffer {lt.buffer_id} has no offset")
                continue
            buffers.append((lt.buffer_id, lt.size, lt.start, lt.end, offsets[lt.buffer_id]))
        for p in layout_problems(name, buffers, model.arena_bytes, peak):
            state.problem(p)
        original = factories[name]()
        ratios.append(
            arena_peak_bytes(original, kahn_schedule(original)) / model.arena_bytes
        )
        arena_total += model.arena_bytes
    state.metrics["arena_kib"] = arena_total / 1024
    state.metrics["peak_reduction_x"] = geomean(ratios)


# ----------------------------------------------------------------------
# phase 2: infer
# ----------------------------------------------------------------------
MODES = ("solo", "b8", "whole", "tiled")


def _stacked(graph, seeds: list[int]) -> dict:
    from repro.runtime.executor import random_feeds

    samples = [random_feeds(graph, seed=s) for s in seeds]
    return {k: np.stack([s[k] for s in samples]) for k in samples[0]}


def infer_phase(run: Run, models: dict) -> None:
    from repro.memsim.hierarchy import OffchipLink
    from repro.runtime.executor import random_feeds

    state = run.state
    tracer = run.tracer
    link = OffchipLink(LINK_BYTES_PER_S)
    cells = {}
    spans_from = len(tracer.spans) if tracer else 0
    with Stopwatch(state):
        for k, (name, model) in enumerate(models.items()):
            # half the arena, raised to the whole-buffer floor where that
            # is higher, so both staging modes run at one capacity
            capacity = max(model.arena_bytes // 2, model.spill_floor_bytes)
            with run.span("runtime.build"):
                execs = {
                    "solo": model.executor(),
                    "b8": model.executor(batch_size=BATCH),
                    "whole": model.executor(capacity_bytes=capacity, link=link),
                    "tiled": model.executor(
                        capacity_bytes=capacity, tile_bytes=TILE_BYTES, link=link
                    ),
                }
            seed0 = state.seed * 1000 + 10 * k
            feeds = random_feeds(model.graph, seed=seed0)
            bfeeds = _stacked(model.graph, [seed0 + 1 + b for b in range(BATCH)])
            cells[name] = {
                "model": model,
                "capacity": capacity,
                "execs": execs,
                "feeds": feeds,
                "bfeeds": bfeeds,
                "times": {m: [] for m in MODES},
                "first": {},
                "traffic": {"whole": [], "tiled": []},
            }
    build_own = tracer.self_times(spans_from) if tracer else {}

    calls = {
        "solo": lambda c: c["execs"]["solo"].run(c["feeds"]),
        "b8": lambda c: c["execs"]["b8"].run_batch(c["bfeeds"]),
        "whole": lambda c: c["execs"]["whole"].run(c["feeds"]),
        "tiled": lambda c: c["execs"]["tiled"].run(c["feeds"]),
    }
    scope = {"solo": "", "b8": "b8."}
    run_wall = {"solo": 0.0, "b8": 0.0}
    rounds = 0
    before = run.counts()
    gc.collect()
    meter = SpeedMeter(every_s=0.05)
    deadline = time.perf_counter() + state.seconds * SHARE["infer"]
    with StealWindow(state):
        while True:
            for name, c in cells.items():
                for mode in MODES:
                    meter.maybe_sample()
                    state.attempted += 1
                    if tracer is not None:
                        tracer.kernel_scope = scope.get(mode)
                    t0 = time.perf_counter()
                    try:
                        out = calls[mode](c)
                    except Exception as exc:  # counted, reported, run continues
                        state.failed += 1
                        state.problem(f"infer {name}/{mode}: {type(exc).__name__}: {exc}")
                        continue
                    finally:
                        dt = time.perf_counter() - t0
                        if tracer is not None:
                            tracer.kernel_scope = None
                    c["times"][mode].append(dt)
                    if mode in run_wall:
                        run_wall[mode] += dt
                    _note_output(state, name, mode, c, out)
            rounds += 1
            if time.perf_counter() >= deadline:
                break
    after = run.counts()
    state.probes.extend(meter.samples)

    infer_checks(run, cells)
    scale = meter.scale

    def typical_ms(mode: str) -> float:
        # lower quartile per cell: the calls are deterministic work, and
        # steal and contention only ever add to them
        return geomean(
            [quantile(c["times"][mode], 0.25) * 1e3 * scale for c in cells.values()]
        )

    state.metrics["run_ms"] = typical_ms("solo")
    state.metrics["batch8_sps"] = BATCH * 1e3 / typical_ms("b8")
    state.layers["spill.whole_run_ms"] = typical_ms("whole")
    state.layers["spill.tiled_run_ms"] = typical_ms("tiled")
    state.metrics["offchip_kib"] = sum(
        c["traffic"]["tiled"][-1].total_bytes for c in cells.values()
    ) / 1024
    print(
        f"infer: {rounds} round(s) over {len(cells)} cell(s), "
        f"probe {meter.probe_s * 1e3:.3f} ms",
        file=sys.stderr,
    )

    if tracer is not None:
        per = 1e3 / rounds
        kernel_s = {"": 0.0, "b8.": 0.0}
        for op in KERNEL_OPS:
            for prefix in kernel_s:
                state.layers[f"kernel.{prefix}{op}_ms"] = 0.0
        for key in after:
            if not (key.startswith("kernel.") and key.endswith(".s")):
                continue
            spent = _delta(after, before, key)
            name = key[len("kernel."):-len(".s")]
            prefix = "b8." if name.startswith("b8.") else ""
            bucket = kernel_bucket(name[len(prefix):])
            kernel_s[prefix] += spent
            state.layers[f"kernel.{prefix}{bucket}_ms"] += spent * per
        state.layers["runtime.self_ms"] = (run_wall["solo"] - kernel_s[""]) * per
        state.layers["runtime.b8_self_ms"] = (run_wall["b8"] - kernel_s["b8."]) * per
        state.layers["runtime.build_ms"] = build_own.get("runtime.build", 0.0) * 1e3
        state.layers["allocator.spill_plan_s"] = build_own.get("allocator.spill_plan", 0.0)
    for mode in ("whole", "tiled"):
        stall = sum(median([t.stall_s for t in c["traffic"][mode]]) for c in cells.values())
        hidden = sum(median([t.hidden_s for t in c["traffic"][mode]]) for c in cells.values())
        state.layers[f"engine.{mode}_stall_ms"] = stall * 1e3
        state.layers[f"engine.{mode}_hidden_ms"] = hidden * 1e3
        state.layers[f"engine.{mode}_hidden_frac"] = (
            hidden / (stall + hidden) if stall + hidden > 0 else 0.0
        )
    state.layers["spill.whole_kib"] = sum(
        c["traffic"]["whole"][-1].total_bytes for c in cells.values()
    ) / 1024
    state.layers["spill.fetches"] = sum(c["traffic"]["tiled"][-1].fetches for c in cells.values())
    state.layers["spill.writebacks"] = sum(
        c["traffic"]["tiled"][-1].writebacks for c in cells.values()
    )
    for c in cells.values():
        for ex in c["execs"].values():
            ex.close()


def _note_output(state: RunState, name: str, mode: str, c: dict, out: dict) -> None:
    """Keep the first output of each mode, compare later ones to it, and
    record per-run stats that checks and layer metrics need."""
    ex = c["execs"][mode]
    first = c["first"].get(mode)
    if first is None:
        c["first"][mode] = out
        c.setdefault("peak", {})[mode] = ex.last_stats.measured_peak_bytes
    elif not same_bits(first, out):
        state.problem(f"infer {name}/{mode}: output changed between runs")
    if mode in c["traffic"]:
        c["traffic"][mode].append(ex.traffic_report())


def infer_checks(run: Run, cells: dict) -> None:
    from repro.runtime.executor import Executor, init_params

    state = run.state
    for name, c in cells.items():
        model = c["model"]
        ref = Executor(model.graph, params=init_params(model.graph, 0))
        want = ref.run(c["feeds"])
        for mode in ("solo", "whole", "tiled"):
            got = c["first"].get(mode)
            if got is None or not same_bits(want, got):
                state.problem(f"infer {name}/{mode}: output differs from the reference")
        got = c["first"].get("b8")
        for b in range(BATCH):
            sample = {k: v[b] for k, v in c["bfeeds"].items()}
            want_b = ref.run(sample)
            if got is None or not same_bits(want_b, {k: v[b] for k, v in got.items()}):
                state.problem(f"infer {name}/b8: sample {b} differs from the reference")
                break
        peaks = c.get("peak", {})
        for mode, limit in (
            ("solo", model.arena_bytes),
            ("b8", model.arena_bytes),
            ("whole", c["capacity"]),
            ("tiled", c["capacity"]),
        ):
            if peaks.get(mode, limit + 1) > limit:
                state.problem(
                    f"infer {name}/{mode}: high-water {peaks.get(mode)} B above {limit} B"
                )
        for mode in ("whole", "tiled"):
            moved = c["traffic"][mode][-1].total_bytes if c["traffic"][mode] else 0
            if (moved > 0) != (c["capacity"] < model.arena_bytes):
                state.problem(
                    f"infer {name}/{mode}: {moved} B off-chip at capacity "
                    f"{c['capacity']} B of a {model.arena_bytes} B arena"
                )
        full = model.executor(capacity_bytes=model.arena_bytes)
        try:
            full.run(c["feeds"])
            if full.traffic_report().total_bytes != 0:
                state.problem(f"infer {name}: traffic at full capacity")
        finally:
            full.close()


# ----------------------------------------------------------------------
# phase 3: serve
# ----------------------------------------------------------------------
class _Completions:
    """Completion stamps for a set of futures, safe to wait on.

    ``Future.result()`` can return before done-callbacks have run, so
    latency stamps are awaited separately."""

    def __init__(self, n: int) -> None:
        self.done = [0.0] * n
        self._left = n
        self._cond = threading.Condition()

    def stamp(self, i: int, _fut) -> None:
        t = time.perf_counter()
        with self._cond:
            self.done[i] = t
            self._left -= 1
            if self._left == 0:
                self._cond.notify_all()

    def wait(self, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._left == 0, timeout)


def _submit_all(server, requests, feeds, due_at=None):
    """Submit ``requests`` ((model, feed index) pairs); with ``due_at``
    each waits for its due time (open loop), else all go at once."""
    marks = _Completions(len(requests))
    futures = []
    lates = []
    for i, (name, j) in enumerate(requests):
        if due_at is not None:
            wait = due_at[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lates.append(time.perf_counter() - due_at[i])
        fut = server.submit(name, feeds[name][j])
        fut.add_done_callback(functools.partial(marks.stamp, i))
        futures.append(fut)
    return marks, futures, lates


def _collect(state: RunState, label: str, marks: _Completions, futures) -> list:
    results = []
    for fut in futures:
        state.attempted += 1
        try:
            results.append(fut.result(timeout=120))
        except Exception as exc:  # counted, reported, run continues
            state.failed += 1
            state.problem(f"serve {label}: {type(exc).__name__}: {exc}")
            results.append(None)
    if not marks.wait(60):
        state.problem(f"serve {label}: completion stamps missing")
    return results


def open_loop(state: RunState, label: str, server, requests, feeds, rate: float):
    """Fixed-rate open loop from this thread; latency counts from each
    request's due time, so a stall also charges the requests behind it."""
    start = time.perf_counter() + 0.02
    due = [start + i / rate for i in range(len(requests))]
    marks, futures, lates = _submit_all(server, requests, feeds, due)
    results = _collect(state, label, marks, futures)
    latency = [marks.done[i] - due[i] for i in range(len(requests))]
    return results, latency, lates


def windowed(latency: list[float], q: float) -> float:
    """Median over consecutive windows of ``SERVE_WINDOW`` requests of
    each window's ``q`` quantile of latency."""
    n_windows = max(1, len(latency) // SERVE_WINDOW)
    size = len(latency) / n_windows
    return median(
        [
            quantile(latency[round(w * size) : round((w + 1) * size)], q)
            for w in range(n_windows)
        ]
    )


def serve_phase(run: Run) -> None:
    """Serve the two ``serving_suite`` cells, whatever the workload: the
    paper cells' 5-20 ms requests make open-loop latency on a shared
    2-vCPU host too noisy to compare between runs."""
    from repro.compiler.pipeline import CompilationPipeline
    from repro.runtime.executor import Executor, init_params, random_feeds
    from repro.serving.pool import ArenaPool
    from repro.serving.registry import ModelRegistry
    from repro.serving.scheduler import RequestScheduler
    from repro.serving.shard import ShardedScheduler

    state = run.state
    rng = np.random.default_rng(state.seed)
    with Stopwatch(state):
        registry = ModelRegistry()
        pipeline = CompilationPipeline("serenity")
        for name, factory in _micro_cells().items():
            path = run.tmp / f"serve-{name}.json"
            pipeline.compile(factory()).save(path)
            registry.load(path, name)
        names = registry.names()
        feeds = {
            name: [
                random_feeds(registry.get(name).graph, seed=state.seed * 1000 + 100 + j)
                for j in range(FEEDS_PER_MODEL)
            ]
            for name in names
        }
        n_open = max(1, round(SERVE_RATE_RPS * state.seconds * SHARE["open"]))

        def draw(n: int) -> list[tuple[str, int]]:
            return [
                (names[int(rng.integers(len(names)))], int(rng.integers(FEEDS_PER_MODEL)))
                for _ in range(n)
            ]

        schedule = draw(n_open)
        burst = draw(SERVE_BURST)
        # fork the shard processes before this process starts threads
        sharded = ShardedScheduler(
            registry,
            shards=SHARDS,
            max_batch=BATCH,
            batch_size=BATCH,
            preload=True,
            ring_slots=16,
        ).start()
        pool = ArenaPool(registry, None, batch_size=BATCH)
        pool.preload()
        server = RequestScheduler(registry, pool, max_batch=BATCH).start()

    checked: list[tuple[list, list]] = []
    meter = SpeedMeter()
    try:
        gc.collect()
        with StealWindow(state):
            meter.sample(5)
            results, latency, lates = open_loop(
                state, "in-process", server, schedule, feeds, SERVE_RATE_RPS
            )
            checked.append((schedule, results))
            drain_rps = []
            drained = []
            deadline = time.perf_counter() + state.seconds * SHARE["drain"]
            while True:
                meter.sample(5)
                t0 = time.perf_counter()
                marks, futures, _ = _submit_all(server, burst, feeds)
                burst_results = _collect(state, "drain", marks, futures)
                drain_rps.append(len(burst) / (max(marks.done) - t0))
                checked.append((burst, burst_results))
                drained.extend(r for r in burst_results if r is not None)
                if time.perf_counter() >= deadline:
                    break
            hit_rate = pool.stats().hit_rate
            meter.sample(5)
            s_results, s_latency, s_lates = open_loop(
                state, "sharded", sharded, schedule, feeds, SERVE_RATE_RPS
            )
            checked.append((schedule, s_results))
            meter.sample(5)
    finally:
        server.shutdown()
        pool.close()
        sharded.shutdown()

    scale = meter.scale
    state.probes.extend(meter.samples)
    state.layers["serving.p50_ms"] = windowed(latency, 0.5) * 1e3 * scale
    state.layers["serving.p90_ms"] = windowed(latency, 0.9) * 1e3 * scale
    state.layers["serving.drain_rps"] = median(drain_rps) / scale
    state.layers["shard.p50_ms"] = windowed(s_latency, 0.5) * 1e3 * scale
    print(
        f"serve: {len(schedule)} open-loop requests x2 at {SERVE_RATE_RPS:g}/s, "
        f"{len(drain_rps)} burst(s) of {len(burst)}, probe {meter.probe_s * 1e3:.3f} ms",
        file=sys.stderr,
    )

    ok = [(lat, r) for lat, r in zip(latency, results) if r is not None]
    s_ok = [(lat, r) for lat, r in zip(s_latency, s_results) if r is not None]
    if ok:
        state.layers["serving.queue_ms"] = median([r.stats.queue_s for _, r in ok]) * 1e3
        state.layers["serving.run_ms"] = median([r.stats.run_s for _, r in ok]) * 1e3
        state.layers["serving.overhead_ms"] = (
            median([lat - r.stats.queue_s - r.stats.run_s for lat, r in ok]) * 1e3
        )
    if s_ok:
        state.layers["shard.ipc_ms"] = (
            median([lat - r.stats.queue_s - r.stats.run_s for lat, r in s_ok]) * 1e3
        )
    if drained:
        state.layers["serving.mean_batch"] = sum(r.stats.batch_size for r in drained) / len(
            drained
        )
    state.layers["pool.hit_rate"] = hit_rate
    state.layers["serving.generator_late_ms"] = quantile(lates + s_lates, 0.9) * 1e3

    # every response, bit for bit, against the reference executor
    refs = {name: Executor(registry.get(name).graph, params=init_params(
        registry.get(name).graph, 0)) for name in names}
    want: dict = {}
    for requests, outcomes in checked:
        for (name, j), result in zip(requests, outcomes):
            if result is None:
                continue
            key = (name, j)
            if key not in want:
                want[key] = refs[name].run(feeds[name][j])
            if not same_bits(want[key], result.outputs):
                state.problem(f"serve {name}: response differs from the reference")
