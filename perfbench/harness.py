"""Timing, statistics and per-run bookkeeping shared by the workloads.

Nothing here imports ``repro``: the self-tests use these helpers on
synthetic data, and ``run.py`` must be able to report a missing source
tree before it touches the package.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal_s() -> float:
    """Host-wide steal time so far, in seconds (all vCPUs summed).

    Steal is time a vCPU was runnable but the hypervisor ran something
    else. It is read per phase so a run can say how much of its wall
    time the host took away. Returns 0.0 where ``/proc/stat`` is absent.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included.

    Uses the kernel's record of the start time (clock ticks since boot)
    against ``CLOCK_BOOTTIME``; falls back to 0.0 when unavailable so
    the caller still adds its own measured time on top.
    """
    try:
        with open("/proc/self/stat") as f:
            # field 22 (starttime) counts from after the ')' of comm
            after_comm = f.read().rsplit(")", 1)[1].split()
        start = int(after_comm[19]) / _CLK_TCK
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start)
    except (OSError, IndexError, ValueError, AttributeError):
        return 0.0


#: seconds the speed probe takes on the reference host (the 2-vCPU VM
#: the README's figures come from); sets the scale of normalised times
PROBE_REF_S = 0.0015

_PROBE_X = np.linspace(0.0, 1.0, 8 * 34 * 34).reshape(8, 34, 34)
_PROBE_K = np.linspace(-1.0, 1.0, 8 * 8 * 9).reshape(8, 8, 3, 3)


def speed_probe() -> float:
    """Wall seconds one fixed reference computation takes.

    The probe does in miniature what the program spends its time on -
    a dict of small lists grown and updated in the interpreter (the
    shape of the DP search's state table) and a 3x3 convolution as
    shifted-tap NumPy contractions (the shape of the kernels) - and
    never changes, so the ratio of a measured time to the probe's time
    taken alongside it cancels how fast the shared host is running.
    """
    t0 = time.perf_counter()
    states: dict[int, list[int]] = {}
    for i in range(3000):
        key = (i * 2654435761) & 0xFFFFF
        entry = states.get(key)
        if entry is None:
            states[key] = [i, i >> 1, key, 0]
        else:
            entry[3] += 1
    acc = np.zeros((8, 32, 32))
    for u in range(3):
        for v in range(3):
            acc += np.einsum(
                "oc,chw->ohw", _PROBE_K[:, :, u, v], _PROBE_X[:, u : u + 32, v : v + 32]
            )
    return time.perf_counter() - t0


class SpeedMeter:
    """Probe samples taken through one measured phase.

    ``scale`` converts a time measured in that phase to reference-host
    seconds: ``t * scale`` (a rate is divided by it instead)."""

    def __init__(self, every_s: float = 0.0) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, repeats: int = 1) -> None:
        self.samples.append(statistics.median(speed_probe() for _ in range(repeats)))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if ``every_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    @property
    def probe_s(self) -> float:
        return median(self.samples)

    @property
    def scale(self) -> float:
        return PROBE_REF_S / self.probe_s


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class RunState:
    """What one benchmark process accumulates while it runs.

    ``setup_s`` is the sum of every untimed preparation step (imports
    and graph construction from process start, executor builds, pool
    preload, shard start), so work moved out of a timed region into
    preparation still shows. Checks and reference computations are
    not set-up and are not counted.
    """

    seed: int
    seconds: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    steal_s: float = 0.0
    #: every speed-probe sample taken, in seconds
    probes: list[float] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems


class Stopwatch:
    """Accumulate wall time into ``RunState.setup_s`` (``with`` block)."""

    def __init__(self, state: RunState) -> None:
        self.state = state

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.state.setup_s += time.perf_counter() - self._t0


class StealWindow:
    """Accumulate host steal over a measured phase (``with`` block)."""

    def __init__(self, state: RunState) -> None:
        self.state = state

    def __enter__(self) -> "StealWindow":
        self._s0 = steal_s()
        return self

    def __exit__(self, *exc) -> None:
        self.state.steal_s += steal_s() - self._s0
