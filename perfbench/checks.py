"""Correctness checks the benchmark applies to the program's outputs.

Each check is written here against plain data (names, integers,
arrays), not against the code it checks: a schedule is tested against
the graph's edges, an arena layout by an interval sweep of its own, and
outputs bit by bit. Every function returns a list of problems; an empty
list means the check passed. ``test_perfbench.py`` feeds each one a
corrupted input and requires a problem back.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np


def topological_problems(
    name: str, order: Iterable[str], inputs_of: Mapping[str, Iterable[str]]
) -> list[str]:
    """``order`` must list every node of the graph once, each after all
    of its inputs. ``inputs_of`` maps a node to its producers (the
    graph's edges)."""
    seen: set[str] = set()
    problems: list[str] = []
    for node in order:
        if node not in inputs_of:
            problems.append(f"{name}: schedule names unknown node {node!r}")
            continue
        if node in seen:
            problems.append(f"{name}: node {node!r} scheduled twice")
            continue
        for src in inputs_of[node]:
            if src not in seen:
                problems.append(
                    f"{name}: {node!r} scheduled before its input {src!r}"
                )
        seen.add(node)
    missing = set(inputs_of) - seen
    if missing:
        problems.append(f"{name}: schedule omits {sorted(missing)}")
    return problems


def peak_problems(
    name: str, optimal_peak: int, baseline_peaks: Mapping[str, int]
) -> list[str]:
    """The DP schedule is optimal over all topological orders, so its
    sum-of-live peak can be no higher than any other order's."""
    return [
        f"{name}: SERENITY peak {optimal_peak} B above {order} order's {peak} B"
        for order, peak in sorted(baseline_peaks.items())
        if optimal_peak > peak
    ]


def layout_problems(
    name: str,
    buffers: Iterable[tuple[int, int, int, int, int]],
    arena_bytes: int,
    live_peak_bytes: int,
) -> list[str]:
    """Interval sweep over ``(buffer_id, size, start, end, offset)``.

    A buffer is live over schedule steps ``[start, end)``. No two
    buffers live at one step may share a byte, every buffer must lie in
    ``[0, arena_bytes)``, and the arena can be no smaller than the
    sum-of-live peak it has to hold.
    """
    problems: list[str] = []
    if arena_bytes < live_peak_bytes:
        problems.append(
            f"{name}: arena {arena_bytes} B below the live peak {live_peak_bytes} B"
        )
    active: list[tuple[int, int, int, int, int]] = []
    for buf in sorted(buffers, key=lambda b: (b[2], b[0])):
        bid, size, start, end, offset = buf
        if size <= 0:
            continue
        if offset < 0 or offset + size > arena_bytes:
            problems.append(
                f"{name}: buffer {bid} [{offset}, {offset + size}) "
                f"outside the {arena_bytes} B arena"
            )
        active = [a for a in active if a[3] > start]
        for other in active:
            o_lo, o_hi = other[4], other[4] + other[1]
            if offset < o_hi and o_lo < offset + size:
                problems.append(
                    f"{name}: buffers {other[0]} and {bid} are both live at "
                    f"step {start} and share bytes "
                    f"[{max(offset, o_lo)}, {min(offset + size, o_hi)})"
                )
        active.append(buf)
    return problems


def same_bits(ref: Mapping[str, np.ndarray], got: Mapping[str, np.ndarray]) -> bool:
    """True when both map the same names to arrays of equal dtype,
    shape and bytes."""
    if set(ref) != set(got):
        return False
    for key, want in ref.items():
        have = np.asarray(got[key])
        want = np.asarray(want)
        if (
            have.dtype != want.dtype
            or have.shape != want.shape
            or have.tobytes() != want.tobytes()
        ):
            return False
    return True
