"""Host-speed calibration: time measured against a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets swings by up to a factor of two over seconds to minutes
(a fixed pair of queries run back to back in one process took 82-142 ms).
Such swings are common to all pure-Python work, so the benchmark runs a
fixed kernel of about a millisecond between queries and scales every
timing by how long the kernel took around it:

    reference time = wall time * REFERENCE_KERNEL_S / kernel time nearby

A reference millisecond is therefore the time the work would take on a
host that runs the kernel in exactly ``REFERENCE_KERNEL_S``.  The kernel
imports only the standard library, so it can be timed before agodel is
imported, and nothing in agodel changes its speed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

# fixes the unit only: on the 2-vCPU host the baseline was measured on
# (Python 3.11.7) the kernel took 0.9-1.8 ms depending on the moment
REFERENCE_KERNEL_S = 1.0e-3

SAMPLE_EVERY_S = 0.025   # closed loop: one kernel sample per 25 ms of wall time
WINDOW_S = 0.5           # a query's speed: kernel samples within 0.5 s of it
BURST = 100              # kernel samples at each end of a set-up and a loop


def _tree(depth: int, i: int):
    if depth == 0:
        return Fraction(i % 7 + 1, i % 5 + 1)
    return (depth % 2, _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


_TREE = _tree(6, 1)
_ROUNDS = 4


def _walk(node, seen: dict):
    """Min/max over a tree of fractions with a product at every node: the
    mix of tuple unpacking, recursion, dict updates and Fraction
    arithmetic that agodel's evaluators run."""
    if isinstance(node, Fraction):
        return node
    kind, left, right = node
    a, b = _walk(left, seen), _walk(right, seen)
    seen[kind] = seen.get(kind, 0) + 1
    return (a * b) / (min(a, b) if kind else max(a, b))


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    seen = {}
    for _ in range(_ROUNDS):
        _walk(_TREE, seen)
    return perf_counter() - t0


class Meter:
    """Kernel samples (perf_counter() at the end, duration) taken while the
    benchmark runs."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.last = float("-inf")

    def sample(self) -> None:
        duration = kernel()
        self.last = perf_counter()
        self.times.append(self.last)
        self.durations.append(duration)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_KERNEL_S over the median kernel time within WINDOW_S
        of [start, end] (perf_counter() times): multiply a wall time spent
        in that interval by it."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        near = self.durations[lo:hi] or self.durations
        return REFERENCE_KERNEL_S / median(near)


def warm_up() -> None:
    """Let the interpreter specialise the kernel before it is timed."""
    for _ in range(5):
        kernel()
