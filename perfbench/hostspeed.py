"""Host-speed correction of CPU times.

The benchmark runs on a virtual machine whose host is shared: the CPU time
of the same work swings by up to 2x over seconds to minutes, as other
guests load the host.  A fixed reference kernel, pure Python and
independent of the package, runs between the timed operations; the ratio
of its nominal time to its time measured around an operation says how
fast the host ran then.  A time "at nominal speed" is a measured CPU time
times that ratio.  A change to the package moves the operations' times but
not the kernel's, so it shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The kernel's CPU time when the reference machine's host is unloaded; see
# README.md.  Times at nominal speed are the times such a host gives.
NOMINAL_S = 0.00066
# On the reference machine the package's code slows by the kernel's
# slowdown to this power (fitted over two ten-minute runs of fixed
# ``progress`` work beside the kernel; see README.md).
EXPONENT = 1.25
WINDOW_S = 1.0  # reference runs this close to an operation judge its speed
MIN_SAMPLES = 5
STEP_S = 0.05  # one extra reference run per this much operation CPU time

_ATOMS = [("in", i % 20, i // 20, f"g{i % 3}") for i in range(400)]


def _kernel() -> int:
    """Set, hash and dict work on small tuples, like the package's beliefs."""
    seen: dict = {}
    acc = frozenset()
    for k in range(8):
        part = frozenset(a for a in _ATOMS if (a[1] + a[2] + k) % 3)
        acc = acc | part
        for a in part:
            seen[a] = seen.get(a, 0) + 1
    return len(acc) + len(seen)


class HostSpeed:
    """Reference runs with their wall-clock stamps."""

    def __init__(self):
        self.stamps: list[float] = []
        self.ref_s: list[float] = []
        self.spent_s = 0.0  # CPU seconds of all reference runs

    def sample(self, after_s: float = 0.0) -> None:
        """Run the kernel once, and once more per ``STEP_S`` of ``after_s``,
        the CPU time of the operation that just ended."""
        for _ in range(1 + int(after_s / STEP_S)):
            c0 = time.process_time()
            _kernel()
            took = time.process_time() - c0
            self.stamps.append(time.perf_counter())
            self.ref_s.append(took)
            self.spent_s += took

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over measured kernel time for the wall interval
        [t0, t1], to the power ``EXPONENT``: the measured time is the
        median of the runs within ``WINDOW_S`` of it, widened to at least
        ``MIN_SAMPLES`` runs."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        n = len(self.stamps)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        if hi == lo:
            raise ValueError("no reference runs to judge the host's speed")
        return (NOMINAL_S / statistics.median(self.ref_s[lo:hi])) ** EXPONENT


SPEED = HostSpeed()


def timed(fn, *args, **kwargs):
    """Call ``fn``; returns (result, op) where op is (wall start, wall end,
    CPU seconds, less any reference runs inside ``fn``), and samples the
    host's speed after it."""
    w0 = time.perf_counter()
    spent0 = SPEED.spent_s
    c0 = time.process_time()
    result = fn(*args, **kwargs)
    took = time.process_time() - c0 - (SPEED.spent_s - spent0)
    op = (w0, time.perf_counter(), took)
    SPEED.sample(took)
    return result, op


def at_nominal(ops) -> list[float]:
    """Each op's CPU seconds at nominal speed."""
    return [s * SPEED.factor(t0, t1) for t0, t1, s in ops]


def mean_factor(ops) -> float:
    """The speed factor over ``ops``, weighted by their CPU time."""
    total = sum(s for _, _, s in ops)
    return sum(at_nominal(ops)) / total
