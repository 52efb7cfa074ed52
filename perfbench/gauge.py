"""A speed gauge: the benchmark's times, scaled to a reference CPU speed.

On a shared virtual machine the same Python code can run up to twice as
slowly for spells of seconds to minutes (hyper-thread siblings and
neighbours come and go; CPU time slows alike and the kernel's steal count
stays flat). Raw wall times of one build then spread more from run to run
than the changes the benchmark is meant to resolve.

The gauge is a fixed piece of pure-Python work in the program's own mix
(Fraction arithmetic, tuple hashing, dict updates, small calls). While a
workload runs, a SIGALRM handler times the gauge at a fixed period of
wall time, so the machine's speed is sampled during long queries as well
as between short ones. A query's scaled time is its wall time, net of the
handler's own time, multiplied by REFERENCE_S over the mean gauge time of
the samples taken during the query and the nearest one on each side. On a
machine running at the reference speed the scaled time equals wall time;
a change that makes the program do less work lowers it in proportion. The
gauge runs with the garbage collector off, so the program's heap does not
change what it measures. The correction is not exact: in slow spells the
gauge slows somewhat more than the workloads do (about 1.9 times against
1.65 on the VM above), so scaled times then read a few percent low.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD = 0.05  # seconds of wall time between gauge samples
# The gauge's time at the reference speed: about its median in fast spells,
# between workload queries, on a shared 2-core 2 GHz Xeon VM under Python 3.
REFERENCE_S = 0.0017


class _Node:
    __slots__ = ("tag", "kids", "_hash")

    def __init__(self, tag, kids):
        self.tag, self.kids, self._hash = tag, kids, None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tag, self.kids))
        return self._hash

    def __eq__(self, other):
        return self.tag == other.tag and self.kids == other.kids


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(("var", i % 3), ())
    return _Node("app" if i % 2 else "abs", (_tree(depth - 1, i + 1), _tree(depth - 1, 3 * i + 1)))


def _substitute(t: _Node, name, s: _Node) -> _Node:
    if not t.kids:
        return s if t.tag == name else t
    return _Node(t.tag, tuple(_substitute(k, name, s) for k in t.kids))


def _work() -> int:
    """Term rebuilding and hashing into a memo, then Fraction sums keyed
    by small tuples: the kinds of work the program spends its time on."""
    memo, weights = {}, {}
    t, s = _tree(6, 1), _tree(2, 5)
    for r in range(4):
        u = _substitute(t, ("var", r % 3), s)
        memo[u] = memo.get(u, 0) + 1
        for k in u.kids:
            weights[k] = weights.get(k, Fraction(0)) + Fraction(1, 2 ** (r + 1))
    total = Fraction(0)
    for i in range(1, 420):
        total += Fraction(1, i % 29 + 1)
        key = (i % 17, total.denominator % 31)
        weights[key] = weights.get(key, 0) + 1
    return len(memo) + len(weights)


def sample() -> float:
    """Seconds one run of the gauge's work takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Samples the gauge every `period` seconds while running; scales spans
    of wall time taken between start() and stop()."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.starts: list[float] = []  # when each handler call began
        self.ends: list[float] = []  # when it returned
        self.gauge: list[float] = []  # the gauge sample it took

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        g = sample()
        self.starts.append(t0)
        self.gauge.append(g)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds of the wall-time span [t0, t1], which must lie
        between start() and stop()."""
        lo = bisect.bisect_right(self.starts, t0)  # first sample after t0
        hi = bisect.bisect_left(self.starts, t1)  # first sample at or after t1
        own = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = self.gauge[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - own) * REFERENCE_S * len(near) / sum(near)
