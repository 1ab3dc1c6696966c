"""Host-speed probe: times a fixed reference chunk while a pass runs.

The benchmark runs on a few cores of a shared host whose speed moves by
20% and more, within seconds and for minutes at a time, and for all
Python code alike.  Five table passes in one process varied by 14% (raw
coefficient of variation), and their times divided by the mean time of
a reference chunk run every 20 ms during each pass varied by 1.7%.  So a
``Probe`` runs a fixed pure-Python chunk (small objects, rational
arithmetic, hashing; no qord code) from a SIGALRM handler every
INTERVAL_S of wall time, with the garbage collector paused, and records
how long each chunk took.  Over a window [t0, t1] of the pass:

    raw_s    = t1 - t0
    work_s   = raw_s - (time spent in chunks inside the window)
    slowdown = mean chunk time / NOMINAL_CHUNK_S
    scaled_s = work_s / slowdown

``scaled_s`` is the window's time at the reference speed, the speed at
which a chunk takes NOMINAL_CHUNK_S; it moves with the work qord does,
not with the host.  The chunk calls neither qord nor any Python code
qord calls (a ``fractions.Fraction`` chunk tracked the host half as
well), so a change to qord cannot change the reference.
"""

from __future__ import annotations

import gc
import signal
import time
from math import gcd

INTERVAL_S = 0.02
#: a window with fewer chunks inside is topped up with chunks run right
#: after it, so that a short set-up still gets a speed estimate
MIN_CHUNKS = 3
#: the chunk time that defines the reference speed: about what a chunk
#: takes inside a pass on an Intel Xeon vCPU with Python 3.11.7
NOMINAL_CHUNK_S = 0.001
CHUNK_STEPS = 500


class _Ratio:
    """A bare rational number, so that the chunk shares no Python code
    with qord (which uses ``fractions``)."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def add(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def mul(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.num, self.den * other.den)


def chunk() -> int:
    """The reference work: fixed, qord-free, and like qord's own in kind
    (small objects, method calls, rational arithmetic, hashing, a memo)."""
    memo: dict = {}
    acc = 0
    for i in range(1, CHUNK_STEPS):
        a = _Ratio(i % 7 + 1, i % 11 + 1)
        b = _Ratio(i % 5 + 2, i % 3 + 1)
        c = a.add(b).mul(a)
        key = (c.num, c.den)
        if key not in memo:
            memo[key] = len(memo)
        acc ^= hash(key)
    return acc + len(memo)


class Probe:
    """Runs ``chunk`` every INTERVAL_S between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame):
        paused = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        chunk()
        self.samples.append((t0, time.perf_counter() - t0))
        if paused:
            gc.enable()

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> dict:
        """raw_s, work_s, slowdown and scaled_s of the window [t0, t1]."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        work = t1 - t0 - sum(inside)
        while len(inside) < MIN_CHUNKS:
            self._tick(None, None)
            inside.append(self.samples[-1][1])
        slowdown = sum(inside) / len(inside) / NOMINAL_CHUNK_S
        return {
            "raw_s": t1 - t0,
            "work_s": work,
            "slowdown": slowdown,
            "scaled_s": work / slowdown,
        }
