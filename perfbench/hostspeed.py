"""The host's speed over time, sampled with a fixed reference kernel.

The host this benchmark was built on switches between a fast and a slow
state every 0.5-10 s: in the slow state the same work takes up to twice as
long, and the share of time spent there changes from minute to minute. A
median over a whole run therefore still moves by 15-50% between runs. The
program and a fixed kernel slow down together, so a time divided by the
kernel's time in the same moment no longer depends on the host's state.

`Sampler` times the kernel every INTERVAL_S of wall time from a SIGALRM
handler, so that samples land inside long calls too. `Sampler.window`
turns the samples around an interval into the host's slowdown: the
kernel's cost then, divided by REFERENCE_KERNEL_S. A time divided by the
slowdown is the time the work would have taken on a host where the kernel
takes REFERENCE_KERNEL_S; the benchmark's end-to-end times are given at
that reference speed.

A cold start of the program in a fresh interpreter is mostly imports:
reading, unmarshalling and executing modules and loading extension
libraries. It does not slow down with the kernel, but with another cold
start, so `cold_probe` times a fresh interpreter importing a fixed set of
standard-library modules, and `cold_slowdown` compares that time with
REFERENCE_COLD_S.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.04
# About the kernel's cost in the fast state of the reference host (2-vCPU KVM
# Intel Xeon, family 6 model 143, Python 3.11.7, numpy 2.4.6). It fixes the
# unit of a normalized time; it is a constant, not a measurement of the run.
REFERENCE_KERNEL_S = 3.0e-4
REFERENCE_COLD_S = 0.06    # cold_probe's time on the reference host
COLD_PROBE_MODULES = "json, decimal, argparse, email.parser, sqlite3, ctypes, unittest"
PAD_S = 2 * INTERVAL_S   # a short interval also uses samples this close to it
MIN_INSIDE = 10          # samples inside an interval that make it long
MIN_NEAR = 3             # samples a short interval is given at least


@dataclass(frozen=True)
class _Vector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("non-finite component")


def kernel() -> float:
    """Fixed scalar-geometry work: 3-vectors in numpy and in dataclasses.

    The mix matters. In the host's slow state a pure-Python loop slows down
    less than the program, most of all less than `uwps verify`; small numpy
    calls and validated dataclass objects, the program's own building
    blocks, slow down about as much as it does.
    """
    total = 0.0
    for i in range(3):
        a = np.array([1.0 + i, 2.0, 3.0])
        b = np.array([0.5, 1.5, 2.5 + i])
        c = np.cross(a, b)
        total += float(np.dot(c, a)) + float(np.linalg.norm(a - b))
        total += float(np.stack([a, b, c]).sum())
    for i in range(40):
        v = _Vector(float(i), 2.0, 3.0)
        w = _Vector(v.y, v.z, v.x)
        total += math.sqrt(v.x * w.x + v.y * w.y + v.z * w.z)
        total += float(f"{total:.6f}"[:5])
    return total


def time_kernel() -> tuple[float, float]:
    """(start, seconds) of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter() - start


def slowdown(costs) -> float:
    """The host's slowdown against the reference, from kernel costs."""
    return statistics.median(costs) / REFERENCE_KERNEL_S


def cold_probe() -> float:
    """Seconds a fresh interpreter takes to import COLD_PROBE_MODULES."""
    code = ("import time\n_start = time.perf_counter()\n"
            f"import {COLD_PROBE_MODULES}\n"
            "print(repr(time.perf_counter() - _start))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def cold_slowdown(probes) -> float:
    """The host's slowdown for cold starts, from cold_probe times."""
    return statistics.fmean(probes) / REFERENCE_COLD_S


class Sampler:
    """Kernel costs at a fixed interval while started, kept in time order."""

    def __init__(self):
        self.starts = array("d")
        self.costs = array("d")

    def record(self):
        start, cost = time_kernel()
        self.starts.append(start)
        self.costs.append(cost)

    def _on_alarm(self, signum, frame):
        self.record()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(slowdown, seconds spent sampling) for the interval [t0, t1].

        A long interval holds many samples, taken at even steps of time,
        and their mean weighs each host state by the time spent in it. A
        short one takes the median of the samples within PAD_S of it, or of
        the MIN_NEAR nearest ones when fewer lie that close. The second
        value is the sampling time that fell inside the interval, which a
        caller subtracts from its length.
        """
        inside_lo = bisect.bisect_left(self.starts, t0)
        inside_hi = bisect.bisect_left(self.starts, t1)
        inside = self.costs[inside_lo:inside_hi]
        if len(inside) >= MIN_INSIDE:
            return statistics.fmean(inside) / REFERENCE_KERNEL_S, sum(inside)
        if len(self.costs) < MIN_NEAR:
            raise ValueError("fewer host-speed samples than a window needs")
        lo = bisect.bisect_left(self.starts, t0 - PAD_S)
        hi = bisect.bisect_right(self.starts, t1 + PAD_S)
        while hi - lo < MIN_NEAR:     # widen towards the nearer neighbour
            if lo > 0 and (hi >= len(self.starts)
                           or t0 - self.starts[lo - 1] < self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return slowdown(self.costs[lo:hi]), sum(inside)
