"""Geometry builders and float helpers for the tests.

The distance oracle, the Malaga anchor, the scenario sampler and the
scenario builder live in `uwps.verify`, shared with `uwps verify`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from uwps import verify


def enu(x: float, y: float, z: float) -> tuple[float, float, float]:
    """A working-frame (east, north, up) position, as the pipeline carries it."""
    return float(x), float(y), float(z)


def unit_square(side: float = 1000.0, ups=(0.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """Anchor quadrilateral: a square of the given side at the given ups."""
    return np.array([
        [0.0, 0.0, ups[0]],
        [side, 0.0, ups[1]],
        [side, side, ups[2]],
        [0.0, side, ups[3]],
    ])


# verify.make_scenario over the flat 1 km square
make_scenario = functools.partial(verify.make_scenario, unit_square(1000.0))


def ulps_around(x: float, n: int) -> list[float]:
    """x and the n floats on each side of it."""
    below, above, out = x, x, [x]
    for _ in range(n):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out
