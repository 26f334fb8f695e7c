"""Underwater positioning from GNSS repeater buoys.

Four GNSS-synchronized surface buoys broadcast timestamped positions on a
TDMA schedule; an unsynchronized submerged receiver recovers its 3-D
position from pseudorange differences. The package provides the coordinate
frames, the wire protocol and schedule, the closed-form and iterative
multilateration solvers, and a scenario simulator that exercises the whole
pipeline. The names below are those of the README's library example; the
rest lives in the modules.
"""

from .geo import LocalFrame, geodetic_to_enu
from .multilateration import (
    Observation,
    ObservationSet,
    pseudorange_diffs,
    solve_frame,
)
from .protocol import decode_message

__version__ = "0.1.0"

__all__ = [
    "LocalFrame",
    "Observation",
    "ObservationSet",
    "decode_message",
    "geodetic_to_enu",
    "pseudorange_diffs",
    "solve_frame",
]
