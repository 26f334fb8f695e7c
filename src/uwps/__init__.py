"""Underwater positioning from GNSS repeater buoys.

Four GNSS-synchronized surface buoys broadcast timestamped positions on a
TDMA schedule; an unsynchronized submerged receiver recovers its 3-D
position from pseudorange differences. The package provides the coordinate
frames, the wire protocol and schedule, the closed-form and iterative
multilateration solvers, and a scenario simulator that exercises the whole
pipeline.
"""

from .channel import (
    BuoyTrack,
    FrameRecord,
    ReceiverTrack,
    ReceptionEvent,
    Scenario,
    add_timing_noise,
    assemble_observations,
    simulate,
    working_frame,
)
from .errors import PositioningError
from .geo import (
    CartesianVector,
    GeodeticCoord,
    LocalFrame,
    ecef_to_geodetic,
    from_enu,
    geodetic_to_ecef,
    to_enu,
)
from .multilateration import (
    CandidatePair,
    DiffSet,
    FrameFix,
    Observation,
    ObservationSet,
    SolverConfig,
    kleusberg_solve,
    numerical_solve,
    pseudorange_diffs,
    residuals,
    select_underwater,
    solve_frame,
)
from .protocol import (
    BuoyMessage,
    FrameSchedule,
    compute_schedule,
    decode_message,
    encode_message,
    transmit_times,
)

__version__ = "0.1.0"

__all__ = [
    "BuoyMessage",
    "BuoyTrack",
    "CandidatePair",
    "CartesianVector",
    "DiffSet",
    "FrameFix",
    "FrameRecord",
    "FrameSchedule",
    "GeodeticCoord",
    "LocalFrame",
    "Observation",
    "ObservationSet",
    "PositioningError",
    "ReceiverTrack",
    "ReceptionEvent",
    "Scenario",
    "SolverConfig",
    "add_timing_noise",
    "assemble_observations",
    "compute_schedule",
    "decode_message",
    "ecef_to_geodetic",
    "encode_message",
    "from_enu",
    "geodetic_to_ecef",
    "kleusberg_solve",
    "numerical_solve",
    "pseudorange_diffs",
    "residuals",
    "select_underwater",
    "simulate",
    "solve_frame",
    "to_enu",
    "transmit_times",
    "working_frame",
]
