"""Scenario simulator: scheduled buoy broadcasts heard by a submerged receiver.

The simulated world keeps the broadcast content authoritative: a buoy
transmits exactly when and from where its message says (schedule instants are
snapped to the 1 ms wire resolution, positions to the 1e-7 deg / 1 cm wire
resolution, and the acoustic path starts at the reported point). Noiseless
runs therefore reproduce the receiver position to well below 1e-6 m.

The receiver timestamps arrivals on a dyadic 2^-40 s grid before its clock
offset is applied. With the offset any multiple of that tick (integers in
particular) and session times under 2^13 s, receive times are exact floats
and the offset cancels bit-for-bit in the downstream differencing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IncompleteFrame
from .geo import (
    ENU,
    CartesianVector,
    GeodeticCoord,
    LocalFrame,
    enu_to_geodetic,
    geodetic_to_enu,
)
from .multilateration import Observation, ObservationSet
from .protocol import BuoyMessage, FrameSchedule, transmit_times

RX_CLOCK_TICK = 2.0 ** -40          # receiver timestamp resolution [s]
DEFAULT_SPEED_CAP = 10.0            # receiver speed sanity cap [m/s]

_ARRIVAL_TOL = 1e-12                # fixed-point stop for moving receivers [s]


def _quantize_ms(t: float) -> float:
    return float(f"{t:.3f}")


def _quantize_tick(t: float) -> float:
    return round(t / RX_CLOCK_TICK) * RX_CLOCK_TICK


@dataclass(frozen=True)
class BuoyTrack:
    """Surface buoy: initial geodetic fix plus a constant ENU drift."""

    initial: GeodeticCoord
    drift: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ReceiverTrack:
    """Receiver: initial working-frame ENU position plus constant velocity."""

    initial: tuple[float, float, float]
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def position_at(self, t: float) -> np.ndarray:
        return np.asarray(self.initial, float) + np.asarray(self.velocity, float) * t

    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


@dataclass(frozen=True)
class Scenario:
    """World state for one simulation run.

    Receiver coordinates are in the working ENU frame anchored at buoy 1's
    first reported position. clock_offset follows t_true = t_receiver + offset.
    """

    buoys: tuple[BuoyTrack, BuoyTrack, BuoyTrack, BuoyTrack]
    receiver: ReceiverTrack
    sound_speed: float
    clock_offset: float
    schedule: FrameSchedule
    frames: int
    range_limit: float = math.inf
    speed_cap: float = DEFAULT_SPEED_CAP

    def __post_init__(self):
        if len(self.buoys) != 4:
            raise ValueError("exactly four buoys required")
        if self.sound_speed <= 0:
            raise ValueError("sound_speed must be > 0")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.receiver.initial[2] >= 0:
            raise ValueError("receiver must start below the surface (up < 0)")
        if self.receiver.speed() > self.speed_cap:
            raise ValueError(
                f"receiver speed {self.receiver.speed():.2f} m/s exceeds "
                f"cap {self.speed_cap:.2f} m/s")
        if self.range_limit <= 0:
            raise ValueError("range_limit must be > 0")
        end = self.frames * self.schedule.frame_period
        if end >= 86400.0:
            raise ValueError(
                f"run of {end:.0f} s crosses the seconds-of-day rollover")


@dataclass(frozen=True)
class ReceptionEvent:
    """One message heard by the receiver.

    true_position is ground truth (receiver location at the arrival
    instant, working ENU frame) and is withheld from the solvers.
    source is the reported position converted into source_frame, as the
    simulator computed it; both are None for events read from the wire,
    and neither takes part in comparisons.
    """

    buoy_id: int                      # wire id 1..4
    frame_index: int
    message: BuoyMessage
    receive_time: float               # receiver clock [s]
    true_position: CartesianVector
    source: CartesianVector | None = field(default=None, compare=False)
    source_frame: LocalFrame | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.buoy_id not in (1, 2, 3, 4):
            raise ValueError(f"buoy_id {self.buoy_id} outside 1..4")


@dataclass(frozen=True)
class FrameRecord:
    """All receptions of one frame; complete means all four buoys heard."""

    frame_index: int
    events: tuple[ReceptionEvent, ...]
    complete: bool


def working_frame(scenario: Scenario) -> LocalFrame:
    """ENU frame anchored at buoy 1's first reported (wire-quantized) fix.

    Buoy 1 transmits at t = 0, so its first report is its initial position
    as the wire carries it.
    """
    first = scenario.buoys[0].initial
    msg = BuoyMessage(1, 0.0, first)
    return LocalFrame(msg.position)


def simulate(scenario: Scenario) -> list[FrameRecord]:
    """Generate the reception events of every frame, in schedule order."""
    frame = working_frame(scenario)
    c = scenario.sound_speed
    rx = scenario.receiver
    moving = rx.speed() > 0.0

    # buoy tracks in the working frame
    buoy_enu0 = [geodetic_to_enu(b.initial, frame).as_array() for b in scenario.buoys]
    buoy_vel = [np.asarray(b.drift, float) for b in scenario.buoys]

    records = []
    for k in range(scenario.frames):
        slots = transmit_times(scenario.schedule, k)
        events = []
        for i in range(4):
            t_tx = _quantize_ms(slots[i])
            enu = buoy_enu0[i] + buoy_vel[i] * t_tx
            reported = enu_to_geodetic(CartesianVector.from_array(enu, ENU), frame)
            message = BuoyMessage(i + 1, t_tx, reported)
            # the acoustic source is the reported point
            source_enu = geodetic_to_enu(message.position, frame)
            source = source_enu.as_array()

            if moving:
                t_arr = t_tx
                for _ in range(100):
                    t_next = t_tx + float(np.linalg.norm(rx.position_at(t_arr) - source)) / c
                    if abs(t_next - t_arr) < _ARRIVAL_TOL:
                        t_arr = t_next
                        break
                    t_arr = t_next
            else:
                t_arr = t_tx + float(np.linalg.norm(rx.position_at(0.0) - source)) / c

            path_length = c * (t_arr - t_tx)
            if path_length > scenario.range_limit:
                continue
            events.append(ReceptionEvent(
                buoy_id=i + 1,
                frame_index=k,
                message=message,
                receive_time=_quantize_tick(t_arr) - scenario.clock_offset,
                true_position=CartesianVector.from_array(rx.position_at(t_arr), ENU),
                source=source_enu,
                source_frame=frame,
            ))
        records.append(FrameRecord(frame_index=k, events=tuple(events),
                                   complete=len(events) == 4))
    return records


def assemble_observations(
    events,
    sound_speed: float,
    frame: LocalFrame | None = None,
    speed_window=None,
) -> ObservationSet:
    """Turn one frame's receptions into solver observations.

    Wire buoy ids 1..4 map to solver ids 0..3; buoy 1 is the reference.
    When no working frame is given it is derived from the reference
    buoy's reported position in these events (its first report, for a
    single-frame input). A simulated event already converted to the
    requested frame is not converted again.
    """
    events = tuple(events)
    if len(events) != 4:
        raise IncompleteFrame(f"need four events, got {len(events)}")
    ids = sorted(e.buoy_id for e in events)
    if ids != [1, 2, 3, 4]:
        raise IncompleteFrame(f"need buoys 1..4 exactly once, got {ids}")
    frames_seen = {e.frame_index for e in events}
    if len(frames_seen) != 1:
        raise IncompleteFrame(f"events mix frames {sorted(frames_seen)}")

    by_id = {e.buoy_id: e for e in events}
    if frame is None:
        frame = LocalFrame(by_id[1].message.position)
    observations = tuple(
        Observation(
            buoy_id=wire_id - 1,
            transmit_time=by_id[wire_id].message.gnss_time,
            receive_time=by_id[wire_id].receive_time,
            position=_enu_position(by_id[wire_id], frame),
        )
        for wire_id in (1, 2, 3, 4)
    )
    kwargs = {} if speed_window is None else {"speed_window": speed_window}
    return ObservationSet(observations=observations, sound_speed=sound_speed, **kwargs)


def _enu_position(event: ReceptionEvent, frame: LocalFrame) -> CartesianVector:
    # a frame is computed from its origin alone
    if event.source is not None and event.source_frame.origin == frame.origin:
        return event.source
    return geodetic_to_enu(event.message.position, frame)


def add_timing_noise(records, sigma: float, seed: int) -> list[FrameRecord]:
    """Gaussian perturbation of receive timestamps, reproducible by seed."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    noisy = []
    for record in records:
        events = tuple(
            replace(e, receive_time=e.receive_time + sigma * float(rng.standard_normal()))
            for e in record.events
        )
        noisy.append(replace(record, events=events))
    return noisy
