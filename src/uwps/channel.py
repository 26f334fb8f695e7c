"""Scenario simulator: scheduled buoy broadcasts heard by a submerged receiver.

The simulator has the system's two halves. broadcast is what the buoys
send: each frame's reports and their points in the working frame, which
depend only on the buoys, the schedule and the frame count. simulate is
what one receiver hears of a broadcast: the arrival times, the receiver's
clock and the timing noise. A caller that simulates several receivers
under one array builds the broadcast once and passes it to each simulate
call; every other caller lets simulate build it.

The simulated world keeps the broadcast content authoritative: a buoy
transmits exactly when and from where its message says (transmit_times gives
the schedule instants at the 1 ms wire resolution, BuoyMessage rounds
positions to the 1e-7 deg / 1 cm wire resolution, and the acoustic path
starts at the reported point). Noiseless runs therefore reproduce the
receiver position to well below 1e-6 m. A report the wire cannot carry is
BuoyMessage's ValueError. Each value is checked once, where it enters: the
Scenario, each report (rounded once) and assemble_observations' receive
times and sound speed; a record of checked values is built unchecked.

The receiver timestamps arrivals on a dyadic 2^-40 s grid before its clock
offset is applied: each arrival goes to the nearest tick, ties to even,
rounded in float arithmetic as protocol._q rounds (_quantize_tick). With
the offset any multiple of that tick (integers in particular) and session
times under 2^13 s, receive times are exact floats and the offset cancels
bit-for-bit in the downstream differencing.

Timing noise is part of the channel: a scenario with noise_sigma > 0 adds
sigma * z_k to the k-th heard message's receive time as simulate builds its
event, z_k the k-th draw of the seed's standard-normal stream.

Everything is Python floats, and every working-frame position is an
(east, north, up) float tuple; add_timing_noise alone imports an array
library, for its seeded Gaussian generator, when a noisy run calls it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import IncompleteFrame
from .geo import GeodeticCoord, LocalFrame, _Checked, enu_to_geodetic, geodetic_to_enu
from .multilateration import SURFACE_UP, Observation, ObservationSet, _finite, _norm, _sound_speed
from .protocol import (SECONDS_PER_DAY, _RINT, BuoyMessage, FrameSchedule, _quantized,
                       transmit_times)

RX_CLOCK_TICK = 2.0 ** -40          # receiver timestamp resolution [s]
SPEED_CAP = 10.0                    # receiver speed sanity cap [m/s]
# bound on the magnitude of receiver coordinates and buoy heights [m], buoy
# drifts, the sound speed [m/s] and noise_sigma [s]: every range, squared
# range and arrival time simulate computes then stays well within float range
MAGNITUDE_CAP = 1e9
_TICK_FAST = 2.0 ** 51              # bound on |t| / RX_CLOCK_TICK for _quantize_tick's float path


def _quantize_tick(t: float) -> float:
    """t on the 2^-40 s grid: round(t / RX_CLOCK_TICK) * RX_CLOCK_TICK, with
    the integer rounding (ties to even) done in floats where |t| is under
    2^51 ticks, as _q does it."""
    y = t / RX_CLOCK_TICK
    if -_TICK_FAST < y < _TICK_FAST:
        return ((y + _RINT) - _RINT) * RX_CLOCK_TICK
    return round(y) * RX_CLOCK_TICK


class BuoyTrack(NamedTuple):
    """Surface buoy: initial geodetic fix plus a constant ENU drift."""

    initial: GeodeticCoord
    drift: tuple[float, float, float] = (0.0, 0.0, 0.0)


class ReceiverTrack(NamedTuple):
    """Receiver: initial working-frame ENU position plus constant velocity."""

    initial: tuple[float, float, float]
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def speed(self) -> float:
        return _norm(self.velocity)


class _Scenario(NamedTuple):
    buoys: tuple[BuoyTrack, BuoyTrack, BuoyTrack, BuoyTrack]
    receiver: ReceiverTrack
    sound_speed: float
    clock_offset: float
    schedule: FrameSchedule
    frames: int
    range_limit: float
    noise_sigma: float
    seed: int


class Scenario(_Checked, _Scenario):
    """World state for one simulation run.

    Receiver coordinates are in the working ENU frame anchored at buoy 1's
    first reported position. clock_offset follows t_true = t_receiver + offset.
    noise_sigma [s] is the standard deviation of the receiver's timestamp
    noise, drawn from seed; 0 means no noise.
    """

    __slots__ = ()

    def __new__(cls, buoys, receiver, sound_speed, clock_offset, schedule, frames,
                range_limit=math.inf, noise_sigma=0.0, seed=0):
        if len(buoys) != 4:
            raise ValueError("exactly four buoys required")
        if not all(map(math.isfinite, (*receiver.initial, *receiver.velocity))):
            raise ValueError("receiver position and velocity must be finite")
        if not all(math.isfinite(v) for b in buoys for v in b.drift):
            raise ValueError("buoy drifts must be finite")
        sound_speed = _sound_speed(sound_speed)
        if not math.isfinite(clock_offset):
            raise ValueError(f"clock_offset {clock_offset} must be finite")
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if receiver.initial[2] >= SURFACE_UP:
            raise ValueError("receiver must start below the surface (up < 0)")
        speed = receiver.speed()
        if speed > SPEED_CAP:
            raise ValueError(
                f"receiver speed {speed:.2f} m/s exceeds cap {SPEED_CAP:.2f} m/s")
        if speed >= sound_speed:
            raise ValueError(
                f"receiver speed {speed:.2f} m/s is not below "
                f"the sound speed {sound_speed:.2f} m/s")
        c, (vx, vy, vz) = sound_speed, receiver.velocity
        if not 0.0 < c * c - (vx * vx + vy * vy + vz * vz) < math.inf:
            # simulate's arrival time divides by c^2 - |v|^2
            raise ValueError(f"sound_speed {c} m/s squared is out of float range")
        for name, values in (("receiver position", receiver.initial),
                             ("buoy heights", [b.initial.height for b in buoys]),
                             ("buoy drifts", [v for b in buoys for v in b.drift]),
                             ("sound_speed", (c,))):
            if any(abs(v) > MAGNITUDE_CAP for v in values):
                raise ValueError(f"{name} must be at most {MAGNITUDE_CAP:g} in magnitude")
        if not range_limit > 0:   # NaN too; inf means unlimited
            raise ValueError(f"range_limit {range_limit} must be > 0")
        if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma {noise_sigma} must be finite and >= 0")
        if noise_sigma > MAGNITUDE_CAP:
            raise ValueError(f"noise_sigma {noise_sigma} must be at most {MAGNITUDE_CAP:g}")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"seed {seed!r} must be an int >= 0")
        end = frames * schedule.frame_period
        if end >= SECONDS_PER_DAY:
            raise ValueError(
                f"run of {end:.0f} s crosses the seconds-of-day rollover")
        return tuple.__new__(cls, (buoys, receiver, sound_speed, clock_offset, schedule, frames,
                                   range_limit, noise_sigma, seed))


class ReceptionEvent(NamedTuple):
    """One message heard by the receiver.

    true_position is ground truth (receiver location at the arrival
    instant, an (east, north, up) float tuple in the working ENU frame) and
    is withheld from the solvers. source is the reported position in the
    run's working frame, an (east, north, up) float tuple as the simulator
    computed it. Both are None for events read from the wire. The buoy is
    message.buoy_id.
    """

    frame_index: int
    message: BuoyMessage
    receive_time: float               # receiver clock [s]
    true_position: tuple[float, float, float] | None = None
    source: tuple[float, float, float] | None = None


class FrameRecord(NamedTuple):
    """All receptions of one frame."""

    frame_index: int
    events: tuple[ReceptionEvent, ...]

    @property
    def complete(self) -> bool:
        """All four buoys heard."""
        return len(self.events) == 4


def working_frame(scenario: Scenario) -> LocalFrame:
    """ENU frame anchored at buoy 1's first reported (wire-quantized) fix.

    Buoy 1 transmits at t = 0, so its first report is its initial position
    as the wire carries it.
    """
    return LocalFrame(BuoyMessage(1, 0.0, scenario.buoys[0].initial).position)


class _Broadcast(NamedTuple):
    buoys: tuple[BuoyTrack, BuoyTrack, BuoyTrack, BuoyTrack]
    schedule: FrameSchedule
    frames: int
    # per frame, each buoy's (t_tx, message, source) in buoy order
    sent: tuple[tuple[tuple[float, BuoyMessage, tuple[float, float, float]], ...], ...]


def broadcast(scenario: Scenario) -> _Broadcast:
    """What the buoys send: the buoys' half of simulate.

    It holds, for each frame, each buoy's transmit time, message and
    acoustic source (the reported point in the working frame). It reads
    only the scenario's buoys, schedule and frame count, and records them:
    every scenario equal to this one in those three hears the same
    broadcast, whatever its receiver, sound speed, clock offset, range
    limit and noise.
    """
    frame = working_frame(scenario)
    # buoy tracks in the working frame
    tracks = [(geodetic_to_enu(b.initial, frame), b.drift) for b in scenario.buoys]
    sent = []
    for k in range(scenario.frames):
        transmissions = []
        for i, t_tx in enumerate(transmit_times(scenario.schedule, k)):
            (e0, n0, u0), (dx, dy, dz) = tracks[i]
            reported = enu_to_geodetic((e0 + dx * t_tx, n0 + dy * t_tx, u0 + dz * t_tx), frame)
            message = _quantized(i + 1, t_tx, reported)
            # the acoustic source is the reported point
            transmissions.append((t_tx, message, geodetic_to_enu(message.position, frame)))
        sent.append(tuple(transmissions))
    return tuple.__new__(_Broadcast, (scenario.buoys, scenario.schedule, scenario.frames,
                                      tuple(sent)))


_broadcast = broadcast   # simulate's parameter of the same name hides it there


def simulate(scenario: Scenario, broadcast: _Broadcast | None = None) -> list[FrameRecord]:
    """Generate the reception events of every frame, in schedule order.

    Two halves: what the buoys send (broadcast(scenario), built here when
    none is given) and what this scenario's receiver hears of it. A
    broadcast is shared by scenarios that differ only in the receiver's
    half (receiver, sound speed, clock offset, range limit, noise and
    seed); one built for other buoys, another schedule or another frame
    count raises ValueError. Either way the events are the same, bit for
    bit.

    A noisy scenario draws the timing noise of every message the run could
    hear before its first frame; the k-th heard message takes the k-th.
    """
    if broadcast is None:
        broadcast = _broadcast(scenario)
    elif ((broadcast.buoys, broadcast.schedule, broadcast.frames)
          != (scenario.buoys, scenario.schedule, scenario.frames)):
        raise ValueError("broadcast was built for other buoys, schedule or frame count")
    c, limit, offset = scenario.sound_speed, scenario.range_limit, scenario.clock_offset
    (x0, y0, z0), (vx, vy, vz) = scenario.receiver.initial, scenario.receiver.velocity
    a = c * c - (vx * vx + vy * vy + vz * vz)   # > 0: the receiver is slower than sound
    noise = None
    if scenario.noise_sigma > 0.0:
        noise = iter(add_timing_noise(4 * scenario.frames, scenario.noise_sigma,
                                      scenario.seed))

    records = []
    for k, transmissions in enumerate(broadcast.sent):
        events = []
        for t_tx, message, source in transmissions:
            # |q + v*tau| = c*tau with q = p(t_tx) - source, p(t) = initial + v*t:
            # the positive root
            qx = x0 + vx * t_tx - source[0]
            qy = y0 + vy * t_tx - source[1]
            qz = z0 + vz * t_tx - source[2]
            qv = qx * vx + qy * vy + qz * vz
            qq = qx * qx + qy * qy + qz * qz
            t_arr = t_tx + (qv + math.sqrt(qv * qv + a * qq)) / a

            if c * (t_arr - t_tx) > limit:
                continue
            receive_time = _quantize_tick(t_arr) - offset
            if noise is not None:
                receive_time += next(noise)
            events.append(tuple.__new__(ReceptionEvent, (
                k, message, receive_time, (x0 + vx * t_arr, y0 + vy * t_arr, z0 + vz * t_arr),
                source)))
        records.append(tuple.__new__(FrameRecord, (k, tuple(events))))
    return records


def assemble_observations(events, sound_speed: float) -> ObservationSet:
    """Turn one frame's receptions into solver observations.

    Wire buoy ids 1..4 map to solver ids 0..3; buoy 1 is the reference.
    Simulated events give their source, already in the run's working frame.
    Wire events, without a source, are converted into the frame anchored at
    the reference buoy's report in these events. A frame that mixes the two
    raises IncompleteFrame. Events in buoy order, as simulate and the wire
    give them, are taken as they are. The receive times and the sound speed
    alone are checked.
    """
    events = tuple(events)
    if len(events) != 4:
        raise IncompleteFrame(f"need four events, got {len(events)}")
    e1, e2, e3, e4 = events
    if not (e1.message.buoy_id == 1 and e2.message.buoy_id == 2
            and e3.message.buoy_id == 3 and e4.message.buoy_id == 4):
        ids = sorted(e.message.buoy_id for e in events)
        if ids != [1, 2, 3, 4]:
            raise IncompleteFrame(f"need buoys 1..4 exactly once, got {ids}")
        e1, e2, e3, e4 = sorted(events, key=lambda e: e.message.buoy_id)
    if not e1.frame_index == e2.frame_index == e3.frame_index == e4.frame_index:
        raise IncompleteFrame(f"events mix frames {sorted({e.frame_index for e in events})}")

    events = e1, e2, e3, e4
    positions = e1.source, e2.source, e3.source, e4.source
    if None in positions:
        if positions.count(None) != 4:
            raise IncompleteFrame("events mix simulated and wire reports")
        frame = LocalFrame(e1.message.position)
        positions = [geodetic_to_enu(e.message.position, frame) for e in events]
    observations = []
    for solver_id, e, position in zip(range(4), events, positions):
        _finite("times", e.receive_time)
        observations.append(tuple.__new__(
            Observation, (solver_id, e.message.gnss_time, float(e.receive_time), position)))
    return tuple.__new__(ObservationSet, (tuple(observations), _sound_speed(sound_speed)))


def add_timing_noise(count: int, sigma: float, seed: int) -> list[float]:
    """The timing errors sigma * z of count receptions, reproducible by seed.

    One standard-normal draw per reception, all taken in one
    default_rng(seed).standard_normal(count) call. The generator gives the
    same numbers as one draw per reception, so the first k errors are
    those of a call for k: a run that hears fewer than count messages
    gives each heard one the draw it would have had.
    """
    import numpy as np   # only noisy runs pay for the import

    return [sigma * z for z in np.random.default_rng(seed).standard_normal(count).tolist()]
