"""Property suite behind `uwps verify`: every module invariant, seeded.

Each check states one property once and returns (ok, detail). `uwps
verify` runs them all at one seed; the acceptance tests call each of them,
the criterion checks as criteria (criterion 5's at its own case count) and
every other check as a test of its own. The scenario sampler solves each
case's closed form once, to test the case, and hands the pair it solved to
the checks. The motion-bound check asserts the v*S displacement bound
against the solved position error. The solver treats each frame as if the
receiver stood still, so the motion during the frame, amplified by
the geometry's vertical dilution, puts the error far beyond the bound;
that check reports FAIL with the measured exceedance until receiver motion
is modelled. All other checks pass.

The fixtures the checks draw on (the Malaga anchor, the distance oracle,
the scenario sampler and the scenario builder) are shared with the test
suite.

numpy's fixed cost per call, not the draw or the arithmetic, dominates a
per-case numpy call, so each case draws its uniforms as one block from the
same stream (a value low + (high - low) * u, as Generator.uniform computes
it) and the check bodies compute in floats. numpy remains for the seeded
generator (the cases' blocks; the codec checks' blocks of _BLOCK cases,
one array per field, which bound the memory the fields hold) and the
rigid-motion check's rotation. Every other value is summed in floats, left
to right, so it is the same on every host.

The two motion checks simulate many receivers under one buoy array, so
each builds that array's channel.broadcast once per call and simulates
every trajectory against it.
"""
from __future__ import annotations

import math
import struct
from typing import Callable, NamedTuple

import numpy as np

from . import channel, geo, multilateration, protocol
from .errors import PositioningError
from .geo import GeodeticCoord, LocalFrame
from .multilateration import DiffSet

DEFAULT_SEED = 20260808

MALAGA = GeodeticCoord(36.7201, -4.4203, 0.0)


class PropertyResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def oracle_diffs(buoys, truth) -> DiffSet:
    """Pseudorange differences from ground truth by brute-force distances.

    buoys is 4x3 with row 0 the reference; d_0i = |X - R_i| - |X - R_0|.
    Nested tuples or lists, or arrays. Independent of every solver code path.

    Written in floats: each distance is sqrt(x*x + y*y + z*z), summed left
    to right, the order of numpy's norm(..., axis=1) over rows of three, so
    the DiffSet is bit for bit the one the array form builds.
    """
    (x0, y0, z0), *others = buoys
    tx, ty, tz = truth
    u, v, w = x0 - tx, y0 - ty, z0 - tz
    r0 = math.sqrt(u * u + v * v + w * w)
    d, e, b = [], [], []
    for x, y, z in others:
        u, v, w = x - tx, y - ty, z - tz
        d.append(math.sqrt(u * u + v * v + w * w) - r0)
        u, v, w = x - x0, y - y0, z - z0
        length = math.sqrt(u * u + v * v + w * w)
        e.append((u / length, v / length, w / length))
        b.append(length)
    return DiffSet(d=d, e=e, b=b, reference=(x0, y0, z0))


def _square_case(rng: np.random.Generator, ups: bool):
    """(buoys, truth) as float tuples: a square of side 200-2000 m with each
    corner moved by up to 20 %, ups within +/-2 m (0.0 without ups), and a
    receiver 5-1000 m deep over the middle of the array.

    One block of uniforms: the side, each corner's east and north jitter,
    the ups, the receiver's east, north and depth. Each value is
    Generator.uniform's low + (high - low) * u, so the case and the stream
    are those of one uniform call per value in this order.
    """
    u = rng.random(16 if ups else 12).tolist()
    length = 200.0 + (2000.0 - 200.0) * u[0]
    low = -0.2 * length
    x0, y0, x1, y1, x2, y2, x3, y3 = [low + (0.2 * length - low) * v for v in u[1:9]]
    z0, z1, z2, z3 = [-2.0 + (2.0 - -2.0) * v for v in u[9:13]] if ups else (0.0,) * 4
    return (((x0, y0, z0), (length + x1, y1, z1), (length + x2, length + y2, z2),
             (x3, length + y3, z3)),
            ((0.2 + (0.8 - 0.2) * u[-3]) * length, (0.2 + (0.8 - 0.2) * u[-2]) * length,
             -(5.0 + (1000.0 - 5.0) * u[-1])))


# draws sample_scenario makes for one case before it gives up: no case of
# the criterion-1 and criterion-5 families (1000 each at seeds 20260808 and
# 12345) needs more than 3
SAMPLE_DRAWS = 100


def sample_scenario(rng: np.random.Generator):
    """One reconstruction-family case: buoys on a jittered square, ups
    within +/-2 m, and a receiver 5-1000 m deep over the middle of the array.

    Excluded: receivers near the equal-range degenerate axis (any |d|
    below 0.5 m) and data admitting two exact underwater solutions (the
    position is then unidentifiable from one frame's differences). Raises
    RuntimeError when SAMPLE_DRAWS draws in a row are excluded, as when the
    closed form fails on every one. Each draw is one _square_case block.
    Returns (buoys, truth, diffs, pair), pair the closed form the case was
    tested with, for the checks to take rather than solve the case again.
    """
    for _ in range(SAMPLE_DRAWS):
        buoys, truth = _square_case(rng, ups=True)
        diffs = oracle_diffs(buoys, truth)
        if min(map(abs, diffs.d)) < 0.5:
            continue
        try:
            pair = multilateration.kleusberg_solve(diffs)
        except PositioningError:
            continue
        exact_under = [
            p for _, s, p, _ in pair.branches
            if s >= 0.0 and p[2] < multilateration.SURFACE_UP
            and multilateration._norm(multilateration.residuals(p, diffs)) < 1e-6
        ]
        if len(exact_under) != 1:
            continue
        return buoys, truth, diffs, pair
    raise RuntimeError(f"no usable scenario in {SAMPLE_DRAWS} draws")


def make_scenario(buoy_enu, drifts=None, receiver=(300.0, 400.0, -150.0),
                  velocity=(0.0, 0.0, 0.0), clock_offset=0.0, frames=3,
                  range_limit=math.inf) -> channel.Scenario:
    """Buoys at ENU offsets around MALAGA, c = 1500 m/s, the reference
    schedule (80 bytes at 640 bps, 1 s guard)."""
    frame = LocalFrame(MALAGA)
    if drifts is None:
        drifts = [(0.0, 0.0, 0.0)] * 4
    buoys = tuple(
        channel.BuoyTrack(initial=geo.enu_to_geodetic(p, frame), drift=tuple(d))
        for p, d in zip(np.asarray(buoy_enu, float).tolist(), drifts))
    return channel.Scenario(
        buoys=buoys,
        receiver=channel.ReceiverTrack(initial=tuple(receiver), velocity=tuple(velocity)),
        sound_speed=1500.0,
        clock_offset=clock_offset,
        schedule=protocol.compute_schedule(80, 640.0, 1.0),
        frames=frames,
        range_limit=range_limit,
    )


# the reference array: a 1 km square, buoy ups within 1 m, optional drift
_LAYOUT = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 1.0],
                    [1000.0, 1000.0, -0.7], [0.0, 1000.0, 0.3]])
_DRIFTS = [(0.03, 0.04, 0.0), (-0.02, 0.05, 0.0), (0.05, -0.01, 0.0), (0.01, 0.02, 0.0)]


def _solve_records(scenario):
    """(record, diffs, underwater fix) of each complete frame, closed form only."""
    for record in channel.simulate(scenario):
        if not record.complete:
            continue
        obs = channel.assemble_observations(record.events, scenario.sound_speed)
        diffs = multilateration.pseudorange_diffs(obs)
        pair = multilateration.kleusberg_solve(diffs)
        yield record, diffs, multilateration.select_underwater(pair, diffs).position


# -- geo properties ----------------------------------------------------

def geodetic_round_trip(g: GeodeticCoord) -> tuple[bool, float]:
    """The round-trip property at one point: geodetic -> ECEF -> geodetic
    lands within 1e-6 m of g, measured in ECEF. Whether it holds, and the
    distance [m]."""
    p = geo.geodetic_to_ecef(g)
    err = math.dist(geo.geodetic_to_ecef(geo.ecef_to_geodetic(p)), p)
    return err < 1e-6, err


def check_geodetic_round_trip(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    holds, worst = True, 0.0
    for _ in range(500):
        u, v, w = rng.random(3).tolist()
        ok, err = geodetic_round_trip(GeodeticCoord(
            -90.0 + (90.0 - -90.0) * u, -179.999 + (180.0 - -179.999) * v,
            -11000.0 + (9000.0 - -11000.0) * w))
        holds = holds and ok
        worst = max(worst, err)
    return holds, f"worst round-trip {worst:.3e} m (< 1e-6 m)"


def check_enu_isometry(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    frame = LocalFrame(MALAGA)
    ox, oy, oz = frame.origin_ecef
    worst = 0.0
    for _ in range(200):
        ax, ay, az, bx, by, bz = rng.uniform(-5e3, 5e3, 6).tolist()
        a, b = (ox + ax, oy + ay, oz + az), (ox + bx, oy + by, oz + bz)
        d_ecef = math.dist(a, b)
        d_enu = math.dist(geo.to_enu(a, frame), geo.to_enu(b, frame))
        worst = max(worst, abs(d_enu - d_ecef) / max(d_ecef, 1.0))
    return worst < 1e-9, f"worst relative distortion {worst:.3e} (< 1e-9)"


def check_enu_up_axis(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 2.0
    for _ in range(50):
        u, v = rng.random(2).tolist()
        g = GeodeticCoord(-89.0 + (89.0 - -89.0) * u, -179.0 + (180.0 - -179.0) * v, 0.0)
        frame = LocalFrame(g)
        lat, lon = math.radians(g.latitude), math.radians(g.longitude)
        ux, uy, uz = frame.rotation[2]
        worst = min(worst, ux * (math.cos(lat) * math.cos(lon))
                    + uy * (math.cos(lat) * math.sin(lon)) + uz * math.sin(lat))
    return worst > 1.0 - 1e-12, f"min up.normal dot {worst:.15f} (> 1 - 1e-12)"


# -- multilateration properties ----------------------------------------

def check_clock_offset_invariance(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    tick = 2.0 ** -40
    for _ in range(50):
        buoys, truth, _, _ = sample_scenario(rng)
        base_obs = []
        for i, b in enumerate(buoys):
            t_tx = float(f"{10.0 + 2.0 * i:.3f}")
            t_arr = t_tx + math.dist(truth, b) / 1500.0
            base_obs.append(multilateration.Observation(
                i, t_tx, round(t_arr / tick) * tick, b))
        base = multilateration.pseudorange_diffs(
            multilateration.ObservationSet(tuple(base_obs), 1500.0))
        for offset in (-100.0, -1.0, 0.0, 0.5, 1.0, 100.0):
            moved = multilateration.pseudorange_diffs(multilateration.ObservationSet(
                tuple(multilateration.Observation(
                    o.buoy_id, o.transmit_time, o.receive_time + offset, o.position)
                    for o in base_obs), 1500.0))
            # bytes, not ==: bit identity tells -0.0 from 0.0
            if struct.pack("3d", *moved.d) != struct.pack("3d", *base.d):
                return False, f"DiffSet changed under offset {offset}"
    return True, "bit-identical DiffSets under all offsets"


def check_unit_norm(seed: int, solve: Callable = multilateration.kleusberg_solve
                    ) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        diffs = sample_scenario(rng)[2]
        pair = solve(diffs)   # the solve under test, not the sampler's
        for branch in pair.branches:
            worst = max(worst, abs(multilateration._norm(branch.direction) - 1.0))
    return worst < 1e-9, f"worst | |e|-1 | = {worst:.3e} (< 1e-9)"


def check_reconstruction_exactness(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        _, truth, diffs, pair = sample_scenario(rng)
        pick = multilateration.select_underwater(pair, diffs).position
        worst = max(worst, math.dist(pick, truth))
    return worst < 1e-6, f"worst error {worst:.3e} m over 1000 cases (< 1e-6 m)"


def check_mirror_symmetry(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        diffs = oracle_diffs(*_square_case(rng, ups=False))  # exactly coplanar
        if min(map(abs, diffs.d)) < 0.5:
            continue
        pair = multilateration.kleusberg_solve(diffs)
        (x1, y1, z1), (x2, y2, z2) = (branch.position for branch in pair.branches)
        worst = max(worst, abs(x1 - x2), abs(y1 - y2), abs(z1 + z2))
    return worst < 1e-6, f"worst mirror defect {worst:.3e} m (< 1e-6 m)"


def check_residual_consistency(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        _, _, diffs, pair = sample_scenario(rng)
        for _, s, p, _ in pair.branches:
            if s >= 0.0:  # negative-range branches are unphysical by design
                worst = max(worst, multilateration._norm(multilateration.residuals(p, diffs)))
    return worst < 1e-6, f"worst physical-candidate residual {worst:.3e} m (< 1e-6 m)"


def check_numerical_agreement(seed: int, cases: int = 200) -> tuple[bool, str]:
    """Gauss-Newton from 200 m-off guesses against the analytic underwater fix.

    Guess directions are drawn in a downward cone (half-angle 30 deg):
    near-horizontal guesses land in the above-water mirror basin for
    shallow receivers, where no local iteration can pick the branch.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        _, truth, diffs, pair = sample_scenario(rng)
        pick = multilateration.select_underwater(pair, diffs).position
        u, v = rng.random(2).tolist()
        azimuth = 2.0 * math.pi * u
        tilt = math.radians(30.0) * math.sqrt(v)
        step = (math.cos(azimuth) * math.sin(tilt), math.sin(azimuth) * math.sin(tilt),
                -math.cos(tilt))
        guess = tuple(t + 200.0 * c for t, c in zip(truth, step))
        # criterion 5's iteration budget
        got = multilateration.numerical_solve(diffs, initial=guess, max_iterations=25)
        worst = max(worst, math.dist(got, pick))
    return worst < 1e-4, f"worst disagreement {worst:.3e} m over {cases} cases (< 1e-4 m)"


def check_rigid_motion_equivariance(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        buoys, truth, _, base = sample_scenario(rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-5000.0, 5000.0, 3)
        moved = multilateration.kleusberg_solve(oracle_diffs(
            (np.array(buoys) @ q.T + shift).tolist(), (q @ truth + shift).tolist()))
        for got, want in zip(moved.branches, base.branches):
            worst = max(worst, math.dist(got.position, (q @ want.position + shift).tolist()))
    return worst < 1e-6, f"worst equivariance defect {worst:.3e} m (< 1e-6 m)"


def check_range_consistency(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        _, _, diffs, pair = sample_scenario(rng)
        den_tol = 1e-9 * max(diffs.b)
        for (vx, vy, vz), _, _, _ in pair.branches:
            ranges = []   # from each baseline whose denominator is usable
            for d, b, (ex, ey, ez) in zip(diffs.d, diffs.b, diffs.e):
                den = d + b * (ex * vx + ey * vy + ez * vz)
                if abs(den) > den_tol:
                    ranges.append(0.5 * (b * b - d * d) / den)
            worst = max(worst, max(ranges) - min(ranges))
    return worst < 1e-6, f"worst cross-baseline range spread {worst:.3e} m (< 1e-6 m)"


# -- protocol properties -----------------------------------------------

_BLOCK = 500   # cases the codec checks draw at a time


def _blocks(cases: int) -> list[int]:
    """The sizes of the blocks that make up cases: _BLOCK, the last one less."""
    return [min(_BLOCK, cases - start) for start in range(0, cases, _BLOCK)]


def _random_messages(rng: np.random.Generator, n: int):
    """n messages drawn over every field's whole range, the height over all
    the heights its 9-character field holds.

    Each field (id, time, latitude, longitude, height) is drawn here as one
    array; each message is built only when it is taken.
    """
    fields = (rng.integers(1, 5, n).tolist(), rng.uniform(0.0, 86399.999, n).tolist(),
              rng.uniform(-90, 90, n).tolist(), rng.uniform(-179.9999999, 180.0, n).tolist(),
              rng.uniform(*protocol._HEIGHT_RANGE, n).tolist())
    return (protocol.BuoyMessage(buoy_id, gnss_time, GeodeticCoord(lat, lon, height))
            for buoy_id, gnss_time, lat, lon, height in zip(*fields))


# position draws are uniform over [0, _POSITION_DRAWS): modulo a span of
# fewer than 80 bytes, each byte's chance is 1/span to within 2^-62
_POSITION_DRAWS = 2 ** 62


def _corrupt(sentence: bytes, position: int, replacement: int) -> tuple[int, bytes]:
    """One single-byte corruption of sentence, from two uniform draws.

    position, drawn over [0, _POSITION_DRAWS), picks a byte from 1 to the
    one before '*'; replacement, drawn over 0..254, picks one of the 255
    values other than the byte there, with no rejection loop. Returns the
    index and the corrupted sentence.
    """
    end = sentence.rindex(b"*")
    idx = 1 + position % (end - 1)
    corrupted = bytearray(sentence)
    corrupted[idx] = (sentence[idx] + 1 + replacement) % 256
    return idx, bytes(corrupted)


def check_codec_round_trip(seed: int) -> tuple[bool, str]:
    """2000 messages encode within the budget and decode to themselves.

    The cases are drawn a block at a time, so numpy's per-call cost is paid
    once per field and block, and the memory they hold is one block's.
    """
    rng = np.random.default_rng(seed)
    for n in _blocks(2000):
        for m in _random_messages(rng, n):
            sentence = protocol.encode_message(m)
            if len(sentence) > protocol.MAX_MESSAGE_BYTES:
                return False, f"sentence {len(sentence)} bytes exceeds budget"
            if protocol.decode_message(sentence) != m:
                return False, f"round-trip mismatch for {m}"
    return True, "2000 messages round-tripped within the 80-byte budget"


def check_corruption_detection(seed: int) -> tuple[bool, str]:
    """No single-byte corruption between '$' and '*' decodes.

    The cases are drawn a block at a time, so numpy's per-call cost is paid
    once per field and block, and the memory they hold is one block's: a
    block's message fields, then its positions, then its replacements.
    """
    rng = np.random.default_rng(seed)
    for n in _blocks(10000):
        messages = _random_messages(rng, n)
        positions = rng.integers(0, _POSITION_DRAWS, n).tolist()
        replacements = rng.integers(0, 255, n).tolist()
        for m, position, replacement in zip(messages, positions, replacements):
            idx, sentence = _corrupt(protocol.encode_message(m), position, replacement)
            try:
                protocol.decode_message(sentence)
                return False, f"corruption at byte {idx} undetected"
            except PositioningError:
                pass
    return True, "10000 single-byte corruptions all detected"


def check_schedule_budget(seed: int) -> tuple[bool, str]:
    s = protocol.compute_schedule(80, 640.0, 1.0)
    ok = (abs(s.message_duration - 1.0) < 1e-12 and abs(s.frame_period - 8.0) < 1e-12
          and s.frame_period < 10.0)
    for i in range(3):
        gap = s.start_times[i + 1] - (s.start_times[i] + s.message_duration)
        ok = ok and gap >= s.guard_time - 1e-12
    return ok, f"t_m={s.message_duration}s T_f={s.frame_period}s, slots non-overlapping"


# -- channel properties ------------------------------------------------

def check_end_to_end_exactness(seed: int) -> tuple[bool, str]:
    worst = 0.0
    for offset in (-100.0, 0.0, 3.7, 100.0):
        scenario = make_scenario(_LAYOUT, _DRIFTS, clock_offset=offset, frames=4)
        for record, _, pick in _solve_records(scenario):
            worst = max(worst, math.dist(pick, record.events[-1].true_position))
    return worst < 1e-6, f"worst stationary error {worst:.3e} m (< 1e-6 m)"


def check_offset_sweep_bit_identical(seed: int) -> tuple[bool, str]:
    runs = []
    for offset in (-100.0, -1.0, 0.0, 1.0, 100.0):
        scenario = make_scenario(_LAYOUT, _DRIFTS, clock_offset=offset, frames=3)
        runs.append([struct.pack("6d", *diffs.d, *pick)
                     for _, diffs, pick in _solve_records(scenario)])
    ok = all(r == runs[0] for r in runs)
    return ok, ("solutions bit-identical across the offset sweep" if ok
                else "solutions differ across offsets")


def check_causality(seed: int) -> tuple[bool, str]:
    for offset in (-50.0, 0.0, 50.0):
        scenario = make_scenario(_LAYOUT, clock_offset=offset, frames=2)
        for record in channel.simulate(scenario):
            for event in record.events:
                if event.receive_time + offset <= event.message.gnss_time:
                    return False, f"non-causal arrival for buoy {event.message.buoy_id}"
    return True, "every arrival after its transmission in GNSS time"


def check_simulation_determinism(seed: int) -> tuple[bool, str]:
    def run():
        scenario = make_scenario(_LAYOUT, _DRIFTS, frames=3)
        noisy = channel.simulate(scenario._replace(noise_sigma=1e-4, seed=seed))
        return [(r.complete, e.message.buoy_id, e.receive_time, e.message, e.true_position)
                for r in noisy for e in r.events]
    ok = repr(run()) == repr(run())   # float repr is exact, and tells -0.0 from 0.0
    return ok, "identical scenario + seed reproduces the event stream bit-for-bit"


def check_motion_displacement(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    base = make_scenario(_LAYOUT, frames=2)
    sent = channel.broadcast(base)   # every trajectory hears the one array
    period = base.schedule.frame_period
    worst = 0.0
    for speed in (1.0, 2.5, 5.0):
        for _ in range(20):
            azimuth = 2.0 * math.pi * rng.random()
            vel = (speed * math.cos(azimuth), speed * math.sin(azimuth), 0.0)
            scenario = base._replace(receiver=channel.ReceiverTrack(base.receiver.initial, vel))
            for record in channel.simulate(scenario, sent):
                first, last = record.events[0].true_position, record.events[-1].true_position
                worst = max(worst, math.dist(last, first) / (speed * period))
    return worst <= 1.0, f"worst displacement / (v*T_f) = {worst:.3f} (<= 1)"


def check_motion_bound(seed: int) -> tuple[bool, str]:
    """Solved-position error against the v*S displacement figure.

    FAILs today: the single-frame solver does not model the receiver's
    motion during the frame, and the geometry's vertical dilution amplifies
    that unmodelled motion in the solved position. Kept as stated so the
    exceedance is measured, not hidden: a frame without a fix counts as
    not meeting the bound.

    A trajectory's first frame is solved by solve_frame. A later frame is
    chained: Gauss-Newton starts from the previous frame's fix, while that
    fix lies within five longest baselines of the working frame's origin,
    and the frame's closed form is not run; a Gauss-Newton error leaves the
    frame without a fix.
    """
    rng = np.random.default_rng(seed)
    base = make_scenario(_LAYOUT, frames=2)
    sent = channel.broadcast(base)   # every trajectory hears the one array
    starts = base.schedule.start_times
    span = starts[3] - starts[0]   # first-to-last transmit separation
    ratios = []
    violations = 0
    unsolved = 0
    total = 0
    for speed in (1.0, 2.5, 5.0):
        for _ in range(100):
            u, e, n, d = rng.random(4).tolist()
            azimuth = 2.0 * math.pi * u
            vel = (speed * math.cos(azimuth), speed * math.sin(azimuth), 0.0)
            start = (200.0 + (800.0 - 200.0) * e, 200.0 + (800.0 - 200.0) * n,
                     -(100.0 + (500.0 - 100.0) * d))
            scenario = base._replace(receiver=channel.ReceiverTrack(start, vel))
            previous = None
            for record in channel.simulate(scenario, sent):
                obs = channel.assemble_observations(record.events, scenario.sound_speed)
                diffs = multilateration.pseudorange_diffs(obs)
                if previous is None:
                    fix = multilateration.solve_frame(
                        diffs, consistency_tolerance=500.0).numerical
                else:
                    try:
                        fix = multilateration.numerical_solve(diffs, initial=previous)
                    except PositioningError:
                        fix = None
                total += 1
                if fix is None:
                    unsolved += 1
                    continue
                # chain the fix only while it stays plausibly near the array
                previous = fix if multilateration._norm(fix) < 5.0 * max(diffs.b) else None
                error = math.dist(fix, record.events[-1].true_position)
                ratios.append(error / (speed * span))
                if error > speed * span:
                    violations += 1
    detail = (f"{violations + unsolved}/{total} frames exceed v*S or have no fix "
              f"({unsolved} unsolved)")
    if ratios:
        detail += (f"; error/(v*S) of solved frames median {float(np.median(ratios)):.2f}, "
                   f"worst {max(ratios):.2f}")
    return violations + unsolved == 0, detail


_CHECKS: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("geo.round_trip", check_geodetic_round_trip),
    ("geo.enu_isometry", check_enu_isometry),
    ("geo.enu_up_axis", check_enu_up_axis),
    ("multilateration.clock_offset_invariance", check_clock_offset_invariance),
    ("multilateration.unit_norm", check_unit_norm),
    ("multilateration.reconstruction_exactness", check_reconstruction_exactness),
    ("multilateration.mirror_symmetry", check_mirror_symmetry),
    ("multilateration.residual_consistency", check_residual_consistency),
    ("multilateration.numerical_agreement", check_numerical_agreement),
    ("multilateration.rigid_motion_equivariance", check_rigid_motion_equivariance),
    ("multilateration.range_consistency", check_range_consistency),
    ("protocol.codec_round_trip", check_codec_round_trip),
    ("protocol.corruption_detection", check_corruption_detection),
    ("protocol.schedule_budget", check_schedule_budget),
    ("channel.end_to_end_exactness", check_end_to_end_exactness),
    ("channel.offset_sweep_bit_identical", check_offset_sweep_bit_identical),
    ("channel.causality", check_causality),
    ("channel.determinism", check_simulation_determinism),
    ("channel.motion_displacement", check_motion_displacement),
    ("channel.motion_bound", check_motion_bound),
]


def run_all(seed: int = DEFAULT_SEED) -> list[PropertyResult]:
    results = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crashing property is a failing property
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(PropertyResult(name=name, ok=ok, detail=detail))
    return results
