"""Each frame value is checked once, where it enters: the file, the wire,
the scenario or a public constructor. The records the pipeline builds of
checked values skip the checks, so they must equal, bit for bit, what the
checked constructors build of the same values; every input must raise
what it raised when each record checked itself; and no value may be
checked twice on the way from wire or scenario to the solver."""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import make_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from uwps import channel, cli, protocol, verify
from uwps.channel import ReceptionEvent, assemble_observations, simulate, working_frame
from uwps.errors import DegenerateBaseline, PositioningError, UnrealizableTDOA
from uwps.geo import GeodeticCoord, LocalFrame, geodetic_to_enu
from uwps.multilateration import DiffSet, Observation, ObservationSet, pseudorange_diffs
from uwps.protocol import BuoyMessage, decode_message, encode_message

DATA = Path(__file__).parent / "data"


def bits(value):
    """value with every float as its bytes and every leaf and record with
    its type: equal only where the bits and the types are equal."""
    if isinstance(value, tuple):
        return type(value), tuple(bits(v) for v in value)
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def message_by_constructors(message: BuoyMessage) -> BuoyMessage:
    return BuoyMessage(message.buoy_id, message.gnss_time, GeodeticCoord(*message.position))


def observations_by_constructors(events, sound_speed, frame) -> ObservationSet:
    """assemble_observations written with the checked constructors."""
    events = sorted(events, key=lambda e: e.message.buoy_id)
    return ObservationSet(tuple(
        Observation(i, e.message.gnss_time, e.receive_time,
                    geodetic_to_enu(e.message.position, frame))
        for i, e in enumerate(events)), sound_speed)


def diffs_by_constructor(diffs: DiffSet) -> DiffSet:
    return DiffSet(diffs.d, diffs.e, diffs.b, diffs.reference)


def decoded_events(path) -> list[ReceptionEvent]:
    obs_file = cli.parse_observation_file(path)
    return cli._decode_observation_events(obs_file, path)


SCENARIOS = {
    "squaretest": lambda: cli.parse_scenario_file(cli.resolve_input("squaretest")).scenario,
    "moving": lambda: cli.parse_scenario_file(DATA / "moving.scn").scenario,
    "drifting noisy": lambda: make_scenario(
        drifts=[(0.3, -0.2, 0.0), (-0.25, 0.1, 0.01), (0.05, 0.3, 0.0), (-0.1, -0.3, -0.01)],
        velocity=(1.5, -2.0, 0.1), clock_offset=-3.25, frames=12,
    )._replace(noise_sigma=2e-5, seed=11),
}


# -- builder against constructor ----------------------------------------

def test_decode_builds_what_the_constructor_builds_over_the_codec_family():
    """verify's codec family: each sentence decodes to the message
    BuoyMessage builds, and builds again of the decoded values."""
    for message in verify._random_messages(np.random.default_rng(20260808), 2000):
        decoded = decode_message(encode_message(message))
        assert bits(decoded) == bits(message) == bits(message_by_constructors(decoded))


@settings(max_examples=500, deadline=None)
@given(buoy_id=st.integers(1, 4), t=st.floats(0.0, 86399.999), lat=st.floats(-90.0, 90.0),
       lon=st.floats(-179.9999999, 180.0), h=st.floats(-99999.99, 999999.99))
def test_decode_of_a_canonical_sentence_builds_what_the_constructor_builds(
        buoy_id, t, lat, lon, h):
    payload = f"UWPS,{buoy_id},{t:.3f},{lat:.7f},{lon:.7f},{h:.2f}".encode("ascii")
    sentence = b"$" + payload + b"*" + b"%02X" % protocol.checksum(payload) + b"\r\n"
    try:
        decoded = decode_message(sentence)
    except PositioningError:
        return   # a longitude that spells -180
    assert bits(decoded) == bits(message_by_constructors(decoded))
    assert encode_message(decoded) == sentence


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_simulated_report_is_the_constructors_message(name, monkeypatch):
    """simulate rounds each report once, at a time already on the wire's
    1 ms grid: every message equals BuoyMessage of the same arguments."""
    built = []
    quantized = protocol._quantized

    def recording(*args):
        built.append((args, quantized(*args)))
        return built[-1][1]

    monkeypatch.setattr(channel, "_quantized", recording)
    records = simulate(SCENARIOS[name]())
    assert len(built) == 4 * len(records)
    for args, message in built:
        assert bits(message) == bits(BuoyMessage(*args))
    heard = [id(e.message) for r in records for e in r.events]
    assert set(heard) <= {id(message) for _, message in built}


@pytest.mark.parametrize("name", SCENARIOS)
def test_assembly_and_differencing_build_what_the_constructors_build(name):
    """Simulated events, and the same events exported and decoded: the
    ObservationSet and the DiffSet, anchors included, bit for bit."""
    scenario = SCENARIOS[name]()
    frame = working_frame(scenario)
    checked = 0
    for record in simulate(scenario):
        if not record.complete:
            continue
        wire = [ReceptionEvent(e.frame_index, decode_message(encode_message(e.message)),
                               e.receive_time) for e in record.events]
        # simulated events are in the working frame, wire events in the
        # frame anchored at their reference buoy's report
        for events, want in ((record.events, frame),
                             (wire, LocalFrame(wire[0].message.position))):
            obs = assemble_observations(events, scenario.sound_speed)
            assert bits(obs) == bits(observations_by_constructors(
                events, scenario.sound_speed, want))
            try:
                diffs = pseudorange_diffs(obs)
            except PositioningError:
                continue   # noise can push a difference past its baseline
            assert bits(diffs) == bits(diffs_by_constructor(diffs))
            checked += 1
    assert checked > 0


def test_the_bundled_observation_file_builds_what_the_constructors_build():
    events = decoded_events(cli.resolve_input("squaretest_frame0"))
    assert all(bits(e.message) == bits(message_by_constructors(e.message)) for e in events)
    obs = assemble_observations(events, 1500.0)
    assert bits(obs) == bits(observations_by_constructors(
        events, 1500.0, LocalFrame(events[0].message.position)))
    diffs = pseudorange_diffs(obs)
    assert bits(diffs) == bits(diffs_by_constructor(diffs))


def test_decoded_events_are_the_constructors_events(tmp_path, capsys):
    """_decode_observation_events builds each ReceptionEvent as its tuple:
    equal, types and bits included, to ReceptionEvent of the same values,
    on the bundled frame and on every frame exported from the moving
    scenario, whose frame indices are not 0."""
    cli.main(["simulate", str(DATA / "moving.scn"), "-o", str(tmp_path / "out.csv"),
              "--export-obs", str(tmp_path / "obs")])
    paths = [cli.resolve_input("squaretest_frame0"), *sorted((tmp_path / "obs").glob("*.obs"))]
    assert len(paths) > 2
    for path in paths:
        heard = cli.parse_observation_file(path)
        events = decoded_events(path)
        assert [bits(e) for e in events] == [
            bits(ReceptionEvent(heard.frame_index, e.message, t))
            for e, t in zip(events, heard.receive_times)]


# -- error parity ---------------------------------------------------------

def test_a_hand_built_event_with_a_nan_receive_time_raises_as_before():
    events = decoded_events(cli.resolve_input("squaretest_frame0"))
    for k in range(4):
        broken = [e._replace(receive_time=math.nan) if i == k else e
                  for i, e in enumerate(events)]
        with pytest.raises(ValueError, match=r"^times must be finite$"):
            assemble_observations(broken, 1500.0)


@pytest.mark.parametrize("sound_speed, shown", [
    (math.nan, "nan"), (0.0, "0.0"), (0, "0"), (-1500.0, "-1500.0"), (math.inf, "inf")])
def test_a_bad_sound_speed_raises_as_before(sound_speed, shown):
    events = decoded_events(cli.resolve_input("squaretest_frame0"))
    message = rf"^sound_speed {shown} must be finite and > 0$"
    with pytest.raises(ValueError, match=message):
        assemble_observations(events, sound_speed)
    with pytest.raises(ValueError, match=message):
        observations_by_constructors(events, sound_speed, LocalFrame(events[0].message.position))


def _set(positions, transmit=(0.0, 0.0, 0.0, 0.0), receive=(0.0, 0.0, 0.0, 0.0)):
    return ObservationSet(tuple(Observation(i, t, r, p) for i, (t, r, p)
                                in enumerate(zip(transmit, receive, positions))), 1500.0)


_SQUARE = [(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (1000.0, 1000.0, 0.0), (0.0, 1000.0, 0.0)]


@pytest.mark.parametrize("obs, error, message", [
    # buoys 1e200 m apart: the baseline overflows to inf
    (_set([(0.0, 0.0, 0.0), (1e200, 0.0, 0.0), (0.0, 1e200, 0.0), (0.0, 0.0, 1e200)]),
     ValueError, r"^DiffSet entries must be finite$"),
    # receive times +-1e308: the difference overflows to inf
    (_set(_SQUARE, receive=(-1e308, 1e308, 1e308, 1e308)),
     UnrealizableTDOA, r"^\|d\| = inf m >= baseline 1000\.000 m for buoy 1$"),
    # both times +-1e308: inf - inf is NaN
    (_set(_SQUARE, transmit=(-1e308, 1e308, 1e308, 1e308), receive=(-1e308, 1e308, 1e308, 1e308)),
     ValueError, r"^DiffSet entries must be finite$"),
    # an overflowing baseline before a degenerate one: the loop's error first
    (_set([(0.0, 0.0, 0.0), (1e200, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 1000.0, 0.0)]),
     DegenerateBaseline, r"^buoys 0 and 2 separated by 0\.5 m$"),
])
def test_an_overflowing_difference_raises_as_before(obs, error, message):
    with pytest.raises(error, match=message):
        pseudorange_diffs(obs)


def test_int_values_are_stored_and_differenced_as_floats():
    """Observation and ObservationSet store floats, so pseudorange_diffs
    gives floats by construction, as the DiffSet constructor would."""
    obs = ObservationSet(tuple(Observation(i, 2 * i, 2 * i + 1, (p, q, 0))
                               for i, (p, q) in enumerate([(0, 0), (1000, 0), (1000, 1000),
                                                           (0, 1000)])), 1500)
    assert all(type(v) is float for o in obs.observations
               for v in (o.transmit_time, o.receive_time, *o.position))
    assert type(obs.sound_speed) is float
    diffs = pseudorange_diffs(obs)
    assert all(type(v) is float for v in (*diffs.d, *diffs.b, *diffs.anchors))
    assert bits(diffs) == bits(diffs_by_constructor(diffs))
    events = decoded_events(cli.resolve_input("squaretest_frame0"))
    assembled = assemble_observations([e._replace(receive_time=k) for k, e in enumerate(events)],
                                      1500)
    assert bits(assembled) == bits(observations_by_constructors(
        [e._replace(receive_time=float(k)) for k, e in enumerate(events)], 1500.0,
        LocalFrame(events[0].message.position)))


# -- regression guard -----------------------------------------------------

def count_checked_builds(monkeypatch) -> dict[str, int]:
    """Count the calls of each checked constructor from now on."""
    counts = {}
    for cls in (GeodeticCoord, BuoyMessage, Observation):
        counts[cls.__name__] = 0

        def counting(cls_, *args, _new=cls.__new__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _new(cls_, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    return counts


def test_simulate_checks_one_geodetic_coord_per_report(monkeypatch, tmp_path, capsys):
    """uwps simulate squaretest: the scenario file's four buoy positions,
    then one checked GeodeticCoord per report (enu_to_geodetic's; its
    rounding is built unchecked), the working frame's one BuoyMessage and
    no checked Observation."""
    frames = cli.parse_scenario_file(cli.resolve_input("squaretest")).scenario.frames
    counts = count_checked_builds(monkeypatch)
    assert cli.main(["simulate", "squaretest", "-o", str(tmp_path / "out.csv")]) == 0
    assert counts == {"GeodeticCoord": 4 + 4 * frames, "BuoyMessage": 1, "Observation": 0}


def test_solve_checks_each_sentence_once(monkeypatch, capsys):
    """uwps solve squaretest_frame0: one checked GeodeticCoord per decoded
    sentence, no message rounded and checked again, no checked Observation."""
    counts = count_checked_builds(monkeypatch)
    assert cli.main(["solve", "squaretest_frame0"]) == 0
    assert counts == {"GeodeticCoord": 4, "BuoyMessage": 0, "Observation": 0}
