"""Simulator contracts: kinematics, clock offsets, noise, assembly."""
import math

import numpy as np
import pytest
from conftest import make_scenario

from uwps.channel import (
    BuoyTrack,
    ReceiverTrack,
    assemble_observations,
    broadcast,
    simulate,
    working_frame,
)
from uwps.errors import IncompleteFrame
from uwps.geo import geodetic_to_enu
from uwps.multilateration import kleusberg_solve, pseudorange_diffs, select_underwater
from uwps.protocol import compute_schedule
from uwps.verify import _DRIFTS


def underwater_fix(record, scenario):
    obs = assemble_observations(record.events, scenario.sound_speed)
    diffs = pseudorange_diffs(obs)
    return select_underwater(kleusberg_solve(diffs), diffs).position


def test_one_second_at_1500m_slant_range():
    # receiver placed 1500 m from buoy 1 (at the frame origin)
    scenario = make_scenario(receiver=(0.0, 900.0, -1200.0), frames=1)
    record = simulate(scenario)[0]
    event = record.events[0]
    flight = (event.receive_time + scenario.clock_offset) - event.message.gnss_time
    assert flight == pytest.approx(1.0, abs=1e-9)
    # a moving receiver hears each message where the sound front meets it:
    # |p(t_arr) - source| = c * (t_arr - t_tx), to the receiver clock tick
    moving = make_scenario(receiver=(0.0, 900.0, -1200.0), velocity=(3.0, -4.0, 0.5),
                           clock_offset=2.0, frames=2)
    records = simulate(moving)
    for record in records:
        for event in record.events:
            flight = (event.receive_time + moving.clock_offset) - event.message.gnss_time
            path = math.dist(event.true_position, event.source)
            assert path / moving.sound_speed == pytest.approx(flight, abs=1e-12)
    # closing on buoy 1 at 2.8 m/s, it hears the first message early
    assert records[0].events[0].receive_time + moving.clock_offset < 1.0 - 1e-3


@pytest.mark.parametrize("receiver, velocity, clock_offset, range_limit, noise", [
    ((300.0, 400.0, -150.0), (0.0, 0.0, 0.0), 0.0, math.inf, (0.0, 0)),
    ((0.0, 900.0, -1200.0), (3.0, -4.0, 0.5), 2.0, math.inf, (0.0, 0)),
    ((850.0, 120.0, -40.0), (-2.5, 0.0, 0.0), -100.0, math.inf, (1e-4, 7)),
    ((0.0, 0.0, -500.0), (1.0, 1.0, 0.0), 3.7, 700.0, (0.0, 0)),
    ((200.0, 300.0, -300.0), (0.0, 5.0, -0.2), 100.0, 700.0, (2e-5, 11)),
])
def test_a_shared_broadcast_simulates_what_simulate_builds(
        receiver, velocity, clock_offset, range_limit, noise):
    """Receivers under one array hear, from the broadcast built for another
    receiver, the events simulate builds for them alone, bit for bit."""
    base = make_scenario(_DRIFTS, frames=3)
    sigma, seed = noise
    scenario = base._replace(receiver=ReceiverTrack(receiver, velocity),
                             clock_offset=clock_offset, range_limit=range_limit,
                             noise_sigma=sigma, seed=seed)
    alone = simulate(scenario)
    # float repr is exact, and tells -0.0 from 0.0
    assert repr(simulate(scenario, broadcast(base))) == repr(alone)
    if range_limit < math.inf:
        assert not all(record.complete for record in alone)


def test_simulate_rejects_a_broadcast_of_another_array():
    scenario = make_scenario(frames=2)
    moved = scenario.buoys[:3] + (BuoyTrack(scenario.buoys[3].initial, (0.1, 0.0, 0.0)),)
    for other in (scenario._replace(buoys=moved),
                  scenario._replace(schedule=compute_schedule(80, 640.0, 0.5)),
                  scenario._replace(frames=3)):
        with pytest.raises(ValueError, match="^broadcast was built for other buoys"):
            simulate(scenario, broadcast(other))
        with pytest.raises(ValueError, match="^broadcast was built for other buoys"):
            simulate(other, broadcast(scenario))


def test_clock_offset_shifts_receiver_times_only():
    base = simulate(make_scenario(frames=2))
    shifted = simulate(make_scenario(frames=2, clock_offset=5.0))
    for rec_a, rec_b in zip(base, shifted):
        for ev_a, ev_b in zip(rec_a.events, rec_b.events):
            assert ev_b.receive_time.hex() == (ev_a.receive_time - 5.0).hex()
            assert ev_b.message == ev_a.message


def test_range_limit_drops_events():
    # receiver well beyond range of the far buoys but within range of buoy 1
    scenario = make_scenario(receiver=(0.0, 0.0, -500.0), frames=1, range_limit=700.0)
    record = simulate(scenario)[0]
    assert not record.complete
    assert len(record.events) < 4
    with pytest.raises(IncompleteFrame):
        assemble_observations(record.events, scenario.sound_speed)


def test_assemble_recovers_truth():
    scenario = make_scenario(frames=1)
    record = simulate(scenario)[0]
    pick = underwater_fix(record, scenario)
    assert math.dist(pick, record.events[-1].true_position) < 1e-6


def test_assemble_rejects_duplicate_ids():
    record = simulate(make_scenario(frames=1))[0]
    events = list(record.events)
    events[1] = events[0]
    with pytest.raises(IncompleteFrame, match=r"exactly once, got \[1, 1, 3, 4\]$"):
        assemble_observations(events, 1500.0)


def test_assemble_rejects_mixed_frames():
    records = simulate(make_scenario(frames=2))
    mixed = list(records[0].events[:3]) + [records[1].events[3]]
    with pytest.raises(IncompleteFrame, match=r"events mix frames \[0, 1\]$"):
        assemble_observations(mixed, 1500.0)
    # ids 1, 2, 2, 4 from two frames: the id check comes first
    both = list(records[0].events[:2]) + [records[1].events[1], records[1].events[3]]
    with pytest.raises(IncompleteFrame, match=r"exactly once, got \[1, 2, 2, 4\]$"):
        assemble_observations(both, 1500.0)


def test_assemble_takes_the_events_in_any_order():
    """Events in buoy order are taken as they are; any other order is
    sorted first, to the same observations."""
    record = simulate(make_scenario(frames=1))[0]
    ordered = assemble_observations(record.events, 1500.0)
    assert assemble_observations(record.events[::-1], 1500.0) == ordered
    assert assemble_observations(iter(record.events[1:] + record.events[:1]), 1500.0) == ordered
    assert [o.buoy_id for o in ordered.observations] == [0, 1, 2, 3]


def test_assemble_positions_in_working_frame():
    scenario = make_scenario(frames=1)
    record = simulate(scenario)[0]
    frame = working_frame(scenario)
    obs = assemble_observations(record.events, scenario.sound_speed)
    for event in record.events:
        got = obs.observations[event.message.buoy_id - 1].position
        want = geodetic_to_enu(event.message.position, frame)
        assert got == want
        assert got is event.source   # the simulator's conversion, not a second one
    # the reference buoy anchors the frame, so it sits at the origin
    assert obs.observations[0].position == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)


def test_assemble_rejects_simulated_and_wire_events_in_one_frame():
    """A wire event has no source; a frame that mixes it with simulated
    events is refused, whichever buoy it is."""
    record = simulate(make_scenario(frames=1))[0]
    for k in range(4):
        mixed = [e._replace(source=None) if i == k else e
                 for i, e in enumerate(record.events)]
        with pytest.raises(IncompleteFrame, match="events mix simulated and wire reports$"):
            assemble_observations(mixed, 1500.0)
    # all four as the wire gives them: converted into the reference's frame
    wire = [e._replace(source=None) for e in record.events]
    obs = assemble_observations(wire, 1500.0)
    assert obs == assemble_observations(record.events, 1500.0)


def test_timing_noise_zero_sigma_is_identity():
    records = simulate(make_scenario(frames=2))
    noisy = simulate(make_scenario(frames=2)._replace(noise_sigma=0.0, seed=42))
    for rec_a, rec_b in zip(records, noisy):
        for ev_a, ev_b in zip(rec_a.events, rec_b.events):
            assert ev_a.receive_time == ev_b.receive_time


def test_timing_noise_deterministic_under_seed():
    scenario = make_scenario(frames=3)
    first = simulate(scenario._replace(noise_sigma=1e-4, seed=7))
    second = simulate(scenario._replace(noise_sigma=1e-4, seed=7))
    other = simulate(scenario._replace(noise_sigma=1e-4, seed=8))
    flat = lambda runs: [e.receive_time.hex() for r in runs for e in r.events]
    assert flat(first) == flat(second)
    assert flat(first) != flat(other)


def test_timing_noise_pseudorange_sigma():
    """sigma = 1e-4 s at c = 1500 m/s: 0.15 m per pseudorange, Monte-Carlo
    over 10^4 receptions within 5%."""
    scenario = make_scenario(frames=2500)
    records = simulate(scenario)
    noisy = simulate(scenario._replace(noise_sigma=1e-4, seed=3))
    clean_t = np.array([e.receive_time for r in records for e in r.events])
    noisy_t = np.array([e.receive_time for r in noisy for e in r.events])
    assert clean_t.size == 10000
    sigma_m = np.std(1500.0 * (noisy_t - clean_t))
    assert abs(sigma_m - 0.15) < 0.05 * 0.15


def test_timing_noise_k_th_heard_message_takes_the_k_th_draw():
    """A message the range limit drops takes no draw: each kept event's
    receive time is the noiseless one plus sigma * z_k, z_k the k-th draw
    of the seed's standard-normal stream counting kept events only."""
    # moving east from the square's centre, the receiver falls out of range
    # of buoys 1 and 4 mid-run
    scenario = make_scenario(receiver=(500.0, 500.0, -100.0), velocity=(6.0, 0.0, 0.0),
                             frames=12, range_limit=800.0)
    clean = simulate(scenario)
    kept = [e for r in clean for e in r.events]
    heard = [len(r.events) for r in clean]
    assert heard[0] == 4 and 0 < heard[-1] < 4   # all four heard at first, fewer later
    sigma, seed = 1e-5, 11
    noisy = simulate(scenario._replace(noise_sigma=sigma, seed=seed))
    assert [len(r.events) for r in noisy] == heard
    z = np.random.default_rng(seed).standard_normal(len(kept)).tolist()
    for k, (ev_clean, ev_noisy) in enumerate(zip(kept, (e for r in noisy for e in r.events))):
        assert ev_noisy.message == ev_clean.message
        assert ev_noisy.receive_time == ev_clean.receive_time + sigma * z[k]


def test_timing_noise_is_drawn_in_one_call(monkeypatch):
    """add_timing_noise returns count errors sigma * z from one
    default_rng(seed).standard_normal(count) call; a noiseless scenario
    never calls it."""
    from uwps import channel

    calls = []
    draw = channel.add_timing_noise
    monkeypatch.setattr(channel, "add_timing_noise",
                        lambda *args: calls.append(args) or draw(*args))
    simulate(make_scenario(frames=2))
    assert calls == []
    simulate(make_scenario(frames=2)._replace(noise_sigma=2e-5, seed=5))
    assert calls == [(8, 2e-5, 5)]
    z = np.random.default_rng(5).standard_normal(8).tolist()
    assert draw(8, 2e-5, 5) == [2e-5 * v for v in z]


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(receiver=(0.0, 0.0, 5.0))      # above the surface
    with pytest.raises(ValueError, match="exceeds cap 10.00 m/s"):
        make_scenario(velocity=(20.0, 0.0, 0.0))     # beyond the speed cap
    sonic = ReceiverTrack(initial=(300.0, 400.0, -150.0), velocity=(8.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="not below the sound speed"):   # under the cap
        make_scenario()._replace(receiver=sonic, sound_speed=5.0)
    with pytest.raises(ValueError):
        make_scenario(frames=11000)                  # crosses day rollover
    for bad in (dict(sound_speed=math.nan), dict(sound_speed=math.inf),
                dict(sound_speed=0.0), dict(clock_offset=math.nan),
                dict(clock_offset=math.inf), dict(range_limit=math.nan),
                dict(noise_sigma=-1e-5), dict(noise_sigma=math.nan),
                dict(noise_sigma=math.inf), dict(seed=-1), dict(seed=1.0)):
        with pytest.raises(ValueError, match="must be"):
            make_scenario()._replace(**bad)
    for initial, velocity in (((math.nan, 400.0, -150.0), (0.0, 0.0, 0.0)),
                              ((300.0, -math.inf, -150.0), (0.0, 0.0, 0.0)),
                              ((300.0, 400.0, -150.0), (math.nan, 0.0, 0.0)),
                              ((300.0, 400.0, -150.0), (0.0, math.inf, 0.0))):
        with pytest.raises(ValueError, match="receiver position and velocity must be finite"):
            make_scenario(receiver=initial, velocity=velocity)
    buoys = make_scenario().buoys
    drifting = (buoys[0]._replace(drift=(0.0, math.nan, 0.0)), *buoys[1:])
    with pytest.raises(ValueError, match="buoy drifts must be finite"):
        make_scenario()._replace(buoys=drifting)
    assert make_scenario()._replace(range_limit=math.inf).range_limit == math.inf
    # c^2 underflows to 0 or overflows: simulate could not time an arrival
    for sound_speed in (1e-200, 1e200):
        with pytest.raises(ValueError, match="squared is out of float range"):
            make_scenario()._replace(sound_speed=sound_speed)
    # finite squares, but an arrival time or squared range would overflow
    with pytest.raises(ValueError, match="sound_speed must be at most 1e"):
        make_scenario()._replace(sound_speed=1e153)
    with pytest.raises(ValueError, match="receiver position must be at most 1e"):
        make_scenario(receiver=(1e160, 400.0, -150.0))
    moved = (buoys[1]._replace(initial=buoys[1].initial._replace(height=-1e160)), *buoys[1:])
    with pytest.raises(ValueError, match="buoy heights must be at most 1e"):
        make_scenario()._replace(buoys=moved)
    drifting = (buoys[0]._replace(drift=(1e160, 0.0, 0.0)), *buoys[1:])
    with pytest.raises(ValueError, match="buoy drifts must be at most 1e"):
        make_scenario()._replace(buoys=drifting)
    assert make_scenario()._replace(sound_speed=1e9).sound_speed == 1e9
