"""Simulator contracts: kinematics, clock offsets, noise, assembly."""
import numpy as np
import pytest
from conftest import make_scenario

from uwps.channel import (
    add_timing_noise,
    assemble_observations,
    simulate,
    working_frame,
)
from uwps.errors import IncompleteFrame
from uwps.geo import geodetic_to_enu
from uwps.multilateration import (
    SolverConfig,
    kleusberg_solve,
    pseudorange_diffs,
    select_underwater,
)

CFG = SolverConfig()


def underwater_fix(record, scenario, frame=None):
    obs = assemble_observations(record.events, scenario.sound_speed, frame=frame)
    diffs = pseudorange_diffs(obs)
    reference = obs.by_id(0).position
    pair = kleusberg_solve(diffs, reference, CFG)
    return select_underwater(pair, diffs, reference, CFG)


def test_one_second_at_1500m_slant_range():
    # receiver placed 1500 m from buoy 1 (at the frame origin)
    scenario = make_scenario(receiver=(0.0, 900.0, -1200.0), frames=1)
    record = simulate(scenario)[0]
    event = record.events[0]
    flight = (event.receive_time + scenario.clock_offset) - event.message.gnss_time
    assert flight == pytest.approx(1.0, abs=1e-9)


def test_clock_offset_shifts_receiver_times_only():
    base = simulate(make_scenario(frames=2))
    shifted = simulate(make_scenario(frames=2, clock_offset=5.0))
    for rec_a, rec_b in zip(base, shifted):
        for ev_a, ev_b in zip(rec_a.events, rec_b.events):
            assert ev_b.receive_time == ev_a.receive_time - 5.0
            assert ev_b.message == ev_a.message


def test_solution_bit_identical_across_integer_offsets():
    reference_run = None
    for offset in (-100.0, -1.0, 0.0, 1.0, 100.0):
        scenario = make_scenario(frames=3, clock_offset=offset,
                                 drifts=[(0.03, 0.04, 0.0), (-0.02, 0.05, 0.0),
                                         (0.05, -0.01, 0.0), (0.01, 0.02, 0.0)])
        frame = working_frame(scenario)
        run = []
        for record in simulate(scenario):
            obs = assemble_observations(record.events, scenario.sound_speed, frame=frame)
            diffs = pseudorange_diffs(obs)
            pick = underwater_fix(record, scenario, frame=frame)
            run.append((diffs.d.tobytes(), pick.as_array().tobytes()))
        if reference_run is None:
            reference_run = run
        else:
            assert run == reference_run


def test_end_to_end_exactness_with_drift_and_offset():
    scenario = make_scenario(
        frames=5,
        clock_offset=3.7,
        drifts=[(0.05, -0.02, 0.0), (0.01, 0.06, 0.0),
                (-0.04, 0.01, 0.0), (0.02, 0.02, 0.0)],
    )
    frame = working_frame(scenario)
    for record in simulate(scenario):
        truth = record.events[-1].true_position.as_array()
        pick = underwater_fix(record, scenario, frame=frame)
        assert np.linalg.norm(pick.as_array() - truth) < 1e-6


def test_moving_receiver_displacement_bounded():
    # 5 m/s over the 8 s reference frame: at most 40 m between receptions
    scenario = make_scenario(velocity=(3.0, -4.0, 0.0), frames=2)
    for record in simulate(scenario):
        first = record.events[0].true_position.as_array()
        last = record.events[-1].true_position.as_array()
        assert np.linalg.norm(last - first) <= 40.0


def test_causality():
    scenario = make_scenario(frames=2, clock_offset=-20.0)
    for record in simulate(scenario):
        for event in record.events:
            arrival_gnss = event.receive_time + scenario.clock_offset
            assert arrival_gnss > event.message.gnss_time
            assert event.receive_time >= event.message.gnss_time - scenario.clock_offset


def test_simulation_deterministic():
    a = simulate(make_scenario(frames=4))
    b = simulate(make_scenario(frames=4))
    for rec_a, rec_b in zip(a, b):
        assert rec_a.complete == rec_b.complete
        for ev_a, ev_b in zip(rec_a.events, rec_b.events):
            assert ev_a.receive_time == ev_b.receive_time
            assert ev_a.message == ev_b.message
            assert ev_a.true_position == ev_b.true_position


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
    truth = record.events[-1].true_position.as_array()
    assert np.linalg.norm(pick.as_array() - truth) < 1e-6


def test_assemble_rejects_duplicate_ids():
    record = simulate(make_scenario(frames=1))[0]
    events = list(record.events)
    events[1] = events[0]
    with pytest.raises(IncompleteFrame):
        assemble_observations(events, 1500.0)


def test_assemble_rejects_mixed_frames():
    records = simulate(make_scenario(frames=2))
    mixed = list(records[0].events[:3]) + [records[1].events[3]]
    with pytest.raises(IncompleteFrame):
        assemble_observations(mixed, 1500.0)


def test_assemble_positions_in_working_frame():
    scenario = make_scenario(frames=1)
    record = simulate(scenario)[0]
    frame = working_frame(scenario)
    obs = assemble_observations(record.events, scenario.sound_speed, frame=frame)
    for event in record.events:
        got = obs.by_id(event.buoy_id - 1).position
        want = geodetic_to_enu(event.message.position, frame)
        assert got == want
    # the reference buoy anchors the frame, so it sits at the origin
    assert obs.by_id(0).position.as_array() == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_timing_noise_zero_sigma_is_identity():
    records = simulate(make_scenario(frames=2))
    noisy = add_timing_noise(records, 0.0, seed=42)
    for rec_a, rec_b in zip(records, noisy):
        for ev_a, ev_b in zip(rec_a.events, rec_b.events):
            assert ev_a.receive_time == ev_b.receive_time


def test_timing_noise_deterministic_under_seed():
    records = simulate(make_scenario(frames=3))
    first = add_timing_noise(records, 1e-4, seed=7)
    second = add_timing_noise(records, 1e-4, seed=7)
    other = add_timing_noise(records, 1e-4, seed=8)
    flat = lambda runs: [e.receive_time for r in runs for e in r.events]
    assert flat(first) == flat(second)
    assert flat(first) != flat(other)


def test_timing_noise_pseudorange_sigma():
    """sigma = 1e-4 s at c = 1500 m/s: 0.15 m per pseudorange, Monte-Carlo
    over 10^4 receptions within 5%."""
    scenario = make_scenario(frames=2500)
    records = simulate(scenario)
    noisy = add_timing_noise(records, 1e-4, seed=3)
    clean_t = np.array([e.receive_time for r in records for e in r.events])
    noisy_t = np.array([e.receive_time for r in noisy for e in r.events])
    assert clean_t.size == 10000
    sigma_m = np.std(1500.0 * (noisy_t - clean_t))
    assert abs(sigma_m - 0.15) < 0.05 * 0.15


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(receiver=(0.0, 0.0, 5.0))      # above the surface
    with pytest.raises(ValueError):
        make_scenario(velocity=(20.0, 0.0, 0.0))     # beyond the speed cap
    with pytest.raises(ValueError):
        make_scenario(frames=11000)                  # crosses day rollover
