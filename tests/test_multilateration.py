"""Solver core: differencing, closed form, selection, residuals, iteration."""
import numpy as np
import pytest
from conftest import enu, unit_square

from uwps.errors import (
    DegenerateBaseline,
    DegenerateGeometry,
    InconsistentRanges,
    NonConvergence,
    NoRealSolution,
    NoUnderwaterSolution,
    SingularDenominator,
    UnrealizableTDOA,
)
from uwps.multilateration import (
    CandidatePair,
    DiffSet,
    Observation,
    ObservationSet,
    SolverConfig,
    kleusberg_solve,
    numerical_solve,
    pseudorange_diffs,
    residuals,
    select_underwater,
)
from uwps.verify import oracle_diffs, sample_quadrilateral

R0 = enu(0.0, 0.0, 0.0)
CFG = SolverConfig()


def observation_set(buoys, truth, c=1500.0, clock_offset=0.0, t0=10.0):
    """Synthesize consistent observations for a stationary receiver."""
    obs = []
    for i, b in enumerate(np.asarray(buoys, float)):
        t_tx = t0 + 2.0 * i
        t_arr = t_tx + np.linalg.norm(np.asarray(truth) - b) / c
        obs.append(Observation(
            buoy_id=i,
            transmit_time=t_tx,
            receive_time=t_arr - clock_offset,
            position=enu(*b),
        ))
    return ObservationSet(observations=tuple(obs), sound_speed=c)


# -- pseudorange_diffs -------------------------------------------------

def test_equidistant_receiver_gives_zero_difference():
    buoys = unit_square(1000.0)
    truth = np.array([500.0, 500.0, -150.0])  # equidistant from all corners
    diffs = pseudorange_diffs(observation_set(buoys, truth))
    assert diffs.d == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_diffs_match_distance_oracle():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    got = pseudorange_diffs(observation_set(buoys, truth))
    want = oracle_diffs(buoys, truth)
    assert got.d == pytest.approx(want.d, abs=1e-9)
    assert got.b == pytest.approx(want.b, abs=1e-9)
    assert np.allclose(got.e, want.e, atol=1e-12)


def test_clock_offset_cancels_bit_identically():
    """Receive times on the receiver's dyadic tick grid: adding any offset
    that is itself a float-exact shift leaves the DiffSet bit-identical."""
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    tick = 2.0 ** -40
    base_obs = []
    for i, b in enumerate(buoys):
        t_tx = float(f"{10.0 + 2.0 * i:.3f}")
        t_arr = t_tx + np.linalg.norm(truth - b) / 1500.0
        base_obs.append(Observation(i, t_tx, round(t_arr / tick) * tick, enu(*b)))
    base = pseudorange_diffs(ObservationSet(tuple(base_obs), 1500.0))
    for offset in (-100.0, -1.0, 0.5, 1.0, 100.0):
        shifted = ObservationSet(
            tuple(Observation(o.buoy_id, o.transmit_time, o.receive_time + offset,
                              o.position) for o in base_obs),
            1500.0,
        )
        moved = pseudorange_diffs(shifted)
        assert moved.d.tobytes() == base.d.tobytes()


def test_coincident_buoys_rejected():
    buoys = unit_square(1000.0)
    buoys[1] = buoys[0] + np.array([0.2, 0.1, 0.0])
    with pytest.raises(DegenerateBaseline):
        pseudorange_diffs(observation_set(buoys, np.array([300.0, 400.0, -150.0])))


def test_unrealizable_tdoa_rejected():
    buoys = unit_square(1000.0)
    obs = list(observation_set(buoys, np.array([300.0, 400.0, -150.0])).observations)
    bad = obs[1]
    obs[1] = Observation(bad.buoy_id, bad.transmit_time, bad.receive_time + 5.0,
                         bad.position)
    with pytest.raises(UnrealizableTDOA):
        pseudorange_diffs(ObservationSet(tuple(obs), 1500.0))


def test_sound_speed_window():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    with pytest.raises(ValueError):
        observation_set(buoys, truth, c=300.0)
    obs = observation_set(buoys, truth).observations
    loose = ObservationSet(obs, sound_speed=300.0, speed_window=None)
    assert loose.sound_speed == 300.0


# -- kleusberg_solve ---------------------------------------------------

def test_square_reference_case_recovers_truth_exactly():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    pair = kleusberg_solve(oracle_diffs(buoys, truth), R0, CFG)
    positions = sorted((pair.r_1.as_array(), pair.r_2.as_array()), key=lambda p: p[2])
    assert positions[0] == pytest.approx([300.0, 400.0, -150.0], abs=1e-6)
    assert positions[1] == pytest.approx([300.0, 400.0, 150.0], abs=1e-6)
    assert pair.discriminant >= 0.0


def test_unit_norm_of_direction_vectors():
    rng = np.random.default_rng(42)
    for _ in range(200):
        buoys, length = sample_quadrilateral(rng)
        truth = np.array([rng.uniform(0.2, 0.8) * length,
                          rng.uniform(0.2, 0.8) * length,
                          -rng.uniform(5.0, 1000.0)])
        diffs = oracle_diffs(buoys, truth)
        if np.min(np.abs(diffs.d)) < 0.5:
            continue
        pair = kleusberg_solve(diffs, R0, CFG)
        assert abs(np.linalg.norm(pair.e_1) - 1.0) < 1e-9
        assert abs(np.linalg.norm(pair.e_2) - 1.0) < 1e-9


def test_mirror_property_for_coplanar_buoys():
    buoys = np.array([
        [0.0, 0.0, 0.0],
        [900.0, -40.0, 0.0],
        [1100.0, 950.0, 0.0],
        [-60.0, 1010.0, 0.0],
    ])
    truth = np.array([420.0, 510.0, -233.0])
    pair = kleusberg_solve(oracle_diffs(buoys, truth), R0, CFG)
    p1, p2 = pair.r_1.as_array(), pair.r_2.as_array()
    assert p1[:2] == pytest.approx(p2[:2], abs=1e-6)
    assert p1[2] == pytest.approx(-p2[2], abs=1e-6)


def test_candidate_positions_constructed_from_e_and_s():
    buoys = unit_square(800.0, ups=(1.0, -0.5, 0.3, 0.8))
    truth = np.array([250.0, 330.0, -90.0])
    ref = enu(*buoys[0])
    pair = kleusberg_solve(oracle_diffs(buoys, truth), ref, CFG)
    for evec, s, pos, _ in pair.branches():
        assert pos.as_array() == pytest.approx(ref.as_array() + evec * s, abs=0.0)


def test_range_equation_cross_index_consistency():
    rng = np.random.default_rng(7)
    for _ in range(100):
        buoys, length = sample_quadrilateral(rng)
        truth = np.array([rng.uniform(0.2, 0.8) * length,
                          rng.uniform(0.2, 0.8) * length,
                          -rng.uniform(5.0, 1000.0)])
        diffs = oracle_diffs(buoys, truth)
        if np.min(np.abs(diffs.d)) < 0.5:
            continue
        pair = kleusberg_solve(diffs, R0, CFG)  # raises InconsistentRanges if not
        for evec, _, _, _ in pair.branches():
            dens = diffs.d + diffs.b * (diffs.e @ evec)
            usable = np.abs(dens) > 1e-9 * np.max(diffs.b)
            s_all = 0.5 * (diffs.b**2 - diffs.d**2) / dens
            spread = np.ptp(s_all[usable])
            assert spread < CFG.consistency_tolerance


def test_discriminant_scan_to_no_real_solution():
    """Grow a perturbation of the oracle differences until the closed form
    reports that the hyperboloids no longer meet."""
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    clean = oracle_diffs(buoys, truth)
    direction = np.array([1.0, -1.0, 1.0])
    last_disc = kleusberg_solve(clean, R0, CFG).discriminant
    scale, raised = 0.5, False
    loose = SolverConfig(consistency_tolerance=1e9)
    while scale < 600.0:
        perturbed = DiffSet(reference_id=0, ids=clean.ids,
                            d=clean.d + scale * direction, e=clean.e, b=clean.b)
        if not perturbed.is_realizable():
            break
        try:
            last_disc = kleusberg_solve(perturbed, R0, loose).discriminant
            assert last_disc >= 0.0
        except NoRealSolution:
            raised = True
            break
        scale *= 1.5
    assert raised, f"discriminant never flipped (last {last_disc:.3e})"


def test_collinear_buoys_degenerate_geometry():
    buoys = np.array([
        [0.0, 0.0, 0.0],
        [500.0, 0.0, 0.0],
        [1000.0, 0.0, 0.0],
        [1500.0, 0.0, 0.0],
    ])
    truth = np.array([200.0, 700.0, -150.0])
    with pytest.raises(DegenerateGeometry):
        kleusberg_solve(oracle_diffs(buoys, truth), R0, CFG)


def test_symmetric_axis_singular_denominator():
    # receiver on the square's vertical axis: every difference is zero
    diffs = oracle_diffs(unit_square(1000.0), np.array([500.0, 500.0, -150.0]))
    assert diffs.d == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    exact_zero = DiffSet(reference_id=0, ids=diffs.ids,
                         d=np.zeros(3), e=diffs.e, b=diffs.b)
    with pytest.raises(SingularDenominator):
        kleusberg_solve(exact_zero, R0, CFG)


def test_inconsistent_ranges_guard():
    """The three range values are analytically equal, so only floating-point
    conditioning can separate them; a tolerance below float noise must trip
    the guard and a realistic one must not."""
    buoys = unit_square(1000.0, ups=(1.0, -0.5, 0.3, 0.8))
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    with pytest.raises(InconsistentRanges):
        kleusberg_solve(diffs, R0, SolverConfig(consistency_tolerance=1e-18))
    pair = kleusberg_solve(diffs, R0, CFG)
    assert isinstance(pair, CandidatePair)


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(11)
    buoys = unit_square(900.0, ups=(0.4, -1.2, 0.9, 0.1))
    truth = np.array([240.0, 610.0, -330.0])
    base = kleusberg_solve(oracle_diffs(buoys, truth), enu(*buoys[0]), CFG)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-5000.0, 5000.0, 3)
        moved_buoys = buoys @ q.T + shift
        moved_truth = q @ truth + shift
        pair = kleusberg_solve(oracle_diffs(moved_buoys, moved_truth),
                               enu(*moved_buoys[0]), CFG)
        assert pair.r_1.as_array() == pytest.approx(q @ base.r_1.as_array() + shift, abs=1e-6)
        assert pair.r_2.as_array() == pytest.approx(q @ base.r_2.as_array() + shift, abs=1e-6)


# -- select_underwater -------------------------------------------------

def fake_pair(up1, up2, s1=500.0, s2=500.0):
    return CandidatePair(
        e_1=np.array([0.0, 0.0, 1.0]), e_2=np.array([0.0, 0.0, -1.0]),
        s_1=s1, s_2=s2,
        r_1=enu(0.0, 0.0, up1), r_2=enu(0.0, 0.0, up2),
        denominator_index_1=0, denominator_index_2=0, discriminant=1.0)


# any differences do: a single qualifying candidate needs no residual check
SQUARE_DIFFS = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))


def test_select_prefers_candidate_below_surface():
    pick = select_underwater(fake_pair(-100.0, 100.0), SQUARE_DIFFS, R0, CFG)
    assert pick.z == -100.0


def test_select_rejects_candidates_above_surface():
    with pytest.raises(NoUnderwaterSolution):
        select_underwater(fake_pair(5.0, 100.0), SQUARE_DIFFS, R0, CFG)


def test_select_rejects_negative_range():
    with pytest.raises(NoUnderwaterSolution):
        select_underwater(fake_pair(-100.0, 100.0, s1=-500.0), SQUARE_DIFFS, R0, CFG)


def test_select_resolves_mirror_pair_to_oracle_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    pair = kleusberg_solve(diffs, R0, CFG)
    pick = select_underwater(pair, diffs, R0, CFG)
    assert pick.as_array() == pytest.approx(truth, abs=1e-6)


def test_select_residual_tiebreak_when_both_below_plane():
    """With the surface plane raised, the mirror pair both qualify; the
    candidate reproducing the measured differences wins."""
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    clean = oracle_diffs(buoys, truth)
    raised_plane = SolverConfig(surface_plane_up=200.0, consistency_tolerance=1.0)
    # nudge the differences: the true branch tracks the perturbation, the
    # mirror branch no longer reproduces it exactly
    nudged = DiffSet(reference_id=0, ids=clean.ids,
                     d=clean.d + np.array([0.05, -0.03, 0.02]),
                     e=clean.e, b=clean.b)
    pair = kleusberg_solve(nudged, R0, raised_plane)
    assert all(s >= 0 and p.z < raised_plane.surface_plane_up
               for _, s, p, _ in pair.branches())
    pick = select_underwater(pair, nudged, R0, raised_plane)
    norms = {float(np.linalg.norm(residuals(p, nudged, R0))): p
             for _, _, p, _ in pair.branches()}
    assert pick == norms[min(norms)]


# -- residuals ---------------------------------------------------------

def test_residuals_vanish_at_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    assert np.linalg.norm(residuals(enu(*truth), diffs, R0)) < 1e-9


def test_residuals_nonzero_off_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    shifted = residuals(enu(310.0, 400.0, -150.0), diffs, R0)
    assert np.max(np.abs(shifted)) > 1e-3


def test_residuals_zero_on_symmetry_axis_with_zero_diffs():
    buoys = unit_square(1000.0)
    diffs = oracle_diffs(buoys, np.array([500.0, 500.0, -150.0]))
    on_axis = residuals(enu(500.0, 500.0, -700.0), diffs, R0)
    assert np.linalg.norm(on_axis) < 1e-9


def test_residuals_of_both_candidates_small_on_noiseless_data():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1000):
        if checked >= 100:
            break
        buoys, length = sample_quadrilateral(rng)
        truth = np.array([rng.uniform(0.2, 0.8) * length,
                          rng.uniform(0.2, 0.8) * length,
                          -rng.uniform(5.0, 1000.0)])
        diffs = oracle_diffs(buoys, truth)
        if np.min(np.abs(diffs.d)) < 0.5:
            continue
        ref = enu(*buoys[0])
        pair = kleusberg_solve(diffs, ref, CFG)
        norms = [float(np.linalg.norm(residuals(p, diffs, ref)))
                 for _, s, p, _ in pair.branches() if s >= 0]
        # genuine intersections reproduce the data; phantom branches
        # (negative range already excluded) are rare and carry large norms
        if norms and max(norms) < 1e-3:
            assert max(norms) < 1e-6
            checked += 1
    assert checked >= 100


# -- numerical_solve ---------------------------------------------------

def test_numerical_from_truth_converges_immediately():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    got = numerical_solve(diffs, R0, enu(*truth), CFG)
    assert got.as_array() == pytest.approx(truth, abs=1e-9)


def test_numerical_matches_analytic_from_offset_guess():
    rng = np.random.default_rng(20260808)
    solved = 0
    for _ in range(1000):
        if solved >= 100:
            break
        buoys, length = sample_quadrilateral(rng)
        truth = np.array([rng.uniform(0.2, 0.8) * length,
                          rng.uniform(0.2, 0.8) * length,
                          -rng.uniform(5.0, 1000.0)])
        diffs = oracle_diffs(buoys, truth)
        if np.min(np.abs(diffs.d)) < 0.5:
            continue
        ref = enu(*buoys[0])
        pair = kleusberg_solve(diffs, ref, CFG)
        under = [(s, p) for _, s, p, _ in pair.branches()
                 if s >= 0 and p.z < 0
                 and np.linalg.norm(residuals(p, diffs, ref)) < 1e-6]
        if len(under) != 1:
            continue
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = np.deg2rad(30.0) * np.sqrt(rng.uniform())
        guess = truth + 200.0 * np.array([
            np.cos(azimuth) * np.sin(tilt),
            np.sin(azimuth) * np.sin(tilt),
            -np.cos(tilt),
        ])
        got = numerical_solve(diffs, ref, enu(*guess), SolverConfig(max_iterations=25))
        assert np.linalg.norm(got.as_array() - under[0][1].as_array()) < 1e-4
        solved += 1
    assert solved >= 100


def test_numerical_on_noisy_data_beats_truth_residual():
    rng = np.random.default_rng(9)
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    clean = oracle_diffs(buoys, truth)
    noisy = DiffSet(reference_id=0, ids=clean.ids,
                    d=clean.d + rng.normal(0.0, 0.1, 3), e=clean.e, b=clean.b)
    got = numerical_solve(noisy, R0, enu(*truth), CFG)
    assert (np.linalg.norm(residuals(got, noisy, R0))
            <= np.linalg.norm(residuals(enu(*truth), noisy, R0)) + 1e-12)


def test_numerical_accepts_unrealizable_differences():
    """Noisy data may push |d| past the baseline; the iterative solver
    must accept it and settle on the finite compromise minimizer."""
    clean = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    over = clean.d.copy()
    over[0] = clean.b[0] + 0.5
    wild = DiffSet(reference_id=0, ids=clean.ids, d=over, e=clean.e, b=clean.b)
    assert not wild.is_realizable()
    got = numerical_solve(wild, R0, enu(300.0, 400.0, -150.0), CFG)
    assert np.all(np.isfinite(got.as_array()))
    # it is a genuine local minimizer: no nearby point does better
    base = np.linalg.norm(residuals(got, wild, R0))
    rng = np.random.default_rng(1)
    for _ in range(50):
        probe = got.as_array() + rng.normal(0.0, 0.5, 3)
        assert np.linalg.norm(residuals(probe, wild, R0)) >= base - 1e-9


def test_numerical_singular_jacobian_at_buoy_position():
    from uwps.errors import SingularJacobian
    buoys = unit_square(1000.0)
    diffs = oracle_diffs(buoys, np.array([300.0, 400.0, -150.0]))
    with pytest.raises(SingularJacobian):
        numerical_solve(diffs, R0, enu(*buoys[2]), CFG)


def test_numerical_nonconvergence_reported():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    with pytest.raises(NonConvergence):
        numerical_solve(diffs, R0, enu(5000.0, -3000.0, -2000.0),
                        SolverConfig(max_iterations=1))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
