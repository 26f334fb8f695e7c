"""Solver core: differencing, closed form, selection, residuals, iteration."""
import numpy as np
import pytest
from conftest import enu, unit_square
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwps import multilateration
from uwps.errors import (
    DegenerateBaseline,
    DegenerateGeometry,
    InconsistentRanges,
    NonConvergence,
    NoRealSolution,
    NoUnderwaterSolution,
    PositioningError,
    SingularDenominator,
    SingularJacobian,
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
    solve_frame,
)
from uwps.verify import oracle_diffs, sample_quadrilateral, sample_scenario

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


def numpy_closed_form(diffs, r0):
    """The closed form in numpy arrays, the reference for kleusberg_solve's
    float arithmetic: (g.g, discriminant, [(e, s, r, denominator index)])."""
    d, e, b = diffs.d, diffs.e, diffs.b
    w = b / (b * b - d * d)
    u = d / (b * b - d * d)
    f1 = w[0] * e[0] - w[1] * e[1]
    f2 = w[1] * e[1] - w[2] * e[2]
    g = np.cross(f1, f2)
    h = (u[2] - u[1]) * f1 - (u[1] - u[0]) * f2
    gg = float(g @ g)
    disc = gg - float(h @ h)
    branches = []
    for sign in (1.0, -1.0):
        evec = (np.cross(g, h) + sign * g * np.sqrt(disc)) / gg
        dens = d + b * (e @ evec)
        best = int(np.argmax(np.abs(dens)))
        s = float(0.5 * (b[best] ** 2 - d[best] ** 2) / dens[best])
        branches.append((evec, s, r0 + evec * s, best))
    return gg, disc, branches


def test_closed_form_matches_numpy_reference():
    """Only the rounding differs: directions to 1e-12, ranges and positions
    to 1e-9 m, the discriminant to 1e-12 of g.g (its cancellation scale)."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        buoys, truth, diffs = sample_scenario(rng)
        gg, disc, branches = numpy_closed_form(diffs, buoys[0])
        pair = kleusberg_solve(diffs, enu(*buoys[0]), CFG)
        assert abs(pair.discriminant - disc) <= 1e-12 * gg
        for (evec, s, pos, index), (e_ref, s_ref, pos_ref, index_ref) in zip(
                pair.branches(), branches):
            assert np.max(np.abs(evec - e_ref)) <= 1e-12
            assert abs(s - s_ref) <= 1e-9
            assert np.max(np.abs(pos.as_array() - pos_ref)) <= 1e-9
            assert index == index_ref


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


def numpy_numerical_solve(diffs, reference, initial, cfg):
    """Gauss-Newton in numpy arrays, the reference for numerical_solve's
    float arithmetic: the same dogleg, exits and messages."""
    x = initial.as_array()
    r0 = reference.as_array()
    buoys = diffs.buoy_positions(r0)

    def residual_vector(p):
        return (np.linalg.norm(p - buoys, axis=1) - np.linalg.norm(p - r0)) - diffs.d

    radius = multilateration._TRUST_RADIUS_0
    for iteration in range(cfg.max_iterations):
        range_ref = np.linalg.norm(x - r0)
        range_i = np.linalg.norm(x - buoys, axis=1)
        if range_ref == 0.0 or np.any(range_i == 0.0):
            raise SingularJacobian("iterate coincides with a buoy position")
        res = (range_i - range_ref) - diffs.d
        cost = 0.5 * float(res @ res)
        if cost < multilateration._COST_FLOOR:
            return x
        jac = (x - buoys) / range_i[:, None] - (x - r0) / range_ref
        grad = jac.T @ res
        normal = jac.T @ jac
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(normal))):
            raise SingularJacobian("non-finite normal equations")
        try:
            gn_step = np.linalg.solve(normal, -grad)
        except np.linalg.LinAlgError:
            damped = normal + 1e-8 * max(float(np.trace(normal)), 1e-30) * np.eye(3)
            try:
                gn_step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                raise SingularJacobian("normal equations are rank-deficient") from None
        if not np.all(np.isfinite(gn_step)):
            raise SingularJacobian("normal equations are rank-deficient")
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            return x
        step = None
        for _ in range(60):
            if np.linalg.norm(gn_step) <= radius:
                p = gn_step
            else:
                curvature = float(grad @ (normal @ grad))
                if curvature > 0.0:
                    cauchy = -(gnorm * gnorm / curvature) * grad
                else:
                    cauchy = -(radius / gnorm) * grad
                if np.linalg.norm(cauchy) >= radius:
                    p = -(radius / gnorm) * grad
                else:
                    leg = gn_step - cauchy
                    a = float(leg @ leg)
                    bq = 2.0 * float(cauchy @ leg)
                    cq = float(cauchy @ cauchy) - radius * radius
                    t = (-bq + np.sqrt(bq * bq - 4.0 * a * cq)) / (2.0 * a)
                    p = cauchy + t * leg
            trial = residual_vector(x + p)
            trial_cost = 0.5 * float(trial @ trial)
            predicted = -float(grad @ p) - 0.5 * float(p @ (normal @ p))
            rho = (cost - trial_cost) / predicted if predicted > 0.0 else -1.0
            pn = float(np.linalg.norm(p))
            if rho < 0.25:
                radius = multilateration._TRUST_SHRINK * pn
            elif rho > 0.75 and pn >= 0.99 * radius:
                radius = multilateration._TRUST_GROW * radius
            if rho > multilateration._RHO_ACCEPT:
                step = p
                break
            if radius < cfg.residual_tolerance:
                return x
        if step is None:
            raise NonConvergence(f"no acceptable step at iteration {iteration + 1}")
        x = x + step
        if np.linalg.norm(step) < cfg.residual_tolerance:
            return x
    raise NonConvergence(
        f"step norm above {cfg.residual_tolerance:.1e} m after "
        f"{cfg.max_iterations} iterations")


def numerical_cases():
    """(diffs, reference, start, cfg): the criterion-1 family from 200 m-off
    starts, noisy differences (sigma 0.1 m) and the unrealizable case."""
    rng = np.random.default_rng(31)
    cfg = SolverConfig(max_iterations=25)
    for _ in range(100):
        buoys, truth, diffs = sample_scenario(rng)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = np.deg2rad(30.0) * np.sqrt(rng.uniform())
        start = truth + 200.0 * np.array([np.cos(azimuth) * np.sin(tilt),
                                          np.sin(azimuth) * np.sin(tilt),
                                          -np.cos(tilt)])
        yield diffs, enu(*buoys[0]), enu(*start), cfg
    for _ in range(100):
        buoys, truth, clean = sample_scenario(rng)
        noisy = DiffSet(reference_id=0, ids=clean.ids, d=clean.d + rng.normal(0.0, 0.1, 3),
                        e=clean.e, b=clean.b)
        start = truth + rng.normal(0.0, 50.0, 3)
        yield noisy, enu(*buoys[0]), enu(*start), CFG
    clean = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    over = clean.d.copy()
    over[0] = clean.b[0] + 0.5
    wild = DiffSet(reference_id=0, ids=clean.ids, d=over, e=clean.e, b=clean.b)
    yield wild, R0, enu(300.0, 400.0, -150.0), CFG


def test_numerical_solve_matches_numpy_reference():
    """Only the rounding differs: both raise the same error, or the fixes
    agree within 1e-9 m. Within 10 m of the buoy plane the vertical column
    of the Jacobian vanishes and the cost is flat to rounding over about
    1e-4 m of height; there the fixes agree within 1e-4 m and their
    residual norms within 1e-12 m."""
    agreed = near_plane = 0
    for diffs, ref, start, cfg in numerical_cases():
        try:
            want = numpy_numerical_solve(diffs, ref, start, cfg)
        except PositioningError as exc:
            with pytest.raises(type(exc)):
                numerical_solve(diffs, ref, start, cfg)
            continue
        got = numerical_solve(diffs, ref, start, cfg)
        deviation = np.max(np.abs(got.as_array() - want))
        if abs(want[2]) >= 10.0:
            assert deviation <= 1e-9
            agreed += 1
        else:
            assert deviation <= 1e-4
            assert abs(np.linalg.norm(residuals(got, diffs, ref))
                       - np.linalg.norm(residuals(want, diffs, ref))) <= 1e-12
            near_plane += 1
    assert agreed >= 190 and near_plane >= 1


def test_solve3_matches_numpy_solve():
    """Well-conditioned symmetric systems, definite or not: np.linalg.solve
    to 1e-12 relative."""
    rng = np.random.default_rng(3)
    for _ in range(2000):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag(rng.choice([-1.0, 1.0], 3) * rng.uniform(0.1, 10.0, 3)) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(3) * 10.0 ** rng.uniform(-6, 6)
        want = np.linalg.solve(a, b)
        got = multilateration._solve3(tuple((*row, rhs) for row, rhs in
                                            zip(a.tolist(), b.tolist())))
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve3_pivots_past_zero_leading_entries():
    got = multilateration._solve3(((0.0, 2.0, 0.0, 4.0), (3.0, 0.0, 0.0, 3.0),
                                   (0.0, 0.0, 5.0, 10.0)))
    assert got == (1.0, 2.0, 2.0)
    got = multilateration._solve3(((1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 3.0),
                                   (0.0, 1.0, 0.0, 2.0)))
    assert got == (1.0, 2.0, 3.0)


def test_solve3_reports_exactly_singular_matrix():
    assert multilateration._solve3(((1.0, 2.0, 0.0, 1.0), (2.0, 4.0, 0.0, 1.0),
                                    (0.0, 0.0, 0.0, 1.0))) is None
    assert multilateration._solve3(((0.0, 0.0, 0.0, 1.0),) * 3) is None


def test_numerical_takes_damped_rescue_in_plane_of_coplanar_buoys(monkeypatch):
    """Buoys at one depth and the iterate exactly in their plane: the
    vertical column of the Jacobian is zero, the normal matrix exactly
    singular, and the damped solve takes the step."""
    solves = []

    def recorded(rows):
        result = solve3(rows)
        solves.append(result)
        return result

    solve3 = multilateration._solve3
    monkeypatch.setattr(multilateration, "_solve3", recorded)
    diffs = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    got = numerical_solve(diffs, R0, enu(250.0, 450.0, 0.0), CFG)
    assert solves[0] is None and solves[1] is not None
    assert got.z == 0.0 and np.all(np.isfinite(got.as_array()))
    assert np.linalg.norm(residuals(got, diffs, R0)) < np.linalg.norm(
        residuals(enu(250.0, 450.0, 0.0), diffs, R0))


@settings(max_examples=300, deadline=None)
@given(
    directions=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=3, max_size=3),
    lengths=st.lists(st.floats(1.0, 5000.0), min_size=3, max_size=3),
    ratios=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    start=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
)
def test_numerical_returns_finite_fix_or_positioning_error(directions, lengths, ratios, start):
    """Realizable or not, from starts up to 1e6 m away: a finite ENU fix or
    a PositioningError, never anything else."""
    e = np.array(directions)
    norms = np.linalg.norm(e, axis=1)
    assume(np.all(norms > 1e-3))
    b = np.array(lengths)
    diffs = DiffSet(reference_id=0, ids=(1, 2, 3), d=np.array(ratios) * b,
                    e=e / norms[:, None], b=b)
    try:
        got = numerical_solve(diffs, R0, enu(*start), CFG)
    except PositioningError:
        return
    assert got.frame == "ENU" and np.all(np.isfinite(got.as_array()))


def test_numerical_singular_jacobian_at_buoy_position():
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


# -- solve_frame -------------------------------------------------------

def test_solve_frame_runs_gauss_newton_only_where_it_can_move(monkeypatch):
    """numerical is what Gauss-Newton started at the analytic fix returns,
    whether it ran or not. It is skipped only when the analytic fix meets its
    first exit test, and always runs from a given guess. The skip test and
    Gauss-Newton's first cost are the same kernel sum."""
    calls = []
    costs = []

    def counted(*args, **kwargs):
        calls.append(args)
        return numerical_solve(*args, **kwargs)

    def recorded_cost(res):
        costs.append(cost(res))
        return costs[-1]

    cost = multilateration._cost
    monkeypatch.setattr(multilateration, "numerical_solve", counted)
    monkeypatch.setattr(multilateration, "_cost", recorded_cost)
    buoys = unit_square(1000.0, ups=(0.0, 0.4, -0.3, 0.1))
    ref = enu(*buoys[0])
    rng = np.random.default_rng(7)
    skipped = ran = 0
    for _ in range(200):
        truth = np.array([rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0),
                          -rng.uniform(50.0, 500.0)])
        diffs = oracle_diffs(buoys, truth)
        calls.clear()
        costs.clear()
        fix = solve_frame(diffs, ref, CFG)
        assert fix.status == "ok"
        res = residuals(fix.analytic, diffs, ref)
        assert fix.analytic_residuals.tobytes() == res.tobytes()
        assert costs[0] == cost(res)    # the skip test
        costs.clear()
        assert fix.numerical == numerical_solve(diffs, ref, fix.analytic, CFG)
        assert costs[0] == cost(res)    # Gauss-Newton's first exit test
        if cost(res) < 1e-24:
            assert calls == [] and fix.numerical is fix.analytic
            # Gauss-Newton returns its start at the first exit test
            assert len(costs) == 1
            skipped += 1
        else:
            assert len(calls) == 1
            assert costs[0] >= 1e-24
            ran += 1
    # rounding leaves some noiseless analytic fixes above the cost floor
    assert skipped > 100 and ran > 0

    exact = oracle_diffs(buoys, np.array([300.0, 400.0, -150.0]))
    fix = solve_frame(exact, ref, CFG)
    calls.clear()
    solve_frame(exact, ref, CFG, guess=fix.analytic)
    assert len(calls) == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(residual_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
