"""Solver core: differencing, closed form, selection, residuals, iteration."""
import math
import re
import struct

import numpy as np
import pytest
from conftest import enu, unit_square
from hypothesis import assume, example, given, settings
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
from uwps.geo import GeodeticCoord
from uwps.multilateration import (
    Branch,
    CandidatePair,
    DiffSet,
    Observation,
    ObservationSet,
    CONSISTENCY_TOLERANCE,
    SURFACE_UP,
    kleusberg_solve,
    numerical_solve,
    pseudorange_diffs,
    residuals,
    select_underwater,
    solve_frame,
)
from uwps.verify import oracle_diffs, sample_scenario


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


def numpy_oracle_diffs(buoys, truth):
    """oracle_diffs in numpy arrays, the reference for its float form."""
    buoys = np.asarray(buoys, float)
    ranges = np.linalg.norm(buoys - np.asarray(truth, float), axis=1)
    baselines = buoys[1:] - buoys[0]
    lengths = np.linalg.norm(baselines, axis=1)
    return DiffSet(d=ranges[1:] - ranges[0], e=baselines / lengths[:, None], b=lengths,
                   reference=buoys[0])


def oracle_inputs():
    """(buoys, truth) arrays: sample_scenario draws, the rotated and shifted
    copies check_rigid_motion_equivariance builds, and unit_square cases."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        buoys, truth, _, _ = sample_scenario(rng)
        buoys, truth = np.asarray(buoys), np.asarray(truth)
        yield buoys, truth
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-5000.0, 5000.0, 3)
        yield buoys @ q.T + shift, q @ truth + shift
    for side, ups in ((1000.0, (0.0,) * 4), (800.0, (1.0, -0.5, 0.3, 0.8)),
                      (1000.0, (1.0, -0.5, 0.3, 0.8)), (1000.0, (-300.0,) * 4)):
        for truth in ((300.0, 400.0, -150.0), (500.0, 500.0, -150.0),
                      (200.0, 700.0, -150.0), (2e5, 400.0, -1.5e5)):
            yield unit_square(side, ups), np.array(truth)


def test_oracle_diffs_matches_numpy_reference_bit_for_bit():
    """The float form sums x*x + y*y + z*z left to right, as numpy's
    norm(..., axis=1) does over rows of three: every entry keeps its bits,
    from arrays and from lists."""
    def bits(diffs):
        return struct.pack("18d", *diffs.d, *(c for row in diffs.e for c in row),
                           *diffs.b, *diffs.reference)

    count = 0
    for buoys, truth in oracle_inputs():
        want = bits(numpy_oracle_diffs(buoys, truth))
        assert bits(oracle_diffs(buoys, truth)) == want
        assert bits(oracle_diffs(buoys.tolist(), truth.tolist())) == want
        count += 1
    assert count == 616


def test_diffset_checks_its_entries_and_stores_float_tuples():
    good = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    assert all(type(v) is float for v in (*good.d, *good.b, *good.e[0], *good.e[1], *good.e[2]))
    e, b = good.e, good.b
    for bad in (dict(d=good.d[:2]), dict(d=(math.nan, 0.0, 0.0)), dict(b=(0.0, *b[1:])),
                dict(b=(math.inf, *b[1:])), dict(e=((1.0, 1e-5, 0.0), *e[1:])),
                dict(e=(e[0][:2], *e[1:])),
                dict(reference=GeodeticCoord(0.0, 0.0, 0.0)),
                dict(reference=(0.0, math.inf, 0.0)), dict(reference=(0.0, 0.0))):
        with pytest.raises(ValueError):
            good._replace(**bad)
    # the reference is stored as a float tuple, whatever sequence it came in
    moved = good._replace(reference=np.array([1, 2, 3]))
    assert moved.reference == (1.0, 2.0, 3.0)
    assert all(type(v) is float for v in moved.reference)


def test_observation_checks_its_position():
    good = Observation(0, 10.0, 11.0, (1.0, 2.0, -3.0))
    assert Observation(0, 10.0, 11.0, np.array([1, 2, -3])) == good
    assert all(type(v) is float for v in Observation(0, 10.0, 11.0, [1, 2, -3]).position)
    for bad in (GeodeticCoord(1.0, 2.0, -3.0), (1.0, math.nan, -3.0),
                (1.0, 2.0), (1.0, 2.0, -3.0, 4.0), "abc"):
        with pytest.raises(ValueError, match="observation position"):
            good._replace(position=bad)


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


def test_sound_speed_must_be_finite_and_positive():
    obs = observation_set(unit_square(1000.0), np.array([300.0, 400.0, -150.0])).observations
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            ObservationSet(obs, sound_speed=c)
    assert ObservationSet(obs, sound_speed=300.0).sound_speed == 300.0


def test_observation_set_stores_a_tuple_in_buoy_order():
    """A tuple already in buoy order is kept; any other sequence is stored
    as a sorted tuple; four ids 0..3 exactly once."""
    obs = observation_set(unit_square(1000.0), np.array([300.0, 400.0, -150.0])).observations
    assert ObservationSet(obs, 1500.0).observations is obs
    for other in (obs[::-1], list(obs), list(obs[2:] + obs[:2])):
        assert ObservationSet(other, 1500.0).observations == obs
    with pytest.raises(ValueError, match=r"^exactly four observations required$"):
        ObservationSet(obs[:3], 1500.0)
    with pytest.raises(ValueError, match=r"exactly once, got \[0, 0, 2, 3\]$"):
        ObservationSet((obs[0], obs[0], obs[2], obs[3]), 1500.0)


# -- kleusberg_solve ---------------------------------------------------

def test_square_reference_case_recovers_truth_exactly():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    pair = kleusberg_solve(oracle_diffs(buoys, truth))
    positions = sorted((branch.position for branch in pair.branches), key=lambda p: p[2])
    assert positions[0] == pytest.approx([300.0, 400.0, -150.0], abs=1e-6)
    assert positions[1] == pytest.approx([300.0, 400.0, 150.0], abs=1e-6)
    assert pair.discriminant >= 0.0


def numpy_closed_form(diffs, r0):
    """The closed form in numpy arrays, the reference for kleusberg_solve's
    float arithmetic: (g.g, discriminant, [(e, s, r, denominator index)])."""
    d, e, b = np.array(diffs.d), np.array(diffs.e), np.array(diffs.b)
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
        buoys, truth, diffs, _ = sample_scenario(rng)
        gg, disc, branches = numpy_closed_form(diffs, np.asarray(buoys[0]))
        pair = kleusberg_solve(diffs)
        assert abs(pair.discriminant - disc) <= 1e-12 * gg
        for (evec, s, pos, index), (e_ref, s_ref, pos_ref, index_ref) in zip(
                pair.branches, branches):
            assert np.max(np.abs(np.array(evec) - e_ref)) <= 1e-12
            assert abs(s - s_ref) <= 1e-9
            assert np.max(np.abs(np.array(pos) - pos_ref)) <= 1e-9
            assert index == index_ref


def list_form_closed_form(diffs, tolerance):
    """kleusberg_solve as it was written over lists, generators and zip,
    the reference for its written-out scalar form: the same operations in
    the same order, so the results must agree bit for bit."""
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    d, b, e = diffs.d, diffs.b, diffs.e
    den = [bi * bi - di * di for bi, di in zip(b, d)]
    w = [bi / n for bi, n in zip(b, den)]
    u = [di / n for di, n in zip(d, den)]
    f1 = [w[0] * p - w[1] * q for p, q in zip(e[0], e[1])]
    f2 = [w[1] * p - w[2] * q for p, q in zip(e[1], e[2])]
    u1 = u[1] - u[0]
    u2 = u[2] - u[1]
    g = cross(f1, f2)
    h = [u2 * p - u1 * q for p, q in zip(f1, f2)]
    gg = dot(g, g)
    disc = gg - dot(h, h)
    f1_norm = math.sqrt(dot(f1, f1))
    f2_norm = math.sqrt(dot(f2, f2))
    b_max = max(b)
    if math.sqrt(gg) <= 1e-12 * f1_norm * f2_norm:
        if max(abs(di) for di in d) <= 1e-9 * b_max:
            raise SingularDenominator(
                "receiver direction underdetermined (symmetric-axis input)")
        raise DegenerateGeometry("baseline directions are collinear")
    if disc < 0.0:
        raise NoRealSolution(
            f"discriminant {disc:.3e} < 0: hyperboloid intersections do not meet")
    root = math.sqrt(disc)
    cross_gh = cross(g, h)
    den_tol = 1e-9 * b_max
    x0, y0, z0 = diffs.reference
    results = []
    for sign in (+1.0, -1.0):
        evec = tuple((c + sign * gi * root) / gg for c, gi in zip(cross_gh, g))
        dens = [di + bi * dot(ei, evec) for di, bi, ei in zip(d, b, e)]
        best = max(range(3), key=lambda i: abs(dens[i]))
        if abs(dens[best]) <= den_tol:
            raise SingularDenominator(f"all range denominators below {den_tol:.3e} m")
        s_all = [0.5 * n / dn for n, dn in zip(den, dens)]
        s_best = s_all[best]
        for i in range(3):
            if i != best and abs(dens[i]) > den_tol:
                if abs(s_all[i] - s_best) > tolerance:
                    raise InconsistentRanges(
                        f"range from baseline {i} differs by "
                        f"{abs(s_all[i] - s_best):.3e} m (tolerance "
                        f"{tolerance:.3e} m)")
        pos = (x0 + evec[0] * s_best, y0 + evec[1] * s_best, z0 + evec[2] * s_best)
        results.append(Branch(evec, s_best, pos, best))
    return CandidatePair(branches=tuple(results), discriminant=disc)


def closed_form_outcome(solve, diffs, tolerance):
    """The bytes of every CandidatePair field, or the error's class and
    message: struct.pack tells -0.0 from 0.0, which == does not."""
    try:
        pair = solve(diffs, tolerance)
    except PositioningError as exc:
        return type(exc), str(exc)
    return CandidatePair, b"".join(
        struct.pack("7di", *branch.direction, branch.range, *branch.position,
                    branch.denominator_index) for branch in pair.branches
    ) + struct.pack("d", pair.discriminant)


def test_closed_form_matches_list_form_bit_for_bit():
    """Exact draws, noisy draws that trip InconsistentRanges or
    NoRealSolution, and the collinear and symmetric-axis cases: the same
    pair to the last bit, or the same error with the same message."""
    rng = np.random.default_rng(15)
    cases = [(sample_scenario(rng)[2], CONSISTENCY_TOLERANCE) for _ in range(300)]
    # three differences fix three unknowns, so noise alone leaves the ranges
    # consistent: a tolerance at the rounding level trips the guard
    for sigma, tolerance in ((1e-3, 1e-12), (0.1, 1.0), (10.0, 1.0)):
        for _ in range(200):
            diffs = sample_scenario(rng)[2]
            noisy = diffs._replace(d=np.add(diffs.d, rng.normal(0.0, sigma, 3)))
            if all(abs(d) < b for d, b in zip(noisy.d, noisy.b)):
                cases.append((noisy, tolerance))
    collinear = np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0],
                          [1000.0, 0.0, 0.0], [1500.0, 0.0, 0.0]])
    cases.append((oracle_diffs(collinear, np.array([200.0, 700.0, -150.0])),
                  CONSISTENCY_TOLERANCE))
    axis = oracle_diffs(unit_square(1000.0), np.array([500.0, 500.0, -150.0]))
    cases.append((axis._replace(d=(0.0, 0.0, 0.0)), CONSISTENCY_TOLERANCE))
    seen = []
    for diffs, tolerance in cases:
        want = closed_form_outcome(list_form_closed_form, diffs, tolerance)
        assert closed_form_outcome(kleusberg_solve, diffs, tolerance) == want
        seen.append(want[0])
    assert set(seen) == {CandidatePair, InconsistentRanges, NoRealSolution,
                    DegenerateGeometry, SingularDenominator}


def test_closed_form_rejects_a_difference_as_long_as_its_baseline():
    """b_0i^2 - d_0i^2 = 0 divided by zero: now the differencing's error,
    before any division."""
    diffs = DiffSet(d=(1000.0, 10.0, 20.0),
                    e=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0.7071067811865476, 0.7071067811865476, 0.0)),
                    b=(1000.0, 1000.0, 1414.2), reference=(0.0, 0.0, 0.0))
    with pytest.raises(UnrealizableTDOA,
                       match=r"^\|d\| = 1000\.000 m >= baseline 1000\.000 m for buoy 1$"):
        kleusberg_solve(diffs)
    with pytest.raises(UnrealizableTDOA, match="for buoy 3$"):
        kleusberg_solve(diffs._replace(d=(10.0, -20.0, -1500.0)))
    fix = solve_frame(diffs)
    assert fix.pair is None and fix.analytic is None and fix.status == "UnrealizableTDOA"


def _unit_rows():
    axis = st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                            (-1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    drawn = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: math.hypot(*v) > 1e-3).map(lambda v: tuple(x / math.hypot(*v) for x in v))
    return st.lists(st.one_of(axis, drawn), min_size=3, max_size=3)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


@settings(max_examples=1000, deadline=None)
@given(d=st.lists(_FINITE, min_size=3, max_size=3),
       b=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  min_size=3, max_size=3),
       e=_unit_rows(), reference=st.tuples(_FINITE, _FINITE, _FINITE),
       tolerance=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
# b_0i^2 - d_0i^2 underflows to zero
@example(d=[0.0, 0.0, 0.0], b=[1e-170, 1.0, 1.0], e=_AXES, reference=(0.0, 0.0, 0.0),
         tolerance=1e-6)
# f1.f1 overflows while f2 = 0: g = 0 against a NaN collinearity bound
@example(d=[0.0, 1e-140 * (1.0 - 2.0 ** -52), 1e-140 * (1.0 - 2.0 ** -52)],
         b=[1.0, 1e-140, 1e-140], e=[_AXES[0], _AXES[1], _AXES[1]],
         reference=(0.0, 0.0, 0.0), tolerance=1e-6)
def test_closed_form_returns_a_pair_or_a_positioning_error(d, b, e, reference, tolerance):
    """Any DiffSet the constructor accepts, realizable or not, at any scale:
    a CandidatePair or a PositioningError, never anything else."""
    try:
        diffs = DiffSet(d=d, e=e, b=b, reference=reference)
    except ValueError:
        return   # a row the unit check rejects after the division's rounding
    try:
        pair = kleusberg_solve(diffs, tolerance)
    except PositioningError:
        return
    assert isinstance(pair, CandidatePair)


def test_candidate_positions_constructed_from_e_and_s():
    buoys = unit_square(800.0, ups=(1.0, -0.5, 0.3, 0.8))
    truth = np.array([250.0, 330.0, -90.0])
    diffs = oracle_diffs(buoys, truth)
    pair = kleusberg_solve(diffs)
    r0 = diffs.reference
    for evec, s, pos, _ in pair.branches:
        assert pos == tuple(r + ei * s for r, ei in zip(r0, evec))


def test_discriminant_scan_to_no_real_solution():
    """Grow a perturbation of the oracle differences until the closed form
    reports that the hyperboloids no longer meet."""
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    clean = oracle_diffs(buoys, truth)
    direction = np.array([1.0, -1.0, 1.0])
    last_disc = kleusberg_solve(clean).discriminant
    scale, raised = 0.5, False
    while scale < 600.0:
        perturbed = clean._replace(d=np.add(clean.d, scale * direction))
        if not all(abs(d) < b for d, b in zip(perturbed.d, perturbed.b)):
            break
        try:
            last_disc = kleusberg_solve(perturbed, consistency_tolerance=1e9).discriminant
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
        kleusberg_solve(oracle_diffs(buoys, truth))


def test_symmetric_axis_singular_denominator():
    # receiver on the square's vertical axis: every difference is zero
    diffs = oracle_diffs(unit_square(1000.0), np.array([500.0, 500.0, -150.0]))
    assert diffs.d == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    exact_zero = diffs._replace(d=(0.0, 0.0, 0.0))
    with pytest.raises(SingularDenominator):
        kleusberg_solve(exact_zero)


def test_inconsistent_ranges_guard():
    """The three range values are analytically equal, so only floating-point
    conditioning can separate them; a tolerance below float noise must trip
    the guard and a realistic one must not."""
    buoys = unit_square(1000.0, ups=(1.0, -0.5, 0.3, 0.8))
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    with pytest.raises(InconsistentRanges):
        kleusberg_solve(diffs, consistency_tolerance=1e-18)
    pair = kleusberg_solve(diffs)
    assert isinstance(pair, CandidatePair)


# -- select_underwater -------------------------------------------------

def fake_pair(up1, up2, s1=500.0, s2=500.0):
    return CandidatePair(branches=(Branch((0.0, 0.0, 1.0), s1, enu(0.0, 0.0, up1), 0),
                                   Branch((0.0, 0.0, -1.0), s2, enu(0.0, 0.0, up2), 0)),
                         discriminant=1.0)


# any differences do: a single qualifying candidate needs no residual check
SQUARE_DIFFS = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))


def test_select_prefers_candidate_below_surface():
    pair = fake_pair(-100.0, 100.0)
    assert select_underwater(pair, SQUARE_DIFFS) is pair.branches[0]


def test_select_rejects_candidates_above_surface():
    with pytest.raises(NoUnderwaterSolution):
        select_underwater(fake_pair(5.0, 100.0), SQUARE_DIFFS)


def test_select_rejects_negative_range():
    with pytest.raises(NoUnderwaterSolution):
        select_underwater(fake_pair(-100.0, 100.0, s1=-500.0), SQUARE_DIFFS)


def test_select_resolves_mirror_pair_to_oracle_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    pair = kleusberg_solve(diffs)
    pick = select_underwater(pair, diffs)
    assert pick.position == pytest.approx(truth, abs=1e-6)


def test_select_residual_tiebreak_when_both_below_plane():
    """With the square 300 m below the surface, the mirror pair both
    qualify; the candidate reproducing the measured differences wins.

    The square is coplanar, so the mirror image reproduces any differences
    as well as the true branch: both residual norms are bit-identical, and
    the pick is the exact-tie rule, the deeper candidate."""
    buoys = unit_square(1000.0, ups=(-300.0,) * 4)
    truth = np.array([300.0, 400.0, -450.0])
    clean = oracle_diffs(buoys, truth)
    nudged = clean._replace(d=np.add(clean.d, [0.05, -0.03, 0.02]))
    pair = kleusberg_solve(nudged, consistency_tolerance=1.0)
    assert all(s >= 0 and p[2] < SURFACE_UP for _, s, p, _ in pair.branches)
    pick = select_underwater(pair, nudged).position
    norms = {float(np.linalg.norm(residuals(p, nudged))): p
             for _, _, p, _ in pair.branches}
    assert pick == norms[min(norms)]
    assert pick[2] == min(p[2] for _, _, p, _ in pair.branches)


# -- residuals ---------------------------------------------------------

def test_residuals_vanish_at_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    assert np.linalg.norm(residuals(enu(*truth), diffs)) < 1e-9


def test_residuals_nonzero_off_truth():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    shifted = residuals(enu(310.0, 400.0, -150.0), diffs)
    assert np.max(np.abs(shifted)) > 1e-3


def test_residuals_zero_on_symmetry_axis_with_zero_diffs():
    buoys = unit_square(1000.0)
    diffs = oracle_diffs(buoys, np.array([500.0, 500.0, -150.0]))
    on_axis = residuals(enu(500.0, 500.0, -700.0), diffs)
    assert np.linalg.norm(on_axis) < 1e-9


def test_residuals_raise_where_the_ranges_overflow():
    """At 1e160 m the squared ranges overflow and the residuals would be
    NaN: a ValueError instead. At 1e150 m they are finite."""
    diffs = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    with pytest.raises(ValueError, match="not finite"):
        residuals((1e160, 0.0, -1.0), diffs)
    assert all(map(math.isfinite, residuals((1e150, 0.0, -1.0), diffs)))


# -- numerical_solve ---------------------------------------------------

def test_numerical_from_truth_converges_immediately():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    got = numerical_solve(diffs, initial=enu(*truth))
    assert got == pytest.approx(truth, abs=1e-9)


def test_numerical_on_noisy_data_beats_truth_residual():
    rng = np.random.default_rng(9)
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    clean = oracle_diffs(buoys, truth)
    noisy = clean._replace(d=np.add(clean.d, rng.normal(0.0, 0.1, 3)))
    got = numerical_solve(noisy, initial=enu(*truth))
    assert (np.linalg.norm(residuals(got, noisy))
            <= np.linalg.norm(residuals(enu(*truth), noisy)) + 1e-12)


def test_numerical_accepts_unrealizable_differences():
    """Noisy data may push |d| past the baseline; the iterative solver
    must accept it. The compromise minimizer of these differences lies on
    the buoy plane (u = +9e-6 m), where no fix can be, so from any start
    Gauss-Newton ends at the surface instead of reporting it."""
    wild = unrealizable_diffs()
    assert not all(abs(d) < b for d, b in zip(wild.d, wild.b))
    for up in (-150.0, -1.0, -1000.0):
        with pytest.raises(NonConvergence, match="reached the surface"):
            numerical_solve(wild, initial=enu(300.0, 400.0, up))


def test_numerical_stops_at_the_surface():
    """A start at or above the surface raises, and so does the first
    accepted step that lands there, naming its iteration; no returned fix
    lies at or above the surface."""
    diffs = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    for up in (SURFACE_UP, 5.0):
        with pytest.raises(NonConvergence, match="start at up = .* not below the surface"):
            numerical_solve(diffs, initial=enu(300.0, 400.0, up))
    noisy = diffs._replace(d=(301.0, 409.0, 178.0))
    with pytest.raises(NonConvergence,
                       match=r"reached the surface \(up = 27.3 m\) at iteration 7"):
        numerical_solve(noisy, initial=enu(500.0, 500.0, -707.0))
    for case, start, max_iterations in numerical_cases():
        try:
            got = numerical_solve(case, initial=start, max_iterations=max_iterations)
        except PositioningError:
            continue
        assert got[2] < SURFACE_UP


def test_numerical_stops_beyond_reach():
    """An accepted step farther from buoy 0 than 100 longest baselines ends
    the iteration. A start out there, such as a closed-form fix 250 km
    away, is no error: it returns as it is, or polished out there."""
    square = unit_square(1000.0)
    diffs = oracle_diffs(square, np.array([300.0, 400.0, -150.0]))._replace(
        d=(252.0, 408.0, 140.0))
    with pytest.raises(NonConvergence, match=r"from buoy 0, beyond reach \(1.41e\+05 m\)"):
        numerical_solve(diffs, initial=enu(500.0, 500.0, -707.0))
    far = np.array([2e5, 400.0, -1.5e5])
    exact = oracle_diffs(square, far)
    assert numerical_solve(exact, initial=enu(*far)) == tuple(far)
    nudged = exact._replace(d=(exact.d[0] + 1e-6, *exact.d[1:]))
    got = numerical_solve(nudged, initial=enu(*far))
    assert np.linalg.norm(got) > 100.0 * max(exact.b)
    assert np.linalg.norm(residuals(got, nudged)) < np.linalg.norm(residuals(enu(*far), nudged))


def unrealizable_diffs():
    """The square's differences with |d_01| half a meter past its baseline."""
    clean = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    return clean._replace(d=(clean.b[0] + 0.5, *clean.d[1:]))


def numpy_numerical_solve(diffs, initial, max_iterations):
    """Gauss-Newton in numpy arrays, the reference for numerical_solve's
    float arithmetic: the same dogleg, exits and messages."""
    x = np.array(initial)
    r0 = np.array(diffs.reference)
    buoys = r0 + np.array(diffs.e) * np.array(diffs.b)[:, None]
    d = np.array(diffs.d)
    reach = multilateration._REACH * max(diffs.b)
    if np.linalg.norm(x - r0) > reach:
        reach = np.inf

    def residual_vector(p):
        return (np.linalg.norm(p - buoys, axis=1) - np.linalg.norm(p - r0)) - d

    radius = multilateration._TRUST_RADIUS_0
    for iteration in range(max_iterations):
        range_ref = np.linalg.norm(x - r0)
        range_i = np.linalg.norm(x - buoys, axis=1)
        if range_ref == 0.0 or np.any(range_i == 0.0):
            raise SingularJacobian("iterate coincides with a buoy position")
        if x[2] >= SURFACE_UP:
            raise NonConvergence(f"start at up = {x[2]:.3g} m is not below the surface")
        res = (range_i - range_ref) - d
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
            if radius < multilateration._STEP_TOL:
                return x
        if step is None:
            raise NonConvergence(f"no acceptable step at iteration {iteration + 1}")
        x = x + step
        if x[2] >= SURFACE_UP:
            raise NonConvergence(
                f"iterate reached the surface (up = {x[2]:.3g} m) at iteration {iteration + 1}")
        if np.linalg.norm(x - r0) > reach:
            raise NonConvergence(
                f"iterate {np.linalg.norm(x - r0):.3g} m from buoy 0, beyond reach "
                f"({reach:.3g} m), at iteration {iteration + 1}")
        if np.linalg.norm(step) < multilateration._STEP_TOL:
            return x
    if 0.5 * float(trial @ trial) < multilateration._COST_FLOOR:
        return x
    raise NonConvergence(
        f"step norm above {multilateration._STEP_TOL:.1e} m after "
        f"{max_iterations} iterations")


def numerical_cases():
    """(diffs, start, max_iterations): the criterion-1 family from 200 m-off
    starts at criterion 5's budget of 25, noisy differences (sigma 0.1 m)
    and the unrealizable case at the default 50."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        buoys, truth, diffs, _ = sample_scenario(rng)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = np.deg2rad(30.0) * np.sqrt(rng.uniform())
        start = np.asarray(truth) + 200.0 * np.array([np.cos(azimuth) * np.sin(tilt),
                                                      np.sin(azimuth) * np.sin(tilt),
                                                      -np.cos(tilt)])
        yield diffs, enu(*start), 25
    for _ in range(100):
        buoys, truth, clean, _ = sample_scenario(rng)
        noisy = clean._replace(d=np.add(clean.d, rng.normal(0.0, 0.1, 3)))
        start = np.asarray(truth) + rng.normal(0.0, 50.0, 3)
        yield noisy, enu(*start), 50
    yield unrealizable_diffs(), enu(300.0, 400.0, -150.0), 50


def test_numerical_solve_matches_numpy_reference():
    """Only the rounding differs: both raise the same error, or the fixes
    agree within 1e-9 m. Within 10 m of the buoy plane the vertical column
    of the Jacobian vanishes and the cost is flat to rounding over about
    1e-4 m of height; there the fixes agree within 1e-4 m and their
    residual norms within 1e-12 m."""
    agreed = near_plane = 0
    for diffs, start, max_iterations in numerical_cases():
        try:
            want = numpy_numerical_solve(diffs, start, max_iterations)
        except PositioningError as exc:
            with pytest.raises(type(exc)):
                numerical_solve(diffs, initial=start, max_iterations=max_iterations)
            continue
        got = numerical_solve(diffs, initial=start, max_iterations=max_iterations)
        deviation = np.max(np.abs(np.array(got) - want))
        if abs(want[2]) >= 10.0:
            assert deviation <= 1e-9
            agreed += 1
        else:
            assert deviation <= 1e-4
            assert abs(np.linalg.norm(residuals(got, diffs))
                       - np.linalg.norm(residuals(enu(*want), diffs))) <= 1e-12
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
    """Buoys at one depth below the surface and the iterate exactly in
    their plane: the vertical column of the Jacobian is zero, the normal
    matrix exactly singular, and the damped solve takes the step."""
    solves = []

    def recorded(rows):
        result = solve3(rows)
        solves.append(result)
        return result

    solve3 = multilateration._solve3
    monkeypatch.setattr(multilateration, "_solve3", recorded)
    diffs = oracle_diffs(unit_square(1000.0, ups=(-20.0,) * 4),
                         np.array([300.0, 400.0, -150.0]))
    got = numerical_solve(diffs, initial=enu(250.0, 450.0, -20.0))
    assert solves[0] is None and solves[1] is not None
    assert got[2] == -20.0 and np.all(np.isfinite(got))
    assert np.linalg.norm(residuals(got, diffs)) < np.linalg.norm(
        residuals(enu(250.0, 450.0, -20.0), diffs))


@settings(max_examples=300, deadline=None)
@given(
    directions=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=3, max_size=3),
    lengths=st.lists(st.floats(1.0, 5000.0), min_size=3, max_size=3),
    ratios=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    start=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
)
def test_numerical_returns_finite_fix_or_positioning_error(directions, lengths, ratios, start):
    """Realizable or not, from starts up to 1e6 m away: a finite (east,
    north, up) float tuple or a PositioningError, never anything else."""
    e = np.array(directions)
    norms = np.linalg.norm(e, axis=1)
    assume(np.all(norms > 1e-3))
    b = np.array(lengths)
    diffs = DiffSet(d=np.array(ratios) * b, e=e / norms[:, None], b=b,
                    reference=enu(0.0, 0.0, 0.0))
    try:
        got = numerical_solve(diffs, initial=enu(*start))
    except PositioningError:
        return
    assert type(got) is tuple and all(type(v) is float and math.isfinite(v) for v in got)
    assert len(got) == 3


def test_numerical_singular_jacobian_at_buoy_position():
    buoys = unit_square(1000.0)
    diffs = oracle_diffs(buoys, np.array([300.0, 400.0, -150.0]))
    with pytest.raises(SingularJacobian):
        numerical_solve(diffs, initial=enu(*buoys[2]))


def test_numerical_nonconvergence_reported():
    buoys = unit_square(1000.0)
    truth = np.array([300.0, 400.0, -150.0])
    diffs = oracle_diffs(buoys, truth)
    with pytest.raises(NonConvergence):
        numerical_solve(diffs, initial=enu(5000.0, -3000.0, -2000.0),
                        max_iterations=1)


def test_numerical_tests_the_cost_floor_before_the_budget_runs_out():
    """Criterion 5's case 566 (0-based) at seed 12345, drawn as
    check_numerical_agreement draws it: the 25th accepted step lands below
    the cost floor, 7e-10 m from the analytic fix, and is returned, where
    the budget's NonConvergence was raised without testing it."""
    rng = np.random.default_rng(12345)
    for _ in range(567):
        buoys, truth, diffs, _ = sample_scenario(rng)
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = math.radians(30.0) * math.sqrt(rng.uniform())
    pick = select_underwater(kleusberg_solve(diffs), diffs).position
    guess = np.asarray(truth) + 200.0 * np.array([math.cos(azimuth) * math.sin(tilt),
                                                  math.sin(azimuth) * math.sin(tilt),
                                                  -math.cos(tilt)])
    with pytest.raises(NonConvergence, match="after 24 iterations"):
        numerical_solve(diffs, initial=enu(*guess), max_iterations=24)
    got = numerical_solve(diffs, initial=enu(*guess), max_iterations=25)
    assert math.dist(got, pick) < 1e-4


# -- solve_frame -------------------------------------------------------

def test_solve_frame_runs_gauss_newton_only_where_it_can_move(monkeypatch):
    """numerical is what Gauss-Newton started at the analytic fix returns,
    whether it ran or not. It is skipped when the analytic fix meets its
    first exit test or when there is no analytic fix. The skip test and
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
    rng = np.random.default_rng(7)
    skipped = ran = 0
    for _ in range(200):
        truth = np.array([rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0),
                          -rng.uniform(50.0, 500.0)])
        diffs = oracle_diffs(buoys, truth)
        calls.clear()
        costs.clear()
        fix = solve_frame(diffs)
        assert fix.status == "ok"
        res = residuals(fix.analytic, diffs)
        assert struct.pack("3d", *fix.analytic_residuals) == struct.pack("3d", *res)
        assert costs[0] == cost(res)    # the skip test
        costs.clear()
        assert fix.numerical == numerical_solve(diffs, initial=fix.analytic)
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

    # without an analytic fix, Gauss-Newton has no start near the answer:
    # the frame has no fix and the status names the closed form's error
    exact = oracle_diffs(buoys, np.array([300.0, 400.0, -150.0]))
    for d, error in (((21.0, 1147.0, -641.0), NoRealSolution),
                     ((588.0, 981.0, 289.0), NoUnderwaterSolution)):
        failed = exact._replace(d=d)
        with pytest.raises(error):
            select_underwater(kleusberg_solve(failed), failed)
        calls.clear()
        fix = solve_frame(failed)
        assert calls == []
        assert fix.branch is fix.analytic is fix.numerical is fix.analytic_residuals is None
        assert fix.status == error.__name__


def test_solve_frame_names_the_picked_branch():
    """The record carries the pick itself: here the second branch, whose
    range equation differs from the first branch's.

    In exact arithmetic the three range equations agree on either branch,
    so both branches take the largest denominator from the same baseline,
    unless two tie. Buoys 1 and 3 here share their baseline length and
    difference, so their denominators tie and rounding breaks the tie one
    way on each branch."""
    def unit(x, y, z):
        norm = math.sqrt(x * x + y * y + z * z)
        return x / norm, y / norm, z / norm

    diffs = DiffSet(d=(-145.0, -639.0, -145.0),
                    e=(unit(1000.0, -97.0, 5.0), unit(1000.0, 1000.0, -6.0),
                       unit(13.0, 1000.0, -9.0)),
                    b=(1000.0, 1000.0, 1000.0), reference=(0.0, 0.0, 0.0))
    fix = solve_frame(diffs)
    first, second = fix.pair.branches
    assert fix.status == "ok"
    assert fix.branch is second and fix.analytic is second.position
    assert (first.denominator_index, second.denominator_index) == (2, 0)
    assert first.range >= 0.0 and first.position[2] >= SURFACE_UP


def test_motion_bound_chains_gauss_newton_from_the_previous_fix(monkeypatch):
    """check_motion_bound solves a trajectory's first frame with
    solve_frame and starts the next frame's Gauss-Newton at that fix,
    without a closed form; a Gauss-Newton error there leaves the frame
    without a fix."""
    from uwps import verify

    calls = []   # ("frame", fix) per solve_frame, ("chained", start) per chained start
    framing = []
    lost = []    # the starts of chained Gauss-Newton runs that raised on their own
    solve, iterate = solve_frame, numerical_solve

    def framed(diffs, consistency_tolerance):
        framing.append(True)
        try:
            fix = solve(diffs, consistency_tolerance)
        finally:
            framing.pop()
        calls.append(("frame", fix.numerical))
        return fix

    def chained(diffs, *, initial):
        if framing:
            return iterate(diffs, initial=initial)
        calls.append(("chained", initial))
        if failing:
            raise NonConvergence("refused")
        try:
            return iterate(diffs, initial=initial)
        except PositioningError:
            lost.append(initial)
            raise

    monkeypatch.setattr(multilateration, "solve_frame", framed)
    monkeypatch.setattr(multilateration, "numerical_solve", chained)
    for failing in (False, True):
        calls.clear()
        lost.clear()
        ok, detail = verify.check_motion_bound(verify.DEFAULT_SEED)
        # three speeds, 100 trajectories each, two frames per trajectory
        assert len(calls) == 600
        first, second = calls[0::2], calls[1::2]
        assert {kind for kind, _ in first} == {"frame"}
        assert [kind for kind, _ in second] == [
            "frame" if fix is None else "chained" for _, fix in first]
        assert all(start is fix for (kind, start), (_, fix) in zip(second, first)
                   if kind == "chained")
        unsolved = sum(fix is None for kind, fix in calls if kind == "frame") + len(lost)
        if failing:
            unsolved += sum(kind == "chained" for kind, _ in second)
        else:
            assert lost   # this seed has chained runs that Gauss-Newton cannot finish
        assert not ok and f"({unsolved} unsolved)" in detail
    # this seed has frames of both kinds and frames the closed form leaves unsolved
    assert {kind for kind, _ in second} == {"frame", "chained"}
    assert any(fix is None for _, fix in first)


@pytest.mark.parametrize("solve", [kleusberg_solve, solve_frame],
                         ids=["kleusberg_solve", "solve_frame"])
@pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf])
def test_bad_consistency_tolerance_raises(solve, bad):
    """A tolerance that is not finite and > 0 is the caller's error, a
    ValueError naming the setting, before any frame is solved: solve_frame
    turns only PositioningErrors into a status."""
    diffs = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    with pytest.raises(ValueError, match=f"^consistency_tolerance {bad} must be finite and > 0$"):
        solve(diffs, consistency_tolerance=bad)
    with pytest.raises(ValueError, match="^consistency_tolerance "):
        solve(diffs._replace(d=(2000.0, 0.0, 0.0)), bad)   # before UnrealizableTDOA


@pytest.mark.parametrize("bad", [0, -1, 2.0, 2.5, 25.0, True, "25", None])
def test_bad_max_iterations_raises(bad):
    """The iteration budget is an int >= 1; a bool, a float or anything
    else is a ValueError naming the setting, before the start is read."""
    diffs = oracle_diffs(unit_square(1000.0), np.array([300.0, 400.0, -150.0]))
    with pytest.raises(ValueError, match=f"^max_iterations {re.escape(repr(bad))} must be an "
                                         "integer >= 1$"):
        numerical_solve(diffs, initial=(math.nan,) * 3, max_iterations=bad)
