"""Pseudorange differencing and hyperbolic position solvers.

The receiver clock is never estimated: differencing two pseudoranges against
the same receiver cancels the offset, leaving three range differences d_0i
relative to the reference buoy 0, held in a DiffSet with that buoy's
position. Those are solved two ways:

* a closed-form solution (two candidate Branches on the same axis, the
  underwater one being the physical fix), exact on consistent data;
* Gauss-Newton on the residual system, which polishes a fix from a start near it.

solve_frame runs both on one frame, the way the CLI and the property suite
do. Everything here, from the differencing to Gauss-Newton, is plain IEEE
double arithmetic on Python floats and tuples of them: on 3-vectors an array
library's per-call overhead costs more than the maths, and written-out float
arithmetic rounds the same on every host. A position is an (east, north, up)
float tuple in the working ENU frame. The public constructors check what
they are given and store floats; a record of checked values, such as
pseudorange_diffs' DiffSet, is built unchecked with tuple.__new__.

Conventions: d_0i = P_i - P_0 is the range to buoy i minus the range to the
reference, and baselines e_0i * b_0i point from the reference to buoy i.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
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
from .geo import GeodeticCoord, _Checked

MIN_BASELINE = 1.0    # coincident-buoy threshold [m]
SURFACE_UP = 0.0      # the sea surface: a receiver or fix is underwater below it [m]

# relative thresholds: direction collinearity and range-denominator collapse
_COLLINEAR_RTOL = 1e-12
_DENOMINATOR_RTOL = 1e-9

# trust-region safeguard for the iterative solver
_TRUST_RADIUS_0 = 50.0    # m; sized for baselines of hundreds to thousands of m
_TRUST_SHRINK = 0.5
_TRUST_GROW = 2.0
_RHO_ACCEPT = 1e-4
_COST_FLOOR = 1e-24     # m^2; half the squared residual norm that counts as solved
_STEP_TOL = 1e-9        # m; a step or trust radius this short ends the iteration
# Gauss-Newton gives up on an iterate farther from buoy 0 than this many
# longest baselines: out there d_0i -> -b_i (e_i . u) depends on the
# direction u alone, so the range is unobservable
_REACH = 100.0


def _enu_point(value, what: str) -> tuple[float, float, float]:
    """value as an (east, north, up) float tuple: three finite numbers, not
    a GeodeticCoord, else ValueError. A tuple of three floats is kept."""
    try:
        x, y, z = value
        if not (type(value) is tuple and type(x) is type(y) is type(z) is float):
            if isinstance(value, GeodeticCoord):
                raise TypeError
            value = x, y, z = float(x), float(y), float(z)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be three numbers (east, north, up) in the "
                         "working ENU frame") from None
    _finite(what, x, y, z)
    return value


def _finite(what: str, *values) -> None:
    """The check that values are finite, else ValueError naming what."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")


class _Observation(NamedTuple):
    buoy_id: int
    transmit_time: float
    receive_time: float
    position: tuple[float, float, float]


class Observation(_Checked, _Observation):
    """One buoy's broadcast as seen by the receiver.

    transmit_time is GNSS seconds; receive_time is the receiver's own
    (offset, unsynchronized) clock. position is the buoy's (east, north,
    up) in the working ENU frame [m]: any three finite numbers. All are
    stored as floats, the position as a tuple of them.
    """

    __slots__ = ()

    def __new__(cls, buoy_id, transmit_time, receive_time, position):
        if not 0 <= buoy_id <= 3:
            raise ValueError(f"buoy_id {buoy_id} outside 0..3")
        _finite("times", transmit_time, receive_time)
        return tuple.__new__(cls, (buoy_id, float(transmit_time), float(receive_time),
                                   _enu_point(position, "observation position")))


def _sound_speed(sound_speed) -> float:
    """An ObservationSet's sound speed as a float, checked: finite and > 0."""
    if not (math.isfinite(sound_speed) and sound_speed > 0):
        raise ValueError(f"sound_speed {sound_speed} must be finite and > 0")
    return float(sound_speed)


class _ObservationSet(NamedTuple):
    observations: tuple[Observation, Observation, Observation, Observation]
    sound_speed: float


class ObservationSet(_Checked, _ObservationSet):
    """Exactly four observations from one frame, stored as a tuple in buoy
    order (a tuple already in that order is kept), and the sound speed as a float."""

    __slots__ = ()

    def __new__(cls, observations, sound_speed):
        obs = observations
        if len(obs) != 4:
            raise ValueError("exactly four observations required")
        if not (type(obs) is tuple and obs[0].buoy_id == 0 and obs[1].buoy_id == 1
                and obs[2].buoy_id == 2 and obs[3].buoy_id == 3):
            ids = sorted(o.buoy_id for o in obs)
            if ids != [0, 1, 2, 3]:
                raise ValueError(f"buoy ids must be 0..3 exactly once, got {ids}")
            obs = tuple(sorted(obs, key=lambda o: o.buoy_id))
        return tuple.__new__(cls, (obs, _sound_speed(sound_speed)))


class _DiffSet(NamedTuple):
    d: tuple[float, float, float]     # pseudorange differences [m]
    e: tuple[tuple[float, float, float], ...]   # unit baseline directions
    b: tuple[float, float, float]     # baseline lengths [m]
    reference: tuple[float, float, float]   # buoy 0, working ENU frame [m]
    anchors: tuple[float, ...]        # derived, not a constructor argument


class DiffSet(_Checked, _DiffSet):
    """Three pseudorange differences with their baselines and reference buoy.

    d[i], e[i], b[i] refer to buoy i + 1; e rows are unit vectors from the
    reference buoy 0, b their lengths in meters, reference buoy 0's
    (east, north, up) position. The constructor takes any sequences of
    numbers, lists and numpy arrays alike, checks them once (three d,
    three e rows of three and three b, all finite, b > 0, each e row of
    unit length within 1e-12, three reference coordinates), stores them as
    float tuples and adds the anchors: x, y, z of buoy 0, then of buoys 1-3
    (reference + e * b). The checks and the anchors are written out in
    scalars, one pass per frame, in that order and with the arithmetic of
    the vector form. Any |d| below its b is accepted here; kleusberg_solve
    raises UnrealizableTDOA for the others.
    """

    __slots__ = ()

    def __new__(cls, d, e, b, reference):
        try:
            (d0, d1, d2), (b0, b1, b2) = d, b
            (ex0, ey0, ez0), (ex1, ey1, ez1), (ex2, ey2, ez2) = e
        except ValueError:
            raise ValueError(
                "DiffSet needs three d, three e rows of three and three b") from None
        d0, d1, d2, b0, b1, b2 = float(d0), float(d1), float(d2), float(b0), float(b1), float(b2)
        ex0, ey0, ez0 = float(ex0), float(ey0), float(ez0)
        ex1, ey1, ez1 = float(ex1), float(ey1), float(ez1)
        ex2, ey2, ez2 = float(ex2), float(ey2), float(ez2)
        _finite("DiffSet entries", d0, d1, d2, b0, b1, b2, ex0, ey0, ez0, ex1, ey1, ez1,
                ex2, ey2, ez2)
        if b0 <= 0.0 or b1 <= 0.0 or b2 <= 0.0:
            raise ValueError("baseline lengths must be positive")
        if (abs(math.sqrt(ex0 * ex0 + ey0 * ey0 + ez0 * ez0) - 1.0) > 1e-12
                or abs(math.sqrt(ex1 * ex1 + ey1 * ey1 + ez1 * ez1) - 1.0) > 1e-12
                or abs(math.sqrt(ex2 * ex2 + ey2 * ey2 + ez2 * ez2) - 1.0) > 1e-12):
            raise ValueError("baseline directions must be unit vectors")
        return _diffset((d0, d1, d2), ((ex0, ey0, ez0), (ex1, ey1, ez1), (ex2, ey2, ez2)),
                        (b0, b1, b2), _enu_point(reference, "the reference"))

    def __getnewargs__(self):
        return self[:4]   # the constructor's arguments: the anchors are derived


def _diffset(d, e, b, reference) -> DiffSet:
    """The DiffSet of checked float tuples and its anchors, built unchecked."""
    (x0, y0, z0), (b0, b1, b2) = reference, b
    (ex0, ey0, ez0), (ex1, ey1, ez1), (ex2, ey2, ez2) = e
    return tuple.__new__(DiffSet, (d, e, b, reference, (
        x0, y0, z0, x0 + ex0 * b0, y0 + ey0 * b0, z0 + ez0 * b0,
        x0 + ex1 * b1, y0 + ey1 * b1, z0 + ez1 * b1, x0 + ex2 * b2, y0 + ey2 * b2, z0 + ez2 * b2)))


class Branch(NamedTuple):
    """One closed-form candidate: the unit direction from the reference buoy,
    the range along it (negative, an unphysical range, before filtering),
    the (east, north, up) position reference + direction * range, and the
    baseline whose range equation gave the range (0-based into DiffSet.b):
    the one with the largest b_0i^2 - d_0i^2, on both branches bar an exact tie."""

    direction: tuple[float, float, float]
    range: float
    position: tuple[float, float, float]
    denominator_index: int


class CandidatePair(NamedTuple):
    """Both closed-form candidates; selection happens downstream. The
    discriminant is the closed form's, kept for diagnostics."""

    branches: tuple[Branch, Branch]
    discriminant: float


class _SolverConfig(NamedTuple):
    max_iterations: int              # Gauss-Newton iteration budget
    consistency_tolerance: float     # cross-baseline range agreement [m]


class SolverConfig(_Checked, _SolverConfig):
    """The settings of the analytic and iterative solvers.

    consistency_tolerance is meaningful for noiseless stationary data at
    its default; widen it for noisy or moving-receiver inputs.
    """

    __slots__ = ()

    def __new__(cls, max_iterations=50, consistency_tolerance=1e-6):
        value = consistency_tolerance
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"consistency_tolerance {value} must be finite and > 0")
        n = max_iterations
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"max_iterations {n!r} must be an integer >= 1")
        return tuple.__new__(cls, (n, value))


def pseudorange_diffs(obs: ObservationSet) -> DiffSet:
    """Difference the four pseudoranges against the reference buoy 0.

    The receiver clock offset cancels exactly: the arithmetic groups the
    receiver-clock times first, so a common shift of every receive_time
    leaves the result bit-identical. obs holds checked values, so the DiffSet
    is built unchecked; an overflow to inf raises DiffSet's ValueError.
    """
    ref, *others = obs.observations
    c = obs.sound_speed
    x0, y0, z0 = ref.position

    d, e, b = [], [], []
    for o in others:
        x, y, z = o.position
        bx, by, bz = x - x0, y - y0, z - z0
        length = math.sqrt(bx * bx + by * by + bz * bz)
        if length < MIN_BASELINE:
            raise DegenerateBaseline(
                f"buoys 0 and {o.buoy_id} separated by {length:.3g} m")
        diff = c * ((o.receive_time - ref.receive_time)
                    - (o.transmit_time - ref.transmit_time))
        if abs(diff) >= length:
            raise _unrealizable(diff, length, o.buoy_id)
        d.append(diff)
        e.append((bx / length, by / length, bz / length))
        b.append(length)
    _finite("DiffSet entries", *d, *b)   # an e row is finite where its b is
    return _diffset(tuple(d), tuple(e), tuple(b), ref.position)


def _unrealizable(diff: float, length: float, buoy_id: int) -> UnrealizableTDOA:
    """The error for a difference |diff| >= its baseline: by the triangle
    inequality no point produces it."""
    return UnrealizableTDOA(
        f"|d| = {abs(diff):.3f} m >= baseline {length:.3f} m for buoy {buoy_id}")


def kleusberg_solve(diffs: DiffSet, cfg: SolverConfig = SolverConfig()) -> CandidatePair:
    """Closed-form two-candidate solution of the range-difference system.

    Works entirely from the three baselines: directions from paired
    baseline combinations, then the receiver range from the
    best-conditioned range equation, cross-checked against the others.

    Written out in float scalars, with the operations of the vector form
    in the same order (every sum left to right), so its results are those
    of the vector form bit for bit. Any DiffSet gives a CandidatePair or a
    PositioningError; the errors, in the order they are tested:

    * UnrealizableTDOA for a difference with |d_0i| >= b_0i, before
      anything is divided: no point produces it;
    * DegenerateBaseline where b_0i^2 - d_0i^2 underflows to zero, for
      baselines below about 1e-154 m;
    * SingularDenominator (all differences ~ 0) or DegenerateGeometry for
      collinear directions; a NaN in that test, from inputs whose squares
      overflow, counts as collinear;
    * NoRealSolution for a negative discriminant;
    * per branch, SingularDenominator when every range denominator is
      below 1e-9 of the longest baseline, and InconsistentRanges when the
      other usable range equations disagree by more than
      cfg.consistency_tolerance.
    """
    d0, d1, d2 = diffs.d
    b0, b1, b2 = diffs.b
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = diffs.e
    if not (abs(d0) < b0 and abs(d1) < b1 and abs(d2) < b2):
        for i, (di, bi) in enumerate(zip(diffs.d, diffs.b)):
            if abs(di) >= bi:
                raise _unrealizable(di, bi, i + 1)

    n0 = b0 * b0 - d0 * d0
    n1 = b1 * b1 - d1 * d1
    n2 = b2 * b2 - d2 * d2
    if n0 == 0.0 or n1 == 0.0 or n2 == 0.0:
        i = (n0, n1, n2).index(0.0)
        raise DegenerateBaseline(
            f"buoys 0 and {i + 1} separated by {diffs.b[i]:.3g} m: b^2 - d^2 underflows")
    w0, w1, w2 = b0 / n0, b1 / n1, b2 / n2
    u0, u1, u2 = d0 / n0, d1 / n1, d2 / n2
    f10, f11, f12 = w0 * e00 - w1 * e10, w0 * e01 - w1 * e11, w0 * e02 - w1 * e12
    f20, f21, f22 = w1 * e10 - w2 * e20, w1 * e11 - w2 * e21, w1 * e12 - w2 * e22
    du1 = u1 - u0
    du2 = u2 - u1
    g0 = f11 * f22 - f12 * f21
    g1 = f12 * f20 - f10 * f22
    g2 = f10 * f21 - f11 * f20
    h0, h1, h2 = du2 * f10 - du1 * f20, du2 * f11 - du1 * f21, du2 * f12 - du1 * f22
    gg = g0 * g0 + g1 * g1 + g2 * g2
    disc = gg - (h0 * h0 + h1 * h1 + h2 * h2)

    f1_norm = math.sqrt(f10 * f10 + f11 * f11 + f12 * f12)
    f2_norm = math.sqrt(f20 * f20 + f21 * f21 + f22 * f22)
    b_max = max(b0, b1, b2)
    if not math.sqrt(gg) > _COLLINEAR_RTOL * f1_norm * f2_norm:
        if max(abs(d0), abs(d1), abs(d2)) <= _DENOMINATOR_RTOL * b_max:
            # all differences ~ 0 over concyclic buoys (receiver on the
            # symmetry axis): the direction is underdetermined and every
            # range denominator vanishes along that axis
            raise SingularDenominator(
                "receiver direction underdetermined (symmetric-axis input)")
        raise DegenerateGeometry("baseline directions are collinear")
    if disc < 0.0:
        raise NoRealSolution(
            f"discriminant {disc:.3e} < 0: hyperboloid intersections do not meet")

    root = math.sqrt(disc)
    c0, c1, c2 = g1 * h2 - g2 * h1, g2 * h0 - g0 * h2, g0 * h1 - g1 * h0
    den_tol = _DENOMINATOR_RTOL * b_max
    tol = cfg.consistency_tolerance
    x0, y0, z0 = diffs.reference
    nums = (n0, n1, n2)

    results = []
    for sign in (+1.0, -1.0):
        v0 = (c0 + sign * g0 * root) / gg
        v1 = (c1 + sign * g1 * root) / gg
        v2 = (c2 + sign * g2 * root) / gg
        p0 = d0 + b0 * (e00 * v0 + e01 * v1 + e02 * v2)
        p1 = d1 + b1 * (e10 * v0 + e11 * v1 + e12 * v2)
        p2 = d2 + b2 * (e20 * v0 + e21 * v1 + e22 * v2)
        # the largest |denominator|, the first on a tie
        best, top = 0, abs(p0)
        if abs(p1) > top:
            best, top = 1, abs(p1)
        if abs(p2) > top:
            best, top = 2, abs(p2)
        if top <= den_tol:
            raise SingularDenominator(
                f"all range denominators below {den_tol:.3e} m")
        dens = (p0, p1, p2)
        s_best = 0.5 * nums[best] / dens[best]
        for i in range(3):
            if i != best and abs(dens[i]) > den_tol:
                gap = abs(0.5 * nums[i] / dens[i] - s_best)
                if gap > tol:
                    raise InconsistentRanges(
                        f"range from baseline {i} differs by {gap:.3e} m "
                        f"(tolerance {tol:.3e} m)")
        results.append(Branch((v0, v1, v2), s_best,
                              (x0 + v0 * s_best, y0 + v1 * s_best, z0 + v2 * s_best), best))
    return CandidatePair(branches=tuple(results), discriminant=disc)


def _norm(v) -> float:
    """Euclidean norm of a 3-vector: the square root of the plain float sum
    of squares, the arithmetic of the residual kernel."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _cost(res) -> float:
    """Half the squared residual norm, in the kernel's arithmetic."""
    return 0.5 * (res[0] * res[0] + res[1] * res[1] + res[2] * res[2])


def _residual_kernel(x: float, y: float, z: float, anchors, d):
    """Offsets from each anchor to (x, y, z), their ranges, and the residuals
    (|X-R_i| - |X-R_0|) - d_0i, in plain float arithmetic.

    This is the one residual computation: residuals(), the skip test in
    solve_frame and every cost Gauss-Newton evaluates come from here, so a
    skipped Gauss-Newton is bit-identical to one that ran.
    """
    x0, y0, z0, x1, y1, z1, x2, y2, z2, x3, y3, z3 = anchors
    d1, d2, d3 = d
    u0, v0, w0 = x - x0, y - y0, z - z0
    u1, v1, w1 = x - x1, y - y1, z - z1
    u2, v2, w2 = x - x2, y - y2, z - z2
    u3, v3, w3 = x - x3, y - y3, z - z3
    r0 = math.sqrt(u0 * u0 + v0 * v0 + w0 * w0)
    r1 = math.sqrt(u1 * u1 + v1 * v1 + w1 * w1)
    r2 = math.sqrt(u2 * u2 + v2 * v2 + w2 * w2)
    r3 = math.sqrt(u3 * u3 + v3 * v3 + w3 * w3)
    return (((u0, v0, w0), (u1, v1, w1), (u2, v2, w2), (u3, v3, w3)), (r0, r1, r2, r3),
            ((r1 - r0) - d1, (r2 - r0) - d2, (r3 - r0) - d3))


def residuals(position: tuple[float, float, float], diffs: DiffSet
              ) -> tuple[float, float, float]:
    """Range-difference residuals (|X-R_i| - |X-R_0|) - d_0i at the
    (east, north, up) position X, in meters."""
    x, y, z = position
    return _residual_kernel(x, y, z, diffs.anchors, diffs.d)[2]


def select_underwater(pair: CandidatePair, diffs: DiffSet) -> Branch:
    """Pick the physical candidate: nonnegative range and below SURFACE_UP.

    When both candidates qualify, the one that better reproduces the
    measured differences wins (phantom branches of the squared system
    carry large residuals); exact residual ties go to the deeper one.
    """
    qualified = [branch for branch in pair.branches
                 if branch.range >= 0.0 and branch.position[2] < SURFACE_UP]
    if not qualified:
        raise NoUnderwaterSolution(
            "no candidate with nonnegative range below the surface plane")
    if len(qualified) == 1:
        return qualified[0]
    return min(qualified, key=lambda branch: (_norm(residuals(branch.position, diffs)),
                                              branch.position[2]))


def _solve3(rows):
    """Solve a 3x3 linear system given as augmented rows (a_i0, a_i1, a_i2, b_i).

    Gaussian elimination with partial pivoting; as in LAPACK the first row
    of largest magnitude pivots. Returns None when a pivot is exactly zero,
    which is where np.linalg.solve raises LinAlgError.
    """
    r0, r1, r2 = rows
    if abs(r1[0]) > abs(r0[0]):
        if abs(r2[0]) > abs(r1[0]):
            r0, r2 = r2, r0
        else:
            r0, r1 = r1, r0
    elif abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    a00, a01, a02, b0 = r0
    if a00 == 0.0:
        return None
    f1 = r1[0] / a00
    f2 = r2[0] / a00
    a11, a12, b1 = r1[1] - f1 * a01, r1[2] - f1 * a02, r1[3] - f1 * b0
    a21, a22, b2 = r2[1] - f2 * a01, r2[2] - f2 * a02, r2[3] - f2 * b0
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if a11 == 0.0:
        return None
    f = a21 / a11
    a22 = a22 - f * a12
    b2 = b2 - f * b1
    if a22 == 0.0:
        return None
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    return ((b0 - a02 * x2) - a01 * x1) / a00, x1, x2


def numerical_solve(
    diffs: DiffSet,
    *,
    initial: tuple[float, float, float],
    cfg: SolverConfig = SolverConfig(),
) -> tuple[float, float, float]:
    """Gauss-Newton least squares on the residual system.

    Accepts inconsistent DiffSets (noise, receiver motion), so the
    realizability precondition is deliberately not enforced here. Steps
    are safeguarded by a dogleg trust region: the pure Gauss-Newton step
    is taken whenever the model has earned enough trust, which keeps the
    quadratic endgame intact while preventing the huge extrapolations the
    raw step produces in the ill-conditioned vertical direction.

    Plain float arithmetic throughout, like kleusberg_solve: the Jacobian,
    gradient and the six entries of the symmetric normal matrix are written
    out, and the 3x3 solve is _solve3. Each trial step costs one residual
    kernel evaluation, and the accepted trial's is the next iteration's.

    initial and the returned fix are (east, north, up) float tuples.
    Returns the iterate when half its squared residual norm is below
    1e-24 m^2, when the gradient vanishes, when no step longer than the
    1e-9 m tolerance can improve the model, or after an accepted step
    shorter than that tolerance. The cost floor is also tested on the last
    accepted iterate, whose residuals are already computed, before the
    budget's NonConvergence is raised. No returned fix lies at or above
    SURFACE_UP. Raises ValueError for a non-finite start, and otherwise:

    * NonConvergence for a start at or above SURFACE_UP, or as soon as an
      accepted step lands there: on the plane of a near-coplanar array a
      least-squares compromise of inconsistent differences is no fix;
    * NonConvergence as soon as an accepted step lands farther from buoy 0
      than _REACH longest baselines, where the range is unobservable; a
      start out there is not an error, and its iterates are not bounded;
    * NonConvergence when no trial step is accepted, or when the iteration
      budget runs out;
    * SingularJacobian when the iterate coincides with a buoy, or the
      normal equations are non-finite or rank-deficient even when damped.
    """
    x, y, z = initial
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("initial guess must be finite")
    anchors, d = diffs.anchors, diffs.d
    reach = _REACH * max(diffs.b)

    radius = _TRUST_RADIUS_0
    kernel = _residual_kernel(x, y, z, anchors, d)
    if kernel[1][0] > reach:
        # a start out there, such as a closed-form fix, is polished: only an
        # iterate that runs off from within reach is given up on
        reach = math.inf
    for iteration in range(cfg.max_iterations):
        offsets, ranges, res = kernel
        if 0.0 in ranges:
            raise SingularJacobian("iterate coincides with a buoy position")
        if z >= SURFACE_UP:
            # only a start gets here: an accepted step that lands at the
            # surface ends the iteration where it lands
            raise NonConvergence(f"start at up = {z:.3g} m is not below the surface")
        cost = _cost(res)
        if cost < _COST_FLOOR:
            return x, y, z
        (u0, v0, w0), (u1, v1, w1), (u2, v2, w2), (u3, v3, w3) = offsets
        r0, r1, r2, r3 = ranges
        ux, uy, uz = u0 / r0, v0 / r0, w0 / r0
        j00, j01, j02 = u1 / r1 - ux, v1 / r1 - uy, w1 / r1 - uz
        j10, j11, j12 = u2 / r2 - ux, v2 / r2 - uy, w2 / r2 - uz
        j20, j21, j22 = u3 / r3 - ux, v3 / r3 - uy, w3 / r3 - uz
        e0, e1, e2 = res
        g0 = j00 * e0 + j10 * e1 + j20 * e2
        g1 = j01 * e0 + j11 * e1 + j21 * e2
        g2 = j02 * e0 + j12 * e1 + j22 * e2
        n00 = j00 * j00 + j10 * j10 + j20 * j20
        n01 = j00 * j01 + j10 * j11 + j20 * j21
        n02 = j00 * j02 + j10 * j12 + j20 * j22
        n11 = j01 * j01 + j11 * j11 + j21 * j21
        n12 = j01 * j02 + j11 * j12 + j21 * j22
        n22 = j02 * j02 + j12 * j12 + j22 * j22
        if not all(map(math.isfinite, (g0, g1, g2, n00, n01, n02, n11, n12, n22))):
            raise SingularJacobian("non-finite normal equations")

        gn_step = _solve3(((n00, n01, n02, -g0), (n01, n11, n12, -g1), (n02, n12, n22, -g2)))
        if gn_step is None:
            # fixed Levenberg damping rescue for rank-deficient normals
            lam = 1e-8 * max(n00 + n11 + n22, 1e-30)
            gn_step = _solve3(((n00 + lam, n01, n02, -g0), (n01, n11 + lam, n12, -g1),
                               (n02, n12, n22 + lam, -g2)))
            if gn_step is None:
                raise SingularJacobian("normal equations are rank-deficient")
        if not all(map(math.isfinite, gn_step)):
            raise SingularJacobian("normal equations are rank-deficient")

        gnorm = math.sqrt(g0 * g0 + g1 * g1 + g2 * g2)
        if gnorm == 0.0:
            return x, y, z
        s0, s1, s2 = gn_step
        gn_norm = math.sqrt(s0 * s0 + s1 * s1 + s2 * s2)

        step = None
        for _ in range(60):
            if gn_norm <= radius:
                p = gn_step
            else:
                curvature = (g0 * (n00 * g0 + n01 * g1 + n02 * g2)
                             + g1 * (n01 * g0 + n11 * g1 + n12 * g2)
                             + g2 * (n02 * g0 + n12 * g1 + n22 * g2))
                scale = -(gnorm * gnorm / curvature) if curvature > 0.0 else -(radius / gnorm)
                c0, c1, c2 = scale * g0, scale * g1, scale * g2
                if math.sqrt(c0 * c0 + c1 * c1 + c2 * c2) >= radius:
                    scale = -(radius / gnorm)
                    p = (scale * g0, scale * g1, scale * g2)
                else:
                    # dogleg leg from the Cauchy point toward the GN step
                    l0, l1, l2 = s0 - c0, s1 - c1, s2 - c2
                    a = l0 * l0 + l1 * l1 + l2 * l2
                    bq = 2.0 * (c0 * l0 + c1 * l1 + c2 * l2)
                    cq = (c0 * c0 + c1 * c1 + c2 * c2) - radius * radius
                    t = (-bq + math.sqrt(bq * bq - 4.0 * a * cq)) / (2.0 * a)
                    p = (c0 + t * l0, c1 + t * l1, c2 + t * l2)
            p0, p1, p2 = p
            trial = _residual_kernel(x + p0, y + p1, z + p2, anchors, d)
            trial_cost = _cost(trial[2])
            predicted = (-(g0 * p0 + g1 * p1 + g2 * p2)
                         - 0.5 * (p0 * (n00 * p0 + n01 * p1 + n02 * p2)
                                  + p1 * (n01 * p0 + n11 * p1 + n12 * p2)
                                  + p2 * (n02 * p0 + n12 * p1 + n22 * p2)))
            rho = (cost - trial_cost) / predicted if predicted > 0.0 else -1.0
            pn = math.sqrt(p0 * p0 + p1 * p1 + p2 * p2)
            if rho < 0.25:
                radius = _TRUST_SHRINK * pn
            elif rho > 0.75 and pn >= 0.99 * radius:
                radius = _TRUST_GROW * radius
            if rho > _RHO_ACCEPT:
                step = p
                break
            if radius < _STEP_TOL:
                # no step of meaningful size improves the model: stationary
                return x, y, z
        if step is None:
            raise NonConvergence(
                f"no acceptable step at iteration {iteration + 1}")
        x, y, z = x + step[0], y + step[1], z + step[2]
        kernel = trial
        if z >= SURFACE_UP:
            raise NonConvergence(
                f"iterate reached the surface (up = {z:.3g} m) at iteration {iteration + 1}")
        if trial[1][0] > reach:
            raise NonConvergence(
                f"iterate {trial[1][0]:.3g} m from buoy 0, beyond reach "
                f"({reach:.3g} m), at iteration {iteration + 1}")
        if pn < _STEP_TOL:
            return x, y, z

    if _cost(kernel[2]) < _COST_FLOOR:
        return x, y, z
    raise NonConvergence(
        f"step norm above {_STEP_TOL:.1e} m after "
        f"{cfg.max_iterations} iterations")


class FrameFix(NamedTuple):
    """One frame's closed-form pick and its Gauss-Newton polish.

    pair is None when the closed form failed, branch (the underwater pick)
    also when the underwater selection failed, numerical when Gauss-Newton
    failed or had no start; numerical and analytic, the pick's position,
    are (east, north, up) float tuples. status is "ok" or the name of the
    first error raised. analytic_residuals are residuals(analytic), None
    without a pick.
    """

    pair: CandidatePair | None
    branch: Branch | None
    numerical: tuple[float, float, float] | None
    status: str
    analytic_residuals: tuple[float, float, float] | None = None

    @property
    def analytic(self) -> tuple[float, float, float] | None:
        return None if self.branch is None else self.branch.position


def solve_frame(diffs: DiffSet, cfg: SolverConfig) -> FrameFix:
    """The closed form, its underwater pick, then Gauss-Newton to polish it.

    Gauss-Newton starts from the analytic fix; without one the frame has no
    fix. Started from an analytic fix that already meets its first exit
    test (half the squared residual norm below 1e-24 m^2), it would return
    that start unchanged, so it is not run: numerical is then the analytic
    fix itself, bit for bit.

    The closed form, the residuals and Gauss-Newton are plain float
    arithmetic, and the skip test computes the very cost of Gauss-Newton's
    first exit test from the same residual kernel, so the two cannot
    disagree.
    """
    pair = branch = numerical = res = None
    status = "ok"
    try:
        pair = kleusberg_solve(diffs, cfg)
        branch = select_underwater(pair, diffs)
        res = residuals(branch.position, diffs)
        numerical = (branch.position if _cost(res) < _COST_FLOOR else
                     numerical_solve(diffs, initial=branch.position, cfg=cfg))
    except PositioningError as exc:
        status = type(exc).__name__
    return FrameFix(pair, branch, numerical, status, res)
