"""Pseudorange differencing and hyperbolic position solvers.

The receiver clock is never estimated: differencing two pseudoranges against
the same receiver cancels the offset, leaving three range differences d_0i
relative to a reference buoy. Those are solved two ways:

* a closed-form solution (two candidate positions on the same axis, the
  underwater one being the physical fix), exact on consistent data;
* a safeguarded Gauss-Newton iteration on the residual system, for data a
  closed form cannot digest (noise, receiver motion).

solve_frame runs both on one frame, the way the CLI and the property suite
do. The closed form, the residuals and Gauss-Newton are plain IEEE double
arithmetic on Python floats: on 3-vectors numpy's per-call overhead costs
more than the maths, and float arithmetic rounds the same on every numpy
build.

Conventions: d_0i = P_i - P_0 is the range to buoy i minus the range to the
reference, and baselines e_0i * b_0i point from the reference to buoy i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .geo import ENU, CartesianVector

DEFAULT_SPEED_WINDOW = (1400.0, 1600.0)   # plausible seawater sound speeds [m/s]
MIN_BASELINE = 1.0                        # coincident-buoy threshold [m]

# relative thresholds: direction collinearity and range-denominator collapse
_COLLINEAR_RTOL = 1e-12
_DENOMINATOR_RTOL = 1e-9

# trust-region safeguard for the iterative solver
_TRUST_RADIUS_0 = 50.0    # m; sized for baselines of hundreds to thousands of m
_TRUST_SHRINK = 0.5
_TRUST_GROW = 2.0
_RHO_ACCEPT = 1e-4
_COST_FLOOR = 1e-24     # m^2; half the squared residual norm that counts as solved


@dataclass(frozen=True)
class Observation:
    """One buoy's broadcast as seen by the receiver.

    transmit_time is GNSS seconds; receive_time is the receiver's own
    (offset, unsynchronized) clock.
    """

    buoy_id: int
    transmit_time: float
    receive_time: float
    position: CartesianVector

    def __post_init__(self):
        if not 0 <= self.buoy_id <= 3:
            raise ValueError(f"buoy_id {self.buoy_id} outside 0..3")
        if not (math.isfinite(self.transmit_time) and math.isfinite(self.receive_time)):
            raise ValueError("times must be finite")
        if self.position.frame != ENU:
            raise ValueError("observation positions must be in the working ENU frame")


@dataclass(frozen=True)
class ObservationSet:
    """Exactly four observations from one frame plus the sound speed."""

    observations: tuple[Observation, Observation, Observation, Observation]
    sound_speed: float
    speed_window: tuple[float, float] | None = DEFAULT_SPEED_WINDOW

    def __post_init__(self):
        if len(self.observations) != 4:
            raise ValueError("exactly four observations required")
        ids = sorted(o.buoy_id for o in self.observations)
        if ids != [0, 1, 2, 3]:
            raise ValueError(f"buoy ids must be 0..3 exactly once, got {ids}")
        if self.sound_speed <= 0:
            raise ValueError("sound_speed must be > 0")
        if self.speed_window is not None:
            lo, hi = self.speed_window
            if not (lo <= self.sound_speed <= hi):
                raise ValueError(
                    f"sound_speed {self.sound_speed} outside sanity window [{lo}, {hi}]")
        object.__setattr__(
            self, "observations",
            tuple(sorted(self.observations, key=lambda o: o.buoy_id)))

    def by_id(self, buoy_id: int) -> Observation:
        return self.observations[buoy_id]


@dataclass(frozen=True, eq=False)
class DiffSet:
    """Three pseudorange differences with their baselines.

    d[i], e[i], b[i] refer to non-reference buoy ids[i]; e rows are unit
    vectors from the reference buoy, b their lengths in meters.
    """

    reference_id: int
    ids: tuple[int, int, int]
    d: np.ndarray          # (3,) pseudorange differences [m]
    e: np.ndarray          # (3, 3) unit baseline directions
    b: np.ndarray          # (3,) baseline lengths [m]

    def __post_init__(self):
        d = np.asarray(self.d, float)
        e = np.asarray(self.e, float)
        b = np.asarray(self.b, float)
        if d.shape != (3,) or e.shape != (3, 3) or b.shape != (3,):
            raise ValueError("DiffSet arrays must have shapes (3,), (3,3), (3,)")
        if np.any(b <= 0.0):
            raise ValueError("baseline lengths must be positive")
        if np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) > 1e-12:
            raise ValueError("baseline directions must be unit vectors")
        for name, arr in (("d", d), ("e", e), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def is_realizable(self) -> bool:
        """True when every |d_0i| < b_0i (a consistent stationary TDOA)."""
        return bool(np.all(np.abs(self.d) < self.b))

    def buoy_positions(self, reference: np.ndarray) -> np.ndarray:
        """Reconstruct the three non-reference buoy positions (3x3)."""
        return reference + self.e * self.b[:, None]


@dataclass(frozen=True, eq=False)
class CandidatePair:
    """Both closed-form candidates; selection happens downstream.

    s values may be negative (unphysical range) before filtering. The
    denominator indices record which baseline's range equation produced
    each s (0-based into DiffSet.ids). The discriminant is the closed
    form's, kept for diagnostics.
    """

    e_1: np.ndarray
    e_2: np.ndarray
    s_1: float
    s_2: float
    r_1: CartesianVector
    r_2: CartesianVector
    denominator_index_1: int
    denominator_index_2: int
    discriminant: float

    def branches(self):
        yield self.e_1, self.s_1, self.r_1, self.denominator_index_1
        yield self.e_2, self.s_2, self.r_2, self.denominator_index_2


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances shared by the analytic and iterative solvers.

    consistency_tolerance is meaningful for noiseless stationary data at
    its default; widen it for noisy or moving-receiver inputs.
    """

    residual_tolerance: float = 1e-9      # iterative step-norm stop [m]
    max_iterations: int = 50
    consistency_tolerance: float = 1e-6   # cross-baseline range agreement [m]
    surface_plane_up: float = 0.0         # candidates above this are not underwater [m]

    def __post_init__(self):
        if self.residual_tolerance <= 0 or self.consistency_tolerance <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def pseudorange_diffs(obs: ObservationSet, reference_id: int = 0) -> DiffSet:
    """Difference the four pseudoranges against the reference buoy.

    The receiver clock offset cancels exactly: the arithmetic groups the
    receiver-clock times first, so a common shift of every receive_time
    leaves the result bit-identical.
    """
    if not 0 <= reference_id <= 3:
        raise ValueError(f"reference_id {reference_id} outside 0..3")
    ref = obs.by_id(reference_id)
    others = [o for o in obs.observations if o.buoy_id != reference_id]
    c = obs.sound_speed
    ref_pos = ref.position.as_array()

    ids, d, e, b = [], [], [], []
    for o in others:
        baseline = o.position.as_array() - ref_pos
        length = float(np.linalg.norm(baseline))
        if length < MIN_BASELINE:
            raise DegenerateBaseline(
                f"buoys {reference_id} and {o.buoy_id} separated by {length:.3g} m")
        diff = c * ((o.receive_time - ref.receive_time)
                    - (o.transmit_time - ref.transmit_time))
        if abs(diff) >= length:
            raise UnrealizableTDOA(
                f"|d| = {abs(diff):.3f} m >= baseline {length:.3f} m "
                f"for buoy {o.buoy_id}")
        ids.append(o.buoy_id)
        d.append(diff)
        e.append(baseline / length)
        b.append(length)
    return DiffSet(reference_id=reference_id, ids=tuple(ids),
                   d=np.array(d), e=np.array(e), b=np.array(b))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def kleusberg_solve(
    diffs: DiffSet,
    reference: CartesianVector,
    cfg: SolverConfig = SolverConfig(),
) -> CandidatePair:
    """Closed-form two-candidate solution of the range-difference system.

    Works entirely from the three baselines: directions from paired
    baseline combinations, then the receiver range from the
    best-conditioned range equation, cross-checked against the others.
    The arithmetic is plain IEEE float arithmetic on Python floats: on
    3-vectors the per-call overhead of numpy costs more than the maths.
    """
    d = diffs.d.tolist()
    b = diffs.b.tolist()
    e = diffs.e.tolist()

    den = [bi * bi - di * di for bi, di in zip(b, d)]
    w = [bi / n for bi, n in zip(b, den)]
    u = [di / n for di, n in zip(d, den)]
    f1 = [w[0] * p - w[1] * q for p, q in zip(e[0], e[1])]
    f2 = [w[1] * p - w[2] * q for p, q in zip(e[1], e[2])]
    u1 = u[1] - u[0]
    u2 = u[2] - u[1]
    g = _cross(f1, f2)
    h = [u2 * p - u1 * q for p, q in zip(f1, f2)]
    gg = _dot(g, g)
    disc = gg - _dot(h, h)

    f1_norm = math.sqrt(_dot(f1, f1))
    f2_norm = math.sqrt(_dot(f2, f2))
    b_max = max(b)
    if math.sqrt(gg) <= _COLLINEAR_RTOL * f1_norm * f2_norm:
        if max(abs(di) for di in d) <= _DENOMINATOR_RTOL * b_max:
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
    cross_gh = _cross(g, h)
    den_tol = _DENOMINATOR_RTOL * b_max
    x0, y0, z0 = reference.x, reference.y, reference.z

    results = []
    for sign in (+1.0, -1.0):
        evec = [(c + sign * gi * root) / gg for c, gi in zip(cross_gh, g)]
        dens = [di + bi * _dot(ei, evec) for di, bi, ei in zip(d, b, e)]
        best = max(range(3), key=lambda i: abs(dens[i]))
        if abs(dens[best]) <= den_tol:
            raise SingularDenominator(
                f"all range denominators below {den_tol:.3e} m")
        s_all = [0.5 * n / dn for n, dn in zip(den, dens)]
        s_best = s_all[best]
        for i in range(3):
            if i != best and abs(dens[i]) > den_tol:
                if abs(s_all[i] - s_best) > cfg.consistency_tolerance:
                    raise InconsistentRanges(
                        f"range from baseline {i} differs by "
                        f"{abs(s_all[i] - s_best):.3e} m (tolerance "
                        f"{cfg.consistency_tolerance:.3e} m)")
        pos = CartesianVector(x0 + evec[0] * s_best, y0 + evec[1] * s_best,
                              z0 + evec[2] * s_best, ENU)
        results.append((np.array(evec), s_best, pos, best))

    (e1, s1, p1, i1), (e2, s2, p2, i2) = results
    return CandidatePair(e_1=e1, e_2=e2, s_1=s1, s_2=s2, r_1=p1, r_2=p2,
                         denominator_index_1=i1, denominator_index_2=i2,
                         discriminant=disc)


def _norm(v) -> float:
    """Euclidean norm of a 3-vector: the square root of the plain float sum
    of squares, the arithmetic of the residual kernel."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _cost(res) -> float:
    """Half the squared residual norm, in the kernel's arithmetic."""
    return 0.5 * (res[0] * res[0] + res[1] * res[1] + res[2] * res[2])


def _anchors(diffs: DiffSet, reference: CartesianVector) -> tuple[float, ...]:
    """x, y, z of the reference buoy, then of the three others, as floats."""
    x0, y0, z0 = float(reference.x), float(reference.y), float(reference.z)
    anchors = [x0, y0, z0]
    for (ex, ey, ez), b in zip(diffs.e.tolist(), diffs.b.tolist()):
        anchors += (x0 + ex * b, y0 + ey * b, z0 + ez * b)
    return tuple(anchors)


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


def residuals(
    position: CartesianVector | np.ndarray,
    diffs: DiffSet,
    reference: CartesianVector,
) -> np.ndarray:
    """Range-difference residuals (|X-R_i| - |X-R_0|) - d_0i, in meters."""
    if isinstance(position, CartesianVector):
        x, y, z = float(position.x), float(position.y), float(position.z)
    else:
        x, y, z = np.asarray(position, float).tolist()
    return np.array(_residual_kernel(x, y, z, _anchors(diffs, reference), diffs.d.tolist())[2])


def select_underwater(
    pair: CandidatePair,
    diffs: DiffSet,
    reference: CartesianVector,
    cfg: SolverConfig = SolverConfig(),
) -> CartesianVector:
    """Pick the physical fix: nonnegative range and below the surface plane.

    When both candidates qualify, the one that better reproduces the
    measured differences wins (phantom branches of the squared system
    carry large residuals); exact residual ties go to the deeper one.
    """
    qualified = []
    for evec, s, pos, _ in pair.branches():
        if s >= 0.0 and pos.z < cfg.surface_plane_up:
            qualified.append(pos)
    if not qualified:
        raise NoUnderwaterSolution(
            "no candidate with nonnegative range below the surface plane")
    if len(qualified) == 1:
        return qualified[0]
    qualified.sort(key=lambda p: (_norm(residuals(p, diffs, reference)), p.z))
    return qualified[0]


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
    reference: CartesianVector,
    initial: CartesianVector,
    cfg: SolverConfig = SolverConfig(),
) -> CartesianVector:
    """Gauss-Newton least squares on the residual system.

    Accepts inconsistent DiffSets (noise, receiver motion), so the
    realizability precondition is deliberately not enforced here. Steps
    are safeguarded by a dogleg trust region: the pure Gauss-Newton step
    is taken whenever the model has earned enough trust, which keeps the
    quadratic endgame intact while preventing the huge extrapolations the
    raw step produces in the ill-conditioned vertical direction.

    Plain float arithmetic throughout, like kleusberg_solve: the Jacobian,
    gradient and the six entries of the symmetric normal matrix are written
    out, and the 3x3 solve is _solve3.
    """
    x, y, z = float(initial.x), float(initial.y), float(initial.z)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("initial guess must be finite")
    anchors = _anchors(diffs, reference)
    d = diffs.d.tolist()

    radius = _TRUST_RADIUS_0
    for iteration in range(cfg.max_iterations):
        offsets, ranges, res = _residual_kernel(x, y, z, anchors, d)
        if 0.0 in ranges:
            raise SingularJacobian("iterate coincides with a buoy position")
        cost = _cost(res)
        if cost < _COST_FLOOR:
            return CartesianVector(x, y, z, ENU)
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
            return CartesianVector(x, y, z, ENU)
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
            trial_cost = _cost(_residual_kernel(x + p0, y + p1, z + p2, anchors, d)[2])
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
            if radius < cfg.residual_tolerance:
                # no step of meaningful size improves the model: stationary
                return CartesianVector(x, y, z, ENU)
        if step is None:
            raise NonConvergence(
                f"no acceptable step at iteration {iteration + 1}")
        x, y, z = x + step[0], y + step[1], z + step[2]
        if pn < cfg.residual_tolerance:
            return CartesianVector(x, y, z, ENU)

    raise NonConvergence(
        f"step norm above {cfg.residual_tolerance:.1e} m after "
        f"{cfg.max_iterations} iterations")


@dataclass(frozen=True, eq=False)
class FrameFix:
    """One frame solved both ways.

    pair is None when the closed form failed, analytic also when the
    underwater selection failed, numerical when Gauss-Newton failed;
    status is "ok" or the name of the first error raised.
    analytic_residuals are residuals(analytic), None without an analytic fix.
    """

    pair: CandidatePair | None
    analytic: CartesianVector | None
    numerical: CartesianVector | None
    status: str
    analytic_residuals: np.ndarray | None = None


def solve_frame(
    diffs: DiffSet,
    reference: CartesianVector,
    cfg: SolverConfig,
    guess: CartesianVector | None = None,
) -> FrameFix:
    """The closed form, its underwater pick, then Gauss-Newton.

    Gauss-Newton starts from guess when given, else from the analytic fix,
    else from the buoy centroid at half the longest baseline's depth.
    Started from an analytic fix that already meets Gauss-Newton's first
    exit test (half the squared residual norm below 1e-24 m^2), it would
    return that start unchanged, so it is not run: numerical is then the
    analytic fix itself, bit for bit.

    The closed form, the residuals and Gauss-Newton are plain float
    arithmetic, and the skip test computes the very cost of Gauss-Newton's
    first exit test from the same residual kernel, so the two cannot
    disagree.
    """
    pair = analytic = numerical = res = None
    status = "ok"
    try:
        pair = kleusberg_solve(diffs, reference, cfg)
        analytic = select_underwater(pair, diffs, reference, cfg)
        res = residuals(analytic, diffs, reference)
    except PositioningError as exc:
        status = type(exc).__name__

    if guess is None:
        if res is not None and _cost(res) < _COST_FLOOR:
            return FrameFix(pair=pair, analytic=analytic, numerical=analytic,
                            status=status, analytic_residuals=res)
        guess = analytic
    if guess is None:
        r0 = reference.as_array()
        centroid = np.vstack([diffs.buoy_positions(r0), r0]).mean(axis=0)
        centroid[2] = -0.5 * float(np.max(diffs.b))
        guess = CartesianVector.from_array(centroid, ENU)

    try:
        numerical = numerical_solve(diffs, reference, guess, cfg)
    except PositioningError as exc:
        if status == "ok":
            status = type(exc).__name__
    return FrameFix(pair=pair, analytic=analytic, numerical=numerical, status=status,
                    analytic_residuals=res)
