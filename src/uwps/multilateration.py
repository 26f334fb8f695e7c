"""Pseudorange differencing and hyperbolic position solvers.

The receiver clock is never estimated: differencing two pseudoranges against
the same receiver cancels the offset, leaving three range differences d_0i
relative to a reference buoy. Those are solved two ways:

* a closed-form solution (two candidate positions on the same axis, the
  underwater one being the physical fix), exact on consistent data;
* a safeguarded Gauss-Newton iteration on the residual system, for data a
  closed form cannot digest (noise, receiver motion).

solve_frame runs both on one frame, the way the CLI and the property suite
do.

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


def residuals(
    position: CartesianVector | np.ndarray,
    diffs: DiffSet,
    reference: CartesianVector,
) -> np.ndarray:
    """Range-difference residuals (|X-R_i| - |X-R_0|) - d_0i, in meters."""
    x = position.as_array() if isinstance(position, CartesianVector) else np.asarray(position, float)
    r0 = reference.as_array()
    buoys = diffs.buoy_positions(r0)
    return (np.linalg.norm(x - buoys, axis=1) - np.linalg.norm(x - r0)) - diffs.d


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
    qualified.sort(key=lambda p: (float(np.linalg.norm(residuals(p, diffs, reference))), p.z))
    return qualified[0]


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
    """
    x = initial.as_array()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess must be finite")
    r0 = reference.as_array()
    buoys = diffs.buoy_positions(r0)

    def residual_vector(p: np.ndarray) -> np.ndarray:
        return (np.linalg.norm(p - buoys, axis=1) - np.linalg.norm(p - r0)) - diffs.d

    radius = _TRUST_RADIUS_0
    for iteration in range(cfg.max_iterations):
        range_ref = np.linalg.norm(x - r0)
        range_i = np.linalg.norm(x - buoys, axis=1)
        if range_ref == 0.0 or np.any(range_i == 0.0):
            raise SingularJacobian("iterate coincides with a buoy position")
        res = (range_i - range_ref) - diffs.d
        cost = 0.5 * float(res @ res)
        if cost < _COST_FLOOR:
            return CartesianVector.from_array(x, ENU)
        jac = (x - buoys) / range_i[:, None] - (x - r0) / range_ref
        grad = jac.T @ res
        normal = jac.T @ jac
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(normal))):
            raise SingularJacobian("non-finite normal equations")

        try:
            gn_step = np.linalg.solve(normal, -grad)
            gn_ok = bool(np.all(np.isfinite(gn_step)))
        except np.linalg.LinAlgError:
            # fixed Levenberg damping rescue for rank-deficient normals
            damped = normal + 1e-8 * max(float(np.trace(normal)), 1e-30) * np.eye(3)
            try:
                gn_step = np.linalg.solve(damped, -grad)
                gn_ok = bool(np.all(np.isfinite(gn_step)))
            except np.linalg.LinAlgError:
                raise SingularJacobian("normal equations are rank-deficient") from None
        if not gn_ok:
            raise SingularJacobian("normal equations are rank-deficient")

        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            return CartesianVector.from_array(x, ENU)

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
                    # dogleg leg from the Cauchy point toward the GN step
                    leg = gn_step - cauchy
                    a = float(leg @ leg)
                    bq = 2.0 * float(cauchy @ leg)
                    cq = float(cauchy @ cauchy) - radius * radius
                    t = (-bq + math.sqrt(bq * bq - 4.0 * a * cq)) / (2.0 * a)
                    p = cauchy + t * leg
            trial = residual_vector(x + p)
            trial_cost = 0.5 * float(trial @ trial)
            predicted = -float(grad @ p) - 0.5 * float(p @ (normal @ p))
            rho = (cost - trial_cost) / predicted if predicted > 0.0 else -1.0
            pn = float(np.linalg.norm(p))
            if rho < 0.25:
                radius = _TRUST_SHRINK * pn
            elif rho > 0.75 and pn >= 0.99 * radius:
                radius = _TRUST_GROW * radius
            if rho > _RHO_ACCEPT:
                step = p
                break
            if radius < cfg.residual_tolerance:
                # no step of meaningful size improves the model: stationary
                return CartesianVector.from_array(x, ENU)
        if step is None:
            raise NonConvergence(
                f"no acceptable step at iteration {iteration + 1}")
        x = x + step
        if np.linalg.norm(step) < cfg.residual_tolerance:
            return CartesianVector.from_array(x, ENU)

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

    The closed form runs on Python floats; residuals and Gauss-Newton run
    on numpy, whose 3-element dot product may be a fused multiply-add chain
    (see docs/file-formats.md), so their last bits follow numpy's kernel.
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
        if res is not None and 0.5 * float(res @ res) < _COST_FLOOR:
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
