"""The property suite's scenario draws against their numpy form.

verify's sampler draws one block of uniforms per attempt and forms each
value in floats. The numpy sampler below is the form it replaced, kept as
the reference: for every case the two give the same bits, and leave the
generator in the same state, so the criterion families and the suite's
report stay the cases they were. The sampler hands each case's closed
form to the checks, bit for bit the one a fresh solve gives, so the checks
solve no case again. Within one run_all the checks that read only the
sampler share one draw of its stream, and each reads the stream's cases.
"""
import struct

import numpy as np
import pytest

from uwps import multilateration, verify
from uwps.errors import PositioningError

# (seed, cases): the suite's two seeds at criterion 1's case count, and
# three more seeds
SEEDS = [(20260808, 1000), (12345, 1000), (1, 300), (7, 300), (99, 300)]


def numpy_quadrilateral_corners(rng):
    """A square of side 200-2000 m with every corner moved by up to 20 %."""
    length = rng.uniform(200.0, 2000.0)
    corners = np.array([[0.0, 0.0], [length, 0.0], [length, length], [0.0, length]])
    corners += rng.uniform(-0.2 * length, 0.2 * length, (4, 2))
    return corners, length


def numpy_sample_scenario(rng):
    """sample_scenario in numpy arrays and scalar draws."""
    for _ in range(verify.SAMPLE_DRAWS):
        corners, length = numpy_quadrilateral_corners(rng)
        buoys = np.column_stack([corners, rng.uniform(-2.0, 2.0, 4)])
        truth = np.array([rng.uniform(0.2, 0.8) * length,
                          rng.uniform(0.2, 0.8) * length,
                          -rng.uniform(5.0, 1000.0)])
        diffs = verify.oracle_diffs(buoys, truth)
        if min(map(abs, diffs.d)) < 0.5:
            continue
        try:
            pair = multilateration.kleusberg_solve(diffs)
        except PositioningError:
            continue
        exact_under = [
            p for _, s, p, _ in pair.branches
            if s >= 0.0 and p[2] < multilateration.SURFACE_UP
            and np.linalg.norm(multilateration.residuals(p, diffs)) < 1e-6
        ]
        if len(exact_under) != 1:
            continue
        return buoys, truth, diffs
    raise RuntimeError(f"no usable scenario in {verify.SAMPLE_DRAWS} draws")


def numpy_mirror_case(rng):
    """check_mirror_symmetry's draw in numpy: the square with every up 0."""
    corners, length = numpy_quadrilateral_corners(rng)
    buoys = np.column_stack([corners, np.zeros(4)])
    truth = np.array([rng.uniform(0.2, 0.8) * length,
                      rng.uniform(0.2, 0.8) * length, -rng.uniform(5.0, 1000.0)])
    return buoys, truth


def bits(buoys, truth, diffs=None):
    """The case's bytes: 12 buoy and 3 receiver coordinates, and the
    DiffSet's d, e, b, reference and anchors."""
    values = [*np.ravel(buoys).tolist(), *np.ravel(truth).tolist()]
    if diffs is not None:
        values += [*diffs.d, *(c for row in diffs.e for c in row), *diffs.b,
                   *diffs.reference, *diffs.anchors]
    return struct.pack(f"{len(values)}d", *values)


def is_float_tuple(points):
    return type(points) is tuple and all(type(v) is float for v in points)


@pytest.mark.parametrize("seed,cases", SEEDS)
def test_sampler_matches_numpy_reference_bit_for_bit(seed, cases):
    """The same buoys, receiver and DiffSet to the last bit, as float
    tuples, and the same generator state after every case."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for case in range(cases):
        buoys, truth, diffs, _ = verify.sample_scenario(rng)
        want = bits(*numpy_sample_scenario(ref))
        assert bits(buoys, truth, diffs) == want, f"case {case}"
        assert rng.bit_generator.state == ref.bit_generator.state, f"case {case}"
        assert type(buoys) is tuple and len(buoys) == 4
        assert all(is_float_tuple(b) and len(b) == 3 for b in buoys)
        assert is_float_tuple(truth) and len(truth) == 3


@pytest.mark.parametrize("seed,cases", SEEDS)
def test_mirror_draw_matches_numpy_reference_bit_for_bit(seed, cases):
    """check_mirror_symmetry's coplanar draw: the same bits, every up +0.0,
    and the same generator state after every case."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for case in range(cases):
        buoys, truth = verify._square_case(rng, ups=False)
        assert bits(buoys, truth) == bits(*numpy_mirror_case(ref)), f"case {case}"
        assert rng.bit_generator.state == ref.bit_generator.state, f"case {case}"
        assert all(is_float_tuple(b) and b[2] == 0.0 for b in buoys)
        assert is_float_tuple(truth)


def pair_bits(pair):
    """The pair's bytes: each branch's direction, range, position and
    baseline index, then the discriminant."""
    values = [v for e, s, p, _ in pair.branches for v in (*e, s, *p)]
    return (struct.pack(f"{len(values) + 1}d", *values, pair.discriminant)
            + bytes(branch.denominator_index for branch in pair.branches))


@pytest.mark.parametrize("seed,cases", SEEDS)
def test_sampler_returns_the_pair_a_fresh_solve_gives(seed, cases):
    """The pair the sampler hands on is, to the last bit, the closed form
    of its DiffSet at the default tolerance."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        _, _, diffs, pair = verify.sample_scenario(rng)
        fresh = multilateration.kleusberg_solve(diffs)
        assert pair_bits(pair) == pair_bits(fresh), f"case {case}"


def test_reconstruction_check_solves_each_case_once(monkeypatch):
    """check_reconstruction_exactness makes no closed-form solve of its
    own: every kleusberg_solve call is one the sampler makes, as many as
    the sampler makes for the same draws."""
    solve, calls = multilateration.kleusberg_solve, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(multilateration, "kleusberg_solve", counting)
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    for _ in range(1000):
        verify.sample_scenario(rng)
    sampled, calls[0] = calls[0], 0
    ok, _ = verify.check_reconstruction_exactness(verify.DEFAULT_SEED)
    assert ok and calls[0] == sampled
    assert sampled >= 1000


def count_draws(monkeypatch):
    """A one-item list that counts verify's sample_scenario calls."""
    draw, calls = verify.sample_scenario, [0]

    def counting(rng):
        calls[0] += 1
        return draw(rng)

    monkeypatch.setattr(verify, "sample_scenario", counting)
    return calls


# the checks that read nothing but sample_scenario's cases, and how many
SHARING_CHECKS = [(verify.check_clock_offset_invariance, 50), (verify.check_unit_norm, 200),
                  (verify.check_reconstruction_exactness, 1000),
                  (verify.check_residual_consistency, 200), (verify.check_range_consistency, 200)]


def test_one_run_draws_each_shared_case_once(monkeypatch):
    """run_all makes 1250 sample_scenario calls where separate streams made
    1900: 1000 for the five sharing checks, 200 for numerical_agreement and
    50 for rigid_motion_equivariance. Every run draws them again, and a
    check called alone, after a run too, draws all of its own."""
    calls = count_draws(monkeypatch)
    for _ in range(2):
        calls[0] = 0
        verify.run_all(verify.DEFAULT_SEED)
        assert calls[0] == 1250
    for check, cases in SHARING_CHECKS:
        calls[0] = 0
        ok, _ = check(verify.DEFAULT_SEED)
        assert ok and calls[0] == cases, check.__name__


def case_bits(case):
    buoys, truth, diffs, pair = case
    return bits(buoys, truth, diffs) + pair_bits(pair)


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 82])
def test_shared_cases_are_the_stream_bit_for_bit(seed, monkeypatch):
    """Inside run_all, readers of 199, 201, 200 and then 1000 cases each
    get the first cases of a fresh sample_scenario stream, case and pair,
    to the last bit: short of the 200 held cases, at them, and past them
    for two readers in turn."""
    ref = np.random.default_rng(seed)
    want = [case_bits(verify.sample_scenario(ref)) for _ in range(1000)]
    got = {}

    def reader(n):
        def check(s):
            got[n] = [case_bits(case) for case in verify._sampled(s, n)]
            return True, ""
        return f"reads {n}", check

    monkeypatch.setattr(verify, "_CHECKS", [reader(n) for n in (199, 201, 200, 1000)])
    assert all(result.ok for result in verify.run_all(seed))
    assert sorted(got) == [199, 200, 201, 1000]
    for n, cases in got.items():
        assert cases == want[:n], f"{n} cases"

