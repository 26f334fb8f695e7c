"""Coordinate-frame conversions against WGS-84 constants and inverses."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwps.errors import ZeroVector
from uwps.geo import (
    WGS84_A,
    WGS84_B,
    WGS84_E2,
    WGS84_F,
    GeodeticCoord,
    LocalFrame,
    ecef_to_geodetic,
    enu_to_geodetic,
    from_enu,
    geodetic_to_ecef,
    geodetic_to_enu,
    to_enu,
)
from uwps.verify import MALAGA, geodetic_round_trip


def test_equator_prime_meridian_is_semi_major_axis():
    v = geodetic_to_ecef(GeodeticCoord(0.0, 0.0, 0.0))
    assert v == pytest.approx([WGS84_A, 0.0, 0.0], abs=1e-6)


def test_north_pole_is_semi_minor_axis():
    # forced by the ellipsoid constants: b = a * (1 - f)
    b = WGS84_A * (1.0 - WGS84_F)
    assert b == pytest.approx(WGS84_B)
    v = geodetic_to_ecef(GeodeticCoord(90.0, 0.0, 0.0))
    assert v == pytest.approx([0.0, 0.0, b], abs=1e-6)


def test_equator_east_axis_with_height():
    v = geodetic_to_ecef(GeodeticCoord(0.0, 90.0, 100.0))
    assert v == pytest.approx([0.0, WGS84_A + 100.0, 0.0], abs=1e-6)


def test_ecef_to_geodetic_inverts_equator_case():
    g = ecef_to_geodetic((WGS84_A, 0.0, 0.0))
    assert g.latitude == pytest.approx(0.0, abs=1e-12)
    assert g.longitude == pytest.approx(0.0, abs=1e-12)
    assert g.height == pytest.approx(0.0, abs=1e-7)


def test_ecef_to_geodetic_pole_case():
    g = ecef_to_geodetic((0.0, 0.0, WGS84_A * (1.0 - WGS84_F)))
    assert g.latitude == pytest.approx(90.0, abs=1e-9)
    assert g.height == pytest.approx(0.0, abs=1e-7)


def test_ecef_to_geodetic_writes_the_antimeridian_as_180():
    # atan2(-0.0, -a) is -180 degrees, outside the longitude range (-180, 180]
    for y in (-0.0, 0.0):
        g = ecef_to_geodetic((-WGS84_A, y, 0.0))
        assert (g.latitude, g.longitude) == (0.0, 180.0)
        assert g.height == pytest.approx(0.0, abs=1e-7)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        ecef_to_geodetic((0.0, 0.0, 0.0))


def test_ecef_to_geodetic_refuses_a_geodetic_coord():
    """A GeodeticCoord is a tuple of three floats, yet no ECEF point: the
    error names it, where the arithmetic would raise an unrelated one."""
    with pytest.raises(TypeError, match=r"not a GeodeticCoord$"):
        ecef_to_geodetic(MALAGA)
    assert tuple(ecef_to_geodetic(geodetic_to_ecef(MALAGA))) == pytest.approx(MALAGA, abs=1e-6)


@settings(max_examples=300, deadline=None)
@given(
    lat=st.floats(-90.0, 90.0),
    lon=st.floats(-179.9999999, 180.0),
    h=st.floats(-11000.0, 9000.0),
)
def test_geodetic_ecef_round_trip(lat, lon, h):
    holds, err = geodetic_round_trip(GeodeticCoord(lat, lon, h))
    assert holds, err


def test_round_trip_on_coordinate_grid():
    for lat in (-89.0, -60.0, -36.7, 0.0, 23.5, 45.0, 66.6, 89.9):
        for lon in (-179.0, -90.0, -4.42, 0.0, 13.0, 91.0, 180.0):
            for h in (-11000.0, -500.0, 0.0, 150.0, 9000.0):
                holds, err = geodetic_round_trip(GeodeticCoord(lat, lon, h))
                assert holds, (lat, lon, h, err)


def four_pass_ecef_to_geodetic(x, y, z):
    """ecef_to_geodetic off the polar axis with all four fixed-point passes,
    the reference for its early stop: (latitude, longitude, height) and
    whether the last two passes disagree (an alternating iterate)."""
    p = math.hypot(x, y)
    lon = math.degrees(math.atan2(y, x))
    lon = 180.0 if lon == -180.0 else lon
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    beta = math.atan2(WGS84_A * z, WGS84_B * p)
    lat = math.atan2(z + ep2 * WGS84_B * math.sin(beta) ** 3,
                     p - WGS84_E2 * WGS84_A * math.cos(beta) ** 3)
    iterates = [lat]
    for _ in range(4):
        beta = math.atan2((1.0 - WGS84_F) * math.sin(lat), math.cos(lat))
        lat = math.atan2(z + ep2 * WGS84_B * math.sin(beta) ** 3,
                         p - WGS84_E2 * WGS84_A * math.cos(beta) ** 3)
        iterates.append(lat)
    sl = math.sin(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sl * sl)
    if abs(lat) < math.radians(89.0):
        h = p / math.cos(lat) - n
    else:
        h = z / sl - n * (1.0 - WGS84_E2)
    return (math.degrees(lat), lon, h), iterates[-1] != iterates[-2]


def test_ecef_to_geodetic_stops_at_its_fixed_point_bit_for_bit():
    """check_geodetic_round_trip's distribution, points on the equatorial
    plane at z = +0.0 and -0.0, and the points among them whose iterate
    alternates: the early stop returns the four passes' result to the bit."""
    rng = np.random.default_rng(8)
    points = [geodetic_to_ecef(GeodeticCoord(lat, lon, h)) for lat, lon, h in zip(
        rng.uniform(-90.0, 90.0, 20000), rng.uniform(-179.999, 180.0, 20000),
        rng.uniform(-11000.0, 9000.0, 20000))]
    equator = [geodetic_to_ecef(GeodeticCoord(0.0, lon, h)) for lon, h in zip(
        rng.uniform(-179.999, 180.0, 100), rng.uniform(-11000.0, 9000.0, 100))]
    points += [(x, y, z) for x, y, _ in equator for z in (0.0, -0.0)]
    alternating = 0
    for x, y, z in points:
        if math.hypot(x, y) < 1e-9:
            continue
        want, alternates = four_pass_ecef_to_geodetic(x, y, z)
        g = ecef_to_geodetic((x, y, z))
        assert struct.pack("3d", g.latitude, g.longitude, g.height) == struct.pack("3d", *want)
        alternating += alternates
    assert alternating >= 5


def test_ecef_to_geodetic_names_points_too_near_the_centre():
    """Near the earth's centre the latitude can turn past a pole. Such a point
    raises a ValueError that says so, and any other point returns the four
    passes' result to the bit."""
    for point in ((1000.0, 1000.0, 0.0), (30000.0, 0.0, 1.0), (30000.0, 0.0, -5000.0)):
        with pytest.raises(ValueError, match="too near the earth's centre: its latitude"):
            ecef_to_geodetic(point)
    raised = 0
    for p in np.linspace(100.0, 50000.0, 60):
        for z in np.linspace(-50000.0, 50000.0, 61):
            (lat, lon, h), _ = four_pass_ecef_to_geodetic(float(p), 0.0, float(z))
            if abs(lat) > 90.0:
                with pytest.raises(ValueError, match="turned past a pole"):
                    ecef_to_geodetic((float(p), 0.0, float(z)))
                raised += 1
            else:
                g = ecef_to_geodetic((float(p), 0.0, float(z)))
                assert (struct.pack("3d", g.latitude, g.longitude, g.height)
                        == struct.pack("3d", lat, lon, h))
    assert 0 < raised < 60 * 61


def test_enu_origin_maps_to_zero():
    frame = LocalFrame(MALAGA)
    v = to_enu(geodetic_to_ecef(MALAGA), frame)
    assert v == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)


def test_enu_round_trip():
    """Both conversions match the rotation matrix applied in numpy, where
    only the rounding differs, and invert each other, to 1e-9 m at 5 km.
    The geodetic shortcuts are the ECEF conversions composed, bit for bit."""
    frame = LocalFrame(MALAGA)
    rotation, origin = np.array(frame.rotation), np.array(frame.origin_ecef)
    rng = np.random.default_rng(3)
    for _ in range(50):
        offset = rng.uniform(-5000, 5000, 3)
        p = tuple((origin + offset).tolist())
        enu = np.array(to_enu(p, frame))
        assert np.max(np.abs(enu - rotation @ offset)) < 1e-9
        e = tuple(enu.tolist())
        q = from_enu(e, frame)
        assert np.max(np.abs(np.array(q) - (origin + rotation.T @ enu))) < 1e-9
        assert math.dist(q, p) < 1e-9
        g = ecef_to_geodetic(p)
        assert geodetic_to_enu(g, frame) == to_enu(geodetic_to_ecef(g), frame)
        assert enu_to_geodetic(e, frame) == ecef_to_geodetic(from_enu(e, frame))


def test_frame_basis_orthonormal():
    frame = LocalFrame(MALAGA)
    rotation = np.array(frame.rotation)
    eye = rotation @ rotation.T
    assert np.max(np.abs(eye - np.eye(3))) < 1e-12


def test_ecef_to_geodetic_rejects_what_is_no_position():
    """The ECEF boundary: a non-finite entry ends in the GeodeticCoord
    result's ValueError, the origin in ZeroVector, a 2-tuple in the
    unpacking's ValueError."""
    a = WGS84_A
    for bad in (math.nan, math.inf, -math.inf):
        for p in ((bad, 0.0, 0.0), (a, bad, 0.0), (a, 0.0, bad), (0.0, 0.0, bad)):
            with pytest.raises(ValueError):
                ecef_to_geodetic(p)
    with pytest.raises(ZeroVector):
        ecef_to_geodetic((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ecef_to_geodetic((a, 0.0))


def test_geodetic_validation():
    with pytest.raises(ValueError):
        GeodeticCoord(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticCoord(0.0, -180.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticCoord(0.0, 0.0, float("nan"))
