"""WGS-84 coordinate frames: geodetic, ECEF, and local ENU.

All positioning math downstream runs in a local east-north-up frame whose
origin is the reference buoy's first reported position; this module supplies
the conversions that get GNSS geodetic fixes into and out of that frame.
Every position, ECEF or ENU, is a plain tuple of three floats, checked
where it enters the program; only GeodeticCoord checks itself. Like every
record it is an immutable NamedTuple, so a tuple of three floats too, yet
never an ENU position. Each conversion is written out once in floats, so
it rounds the same wherever it runs.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ZeroVector

# WGS-84 ellipsoid
WGS84_A = 6378137.0                    # semi-major axis [m]
WGS84_F = 1.0 / 298.257223563          # flattening
WGS84_B = WGS84_A * (1.0 - WGS84_F)    # semi-minor axis [m]
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)   # first eccentricity squared

# ecef_to_geodetic's constants, each the product its formula would form
# first, so its results are bit for bit those of the written-out formula
_EP2_B = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B) * WGS84_B
_E2_A = WGS84_E2 * WGS84_A
_B_RATIO = 1.0 - WGS84_F               # b / a
_NEAR_POLE = math.radians(89.0)        # beyond it, the height comes from z


class _Checked:
    """Base of a checked record: its _replace calls __new__ (namedtuple's skips it)."""

    __slots__ = ()

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self.__getnewargs__()), **changes))


class _GeodeticCoord(NamedTuple):
    latitude: float
    longitude: float
    height: float


class GeodeticCoord(_Checked, _GeodeticCoord):
    """Latitude/longitude in degrees, height in meters above the ellipsoid."""

    __slots__ = ()

    def __new__(cls, latitude, longitude, height):
        if not (-90.0 <= latitude <= 90.0):
            raise ValueError(f"latitude {latitude} outside [-90, 90]")
        if not (-180.0 < longitude <= 180.0):
            raise ValueError(f"longitude {longitude} outside (-180, 180]")
        if not math.isfinite(height):
            raise ValueError("height must be finite")
        return tuple.__new__(cls, (latitude, longitude, height))


class LocalFrame:
    """East-north-up tangent frame anchored at a geodetic origin.

    The rotation rows are the east, north and up unit vectors expressed in
    ECEF; they are orthonormal by construction. rotation and origin_ecef
    are tuples of floats.
    """

    def __init__(self, origin: GeodeticCoord):
        self.origin = origin
        lat = math.radians(origin.latitude)
        lon = math.radians(origin.longitude)
        sl, cl = math.sin(lat), math.cos(lat)
        sp, cp = math.sin(lon), math.cos(lon)
        self.rotation = (
            (-sp, cp, 0.0),
            (-sl * cp, -sl * sp, cl),
            (cl * cp, cl * sp, sl),
        )
        self.origin_ecef = geodetic_to_ecef(origin)

    def __repr__(self):
        o = self.origin
        return f"LocalFrame(lat={o.latitude}, lon={o.longitude}, h={o.height})"


def geodetic_to_ecef(g: GeodeticCoord) -> tuple[float, float, float]:
    """Geodetic coordinates to an earth-centered earth-fixed (x, y, z) float
    tuple in meters; g checked itself when it was built."""
    lat = math.radians(g.latitude)
    lon = math.radians(g.longitude)
    sl, cl = math.sin(lat), math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sl * sl)
    x = (n + g.height) * cl * math.cos(lon)
    y = (n + g.height) * cl * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + g.height) * sl
    return x, y, z


def ecef_to_geodetic(ecef) -> GeodeticCoord:
    """Inverse of geodetic_to_ecef (Bowring start, then fixed-point).

    ecef is an (x, y, z) sequence in meters. A GeodeticCoord raises
    TypeError, a wrong length or a non-finite entry ValueError (the
    GeodeticCoord result checks itself), and the origin ZeroVector. A
    point within 43 km of the earth's centre, near the ellipsoid's evolute,
    where p - e^2 a cos^3(beta) < 0 turns the latitude past a pole, raises
    ValueError too. Round-trip error is far below the 1e-6 m contract for
    heights within [-11000, +9000] m. A point on the antimeridian comes
    back at longitude 180, never -180.

    The fixed-point iteration stops at its fixed point: as soon as a pass
    returns the latitude it started from, after at most 4 passes. A
    latitude that alternates between two floats takes all 4. The result is
    that of 4 passes bit for bit, because each pass is the same function of
    the latitude, and the sign of z fixes the sign of a zero latitude.
    """
    if isinstance(ecef, GeodeticCoord):
        raise TypeError("ecef_to_geodetic takes an (x, y, z) ECEF point, not a GeodeticCoord")
    x, y, z = ecef
    p = math.hypot(x, y)
    if p == 0.0 and z == 0.0:
        raise ZeroVector("zero-length ECEF vector")
    lon = math.degrees(math.atan2(y, x))
    if lon == -180.0:
        # atan2 gives -180 on the negative x axis when y is -0.0; the
        # longitude range is (-180, 180]
        lon = 180.0

    if p < 1e-9:
        # on the polar axis the longitude is arbitrary
        lat = math.copysign(90.0, z)
        return GeodeticCoord(lat, lon, abs(z) - WGS84_B)

    # Bowring's parametric-latitude start
    beta = math.atan2(WGS84_A * z, WGS84_B * p)
    lat = math.atan2(z + _EP2_B * math.sin(beta) ** 3, p - _E2_A * math.cos(beta) ** 3)
    for _ in range(4):
        beta = math.atan2(_B_RATIO * math.sin(lat), math.cos(lat))
        lat, previous = math.atan2(z + _EP2_B * math.sin(beta) ** 3,
                                   p - _E2_A * math.cos(beta) ** 3), lat
        if lat == previous:
            break
    sl = math.sin(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sl * sl)
    if abs(lat) < _NEAR_POLE:
        h = p / math.cos(lat) - n
    else:
        h = z / sl - n * (1.0 - WGS84_E2)
    lat = math.degrees(lat)
    if abs(lat) > 90.0:
        raise ValueError(f"ECEF point {p:.6g} m from the polar axis is too near the "
                         f"earth's centre: its latitude turned past a pole to {lat:.6g} deg")
    return GeodeticCoord(lat, lon, h)


def to_enu(ecef, frame: LocalFrame) -> tuple[float, float, float]:
    """An ECEF (x, y, z) point, not a GeodeticCoord, to an (east, north, up)
    float tuple in frame. Not checked: the program builds each point itself."""
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = frame.rotation
    ox, oy, oz = frame.origin_ecef
    x, y, z = ecef
    dx, dy, dz = x - ox, y - oy, z - oz
    return (ex * dx + ey * dy + ez * dz, nx * dx + ny * dy + nz * dz,
            ux * dx + uy * dy + uz * dz)


def from_enu(enu, frame: LocalFrame) -> tuple[float, float, float]:
    """An (east, north, up) position in frame, not a GeodeticCoord, back to
    an ECEF (x, y, z) float tuple. Not checked, as in to_enu."""
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = frame.rotation
    ox, oy, oz = frame.origin_ecef
    e, n, u = enu
    return (ox + (ex * e + nx * n + ux * u), oy + (ey * e + ny * n + uy * u),
            oz + (ez * e + nz * n + uz * u))


def geodetic_to_enu(g: GeodeticCoord, frame: LocalFrame) -> tuple[float, float, float]:
    """Geodetic coordinates to an (east, north, up) float tuple in frame:
    the conversion every report takes into the receiver pipeline."""
    return to_enu(geodetic_to_ecef(g), frame)


def enu_to_geodetic(enu: tuple[float, float, float], frame: LocalFrame) -> GeodeticCoord:
    """An (east, north, up) position in frame to geodetic coordinates. The
    position is not checked: the values that reach it were checked where
    they entered the program."""
    return ecef_to_geodetic(from_enu(enu, frame))
