"""WGS-84 coordinate frames: geodetic, ECEF, and local ENU.

All positioning math downstream runs in a local east-north-up frame whose
origin is the reference buoy's first reported position; this module supplies
the conversions that get GNSS geodetic fixes into and out of that frame.
Vectors and the frame's rotation are Python floats and the conversions are
written out, so they round the same wherever they run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroVector

# WGS-84 ellipsoid
WGS84_A = 6378137.0                    # semi-major axis [m]
WGS84_F = 1.0 / 298.257223563          # flattening
WGS84_B = WGS84_A * (1.0 - WGS84_F)    # semi-minor axis [m]
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)   # first eccentricity squared

ECEF = "ECEF"
ENU = "ENU"
_FRAMES = (ECEF, ENU)


@dataclass(frozen=True)
class GeodeticCoord:
    """Latitude/longitude in degrees, height in meters above the ellipsoid."""

    latitude: float
    longitude: float
    height: float

    def __post_init__(self):
        if not (-90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not (-180.0 < self.longitude <= 180.0):
            raise ValueError(f"longitude {self.longitude} outside (-180, 180]")
        if not math.isfinite(self.height):
            raise ValueError("height must be finite")


@dataclass(frozen=True)
class CartesianVector:
    """A 3-vector in meters, tagged with the frame it lives in."""

    x: float
    y: float
    z: float
    frame: str

    def __post_init__(self):
        if self.frame not in _FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("vector components must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return self.x, self.y, self.z


def distance(a: CartesianVector, b: CartesianVector) -> float:
    """Euclidean distance between two vectors of the same frame."""
    if a.frame != b.frame:
        raise ValueError(f"frame mismatch: {a.frame} vs {b.frame}")
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


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
        self.origin_ecef = geodetic_to_ecef(origin).as_tuple()

    def __repr__(self):
        o = self.origin
        return f"LocalFrame(lat={o.latitude}, lon={o.longitude}, h={o.height})"


def geodetic_to_ecef(g: GeodeticCoord) -> CartesianVector:
    """Geodetic coordinates to earth-centered earth-fixed meters."""
    lat = math.radians(g.latitude)
    lon = math.radians(g.longitude)
    sl, cl = math.sin(lat), math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sl * sl)
    x = (n + g.height) * cl * math.cos(lon)
    y = (n + g.height) * cl * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + g.height) * sl
    return CartesianVector(x, y, z, ECEF)


def ecef_to_geodetic(v: CartesianVector) -> GeodeticCoord:
    """Inverse of geodetic_to_ecef (Bowring start, then fixed-point).

    Round-trip error is far below the 1e-6 m contract for heights within
    [-11000, +9000] m.
    """
    if v.frame != ECEF:
        raise ValueError(f"expected ECEF vector, got {v.frame}")
    x, y, z = v.x, v.y, v.z
    p = math.hypot(x, y)
    if p == 0.0 and z == 0.0:
        raise ZeroVector("zero-length ECEF vector")
    lon = math.degrees(math.atan2(y, x))

    if p < 1e-9:
        # on the polar axis the longitude is arbitrary
        lat = math.copysign(90.0, z)
        return GeodeticCoord(lat, lon, abs(z) - WGS84_B)

    # Bowring's parametric-latitude start
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    beta = math.atan2(WGS84_A * z, WGS84_B * p)
    lat = math.atan2(z + ep2 * WGS84_B * math.sin(beta) ** 3,
                     p - WGS84_E2 * WGS84_A * math.cos(beta) ** 3)
    for _ in range(4):
        beta = math.atan2((1.0 - WGS84_F) * math.sin(lat), math.cos(lat))
        lat = math.atan2(z + ep2 * WGS84_B * math.sin(beta) ** 3,
                         p - WGS84_E2 * WGS84_A * math.cos(beta) ** 3)
    sl = math.sin(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sl * sl)
    if abs(lat) < math.radians(89.0):
        h = p / math.cos(lat) - n
    else:
        h = z / sl - n * (1.0 - WGS84_E2)
    return GeodeticCoord(math.degrees(lat), lon, h)


def to_enu(v: CartesianVector, frame: LocalFrame) -> CartesianVector:
    """ECEF vector to local east-north-up coordinates."""
    if v.frame != ECEF:
        raise ValueError(f"expected ECEF vector, got {v.frame}")
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = frame.rotation
    ox, oy, oz = frame.origin_ecef
    dx, dy, dz = v.x - ox, v.y - oy, v.z - oz
    return CartesianVector(ex * dx + ey * dy + ez * dz, nx * dx + ny * dy + nz * dz,
                           ux * dx + uy * dy + uz * dz, ENU)


def from_enu(v: CartesianVector, frame: LocalFrame) -> CartesianVector:
    """Local east-north-up coordinates back to ECEF."""
    if v.frame != ENU:
        raise ValueError(f"expected ENU vector, got {v.frame}")
    (ex, ey, ez), (nx, ny, nz), (ux, uy, uz) = frame.rotation
    ox, oy, oz = frame.origin_ecef
    e, n, u = v.x, v.y, v.z
    return CartesianVector(ox + (ex * e + nx * n + ux * u), oy + (ey * e + ny * n + uy * u),
                           oz + (ez * e + nz * n + uz * u), ECEF)


def geodetic_to_enu(g: GeodeticCoord, frame: LocalFrame) -> CartesianVector:
    """Convenience composition used throughout the receiver pipeline."""
    return to_enu(geodetic_to_ecef(g), frame)


def enu_to_geodetic(v: CartesianVector, frame: LocalFrame) -> GeodeticCoord:
    return ecef_to_geodetic(from_enu(v, frame))
