"""Buoy broadcast wire format and the TDMA transmission schedule.

Wire format is a single NMEA-style ASCII sentence:

    $UWPS,<id>,<gnss_time>,<lat>,<lon>,<height>*<HH>\r\n

with gnss_time as seconds-of-day to 1 ms, lat/lon to 1e-7 deg (about 1 cm)
and height to 1 cm. <HH> is the two-digit uppercase hex XOR of every byte
between '$' and '*' exclusive.

BuoyMessage states once what a sentence can carry, so encode_message
cannot fail: the widest sentence is 57 bytes of the 80-byte message budget.
_payload states once how each field is spelled: encode_message writes that
spelling, and a sentence decodes only if it is spelled exactly so.
transmit_times rounds the schedule's instants to the wire's 1 ms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BudgetExceeded, ChecksumMismatch, FieldRange, MalformedSentence
from .geo import GeodeticCoord, _Checked

TALKER = "UWPS"
MAX_MESSAGE_BYTES = 80

_HEIGHT_RANGE = (-99999.99, 999999.99)   # the heights that fit the 9-character field


def _q(value: float, decimals: int) -> float:
    """Snap a number to the wire's decimal resolution, as a float.

    Equal bit for bit to float(f"{value:.{decimals}f}"), the text the wire
    carries: float.__round__ takes the same correctly rounded decimal digits
    (ties to even on the exact binary value) and parses them back, -0.0
    included, at 0.6 of the f-string's cost. float() comes first because
    round() keeps an int an int and an np.float64 an np.float64.
    """
    return round(float(value), decimals)


class _BuoyMessage(NamedTuple):
    buoy_id: int
    gnss_time: float
    position: GeodeticCoord


class BuoyMessage(_Checked, _BuoyMessage):
    """One buoy broadcast: who, when (GNSS seconds-of-day), and where.

    Fields are rounded to wire resolution (1 ms / 1e-7 deg / 1 cm), each
    once, and the stored values checked: buoy_id an int in 1..4, gnss_time
    in [0, 86400) and the height within the field's [-99999.99, 999999.99]
    m. So decode(encode(m)) == m holds for every constructible message. A
    longitude that rounds to -180 is stored as 180, the same meridian
    inside the (-180, 180] range. A position of floats already on the wire
    grid is kept as it is; any other is replaced by its quantization,
    which is a valid GeodeticCoord because the given one was.
    """

    __slots__ = ()

    def __new__(cls, buoy_id, gnss_time, position):
        return _quantized(buoy_id, _q(gnss_time, 3), position)


def _check(buoy_id, gnss_time, height) -> None:
    """BuoyMessage's checks of values on the wire grid, in their order."""
    if type(buoy_id) is not int or not 1 <= buoy_id <= 4:
        raise ValueError(f"buoy_id {buoy_id} outside 1..4")
    if not (0.0 <= gnss_time < 86400.0):
        raise ValueError(f"gnss_time {gnss_time} outside [0, 86400)")
    if not (_HEIGHT_RANGE[0] <= height <= _HEIGHT_RANGE[1]):
        raise ValueError(f"height {height} outside [{_HEIGHT_RANGE[0]}, {_HEIGHT_RANGE[1]}]")


def _quantized(buoy_id, gnss_time, position: GeodeticCoord) -> BuoyMessage:
    """BuoyMessage(buoy_id, gnss_time, position) for a time on the 1 ms grid."""
    p = position
    # _q written out: the three roundings of every report
    latitude = round(float(p.latitude), 7)
    longitude = round(float(p.longitude), 7)
    height = round(float(p.height), 2)
    _check(buoy_id, gnss_time, height)
    # rounding keeps a float's value only where it is on the grid; the given
    # longitude is never -180, so one that rounds there is replaced: the
    # quantization of a checked GeodeticCoord is valid, so it is built unchecked
    if not (latitude == p.latitude and longitude == p.longitude and height == p.height
            and type(p.latitude) is type(p.longitude) is type(p.height) is float):
        if longitude == -180.0:
            longitude = 180.0
        position = tuple.__new__(GeodeticCoord, (latitude, longitude, height))
    return tuple.__new__(BuoyMessage, (buoy_id, gnss_time, position))


_FOLD = (1 << 512) - 1


def checksum(payload: bytes) -> int:
    """XOR of all payload bytes (NMEA 0183 style).

    Computed on the payload read as one integer, not byte by byte: each
    step XORs a byte-aligned upper part onto the lower, which keeps the XOR
    of all bytes. 64-byte chunks fold down to 512 bits, then six halvings
    bring the XOR into the lowest byte.
    """
    x = int.from_bytes(payload, "little")
    while x >> 512:
        x = (x >> 512) ^ (x & _FOLD)
    x ^= x >> 256
    x ^= x >> 128
    x ^= x >> 64
    x ^= x >> 32
    x ^= x >> 16
    x ^= x >> 8
    return x & 0xFF


_PAYLOAD = TALKER.encode("ascii") + b",%d,%.3f,%.7f,%.7f,%.2f"


def _payload(buoy_id: int, gnss_time: float, lat: float, lon: float, height: float) -> bytes:
    """The bytes between '$' and '*': each field's one canonical spelling.

    A bytes %-format renders a float with the same digits as the f-string
    spelling f"{gnss_time:.3f}" (both call PyOS_double_to_string), in one
    step and without encoding a str.
    """
    return _PAYLOAD % (buoy_id, gnss_time, lat, lon, height)


def encode_message(m: BuoyMessage) -> bytes:
    """Render a BuoyMessage as one checksummed ASCII sentence, each field
    spelled by _payload; total, as every stored message fits its fields."""
    payload = _payload(m.buoy_id, m.gnss_time, *m.position)
    return b"$%s*%02X\r\n" % (payload, checksum(payload))


def decode_message(raw: bytes) -> BuoyMessage:
    """Parse and checksum-validate a sentence; total over byte inputs.

    Every failure is a PositioningError: a non-numeric field before a value
    out of range at wire resolution, and that before a spelling other than
    encode_message's. A sentence decodes only if it is spelled exactly as
    encode_message renders its message, so it re-encodes to the same bytes.
    """
    if not isinstance(raw, (bytes, bytearray)):
        raise MalformedSentence("expected a byte sequence")
    if not raw.startswith(b"$") or not raw.endswith(b"\r\n"):
        raise MalformedSentence("missing sentence delimiters")
    body = raw[1:-2]
    star = body.rfind(b"*")
    if star < 0 or len(body) - star != 3:
        raise MalformedSentence("missing or misplaced checksum marker")
    payload, given = body[:star], body[star + 1:]
    actual = checksum(payload)
    if given != b"%02X" % actual:
        try:
            given_sum = int(given.decode("ascii"), 16)
        except (UnicodeDecodeError, ValueError):
            raise MalformedSentence(f"unreadable checksum {given!r}") from None
        if given_sum != actual:
            raise ChecksumMismatch(f"checksum {given_sum:02X} != computed {actual:02X}")
        raise MalformedSentence(f"checksum {given!r} is not written {actual:02X}")
    try:
        parts = payload.decode("ascii").split(",")
    except UnicodeDecodeError:
        raise MalformedSentence("payload is not ASCII") from None
    if len(parts) != 6:
        raise MalformedSentence(f"expected 6 fields, got {len(parts)}")
    if parts[0] != TALKER:
        raise MalformedSentence(f"unknown talker {parts[0]!r}")
    try:
        buoy_id = int(parts[1])
        gnss_time, lat, lon, height = map(float, parts[2:6])
    except ValueError:
        raise MalformedSentence(f"non-numeric field in {parts[1:]!r}") from None
    # a canonical payload's values are on the wire grid, so BuoyMessage's
    # checks pass them as they are; others are checked on the grid, where a
    # longitude that rounds to -180 is out of range, not written as 180
    canonical = _payload(buoy_id, gnss_time, lat, lon, height) == payload
    if not canonical:
        gnss_time, lat, lon, height = _q(gnss_time, 3), _q(lat, 7), _q(lon, 7), _q(height, 2)
    try:
        position = GeodeticCoord(lat, lon, height)
        _check(buoy_id, gnss_time, height)
    except ValueError as exc:
        raise FieldRange(str(exc)) from None
    if not canonical:
        raise MalformedSentence(f"non-canonical field in {parts[1:]!r}")
    return tuple.__new__(BuoyMessage, (buoy_id, gnss_time, position))


class _FrameSchedule(NamedTuple):
    message_duration: float            # t_m [s]
    guard_time: float                  # g [s]


class FrameSchedule(_Checked, _FrameSchedule):
    """Slot layout of one TDMA frame: four transmissions plus guards."""

    __slots__ = ()

    def __new__(cls, message_duration, guard_time):
        if message_duration <= 0.0:
            raise ValueError("message_duration must be > 0")
        if guard_time < 0.0:
            raise ValueError("guard_time must be >= 0")
        return tuple.__new__(cls, (message_duration, guard_time))

    @property
    def frame_period(self) -> float:
        """T_f = 4 (t_m + g) [s]."""
        return 4.0 * (self.message_duration + self.guard_time)

    @property
    def start_times(self) -> tuple[float, float, float, float]:
        """Each buoy's transmit instant within the frame [s]."""
        slot = self.message_duration + self.guard_time
        return (0.0, slot, 2.0 * slot, 3.0 * slot)


def compute_schedule(
    message_bytes: int,
    bit_rate: float,
    guard: float,
    max_message_duration: float = 1.0,
) -> FrameSchedule:
    """Build the four-slot schedule for a message size and modem rate.

    The reference budget (80 bytes at 640 bps with a 1 s guard) gives
    t_m = 1 s and an 8 s frame. A cap on the transmission time (1 s by
    default) turns an over-budget message into an error. bit_rate and
    guard must be finite, and the cap finite and > 0.
    """
    if message_bytes <= 0:
        raise ValueError("message_bytes must be > 0")
    if not (math.isfinite(bit_rate) and bit_rate > 0):
        raise ValueError(f"bit_rate {bit_rate} must be finite and > 0")
    if not (math.isfinite(guard) and guard >= 0):
        raise ValueError(f"guard {guard} must be finite and >= 0")
    if not (math.isfinite(max_message_duration) and max_message_duration > 0):
        raise ValueError(
            f"message duration cap {max_message_duration} must be finite and > 0")
    t_m = 8.0 * message_bytes / bit_rate
    if t_m > max_message_duration:
        raise BudgetExceeded(
            f"message duration {t_m:.3f} s exceeds the "
            f"{max_message_duration:.3f} s cap")
    return FrameSchedule(message_duration=t_m, guard_time=guard)


def transmit_times(s: FrameSchedule, frame_index: int) -> tuple[float, float, float, float]:
    """Absolute transmit instants of the four buoys in a given frame, at the
    wire's 1 ms resolution: each is the gnss_time its message carries.
    Written out in floats, with the arithmetic of frame_period and
    start_times."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    slot = float(s.message_duration + s.guard_time)
    base = float(frame_index) * (4.0 * slot)
    return (round(base, 3), round(base + slot, 3), round(base + 2.0 * slot, 3),
            round(base + 3.0 * slot, 3))
