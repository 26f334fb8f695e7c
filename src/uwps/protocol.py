"""Buoy broadcast wire format and the TDMA transmission schedule.

Wire format is a single NMEA-style ASCII sentence:

    $UWPS,<id>,<gnss_time>,<lat>,<lon>,<height>*<HH>\r\n

with gnss_time as seconds-of-day to 1 ms, lat/lon to 1e-7 deg (about 1 cm)
and height to 1 cm. <HH> is the two-digit uppercase hex XOR of every byte
between '$' and '*' exclusive. Worst-case sentence length stays under the
80-byte message budget with margin.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    ChecksumMismatch,
    FieldOverflow,
    FieldRange,
    MalformedSentence,
)
from .geo import GeodeticCoord

TALKER = "UWPS"
MAX_MESSAGE_BYTES = 80

# fixed field widths (characters) for overflow checks
_W_ID = 1
_W_TIME = 9      # "86399.999"
_W_LAT = 11      # "-90.0000000"
_W_LON = 12      # "-179.9999999"
_W_HEIGHT = 9    # e.g. "-11000.00"
_HEIGHT_RANGE = (-99999.99, 999999.99)   # the heights that fit _W_HEIGHT


def _q(value: float, decimals: int) -> float:
    """Snap a float to the wire's decimal resolution."""
    return float(f"{value:.{decimals}f}")


@dataclass(frozen=True)
class BuoyMessage:
    """One buoy broadcast: who, when (GNSS seconds-of-day), and where.

    Fields are stored at wire resolution (1 ms / 1e-7 deg / 1 cm), so
    decode(encode(m)) == m holds for every constructible message.
    """

    buoy_id: int
    gnss_time: float
    position: GeodeticCoord

    def __post_init__(self):
        if self.buoy_id not in (1, 2, 3, 4):
            raise ValueError(f"buoy_id {self.buoy_id} outside 1..4")
        if not (0.0 <= self.gnss_time < 86400.0):
            raise ValueError(f"gnss_time {self.gnss_time} outside [0, 86400)")
        object.__setattr__(self, "gnss_time", _q(self.gnss_time, 3))
        p = self.position
        object.__setattr__(
            self, "position",
            GeodeticCoord(_q(p.latitude, 7), _q(p.longitude, 7), _q(p.height, 2)),
        )


def checksum(payload: bytes) -> int:
    """XOR of all payload bytes (NMEA 0183 style)."""
    total = 0
    for b in payload:
        total ^= b
    return total


def encode_message(m: BuoyMessage) -> bytes:
    """Render a BuoyMessage as one checksummed ASCII sentence."""
    fields = (
        (str(m.buoy_id), _W_ID, "buoy_id"),
        (f"{m.gnss_time:.3f}", _W_TIME, "gnss_time"),
        (f"{m.position.latitude:.7f}", _W_LAT, "latitude"),
        (f"{m.position.longitude:.7f}", _W_LON, "longitude"),
        (f"{m.position.height:.2f}", _W_HEIGHT, "height"),
    )
    for text, width, name in fields:
        if len(text) > width:
            raise FieldOverflow(f"{name} field {text!r} exceeds {width} chars")
    payload = ",".join([TALKER] + [f[0] for f in fields]).encode("ascii")
    sentence = b"$" + payload + b"*" + f"{checksum(payload):02X}".encode("ascii") + b"\r\n"
    if len(sentence) > MAX_MESSAGE_BYTES:
        raise FieldOverflow(f"sentence length {len(sentence)} exceeds {MAX_MESSAGE_BYTES}")
    return sentence


def decode_message(raw: bytes) -> BuoyMessage:
    """Parse and checksum-validate a sentence; total over byte inputs.

    Every failure is a PositioningError. Only canonical sentences decode,
    the ones encode_message writes, so every message it returns encodes
    again to the same bytes.
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
        # each field rendered at wire resolution, as encode_message writes it
        texts = [f"{float(p):.{decimals}f}"
                 for p, decimals in zip(parts[2:6], (3, 7, 7, 2))]
    except ValueError:
        raise MalformedSentence(f"non-numeric field in {parts[1:]!r}") from None
    # the range checks see the values the message would store
    gnss_time, lat, lon, height = (float(t) for t in texts)
    if buoy_id not in (1, 2, 3, 4):
        raise FieldRange(f"buoy_id {buoy_id} outside 1..4")
    if not (0.0 <= gnss_time < 86400.0):
        raise FieldRange(f"gnss_time {gnss_time} outside [0, 86400)")
    if not (-90.0 <= lat <= 90.0):
        raise FieldRange(f"latitude {lat} outside [-90, 90]")
    if not (-180.0 < lon <= 180.0):
        raise FieldRange(f"longitude {lon} outside (-180, 180]")
    if not (_HEIGHT_RANGE[0] <= height <= _HEIGHT_RANGE[1]):
        raise FieldRange(f"height {height} outside [{_HEIGHT_RANGE[0]}, {_HEIGHT_RANGE[1]}]")
    if parts[1] != str(buoy_id) or parts[2:6] != texts:
        raise MalformedSentence(f"non-canonical field in {parts[1:]!r}")
    return BuoyMessage(buoy_id, gnss_time, GeodeticCoord(lat, lon, height))


@dataclass(frozen=True)
class FrameSchedule:
    """Slot layout of one TDMA frame: four transmissions plus guards."""

    message_duration: float            # t_m [s]
    guard_time: float                  # g [s]
    frame_period: float                # T_f [s]
    start_times: tuple[float, float, float, float]

    def __post_init__(self):
        if self.message_duration <= 0.0:
            raise ValueError("message_duration must be > 0")
        if self.guard_time < 0.0:
            raise ValueError("guard_time must be >= 0")
        slot = self.message_duration + self.guard_time
        for i in range(3):
            if abs((self.start_times[i + 1] - self.start_times[i]) - slot) > 1e-12:
                raise ValueError("start_times must be spaced by t_m + g")
        if abs(self.frame_period - 4.0 * slot) > 1e-12:
            raise ValueError("frame_period must equal 4*(t_m + g)")


def compute_schedule(
    message_bytes: int,
    bit_rate: float,
    guard: float,
    max_message_duration: float | None = 1.0,
) -> FrameSchedule:
    """Build the four-slot schedule for a message size and modem rate.

    The reference budget (80 bytes at 640 bps with a 1 s guard) gives
    t_m = 1 s and an 8 s frame. A cap on the transmission time (1 s by
    default, None to disable) turns an over-budget message into an error.
    """
    if message_bytes <= 0:
        raise ValueError("message_bytes must be > 0")
    if bit_rate <= 0:
        raise ValueError("bit_rate must be > 0")
    if guard < 0:
        raise ValueError("guard must be >= 0")
    t_m = 8.0 * message_bytes / bit_rate
    if max_message_duration is not None and t_m > max_message_duration:
        raise BudgetExceeded(
            f"message duration {t_m:.3f} s exceeds the "
            f"{max_message_duration:.3f} s cap")
    slot = t_m + guard
    return FrameSchedule(
        message_duration=t_m,
        guard_time=guard,
        frame_period=4.0 * slot,
        start_times=(0.0, slot, 2.0 * slot, 3.0 * slot),
    )


def transmit_times(s: FrameSchedule, frame_index: int) -> tuple[float, float, float, float]:
    """Absolute transmit instants of the four buoys in a given frame."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    base = frame_index * s.frame_period
    return tuple(base + t for t in s.start_times)
