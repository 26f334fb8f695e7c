"""Wire codec and TDMA schedule contracts."""
import math
import struct

import numpy as np
import pytest
from conftest import ulps_around
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwps.errors import (
    BudgetExceeded,
    ChecksumMismatch,
    FieldRange,
    MalformedSentence,
    PositioningError,
)
from uwps import protocol, verify
from uwps.geo import GeodeticCoord
from uwps.protocol import (
    MAX_MESSAGE_BYTES,
    BuoyMessage,
    _q,
    compute_schedule,
    decode_message,
    encode_message,
    transmit_times,
)


def xor_oracle(data: bytes) -> int:
    """Independent byte-wise XOR for checking the codec's checksum."""
    total = 0
    for byte in data:
        total = total ^ byte
    return total


def make_message(buoy_id=1, t=43200.0, lat=36.7201, lon=-4.4203, h=0.0):
    return BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h))


def frame_sentence(payload: bytes, checksum_text: str | None = None) -> bytes:
    """payload between '$' and '*', its checksum (or the given text) and CRLF."""
    if checksum_text is None:
        checksum_text = f"{xor_oracle(payload):02X}"
    return b"$" + payload + b"*" + checksum_text.encode("ascii") + b"\r\n"


def test_reference_payload_checksum_matches_oracle():
    payload = b"UWPS,1,43200.000,36.7201000,-4.4203000,0.00"
    sentence = encode_message(make_message())
    assert sentence == b"$" + payload + f"*{xor_oracle(payload):02X}".encode() + b"\r\n"


def test_checksum_is_the_xor_of_every_byte():
    """The integer fold gives the byte-wise XOR at every length, across the
    64-byte chunk boundary too."""
    for byte in range(256):
        assert protocol.checksum(bytes([byte])) == byte
    rng = np.random.default_rng(29)
    for length in [*range(0, 301), 64, 65, 128, 129]:
        payload = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        assert protocol.checksum(payload) == xor_oracle(payload), length


def test_round_trip_identity():
    m = make_message(3, 86399.999, -89.9999999, 179.9999999, -42.5)
    assert decode_message(encode_message(m)) == m


def test_worst_case_length_within_budget():
    worst = BuoyMessage(4, 86399.999, GeodeticCoord(-89.9999999, -179.9999999, -11000.0))
    assert len(encode_message(worst)) <= MAX_MESSAGE_BYTES


@pytest.mark.parametrize("h", [-99999.99, 999999.99, -99999.994, 999999.994])
def test_heights_at_the_field_ends_round_trip(h):
    m = make_message(4, 86399.999, -89.9999999, -179.9999999, h)
    sentence = encode_message(m)
    assert len(sentence) == 57   # the widest sentences
    assert decode_message(sentence) == m


@pytest.mark.parametrize("h", [-100000.0, -99999.996, 1000000.0, 999999.996, -150000.0])
def test_heights_beyond_the_field_rejected(h):
    """A height that does not fit the 9-character field is no message, and a
    sentence carrying one does not decode."""
    with pytest.raises(ValueError, match="height"):
        make_message(h=h)
    payload = f"UWPS,1,43200.000,36.7201000,-4.4203000,{h:.2f}".encode("ascii")
    with pytest.raises(FieldRange, match="height"):
        decode_message(frame_sentence(payload))


def test_single_bit_flip_detected_as_checksum_mismatch():
    sentence = bytearray(encode_message(make_message()))
    # flip the low bit of a digit inside the time field; structure survives
    idx = sentence.index(b"43200"[0], 1)
    sentence[idx] ^= 0x01
    with pytest.raises(ChecksumMismatch):
        decode_message(bytes(sentence))


def test_truncated_sentence_is_malformed():
    sentence = encode_message(make_message())
    with pytest.raises(MalformedSentence):
        decode_message(sentence[: len(sentence) // 2])
    with pytest.raises(MalformedSentence):
        decode_message(sentence[:-2])  # missing terminator


def test_wrong_field_count_is_malformed():
    payload = b"UWPS,1,43200.000,36.7201000"
    sentence = b"$" + payload + f"*{xor_oracle(payload):02X}".encode() + b"\r\n"
    with pytest.raises(MalformedSentence):
        decode_message(sentence)


def test_non_numeric_field_is_malformed():
    payload = b"UWPS,1,noon,36.7201000,-4.4203000,0.00"
    sentence = b"$" + payload + f"*{xor_oracle(payload):02X}".encode() + b"\r\n"
    with pytest.raises(MalformedSentence):
        decode_message(sentence)


def test_out_of_range_fields_rejected():
    for payload in (
        b"UWPS,7,43200.000,36.7201000,-4.4203000,0.00",
        b"UWPS,1,90000.000,36.7201000,-4.4203000,0.00",
        b"UWPS,1,43200.000,96.7201000,-4.4203000,0.00",
        b"UWPS,1,43200.000,36.7201000,-184.4203000,0.00",
        b"UWPS,1,43200.000,36.7201000,-4.4203000,nan",
        b"UWPS,1,43200.000,36.7201000,-4.4203000,inf",
        b"UWPS,1,43200.000,36.7201000,-4.4203000,1e400",
        b"UWPS,1,43200.000,36.7201000,-4.4203000,-1e20",   # wider than the height field
        b"UWPS,1,43200.000,36.7201000,-179.99999999,0.00",  # -180 at wire resolution
        b"UWPS,1,43200.000,36.7201000,-180.0000000,0.00",
        b"UWPS,1,86399.9996,36.7201000,-4.4203000,0.00",    # 86400.000 at wire resolution
    ):
        sentence = b"$" + payload + f"*{xor_oracle(payload):02X}".encode() + b"\r\n"
        with pytest.raises(FieldRange):
            decode_message(sentence)


@pytest.mark.parametrize("payload", [
    b"UWPS,1,1_0.000,36.7201000,-4.4203000,0.00",      # digit separator
    b"UWPS,1, 10.000,36.7201000,-4.4203000,0.00",      # leading space
    b"UWPS,1,10.000 ,36.7201000,-4.4203000,0.00",      # trailing space
    b"UWPS,01,43200.000,36.7201000,-4.4203000,0.00",   # leading zero
    b"UWPS,+1,43200.000,36.7201000,-4.4203000,0.00",   # explicit sign
    b"UWPS,1,01.000,36.7201000,-4.4203000,0.00",       # leading zero in a float
    b"UWPS,1,+1.000,36.7201000,-4.4203000,0.00",       # explicit sign on a float
    b"UWPS,1,43200.0,36.7201000,-4.4203000,0.00",      # too few decimals
    b"UWPS,1,43200.000,36.72010000,-4.4203000,0.00",   # too many decimals
    b"UWPS,1,43200.000,36.7201000,-4.4203000,1e1",     # exponent
])
def test_non_canonical_fields_rejected(payload):
    """A field that encode_message would write differently does not decode."""
    with pytest.raises(MalformedSentence, match="non-canonical"):
        decode_message(frame_sentence(payload))


def test_non_canonical_checksum_rejected():
    payload = b"UWPS,1,43200.000,36.7201000,-4.4203000,8.00"
    assert decode_message(frame_sentence(payload, "3C")).position.height == 8.0
    with pytest.raises(MalformedSentence):
        decode_message(frame_sentence(payload, "3c"))


_FIELD_EDITS = [
    lambda t: " " + t, lambda t: t + " ", lambda t: "+" + t, lambda t: "0" + t,
    lambda t: t + "0", lambda t: t[:-1], lambda t: t[:1] + "_" + t[1:],
    lambda t: t.replace(".", ".0", 1) if "." in t else t + ".0",
]
_CANONICAL_FIELDS = st.tuples(
    st.integers(1, 4).map(str),
    st.floats(0.0, 86399.999).map(lambda v: f"{v:.3f}"),
    st.floats(-90.0, 90.0).map(lambda v: f"{v:.7f}"),
    st.floats(-179.9999999, 180.0).map(lambda v: f"{v:.7f}"),
    st.floats(-99999.99, 999999.99).map(lambda v: f"{v:.2f}"),
)


@settings(max_examples=500, deadline=None)
@given(fields=_CANONICAL_FIELDS, edit_at=st.integers(-1, 4),
       edit=st.sampled_from(_FIELD_EDITS), lowercase=st.booleans())
def test_decoded_sentence_reencodes_to_same_bytes(fields, edit_at, edit, lowercase):
    """decode either raises a PositioningError or returns a message that
    encodes to the very bytes it came from; at most one field is edited."""
    fields = list(fields)
    if edit_at >= 0:
        fields[edit_at] = edit(fields[edit_at])
    payload = ",".join(["UWPS"] + fields).encode("ascii")
    hex_sum = f"{xor_oracle(payload):02X}"
    sentence = frame_sentence(payload, hex_sum.lower() if lowercase else hex_sum)
    try:
        message = decode_message(sentence)
    except PositioningError:
        return
    assert encode_message(message) == sentence


def reference_decode(raw: bytes) -> BuoyMessage:
    """decode_message as it was written before it parsed each field once:
    every field rendered at wire resolution, parsed back and compared with
    its text. The reference its outcome must match."""
    if not isinstance(raw, (bytes, bytearray)):
        raise MalformedSentence("expected a byte sequence")
    if not raw.startswith(b"$") or not raw.endswith(b"\r\n"):
        raise MalformedSentence("missing sentence delimiters")
    body = raw[1:-2]
    star = body.rfind(b"*")
    if star < 0 or len(body) - star != 3:
        raise MalformedSentence("missing or misplaced checksum marker")
    payload, given = body[:star], body[star + 1:]
    actual = protocol.checksum(payload)
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
    if parts[0] != protocol.TALKER:
        raise MalformedSentence(f"unknown talker {parts[0]!r}")
    try:
        buoy_id = int(parts[1])
        texts = [f"{float(p):.{decimals}f}"
                 for p, decimals in zip(parts[2:6], (3, 7, 7, 2))]
    except ValueError:
        raise MalformedSentence(f"non-numeric field in {parts[1:]!r}") from None
    gnss_time, lat, lon, height = (float(t) for t in texts)
    try:
        message = BuoyMessage(buoy_id, gnss_time, GeodeticCoord(lat, lon, height))
    except ValueError as exc:
        raise FieldRange(str(exc)) from None
    if parts[1] != str(buoy_id) or parts[2:6] != texts:
        raise MalformedSentence(f"non-canonical field in {parts[1:]!r}")
    return message


def decode_outcome(decode, sentence):
    """The message's fields as packed bits (the sign of zero included) with
    their types, or the exception's class and message."""
    try:
        m = decode(sentence)
    except PositioningError as exc:
        return type(exc), str(exc)
    values = (m.gnss_time, m.position.latitude, m.position.longitude, m.position.height)
    return (m.buoy_id, type(m.buoy_id), [struct.pack("<d", v) for v in values],
            [type(v) for v in values])


# single-field edits and replacements that reach field parsing: signs,
# zeros, exponents, spaces, separators, specials, ids and the field ends
_ORACLE_EDITS = _FIELD_EDITS + [
    lambda t: "-" + t, lambda t: "00" + t, lambda t: t + "e0", lambda t: t + "E-0",
    lambda t: t.replace(".", "", 1), lambda t: t + "5", lambda t: t + "49",
    lambda t: t.rstrip("0"), lambda t: t.partition(".")[0],
]
_ORACLE_FIELDS = [
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e20", "-1e20",
    "0", "5", "01", "-1", "+2", " 3", "4 ", "1_0", "-0", "0.0", "-0.0", "-0.000", "-0.0000000",
    "-0.00", "-0.004", "-0.005", "-0.00000001", "180.0000000", "-180.0000000",
    "+180.0000000", "180.00000001", "180.00000005", "-180.00000001", "-180.00000005",
    "-179.99999995", "-179.99999996", "179.99999999", "90.0000000", "90.00000004",
    "90.00000005", "-90.00000005", "86399.999", "86399.9995", "86399.9994", "86400.000",
    "-0.0005", "-99999.99", "999999.99", "-99999.994", "-99999.995", "999999.994",
    "999999.995", "-100000.00", "1000000.00", "1e5", "12.3456789", "1.23456785e1",
]


def assert_decodes_as_reference(fields):
    payload = ",".join(["UWPS", *fields]).encode("ascii")
    sentence = frame_sentence(payload)
    assert decode_outcome(decode_message, sentence) == decode_outcome(reference_decode, sentence)


def test_decode_matches_the_reference_decoder_on_each_field_edit():
    """Every listed value in every field, each in a canonical sentence with
    its checksum recomputed: the same message bit for bit, or the same
    error. A longitude that rounds to -180 is out of range as it rounds."""
    base = ["2", "43200.000", "36.7201000", "-4.4203000", "0.08"]
    for at in range(5):
        for value in _ORACLE_FIELDS:
            assert_decodes_as_reference(base[:at] + [value] + base[at + 1:])
    with pytest.raises(FieldRange, match=r"^longitude -180\.0 outside \(-180, 180\]$"):
        decode_message(frame_sentence(b"UWPS,2,43200.000,36.7201000,-180.00000001,0.08"))


@settings(max_examples=1000, deadline=None)
@given(fields=_CANONICAL_FIELDS, edit_at=st.integers(-1, 4), edit=st.one_of(
    st.sampled_from(_ORACLE_EDITS),
    st.sampled_from(_ORACLE_FIELDS).map(lambda value: lambda text: value)))
def test_decode_matches_the_reference_decoder(fields, edit_at, edit):
    """A drawn canonical sentence, or one with a single field edited and
    the checksum recomputed, decodes as the reference decoder does."""
    fields = list(fields)
    if edit_at >= 0:
        fields[edit_at] = edit(fields[edit_at])
    assert_decodes_as_reference(fields)


def test_message_quantizes_to_wire_resolution():
    m = BuoyMessage(2, 12.3456789, GeodeticCoord(36.123456789, -4.42, 1.23456))
    assert m.gnss_time == 12.346
    assert m.position.latitude == 36.1234568
    assert m.position.height == 1.23


def f_string_q(value, decimals):
    """The wire's rounding as its text: the reference for _q."""
    return float(f"{value:.{decimals}f}")


def assert_same_float(got, want):
    assert type(got) is float
    assert struct.pack("d", got) == struct.pack("d", want) or (
        math.isnan(got) and math.isnan(want))


@settings(max_examples=2000, deadline=None)
@given(value=st.one_of(st.floats(), st.floats(-1e6, 1e6), st.integers(-10**6, 10**6),
                       st.floats(-1e6, 1e6).map(np.float64)),
       decimals=st.sampled_from([2, 3, 7]))
def test_q_rounds_like_the_wire_text(value, decimals):
    """round() and the f-string give the same float bit for bit, and a float
    whatever the input's type: ints and np.float64 included."""
    assert_same_float(_q(value, decimals), f_string_q(value, decimals))


# _q's float path takes |x * 10**d| below 2**40: the floats on both sides of
# that bound, for both signs
FAST_PATH_BOUNDS = [(x, d) for d in (2, 3, 7) for bound in (2.0 ** 40, -2.0 ** 40)
                    for x in ulps_around(bound / 10.0 ** d, 4)]


@pytest.mark.parametrize("value, decimals", [
    (2.675, 2), (0.125, 2), (0.375, 2), (-2.675, 2), (0.0005, 3), (86399.9995, 3),
    (-179.99999995, 7), (-0.0, 2), (0.0, 3), (-0.001, 2), (-1e-9, 7), (1e300, 2),
    (-1e300, 7), (5e-324, 7), (math.inf, 3), (-math.inf, 2), (math.nan, 3),
    (7, 3), (-0, 2), (True, 2), (np.float64(2.675), 2), (np.float64(-0.0), 7),
    (-0.004, 2), (-0.0004999, 3), (-4.9e-8, 7), (-5e-324, 2),      # tiny negatives: -0.0
    *FAST_PATH_BOUNDS])
def test_q_rounds_ties_zeros_and_extremes_like_the_wire_text(value, decimals):
    assert_same_float(_q(value, decimals), f_string_q(value, decimals))


@settings(max_examples=2000, deadline=None)
@given(k=st.one_of(st.integers(-10**9, 10**9), st.integers(-2**41, 2**41)),
       ulps=st.integers(-4, 4), decimals=st.sampled_from([2, 3, 7]))
def test_q_rounds_near_a_tie_like_the_wire_text(k, ulps, decimals):
    """Within 4 ulps of a decimal tie (k + 1/2) / 10**d the exact binary
    value decides, as the wire text's digits do."""
    value = (k + 0.5) / 10.0 ** decimals
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    assert_same_float(_q(value, decimals), f_string_q(value, decimals))


def test_message_keeps_the_sign_of_a_zero_it_rounds_to():
    """A tiny negative field rounds to -0.0, through _q and through
    _quantized's written-out copy of it, as the wire text spells it."""
    m = BuoyMessage(1, -0.0004, GeodeticCoord(-4e-8, -4.9e-8, -0.004))
    assert [struct.pack("d", v) for v in (m.gnss_time, *m.position)] == [
        struct.pack("d", -0.0)] * 4
    assert encode_message(m) == frame_sentence(b"UWPS,1,-0.000,-0.0000000,-0.0000000,-0.00")


@settings(max_examples=300, deadline=None)
@given(message_bytes=st.integers(1, 80), bit_rate=st.floats(640.0, 1e5),
       guard=st.floats(0.0, 100.0),
       frame_index=st.one_of(st.integers(0, 10**6), st.integers(10**6, 10**10)))
@example(message_bytes=80, bit_rate=640.0, guard=1.0, frame_index=2**40 // 8000)
@example(message_bytes=80, bit_rate=640.0, guard=1.0, frame_index=2**40 // 8000 + 1)
def test_transmit_times_round_like_the_wire_text(message_bytes, bit_rate, guard,
                                                 frame_index):
    """Frame indices up to 1e10 take the instants past 2**40 / 10**3 s,
    where _q leaves its float path."""
    s = compute_schedule(message_bytes, bit_rate, guard)
    base = frame_index * s.frame_period
    for got, start in zip(transmit_times(s, frame_index), s.start_times):
        assert_same_float(got, f_string_q(base + start, 3))


def test_message_writes_minus_180_as_180():
    """A longitude that rounds to -180 at the wire's 1e-7 deg is the same
    meridian as 180, the only spelling inside (-180, 180]."""
    m = BuoyMessage(1, 0.0, GeodeticCoord(0.009, -179.99999996, 0.0))
    assert m.position.longitude == 180.0
    sentence = encode_message(m)
    assert b",180.0000000," in sentence
    assert decode_message(sentence) == m
    assert BuoyMessage(1, 0.0, GeodeticCoord(0.0, -179.99999994, 0.0)).position.longitude == (
        -179.9999999)


def test_message_keeps_a_position_on_the_wire_grid():
    """A position of floats on the wire grid is quantized to itself: the
    message keeps the given object, -0.0 and 180 included."""
    for g in (GeodeticCoord(36.7201, -4.4203, 0.0), GeodeticCoord(-90.0, 180.0, -0.0),
              GeodeticCoord(0.0000001, -179.9999999, 999999.99)):
        m = BuoyMessage(1, 0.0, g)
        assert m.position is g
        assert str(m.position.height) == str(g.height)


@pytest.mark.parametrize("g, stored", [
    (GeodeticCoord(36.72010004, -4.4203, 0.0), (36.7201, -4.4203, 0.0)),        # off grid
    (GeodeticCoord(36.7201, -4.4203, 0.004), (36.7201, -4.4203, 0.0)),
    (GeodeticCoord(36, -4, 0), (36.0, -4.0, 0.0)),                              # ints
    (GeodeticCoord(*np.array([36.7201, -4.4203, 0.5])), (36.7201, -4.4203, 0.5)),  # np.float64
    (GeodeticCoord(0.0, -179.99999996, 0.0), (0.0, 180.0, 0.0)),                # rounds to -180
], ids=["latitude", "height", "int", "numpy", "minus-180"])
def test_message_replaces_a_position_off_the_grid(g, stored):
    m = BuoyMessage(1, 0.0, g)
    assert m.position is not g
    assert [(type(v), v) for v in tuple(m.position)] == [
        (float, v) for v in stored]


@settings(max_examples=300, deadline=None)
@given(buoy_id=st.integers(1, 4), t=st.floats(0.0, 86399.999),
       lat=st.floats(-90.0, 90.0), lon=st.floats(-179.9999999, 180.0),
       h=st.floats(-99999.99, 999999.99), on_grid=st.booleans())
def test_message_equality_and_sentence_keep_the_wire_rule(buoy_id, t, lat, lon, h, on_grid):
    """Kept or replaced, the stored position is the wire text's values, so
    equality and the sentence are those of the always-quantizing rule."""
    if on_grid:
        lat, lon, h = f_string_q(lat, 7), f_string_q(lon, 7), f_string_q(h, 2)
        lon = 180.0 if lon == -180.0 else lon
    m = BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h))
    want = [f_string_q(lat, 7), f_string_q(lon, 7), f_string_q(h, 2)]
    want[1] = 180.0 if want[1] == -180.0 else want[1]
    assert m == BuoyMessage(buoy_id, t, GeodeticCoord(*want))
    assert [struct.pack("d", v) for v in tuple(m.position)] == [
        struct.pack("d", v) for v in want]
    payload = (f"UWPS,{buoy_id},{f_string_q(t, 3):.3f},{want[0]:.7f},{want[1]:.7f},"
               f"{want[2]:.2f}").encode("ascii")
    assert encode_message(m) == frame_sentence(payload)


def test_decode_builds_one_geodetic_coord_per_sentence(monkeypatch):
    """The decoded values are on the wire grid, so the message keeps the
    GeodeticCoord decode_message built: one checked coordinate per sentence
    (counted with a wrapped GeodeticCoord.__new__)."""
    built = []
    new = GeodeticCoord.__new__
    monkeypatch.setattr(GeodeticCoord, "__new__",
                        staticmethod(lambda cls, *args: built.append(args) or new(cls, *args)))
    sentence = encode_message(make_message(3, 86399.999, -89.9999999, 179.9999999, -42.5))
    built.clear()
    decode_message(sentence)
    assert len(built) == 1


def test_message_validation():
    with pytest.raises(ValueError):
        BuoyMessage(0, 0.0, GeodeticCoord(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BuoyMessage(1, 86400.0, GeodeticCoord(0.0, 0.0, 0.0))
    # the range is checked on the stored time: this one rounds to 86400.000
    with pytest.raises(ValueError, match="gnss_time 86400.0 outside"):
        BuoyMessage(1, 86399.9996, GeodeticCoord(0.0, 0.0, 0.0))
    # an id the one-digit field would spell otherwise
    for buoy_id in (True, 1.0):
        with pytest.raises(ValueError, match="buoy_id"):
            BuoyMessage(buoy_id, 0.0, GeodeticCoord(0.0, 0.0, 0.0))
    # the height is checked on the stored value too
    for height, stored in ((1e7, "10000000.0"), (999999.996, "1000000.0"),
                           (-99999.996, "-100000.0")):
        with pytest.raises(ValueError,
                           match=rf"^height {stored} outside \[-99999.99, 999999.99\]$"):
            BuoyMessage(1, 0.0, GeodeticCoord(0.0, 0.0, height))


@settings(max_examples=300, deadline=None)
@given(
    buoy_id=st.integers(1, 4),
    t=st.floats(0.0, 86399.999),
    lat=st.floats(-90.0, 90.0),
    lon=st.floats(-179.9999999, 180.0),
    h=st.floats(-99999.99, 999999.99),
)
def test_round_trip_property(buoy_id, t, lat, lon, h):
    m = BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h))
    sentence = encode_message(m)
    assert len(sentence) <= MAX_MESSAGE_BYTES
    assert decode_message(sentence) == m


# -- spelling parity ------------------------------------------------------

def fstring_payload(buoy_id, gnss_time, lat, lon, height) -> bytes:
    """protocol._payload as it was written before it became one bytes
    %-format: an f-string, encoded. The spelling the wire must keep."""
    return (f"{protocol.TALKER},{buoy_id},{gnss_time:.3f},{lat:.7f},{lon:.7f},"
            f"{height:.2f}").encode("ascii")


def fstring_sentence(m: BuoyMessage) -> bytes:
    """encode_message as it was written before: the payload above, framed
    by concatenation with an f-string checksum."""
    payload = fstring_payload(m.buoy_id, m.gnss_time, *m.position)
    return b"$" + payload + b"*" + f"{xor_oracle(payload):02X}".encode("ascii") + b"\r\n"


def assert_spelled_as_the_fstring_reference(m: BuoyMessage):
    sentence = encode_message(m)
    assert protocol._payload(m.buoy_id, m.gnss_time, *m.position) == fstring_payload(
        m.buoy_id, m.gnss_time, *m.position)
    assert sentence == fstring_sentence(m)
    assert decode_message(sentence) == m
    # bit for bit, the sign of a zero included
    assert decode_outcome(decode_message, sentence) == decode_outcome(lambda _: m, sentence)


@pytest.mark.parametrize("buoy_id, t, lat, lon, h", [
    (1, 43200.0, 36.7201, -4.4203, -0.0),     # a height of -0.0 writes -0.00
    (2, 0.0, 0.0, 180.0, 0.0),                # longitude 180, time 0.000
    (3, 86399.999, -90.0, -179.9999999, -99999.99),
    (4, 86399.999, 90.0, 180.0, 999999.99),
    (4, 0.0, -0.0, -0.0, 999999.99),
], ids=["height -0.0", "lon 180, t 0", "t 86399.999, h -99999.99",
        "h 999999.99", "signed zeros"])
def test_spelling_matches_the_fstring_reference_at_the_edges(buoy_id, t, lat, lon, h):
    """encode_message writes the bytes the f-string spelling wrote, and
    decode gives back the message, the sign of a zero included."""
    assert_spelled_as_the_fstring_reference(
        BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h)))


@settings(max_examples=1000, deadline=None)
@given(buoy_id=st.integers(1, 4), t=st.floats(0.0, 86399.999),
       lat=st.floats(-90.0, 90.0), lon=st.floats(-179.9999999, 180.0),
       h=st.floats(-99999.99, 999999.99))
def test_spelling_matches_the_fstring_reference(buoy_id, t, lat, lon, h):
    """Drawn over every field's whole range, endpoints included."""
    assert_spelled_as_the_fstring_reference(BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h)))


def test_reference_schedule():
    s = compute_schedule(80, 640.0, 1.0)
    assert s.message_duration == pytest.approx(1.0)
    assert s.start_times == pytest.approx((0.0, 2.0, 4.0, 6.0))
    assert s.frame_period == pytest.approx(8.0)
    assert s.frame_period < 10.0  # the four-buoy duty cycle budget


def test_schedule_scales_with_bit_rate():
    s = compute_schedule(80, 1280.0, 0.5)
    assert s.message_duration == pytest.approx(0.5)
    assert s.frame_period == pytest.approx(4.0)


def test_budget_exceeded_under_cap():
    with pytest.raises(BudgetExceeded):
        compute_schedule(80, 320.0, 1.0)
    with pytest.raises(BudgetExceeded):
        compute_schedule(200, 640.0, 1.0)


def test_schedule_non_overlap():
    for args in ((80, 640.0, 1.0), (80, 1280.0, 0.5), (64, 2400.0, 0.25)):
        s = compute_schedule(*args)
        for i in range(3):
            tx_end = s.start_times[i] + s.message_duration
            assert s.start_times[i + 1] - tx_end >= s.guard_time - 1e-12


def test_transmit_times_periodicity():
    s = compute_schedule(80, 640.0, 1.0)
    assert transmit_times(s, 0) == pytest.approx((0.0, 2.0, 4.0, 6.0))
    assert transmit_times(s, 1) == pytest.approx((8.0, 10.0, 12.0, 14.0))
    for k in (0, 3, 17):
        assert transmit_times(s, k)[0] == pytest.approx(k * s.frame_period)


@pytest.mark.parametrize("args", [(80, 640.0, 1.0), (77, 1234.5, 0.0003), (13, 9999.0, 0.7)])
def test_transmit_times_at_wire_resolution(args):
    """Each instant is the gnss_time its message carries, to 1 ms."""
    s = compute_schedule(*args)
    for k in (0, 1, 7, 1000, 10**4):
        for t in transmit_times(s, k):
            assert t == float(f"{t:.3f}")
            assert BuoyMessage(1, t, GeodeticCoord(0.0, 0.0, 0.0)).gnss_time == t


# -- the codec properties of `uwps verify` -------------------------------

def test_corruption_detection_fails_when_the_checksum_skips_a_byte(monkeypatch):
    """A checksum blind to the payload's last byte lets a digit swapped
    there decode: the property must FAIL."""
    checksum = protocol.checksum
    monkeypatch.setattr(protocol, "checksum", lambda payload: checksum(payload[:-1]))
    ok, detail = verify.check_corruption_detection(verify.DEFAULT_SEED)
    assert not ok
    assert detail.endswith("undetected")


@pytest.mark.parametrize("field", ["gnss_time", "latitude", "longitude", "height"])
def test_codec_round_trip_fails_when_decode_moves_a_field(monkeypatch, field):
    """A decode that moves one field by one wire unit must FAIL the
    round trip."""
    decode = protocol.decode_message

    def moved(raw):
        m = decode(raw)
        if field == "gnss_time":
            return m._replace(gnss_time=m.gnss_time + 0.001)
        unit = {"latitude": 1e-7, "longitude": 1e-7, "height": 0.01}[field]
        return m._replace(position=m.position._replace(
            **{field: getattr(m.position, field) + unit}))

    monkeypatch.setattr(protocol, "decode_message", moved)
    ok, detail = verify.check_codec_round_trip(verify.DEFAULT_SEED)
    assert not ok
    assert detail.startswith("round-trip mismatch")


def test_corruption_reaches_every_payload_byte_and_changes_it():
    """Position draws reach every byte from 1 to the one before '*', and the
    255 replacement draws give the 255 values other than the byte there."""
    sentence = encode_message(make_message(3, 86399.999, -89.9999999, -179.9999999, -99999.99))
    end = sentence.rindex(b"*")
    reached = set()
    for position in [*range(3 * end), verify._POSITION_DRAWS - 1]:
        idx, corrupted = verify._corrupt(sentence, position, 0)
        reached.add(idx)
        assert corrupted[:idx] + corrupted[idx + 1:] == sentence[:idx] + sentence[idx + 1:]
    assert reached == set(range(1, end))
    for idx in range(1, end):
        values = {verify._corrupt(sentence, idx - 1, r)[1][idx] for r in range(255)}
        assert values == set(range(256)) - {sentence[idx]}
