"""Wire codec and TDMA schedule contracts."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwps.errors import (
    BudgetExceeded,
    ChecksumMismatch,
    FieldOverflow,
    FieldRange,
    MalformedSentence,
    PositioningError,
)
from uwps.geo import GeodeticCoord
from uwps.protocol import (
    MAX_MESSAGE_BYTES,
    BuoyMessage,
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


def test_round_trip_identity():
    m = make_message(3, 86399.999, -89.9999999, 179.9999999, -42.5)
    assert decode_message(encode_message(m)) == m


def test_worst_case_length_within_budget():
    worst = BuoyMessage(4, 86399.999, GeodeticCoord(-89.9999999, -179.9999999, -11000.0))
    assert len(encode_message(worst)) <= MAX_MESSAGE_BYTES


def test_height_field_overflow():
    with pytest.raises(FieldOverflow):
        encode_message(make_message(h=12345678.0))


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


def test_message_quantizes_to_wire_resolution():
    m = BuoyMessage(2, 12.3456789, GeodeticCoord(36.123456789, -4.42, 1.23456))
    assert m.gnss_time == 12.346
    assert m.position.latitude == 36.1234568
    assert m.position.height == 1.23


def test_message_validation():
    with pytest.raises(ValueError):
        BuoyMessage(0, 0.0, GeodeticCoord(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BuoyMessage(1, 86400.0, GeodeticCoord(0.0, 0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    buoy_id=st.integers(1, 4),
    t=st.floats(0.0, 86399.999),
    lat=st.floats(-90.0, 90.0),
    lon=st.floats(-179.9999999, 180.0),
    h=st.floats(-9000.0, 9000.0),
)
def test_round_trip_property(buoy_id, t, lat, lon, h):
    m = BuoyMessage(buoy_id, t, GeodeticCoord(lat, lon, h))
    sentence = encode_message(m)
    assert len(sentence) <= MAX_MESSAGE_BYTES
    assert decode_message(sentence) == m


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
    # cap disabled: the same message is allowed
    s = compute_schedule(80, 320.0, 1.0, max_message_duration=None)
    assert s.message_duration == pytest.approx(2.0)


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
