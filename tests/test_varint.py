"""Varint / zigzag kernel tests.

Boundary values mirror the reference's primitive equivalence test
(``geobuf_raw/write_primitives_test.go:24-34``: two packers must agree
byte-for-byte on 128^k edge constants) — here checked against Python's
own scalar encoder and a protobuf-by-hand oracle.
"""

import numpy as np
import pytest

from geobuf_ray.codec import varint as vi

# 128^k +- 1 ladder plus the literals from write_primitives_test.go
BOUNDARY = sorted(
    {0, 1, 127, 128, 129, 16383, 16384, 2097151, 2097152, 268435455,
     268435456, 34359738367, 34359738368, 4398046511103, 4398046511104,
     562949953421311, 562949953421312,
     258435456, 33359738368, 4298046511104, 542949953421312,
     592949953421312, 2**63 - 1, 2**63, 2**64 - 1}
)


def oracle_varint(x: int) -> bytes:
    out = bytearray()
    while x > 127:
        out.append(0x80 | (x & 0x7F))
        x >>= 7
    out.append(x)
    return bytes(out)


def decode_stream(buf: np.ndarray):
    """``varint_decode_stream`` as uint64 values, its big lanes patched
    into the uint32 bulk, and its start offsets."""
    vals, offs, big_idx, big_vals = vi.varint_decode_stream(buf)
    assert vals.dtype == np.uint32
    merged = vals.astype(np.uint64)
    merged[big_idx] = big_vals
    return merged, offs


def decode_scalar(buf: bytes):
    """The reference: ``decode_varint_scalar`` value after value."""
    vals, offs, pos = [], [], 0
    while pos < len(buf):
        offs.append(pos)
        v, pos = vi.decode_varint_scalar(buf, pos)
        vals.append(v)
    return np.array(vals, np.uint64), np.array(offs, np.int64)


def test_varint_encode_boundary_bytes():
    vals = np.array(BOUNDARY, dtype=np.uint64)
    flat, lens = vi.varint_encode(vals)
    expected = b"".join(oracle_varint(v) for v in BOUNDARY)
    assert flat.tobytes() == expected
    assert lens.tolist() == [len(oracle_varint(v)) for v in BOUNDARY]


def test_varint_decode_roundtrip():
    rng = np.random.default_rng(42)
    vals = rng.integers(0, 2**63, 10000, dtype=np.uint64)
    vals[:100] = rng.integers(0, 128, 100)  # plenty of 1-byte values
    vals = np.concatenate([vals, np.array(BOUNDARY, np.uint64)])
    flat, lens = vi.varint_encode(vals)
    out, offs = decode_stream(flat)
    want, woffs = decode_scalar(flat.tobytes())
    assert np.array_equal(out, vals) and np.array_equal(want, vals)
    assert np.array_equal(offs, np.concatenate(([0], np.cumsum(lens)[:-1])))
    assert np.array_equal(offs, woffs)


def test_zigzag_roundtrip():
    vals = np.array(
        [0, -1, 1, -2, 2, 2**62, -(2**62), 2**63 - 1, -(2**63)], np.int64
    )
    enc = vi.zigzag_encode(vals)
    assert enc[:5].tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(vi.zigzag_decode(enc), vals)


def test_zigzag_matches_reference_paramenc():
    # paramEnc (geom.go:182-184): uint64((v << 1) ^ (v >> 63))
    def param_enc(v):
        return ((v << 1) ^ (v >> 63)) & (2**64 - 1)

    rng = np.random.default_rng(7)
    vals = rng.integers(-(2**62), 2**62, 1000, dtype=np.int64)
    enc = vi.zigzag_encode(vals)
    for v, e in zip(vals.tolist(), enc.tolist()):
        assert e == param_enc(v)


def test_scalar_varint_helpers():
    for v in BOUNDARY:
        b = vi.encode_varint_scalar(v)
        assert b == oracle_varint(v)
        out, pos = vi.decode_varint_scalar(b, 0)
        assert out == v and pos == len(b)


def test_gather_varints_flags_values_past_64_bits():
    """``gather_varints`` decodes every 64-bit value at any position and
    gives ``nbytes`` 0 to a varint whose value needs more than 64 bits:
    a 10th byte above 1, or no terminator in 10 bytes."""
    good = [vi.encode_varint_scalar(v) for v in BOUNDARY]
    wide = [b"\xff" * 9 + b"\x02", b"\x80" * 10 + b"\x00"]
    buf = b"".join(good + wide)
    starts = np.cumsum([0] + [len(b) for b in good + wide])[:-1]
    vals, nb = vi.gather_varints(np.frombuffer(buf, np.uint8), starts)
    assert vals[:len(good)].tolist() == list(BOUNDARY)
    assert nb.tolist() == [len(b) for b in good] + [0, 0]


def test_ramp_and_rowwise_concat():
    assert vi.ramp(np.array([3, 0, 2])).tolist() == [0, 1, 2, 0, 1]
    seg_a = (np.frombuffer(b"abcde", np.uint8), np.array([2, 0, 3]))
    seg_b = (np.frombuffer(b"XY", np.uint8), np.array([1, 1, 0]))
    flat, lens = vi.rowwise_concat([seg_a, seg_b])
    assert flat.tobytes() == b"abXYcde"
    assert lens.tolist() == [3, 1, 3]


def test_segmented_cumsum():
    vals = np.array([1, 2, 3, 10, -1, 5], np.int64)
    mask = np.array([1, 0, 0, 1, 0, 1], bool)
    out = vi.segmented_cumsum(vals, mask)
    assert out.tolist() == [1, 3, 6, 10, 9, 5]


def test_varint_stream_roundtrip_randomized():
    """Hypothesis sweep of the stream codec pair across magnitude
    regimes: encode -> decode_stream is the identity for any uint64
    mix (the descending-overwrite encoder and the continuation-bit
    masked decoder are both length-class-sensitive, so mixes of 1- and
    10-byte values exercise every round-mode switch), with the values
    of 5 bytes and more patched in from the side channel."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from geobuf_ray.codec import varint as vi

    @settings(max_examples=120, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(0, 127),
            st.integers(0, 2**14 - 1),
            st.integers(0, 2**28 - 1),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**64 - 1),
        ), min_size=1, max_size=200))
    def check(vals):
        v = np.array(vals, np.uint64)
        flat, nb = vi.varint_encode(v)
        assert int(nb.sum()) == len(flat)
        got, offs = decode_stream(flat)
        assert (got == v).all()
        ends = np.cumsum(nb)
        assert (offs == ends - nb).all()
        # u32-input encode produces identical bytes for u32-range data
        if v.max() < 2**32:
            flat32, nb32 = vi.varint_encode(v.astype(np.uint32))
            assert (flat32 == flat).all() and (nb32 == nb).all()

    check()


def test_dequantize_requantizes_exactly():
    """quantize(dequantize(q)) == q for every representable quantized
    coordinate — the <=1-ulp nudge in dequantize makes encode∘decode
    the identity on the quantized domain even where q/1e7's nearest
    double lands on the wrong side of the truncating quantizer."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from geobuf_ray.codec.feature import dequantize, quantize

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1_800_000_000, 1_800_000_000),
                    min_size=1, max_size=50))
    def check(qs):
        q = np.array(qs, np.int64)
        d = dequantize(q)
        assert (quantize(d) == q).all()
        # the nudge never moves a value more than 2 ulp
        raw = q.astype(np.float64) / 1e7
        assert (np.abs(d - raw)
                <= 2 * np.spacing(np.abs(raw) + 1e-30)).all()

    check()
    # the historical drifter
    q = np.array([3276049, -3276049], np.int64)
    assert (quantize(dequantize(q)) == q).all()


def test_decode_stream_split_big_property():
    """The uint32 bulk with its big lanes patched in gives the values
    and offsets of ``decode_varint_scalar`` over the same stream, on
    randomized streams mixing small deltas with >= 2^28
    ring-start-sized values (hypothesis sweep)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(0, 2**20),
                  st.integers(2**28, 2**40),
                  st.integers(0, 2**64 - 1)),
        min_size=1, max_size=300))
    def check(vals):
        raw = b"".join(oracle_varint(v) for v in vals)
        want, woffs = decode_scalar(raw)
        got, goffs = decode_stream(np.frombuffer(raw, np.uint8))
        assert (goffs == woffs).all()
        assert (got == want).all()

    check()
