"""Property tests of the frame kernels (``frame_records``,
``frame_boundaries``, ``scan_frames``): payloads from empty to 20 KB,
so 1-, 2- and 3-byte length varints all occur, and payloads dense in
``0x0A`` (the frame tag byte)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

from geobuf_ray.codec import feature as fc
from geobuf_ray.codec import varint as vi


def _payload(spec) -> bytes:
    """``length`` seeded bytes, a ``tag_share`` of them ``0x0A``."""
    length, seed, tag_share = spec
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, length, dtype=np.uint8)
    raw[rng.random(length) < tag_share] = 0x0A
    return raw.tobytes()


_lengths = st.one_of(st.integers(0, 127), st.integers(128, 16383),
                     st.integers(16384, 20480))
payload = st.one_of(
    st.binary(max_size=200),
    st.tuples(_lengths, st.integers(0, 2**32 - 1),
              st.sampled_from([0.0, 0.3, 1.0])).map(_payload))

# one payload of each length-varint width, one all tag bytes
_WIDTHS = [b"", b"\x0a" * 127, b"\x0a" * 128, _payload((16383, 1, 0.3)),
           _payload((16384, 2, 1.0)), _payload((20480, 3, 0.0))]


def _reference_stream(payloads) -> bytes:
    return b"".join(b"\x0a" + vi.encode_varint_scalar(len(p)) + p
                    for p in payloads)


def _frame_ends(payloads) -> list[int]:
    """Byte offset just past each frame, after a leading 0."""
    ends = [0]
    for p in payloads:
        ends.append(ends[-1] + 1 + len(vi.encode_varint_scalar(len(p)))
                    + len(p))
    return ends


@settings(max_examples=60, deadline=None)
@given(st.lists(payload, max_size=8))
@example(_WIDTHS)
def test_frame_records_matches_reference_and_scans_back(payloads):
    recs = pa.array(payloads, pa.binary())
    stream = fc.frame_records(recs)
    assert stream == _reference_stream(payloads)
    assert fc.scan_frames(stream).to_pylist() == payloads
    # a sliced array frames only its own records
    if len(payloads) > 1:
        assert fc.frame_records(recs.slice(1)) == \
            _reference_stream(payloads[1:])
    assert fc.frame_records(recs.cast(pa.large_binary())) == stream
    starts, lens, consumed = fc.frame_boundaries(
        np.frombuffer(stream, np.uint8))
    assert consumed == len(stream)
    assert [stream[s:s + n] for s, n in zip(starts, lens)] == payloads


@settings(max_examples=25, deadline=None)
@given(st.lists(payload, max_size=3))
@example(_WIDTHS[:4])
def test_partial_walk_consumes_complete_frames_of_every_prefix(payloads):
    stream = fc.frame_records(pa.array(payloads, pa.binary()))
    ends = _frame_ends(payloads)
    view = memoryview(stream)
    for k in range(len(stream) + 1):
        starts, lens, consumed = fc.frame_boundaries(view[:k], partial=True)
        whole = int(np.searchsorted(ends, k, side="right")) - 1
        assert consumed == ends[whole], k
        assert len(starts) == len(lens) == whole, k
    if payloads:
        assert list(lens) == [len(p) for p in payloads]


@settings(max_examples=60, deadline=None)
@given(st.lists(payload, min_size=1, max_size=6), st.integers(0, 2**16),
       st.integers(0, 255).filter(lambda b: b != 0x0A))
def test_flipped_frame_tag_raises_value_error(payloads, which, byte):
    ends = _frame_ends(payloads)
    at = ends[which % len(payloads)]
    stream = bytearray(fc.frame_records(pa.array(payloads, pa.binary())))
    stream[at] = byte
    for partial in (False, True):
        with pytest.raises(ValueError, match=f"bad frame tag .* at byte {at}"):
            fc.frame_boundaries(stream, partial=partial)
    with pytest.raises(ValueError, match="bad frame tag"):
        fc.scan_frames(bytes(stream))


@settings(max_examples=40, deadline=None)
@given(st.lists(payload, max_size=4), st.binary(max_size=40))
def test_eleven_byte_length_varint_raises_value_error(payloads, tail):
    """A length varint with no terminator in its 10 bytes never ends a
    frame: the whole-stream walk raises, the partial walk stops before
    it as before a cut frame."""
    head = fc.frame_records(pa.array(payloads, pa.binary()))
    stream = head + b"\x0a" + b"\xff" * 10 + b"\x01" + tail
    with pytest.raises(ValueError):
        fc.frame_boundaries(stream)
    with pytest.raises(ValueError):
        fc.scan_frames(stream)
    starts, _, consumed = fc.frame_boundaries(stream, partial=True)
    assert consumed == len(head) and len(starts) == len(payloads)


@settings(max_examples=40, deadline=None)
@given(st.lists(payload, min_size=1, max_size=6), st.integers(0, 2**31))
def test_cut_stream_raises_value_error(payloads, where):
    stream = fc.frame_records(pa.array(payloads, pa.binary()))
    ends = _frame_ends(payloads)
    cut = where % len(stream)
    if cut in ends:
        cut += 1  # at a frame boundary the prefix is a whole stream
    with pytest.raises(ValueError, match="truncated"):
        fc.scan_frames(stream[:cut])
    with pytest.raises(ValueError, match="truncated"):
        fc.frame_boundaries(np.frombuffer(stream[:cut], np.uint8))
