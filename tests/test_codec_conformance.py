"""Codec conformance against the reference's own corpus.

Targets (SURVEY.md §5, FIXTURES.md F1/F2/F4):
- decode ``test_data/county.geobuf`` → value-equal to ``county.geojson``
  (geometry ≤1e-7/coordinate per ``read_feature_test.go:16``, property
  equality, matched by id);
- re-encode the geojson → geometry payload bytes identical to the
  reference's own encoder output, feature by feature;
- per-geometry-type round-trip fixpoint at ≤1e-7;
- framed stream round-trip (``writer.go:73-89`` framing).
"""

import json
import os
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st
from test_property_roundtrip import feature as random_feature

from geobuf_ray.codec import decode as dc
from geobuf_ray.codec import feature as fc
from geobuf_ray.codec.schema import nested_from_flat
from geobuf_ray.codec.varint import decode_varint_scalar as dv
from geobuf_ray.io import geojson as gj

REF = "/root/reference/test_data"
needs_ref = pytest.mark.skipif(
    not os.path.exists(f"{REF}/county.geobuf"),
    reason="the Go-encoded county corpus is not in this checkout",
)


def _sections(b: bytes) -> dict:
    """Split a record into id / geomcode / geometry / bbox sections."""
    out = {}
    pos = 0
    while pos < len(b):
        tag = b[pos]
        pos += 1
        if tag == 0x08:
            out["id"], pos = dv(b, pos)
        elif tag in (0x12, 0x22, 0x2A):
            ln, pos = dv(b, pos)
            if tag != 0x12:
                out[tag] = b[pos : pos + ln]
            pos += ln
        elif tag == 0x18:
            out["gc"] = b[pos]
            pos += 1
    return out


@pytest.fixture(scope="module")
def county():
    feats = gj.load_feature_collection(f"{REF}/county.geojson")
    buf = open(f"{REF}/county.geobuf", "rb").read()
    return feats, fc.scan_frames(buf)


@needs_ref
def test_county_decode_matches_geojson(county):
    feats, records = county
    tbl = dc.decode_batch(records)
    assert tbl.num_rows == len(feats) == 3304
    by_id = {f["id"]: f for f in feats}
    d = tbl.to_pydict()
    for i in range(tbl.num_rows):
        ref = by_id[d["id"][i]]
        ours = nested_from_flat(
            d["geom_type"][i], d["dim"][i], d["coords"][i],
            d["ring_sizes"][i], d["poly_sizes"][i],
        )
        oa = np.array([v for ring in ours for pt in ring for v in pt])
        ra = np.array(
            [v for ring in ref["geometry"]["coordinates"] for pt in ring for v in pt]
        )
        assert oa.shape == ra.shape
        assert np.abs(oa - ra).max() <= 1.0000001e-7
        for k, v in ref["properties"].items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                assert float(v) == float(d[k][i])
            else:
                assert str(v) == str(d[k][i])


@needs_ref
def test_county_encode_geometry_byte_parity(county):
    feats, records = county
    tbl = gj.features_to_table(feats)
    enc = fc.encode_batch(tbl, write_bbox=False)
    ref_by_id = {}
    for i in range(len(records)):
        s = _sections(records[i].as_py())
        ref_by_id[s["id"]] = s
    ids = tbl["id"].to_pylist()
    for i in range(len(enc)):
        s = _sections(enc[i].as_py())
        r = ref_by_id[ids[i]]
        assert s.get("gc") == r.get("gc")
        assert s.get(0x22) == r.get(0x22), f"geometry bytes differ for id {ids[i]}"
        assert 0x2A not in s  # county fixture stream has no bbox sections


@needs_ref
def test_county_reencode_fixpoint(county):
    _, records = county
    tbl = dc.decode_batch(records)
    enc = fc.encode_batch(tbl, prop_cols=["AREA", "COLORKEY", "area", "index"])
    tbl2 = dc.decode_batch(enc)
    for col in ("id", "geom_type", "dim", "ring_sizes", "poly_sizes",
                "AREA", "COLORKEY", "area", "index"):
        assert tbl2[col].to_pylist() == tbl[col].to_pylist(), col
    a = np.concatenate([np.asarray(x) for x in tbl["coords"].to_pylist()])
    b = np.concatenate([np.asarray(x) for x in tbl2["coords"].to_pylist()])
    assert np.abs(a - b).max() <= 1.0000001e-7


FIXTURES = [
    # one per geometry type; odd values exercise truncate-vs-round edges
    {"type": "Feature", "id": 7, "properties": {"name": "pt", "v": 3.5},
     "geometry": {"type": "Point", "coordinates": [-80.1234567, 39.9876543]}},
    {"type": "Feature", "properties": {"n": 199.0},
     "geometry": {"type": "LineString", "coordinates": [
         [-80.214562, 39.722209], [-80.214657, 39.722396], [-80.214843, 39.723198]]}},
    {"type": "Feature", "properties": {"b": True, "s": "ring"},
     "geometry": {"type": "Polygon", "coordinates": [
         [[-85.7, 31.6], [-85.6, 31.6], [-85.6, 31.7], [-85.7, 31.6]],
         [[-85.68, 31.62], [-85.66, 31.62], [-85.66, 31.64], [-85.68, 31.62]]]}},
    {"type": "Feature", "properties": {},
     "geometry": {"type": "MultiPoint", "coordinates": [
         [0.0000001, -0.0000001], [179.9999999, -89.9999999], [-179.1, 89.1]]}},
    {"type": "Feature", "properties": {"k": -12.0},
     "geometry": {"type": "MultiLineString", "coordinates": [
         [[-1.5, 2.5], [-1.6, 2.4]], [[10.0, 10.0], [10.1, 10.2], [10.3, 9.9]]]}},
    {"type": "Feature", "id": 1000001,
     "properties": {"AREA": "x", "COLORKEY": "#fff", "area": "y", "index": 13.0},
     "geometry": {"type": "MultiPolygon", "coordinates": [
         [[[-85.7, 31.6], [-85.6, 31.6], [-85.6, 31.7], [-85.7, 31.6]]],
         [[[1.1, 2.2], [3.3, 4.4], [5.5, 6.6], [1.1, 2.2]],
          [[2.0, 3.0], [2.5, 3.5], [2.1, 3.9], [2.0, 3.0]]]]}},
]


@pytest.mark.parametrize("feat", FIXTURES, ids=[f["geometry"]["type"] for f in FIXTURES])
def test_roundtrip_per_type(feat):
    tbl = gj.features_to_table([feat])
    enc = fc.encode_batch(tbl)
    out = dc.decode_batch(enc)
    assert out["geom_type"].to_pylist() == tbl["geom_type"].to_pylist()
    assert out["ring_sizes"].to_pylist() == tbl["ring_sizes"].to_pylist()
    assert out["poly_sizes"].to_pylist() == tbl["poly_sizes"].to_pylist()
    a = np.asarray(tbl["coords"].to_pylist()[0])
    b = np.asarray(out["coords"].to_pylist()[0])
    assert np.abs(a - b).max() <= 1.0000001e-7
    feats_out = gj.table_to_features(out)
    ref_props = {k: v for k, v in feat["properties"].items()}
    got = feats_out[0]["properties"]
    for k, v in ref_props.items():
        if isinstance(v, bool):
            assert got[k] is v
        elif isinstance(v, (int, float)):
            assert float(got[k]) == float(v)
        else:
            assert got[k] == v


def test_mixed_batch_roundtrip():
    tbl = gj.features_to_table(FIXTURES)
    enc = fc.encode_batch(tbl)
    out = dc.decode_batch(enc)
    assert out.num_rows == tbl.num_rows
    for i in range(tbl.num_rows):
        a = np.asarray(tbl["coords"].to_pylist()[i])
        b = np.asarray(out["coords"].to_pylist()[i])
        assert np.abs(a - b).max() <= 1.0000001e-7


def test_frame_scan_roundtrip():
    tbl = gj.features_to_table(FIXTURES)
    enc = fc.encode_batch(tbl)
    stream = fc.frame_records(enc)
    # framing: 0x0A varint(len) record (writer.go:73-89)
    assert stream[0] == 0x0A
    back = fc.scan_frames(stream)
    assert back.to_pylist() == enc.to_pylist()


def test_partial_reads():
    tbl = gj.features_to_table(FIXTURES)
    enc = fc.encode_batch(tbl)
    keys = dc.read_keys(enc)
    assert keys[0] == ["name", "v"]
    assert keys[3] == []
    bb = dc.read_bounding_boxes(enc).to_pylist()
    # Point bbox is the point itself (W,S,E,N)
    assert bb[0] == pytest.approx([-80.1234567, 39.9876543, -80.1234567, 39.9876543])
    mp = bb[3]
    assert mp == pytest.approx([-179.1, -89.9999999, 179.9999999, 89.1])


def test_property_type_coverage():
    tbl = pa.table({
        "id": pa.array([1, None], pa.int64()),
        "geom_type": pa.array([1, 1], pa.int8()),
        "dim": pa.array([2, 2], pa.int8()),
        "coords": pa.array([[1.0, 2.0], [3.0, 4.0]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[1], [1]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1], [1]], pa.list_(pa.int32())),
        "s": pa.array(["hello", None], pa.string()),
        "f32": pa.array([1.5, 2.5], pa.float32()),
        "f64": pa.array([1.25, None], pa.float64()),
        "i": pa.array([42, -7], pa.int64()),
        "u": pa.array([9, 2**40], pa.uint64()),
        "b": pa.array([True, False], pa.bool_()),
    })
    enc = fc.encode_batch(tbl)
    out = dc.decode_batch(enc)
    assert out["id"].to_pylist() == [1, None]
    assert out["s"].to_pylist() == ["hello", None]
    assert out["f32"].to_pylist() == [1.5, 2.5]
    assert out["f64"].to_pylist() == [1.25, None]
    assert out["i"].to_pylist() == [42, -7]
    assert out["u"].to_pylist() == [9, 2**40]
    assert out["b"].to_pylist() == [True, False]


def test_vectorized_scan_matches_scalar_on_feature_corpus():
    """The lockstep vectorized structure scan must produce the exact
    span tables of the scalar walk on a real multi-feature stream (the
    suite's own corpus: every geometry type and property kind, empty
    rings)."""
    import numpy as np
    from feature_corpus import stream

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    recs = fc.scan_frames(stream())
    data, offs = dc._binary_parts(recs)
    a = dc._structure_scan_vec(data, offs)
    b = dc._structure_scan_scalar(data, offs)
    for k in b:
        assert np.array_equal(a[k], b[k]), k


def test_empty_geometry_feature_in_mixed_batch():
    """A zero-coordinate feature must emit no geometry bytes at all —
    its ring prefixes used to corrupt the batch concat (review find)."""
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    tbl = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "geom_type": pa.array([1, 3], pa.int8()),
        "dim": pa.array([2, 2], pa.int8()),
        "coords": pa.array([[5.0, 6.0], []], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[1], [0]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1], [1]], pa.list_(pa.int32())),
    })
    dec = dc.decode_batch(fc.encode_batch(tbl))
    assert dec["coords"].to_pylist() == [[5.0, 6.0], []]
    assert dec["id"].to_pylist() == [1, 2]


def test_3d_point_decodes_with_consistent_dim():
    """The writer stores only 2 values for a Point with claimed dim 3
    (geom.go:200 quirk); the decoder must clamp dim so that
    len(coords) == ring_size * dim and re-encode round-trips."""
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc
    from geobuf_ray.io import geojson as gj

    tbl = pa.table({
        "id": pa.array([7], pa.int64()),
        "geom_type": pa.array([1], pa.int8()),
        "dim": pa.array([3], pa.int8()),
        "coords": pa.array([[1.5, 2.5, 99.0]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[1]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]], pa.list_(pa.int32())),
    })
    dec = dc.decode_batch(fc.encode_batch(tbl))
    assert dec["dim"].to_pylist() == [2]
    assert dec["coords"].to_pylist() == [[1.5, 2.5]]
    # geojson export and re-encode both work on the decoded table
    feats = gj.table_to_features(dec)
    assert feats[0]["geometry"]["coordinates"] == [1.5, 2.5]
    dec2 = dc.decode_batch(fc.encode_batch(dec))
    assert dec2["coords"].to_pylist() == [[1.5, 2.5]]


def test_3d_geojson_roundtrip_drops_z_only_from_points():
    """The wire rule for 3-D input: a Point is written as x and y only
    (geom.go:200), so it decodes with dim 2, while every other type
    keeps its z."""
    feats = [
        {"type": "Feature", "id": 1, "properties": {},
         "geometry": {"type": "Point", "coordinates": [1.5, 2.5, 9.0]}},
        {"type": "Feature", "id": 2, "properties": {},
         "geometry": {"type": "LineString",
                      "coordinates": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}},
    ]
    dec = dc.decode_batch(fc.encode_batch(gj.features_to_table(feats)))
    assert dec["dim"].to_pylist() == [2, 3]
    back = gj.table_to_features(dec)
    assert back[0]["geometry"]["coordinates"] == [1.5, 2.5]
    assert back[1]["geometry"]["coordinates"] == [[1.0, 2.0, 3.0],
                                                  [4.0, 5.0, 6.0]]


def test_mixed_bbox_presence_alignment():
    """Records with and without bbox sections in one batch must decode
    each bbox against ITS OWN feature (review find: compact/scatter
    mismatch assigned neighbors' bboxes)."""
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    def one(x):
        return pa.table({
            "id": pa.array([x], pa.int64()),
            "geom_type": pa.array([1], pa.int8()),
            "dim": pa.array([2], pa.int8()),
            "coords": pa.array([[float(x), float(-x)]], pa.list_(pa.float64())),
            "ring_sizes": pa.array([[1]], pa.list_(pa.int32())),
            "poly_sizes": pa.array([[1]], pa.list_(pa.int32())),
        })

    recs = []
    for x, bbox in ((1, False), (2, True), (3, True)):
        recs.append(fc.encode_batch(one(x), write_bbox=bbox)[0].as_py())
    bb = dc.read_bounding_boxes(pa.array(recs, pa.binary()))
    got = bb.to_pylist()
    assert got[0] is None
    assert got[1] == [2.0, -2.0, 2.0, -2.0]
    assert got[2] == [3.0, -3.0, 3.0, -3.0]


def test_empty_geometry_preserves_type_and_interior_empty_ring():
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    # empty polygon keeps its geom_type through a round trip
    tbl = pa.table({
        "id": pa.array([5], pa.int64()),
        "geom_type": pa.array([3], pa.int8()),
        "dim": pa.array([2], pa.int8()),
        "coords": pa.array([[]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[]], pa.list_(pa.int32())),
    })
    dec = dc.decode_batch(fc.encode_batch(tbl))
    assert dec["geom_type"].to_pylist() == [3]
    assert dec["coords"].to_pylist() == [[]]

    # polygon with an INTERIOR empty ring round-trips exactly
    ring = [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]
    tbl2 = pa.table({
        "id": pa.array([6], pa.int64()),
        "geom_type": pa.array([3], pa.int8()),
        "dim": pa.array([2], pa.int8()),
        "coords": pa.array([ring + ring], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[4, 0, 4]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[3]], pa.list_(pa.int32())),
    })
    dec2 = dc.decode_batch(fc.encode_batch(tbl2))
    assert dec2["ring_sizes"].to_pylist() == [[4, 0, 4]]
    assert dec2["coords"].to_pylist() == [ring + ring]


def test_multipolygon_empty_polygon_dropped_not_crashed():
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    ring = [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]
    for poly_sizes in ([[1, 0]], [[0, 1]]):
        tbl = pa.table({
            "id": pa.array([9], pa.int64()),
            "geom_type": pa.array([6], pa.int8()),
            "dim": pa.array([2], pa.int8()),
            "coords": pa.array([ring], pa.list_(pa.float64())),
            "ring_sizes": pa.array([[4]], pa.list_(pa.int32())),
            "poly_sizes": pa.array(poly_sizes, pa.list_(pa.int32())),
        })
        dec = dc.decode_batch(fc.encode_batch(tbl))
        # documented: empty polygons drop at encode
        assert dec["poly_sizes"].to_pylist() == [[1]], poly_sizes
        assert dec["ring_sizes"].to_pylist() == [[4]]
        assert dec["coords"].to_pylist() == [ring]


def test_frame_boundaries_overflowing_length_varint_raises():
    """ADVICE r2: a corrupted 10-byte length varint that overflows
    uint64 into a negative int64 must dead-end (raise), not chain
    backward into garbage spans."""
    import numpy as np
    import pytest

    from geobuf_ray.codec.feature import frame_boundaries

    # 0x0A + varint(2^63) -> int64-negative vlen, then filler bytes
    bad = bytes([0x0A] + [0x80] * 9 + [0x01]) + b"\x00" * 16
    data = np.frombuffer(bad, np.uint8)
    with pytest.raises(ValueError):
        frame_boundaries(data, partial=False)
    # partial mode: the corrupt frame is left unconsumed, zero frames
    starts, lens, consumed = frame_boundaries(data, partial=True)
    assert len(starts) == 0 and consumed == 0


def test_ring_prefix_past_record_end_raises_value_error():
    """A corrupt ring prefix claims more values than the record holds
    (one flipped bit in a Polygon's prefix): the decoder raises
    ValueError naming the record, in a batch and on its own."""
    from feature_corpus import stream

    recs = fc.scan_frames(stream()).to_pylist()
    bad = bytearray(recs[20])
    bad[153] ^= 0x80
    batch = recs[:20] + [bytes(bad)] + recs[21:]
    with pytest.raises(ValueError, match="record 20"):
        dc.decode_batch(pa.array(batch, pa.binary()))
    with pytest.raises(ValueError, match="record 0"):
        dc.decode_batch(pa.array([bytes(bad)], pa.binary()))


@pytest.mark.parametrize("bit", [6, 7])
def test_geometry_past_record_end_raises_value_error(bit):
    """One flipped bit makes a record's geometry field run past the
    record's end: the decoder raises ValueError naming the record, in a
    batch and on its own, instead of gathering bytes that are not
    the record's (on its own, an IndexError past the data)."""
    from feature_corpus import stream

    recs = fc.scan_frames(stream()).to_pylist()
    bad = bytearray(recs[130])
    bad[136] ^= 1 << bit
    batch = recs[:130] + [bytes(bad)] + recs[131:]
    with pytest.raises(ValueError, match="record 130"):
        dc.decode_batch(pa.array(batch, pa.binary()))
    with pytest.raises(ValueError, match="record 0"):
        dc.decode_batch(pa.array([bytes(bad)], pa.binary()))


@pytest.mark.parametrize("corrupt", ["property_length", "truncated"])
def test_field_past_record_end_raises_value_error(corrupt):
    """A field that runs past its record: one flipped bit in a
    property's length, or a record cut one byte short (inside its
    bbox).  Both structure scans raise ValueError naming the record, in
    a batch and on its own, instead of reading the next record's bytes
    as the field's."""
    from feature_corpus import stream

    recs = fc.scan_frames(stream()).to_pylist()
    bad = bytearray(recs[42])
    if corrupt == "property_length":
        bad[99] ^= 1 << 6
    else:
        del bad[-1]
    bad = bytes(bad)
    # a field the writer never emits sends the batch to the scalar walk
    unknown = recs[0] + bytes([0x30, 0x05])
    data, offs = dc._binary_parts(pa.array([bad, unknown], pa.binary()))
    with pytest.raises(dc._UnknownTag):
        dc._structure_scan_vec(data, offs)
    for tail in ([], [unknown]):
        batch = recs[:42] + [bad] + recs[43:] + tail
        with pytest.raises(ValueError, match="record 42"):
            dc.decode_batch(pa.array(batch, pa.binary()))
        with pytest.raises(ValueError, match="record 0"):
            dc.decode_batch(pa.array([bad] + tail, pa.binary()))


@pytest.mark.parametrize("cut", [
    "080118",        # geomcode tag as the last byte (vectorized scan)
    "080140011285",  # unknown tag, then a cut length varint (scalar walk)
    "400108",        # unknown tag, then an id varint cut (scalar walk)
])
def test_record_cut_inside_a_field_raises_value_error(cut):
    """A record cut short inside a field raises ValueError naming it,
    on its own (where the field runs past the data: an IndexError
    before) and followed by two intact records."""
    from feature_corpus import stream

    recs = fc.scan_frames(stream()).to_pylist()
    bad = bytes.fromhex(cut)
    for batch in ([bad], [bad] + recs[:2]):
        with pytest.raises(ValueError, match="record 0"):
            dc.decode_batch(pa.array(batch, pa.binary()))


@pytest.mark.parametrize("where", ["key", "geometry", "keyvalue"])
def test_wrapped_length_raises_value_error(where):
    """A length varint at or past 2^63 wraps negative as an int64; the
    record must still fail as a ValueError naming it (an IndexError or
    OverflowError before), on its own and ahead of two intact records,
    from every entry point.  ``key``: record 89 of the corpus with byte
    0x52 inserted at offset 3, which turns a property key's length into
    a 10-byte varint."""
    from feature_corpus import stream

    recs = fc.scan_frames(stream()).to_pylist()
    bad = {"key": recs[89][:3] + b"\x52" + recs[89][3:],
           "geometry": bytes.fromhex("22" + "80" * 9 + "01"),
           "keyvalue": bytes.fromhex("12" + "ff" * 9 + "01")}[where]
    for batch in ([bad], [bad] + recs[:2]):
        for fn in (dc.decode_batch, dc.read_bounding_boxes, dc.read_keys):
            with pytest.raises(ValueError, match="record 0"):
                fn(pa.array(batch, pa.binary()))


@needs_ref
def test_ld_corpus_roundtrip():
    """Roundtrip the reference's second real corpus
    (``test_data/ld.geojson``, 2.1 MB line-delimited Polygons): the
    brace scanner must find every feature, and encode -> decode must
    reproduce geometry within the 1e-7 reference tolerance
    (read_feature_test.go:16) plus exact property equality, with the
    requantization identity holding on a second encode."""
    from geobuf_ray.io import geojson_io as gio

    with open(f"{REF}/ld.geojson", "rb") as f:
        batches = [b for b in gio.iter_feature_json(f)]
    strs = [s for b in batches for s in b]
    assert len(strs) > 100
    # the brace scanner and the line-delimited loader agree on count
    assert len(strs) == len(gj.load_line_delimited(f"{REF}/ld.geojson"))
    tbl = gio.parse_features_batch(strs)
    assert tbl.num_rows == len(strs)
    from geobuf_ray.codec.schema import property_columns
    props = sorted(property_columns(tbl))
    enc = fc.encode_batch(tbl, prop_cols=props)
    dec = dc.decode_batch(enc)
    assert dec.num_rows == tbl.num_rows
    import numpy as np
    a = tbl["coords"].combine_chunks().values.to_numpy(zero_copy_only=False)
    b = dec["coords"].combine_chunks().values.to_numpy(zero_copy_only=False)
    assert len(a) == len(b)
    assert np.abs(a - b).max() <= 1.0000001e-7
    assert dec["geom_type"].to_pylist() == tbl["geom_type"].to_pylist()
    for name in props:
        if name in dec.column_names:
            w, g = tbl[name].to_pylist(), dec[name].to_pylist()
            for wi, gi in zip(w, g):
                if isinstance(wi, float):
                    assert gi == wi or abs(gi - wi) < 1e-9 * max(abs(wi), 1)
                else:
                    assert gi == wi
    # encode∘decode is the identity on the quantized domain
    assert fc.encode_batch(dec, prop_cols=props).equals(enc)


def _line(xs) -> pa.Table:
    n = len(xs)
    coords = np.zeros(2 * n)
    coords[0::2] = xs
    return pa.table({
        "id": pa.array([1], pa.int64()),
        "geom_type": pa.array([2], pa.int8()),
        "dim": pa.array([2], pa.int8()),
        "coords": pa.array([coords], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[n]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]], pa.list_(pa.int32())),
    })


def test_int32_span_shortcut_boundary_matches_int64_path():
    """Spans within a few quanta of 2^31 / 1e7 degrees: the int32 lane's
    span shortcut must never let a delta wrap, so its bytes equal the
    int64 lane's.  A 3-D point in the batch turns the dim-2 lane off and
    forces the int64 lane for the reference record."""
    third = pa.table({
        "id": pa.array([2], pa.int64()),
        "geom_type": pa.array([1], pa.int8()),
        "dim": pa.array([3], pa.int8()),
        "coords": pa.array([[0.0, 0.0, 0.0]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([[1]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]], pa.list_(pa.int32())),
    })
    half = 2**30 / 1e7
    for quanta in range(-6, 7):
        for frac in (0.0, 0.25, 0.5, 0.75, 0.999):
            lo = -half - (quanta + frac) * 1e-7 / 2
            hi = half + (quanta + frac) * 1e-7 / 2
            line = _line([lo, hi, lo, 0.0, hi])
            fast = fc.encode_batch(line)[0].as_py()
            ref = fc.encode_batch(pa.concat_tables([line, third]))[0].as_py()
            assert fast == ref, (quanta, frac)
            q = (np.array([lo, hi, lo, 0.0, hi]) * 1e7).astype(np.int64)
            got = dc.decode_batch(pa.array([fast], pa.binary()))
            xs = np.array(got["coords"][0].as_py()[0::2])
            assert (np.round(xs * 1e7).astype(np.int64) == q).all(), (quanta, frac)


@pytest.mark.parametrize("third", [False, True], ids=["2d", "mixed_dim"])
@pytest.mark.parametrize("x", ["null", "NaN", "1e400", "1e12"])
def test_encode_refuses_a_coordinate_it_cannot_write(x, third):
    """A null, NaN or infinite coordinate, or one whose quantized value
    does not fit int64, fails the batch with a ValueError naming the
    record, in the dim-2 lanes and the general one (they used to encode
    and decode as x = -922337203685.4775)."""
    from geobuf_ray.io.geojson_io import parse_features_batch

    line = '{"type":"Feature","geometry":{"type":"LineString","coordinates":%s}}'
    tbl = parse_features_batch([line % "[[1, 2], [3, 4]]",
                                line % f"[[1, 2], [{x}, 2.5]]"])
    if third:
        tbl = pa.concat_tables([tbl, parse_features_batch(
            [line % "[[1, 2, 3], [3, 4, 5]]"])])
    with pytest.raises(ValueError, match="^record 1: coordinate"):
        fc.encode_batch(tbl)


@pytest.mark.parametrize("third", [False, True], ids=["2d", "mixed_dim"])
def test_encode_refuses_a_delta_past_int64(third):
    """Two quantized values that each fit int64 but whose difference
    does not fail the record instead of wrapping."""
    from geobuf_ray.io.geojson_io import parse_features_batch

    line = '{"type":"Feature","geometry":{"type":"LineString","coordinates":%s}}'
    tbl = parse_features_batch([line % "[[1, 2], [3, 4]]",
                                line % "[[9e11, 0], [9e11, 1]]",
                                line % "[[9e11, 0], [-9e11, 0]]"])
    if third:
        tbl = pa.concat_tables([tbl, parse_features_batch(
            [line % "[[1, 2, 3], [3, 4, 5]]"])])
    with pytest.raises(ValueError, match="^record 2: a coordinate delta"):
        fc.encode_batch(tbl)
    assert len(fc.encode_batch(tbl.slice(0, 2))) == 2


# The suite's corpus as records, and a batch size past the crossover
# of the two structure walks: a batch of one record takes the scalar
# walk, a batch of _BIG records the vectorised one.
def _corpus_records() -> list[bytes]:
    from feature_corpus import stream

    return fc.scan_frames(stream()).to_pylist()


_RECS = _corpus_records()
_BIG = dc._SCALAR_MAX_RECORDS + 2
# an id varint of 10 bytes whose value needs 70 bits, then a field the
# writer never emits (field 2, varint 1)
_OVERFLOW = bytes.fromhex("08" + "ff" * 9 + "7f" + "1001")


def _in_big_batch(rec: bytes, at: int = 7) -> list[bytes]:
    return _RECS[:at] + [rec] + _RECS[at:_BIG - 1]


@pytest.mark.parametrize("rec", [_OVERFLOW, _OVERFLOW[:-2]],
                         ids=["unknown_field_after", "alone"])
def test_varint_past_64_bits_raises_value_error(rec):
    """A 10-byte varint whose value needs more than 64 bits fails the
    record as a ValueError naming it, from every entry point and with
    either structure walk (an OverflowError from the scalar walk, or an
    id of -1 from the vectorised walk, before)."""
    for batch, at in (([rec], 0), (_in_big_batch(rec), 7)):
        arr = pa.array(batch, pa.binary())
        for fn in (dc.decode_batch, dc.read_bounding_boxes, dc.read_keys):
            with pytest.raises(ValueError, match=f"record {at} needs"):
                fn(arr)


def _multipolygon(values: list[int]) -> bytes:
    """A 2-D MultiPolygon record whose geometry is ``values``."""
    from geobuf_ray.codec.varint import encode_varint_scalar as ev

    geom = b"".join(ev(v) for v in values)
    return bytes([0x18, 6, 0x22, len(geom)]) + geom


@pytest.mark.parametrize("values,match", [
    ([2**64 - 1, 2, 2], "count of record"),   # stalled the ring walk
    ([2**63, 2, 2], "count of record"),
    ([3, 2, 2, 2], "polygons of record"),    # 3 rings claimed, 1 held
])
def test_bad_ring_or_polygon_count_raises_value_error(values, match):
    """A ring or polygon count that the record's geometry cannot hold
    fails the record as a ValueError naming it, with either prefix
    walk.  A count of 2^64 - 1 wrapped to -1 and looped forever."""
    bad = _multipolygon(values)
    for batch, at in (([bad], 0), (_in_big_batch(bad), 7)):
        with pytest.raises(ValueError, match=f"{match} {at}"):
            dc.decode_batch(pa.array(batch, pa.binary()))


def _encoded(feats: list[dict]) -> list[bytes]:
    from geobuf_ray.io import geojson as gj

    if not feats:
        return []
    return fc.encode_batch(gj.features_to_table(feats)).to_pylist()


@settings(max_examples=25, deadline=None)
@given(feats=st.lists(random_feature, max_size=6),
       size=st.sampled_from([1, dc._SCALAR_MAX_RECORDS - 1,
                             dc._SCALAR_MAX_RECORDS,
                             dc._SCALAR_MAX_RECORDS + 1]),
       start=st.integers(0, len(_RECS) - 1))
def test_structure_walks_agree(feats, size, start):
    """Both structure walks return equal span tables on corpus and
    generated records, at batch sizes around the crossover; and the
    decoded table does not depend on which walk ran, nor on whether the
    batch is a slice of a larger array."""
    pool = _encoded(feats) + _RECS[start:] + _RECS[:start]
    batch = (pool * (size // len(pool) + 1))[:size]
    arr = pa.array(batch, pa.binary())
    data, offs = dc._binary_parts(arr)
    vec = dc._structure_scan_vec(data, offs)
    scalar = dc._structure_scan_scalar(data, offs)
    for k in vec:
        assert vec[k].dtype == scalar[k].dtype, k
        assert np.array_equal(vec[k], scalar[k]), k
    with mock.patch.object(dc, "_SCALAR_MAX_RECORDS", 0):
        by_vec = dc.decode_batch(arr, include_bbox=True)
    with mock.patch.object(dc, "_SCALAR_MAX_RECORDS", size):
        by_scalar = dc.decode_batch(arr, include_bbox=True)
        sliced = pa.array([b"\x08\x01"] + batch, pa.binary()).slice(1)
        assert dc.decode_batch(sliced, include_bbox=True).equals(by_scalar)
    assert by_vec.equals(by_scalar)
    assert dc.decode_batch(arr, include_bbox=True).equals(by_vec)


@st.composite
def _mutated(draw) -> bytes:
    """A corpus record cut short, with 1-3 bits flipped, or with one
    byte inserted."""
    rec = _RECS[draw(st.integers(0, len(_RECS) - 1))]
    kind = draw(st.sampled_from(["cut", "flip", "insert"]))
    if kind == "cut":
        return rec[:draw(st.integers(0, len(rec) - 1))]
    if kind == "insert":
        at = draw(st.integers(0, len(rec)))
        return rec[:at] + bytes([draw(st.integers(0, 255))]) + rec[at:]
    out = bytearray(rec)
    for at, bit in draw(st.lists(st.tuples(st.integers(0, len(rec) - 1),
                                           st.integers(0, 7)),
                                 min_size=1, max_size=3)):
        out[at] ^= 1 << bit
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(_mutated())
@example(_RECS[89][:3] + b"\x52" + _RECS[89][3:])
@example(_OVERFLOW)
def test_mutated_record_decodes_or_raises_value_error(bad):
    """Fail-closed: a corrupted record, alone (the scalar walk) or in a
    batch past the crossover (the vectorised walk), decodes or raises
    ValueError from every entry point, and nothing else."""
    for batch in ([bad], _in_big_batch(bad)):
        arr = pa.array(batch, pa.binary())
        for fn in (dc.decode_batch, dc.read_bounding_boxes, dc.read_keys):
            try:
                fn(arr)
            except ValueError:
                pass
