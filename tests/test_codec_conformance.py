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

import numpy as np
import pyarrow as pa
import pytest

from geobuf_ray.codec import decode as dc
from geobuf_ray.codec import feature as fc
from geobuf_ray.codec.schema import nested_from_flat
from geobuf_ray.codec.varint import decode_varint_scalar as dv
from geobuf_ray.io import geojson as gj

REF = "/root/reference/test_data"
needs_ref = pytest.mark.skipif(
    not os.path.exists(f"{REF}/county.geobuf"), reason="reference corpus absent"
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


def test_vectorized_scan_matches_scalar_on_county():
    """The lockstep vectorized structure scan must produce the exact
    span tables of the scalar walk on the reference corpus."""
    import numpy as np

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    stream = open(f"{REF}/county.geobuf", "rb").read()
    recs = fc.scan_frames(stream)
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
