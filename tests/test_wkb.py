"""WKB codec: pinned public byte vectors, all-type roundtrip, feature
corpus roundtrip through the geobuf codec, malformed-input errors."""

import json

import numpy as np
import pyarrow as pa
import pytest

from geobuf_ray.codec.wkb import decode_wkb, encode_wkb
from geobuf_ray.io.geojson_io import parse_features_batch

_FEATS = [
    {"type": "Feature", "geometry": {"type": "Point",
     "coordinates": [1.0, 2.0]}, "properties": {}},
    {"type": "Feature", "geometry": {"type": "LineString",
     "coordinates": [[0, 0], [1, 1], [2, 0]]}, "properties": {}},
    {"type": "Feature", "geometry": {"type": "MultiPoint",
     "coordinates": [[0, 0], [1, 1]]}, "properties": {}},
    {"type": "Feature", "geometry": {"type": "MultiLineString",
     "coordinates": [[[0, 0], [1, 1]], [[2, 2], [3, 3], [4, 4]]]},
     "properties": {}},
    {"type": "Feature", "geometry": {"type": "Polygon",
     "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 0]],
                     [[1, 1], [2, 1], [2, 2], [1, 1]]]},
     "properties": {}},
    {"type": "Feature", "geometry": {"type": "MultiPolygon",
     "coordinates": [[[[0, 0], [4, 0], [4, 4], [0, 0]]],
                     [[[9, 9], [10, 9], [10, 10], [9, 9]],
                      [[9.2, 9.2], [9.5, 9.2], [9.5, 9.5],
                       [9.2, 9.2]]]]}, "properties": {}},
]


def _tbl():
    return parse_features_batch([json.dumps(f) for f in _FEATS])


def test_pinned_public_byte_vectors():
    enc = encode_wkb(_tbl())
    # POINT(1 2): the canonical little-endian example
    want = bytes([1]) + (1).to_bytes(4, "little") \
        + np.array([1.0, 2.0]).tobytes()
    assert enc[0].as_py() == want
    # LINESTRING: header + count + 3 raw coordinate pairs
    ls = enc[1].as_py()
    assert ls[:9] == bytes([1]) + (2).to_bytes(4, "little") \
        + (3).to_bytes(4, "little")
    assert np.frombuffer(ls[9:], np.float64).tolist() == \
        [0, 0, 1, 1, 2, 0]
    # MultiPoint members carry their own 5-byte WKB headers
    assert len(enc[2].as_py()) == 9 + 2 * 21


def test_roundtrip_all_types_and_county():
    tbl = _tbl()
    dec = decode_wkb(encode_wkb(tbl))
    for c in ("geom_type", "dim", "coords", "ring_sizes", "poly_sizes"):
        assert tbl[c].combine_chunks().cast(dec[c].type).equals(
            dec[c].combine_chunks()), c
    # the suite's own corpus (mixed types, every property kind, empty
    # rings) through the engine's own geobuf decode, then WKB roundtrip
    # of its 2-D features (WKB here is 2-D only)
    import pyarrow.compute as pc
    from feature_corpus import stream

    from geobuf_ray.codec import decode, feature

    geo = decode.decode_batch(feature.scan_frames(stream()))
    geo = geo.filter(pc.equal(geo["dim"], 2))
    assert 0 in pc.list_flatten(geo["ring_sizes"]).to_pylist()
    dec2 = decode_wkb(encode_wkb(geo))
    for c in ("geom_type", "dim", "coords", "ring_sizes", "poly_sizes"):
        assert geo[c].combine_chunks().cast(dec2[c].type).equals(
            dec2[c].combine_chunks()), c


def test_malformed_inputs_raise():
    enc = encode_wkb(_tbl())
    good = bytearray(enc[0].as_py())
    be = bytes([0]) + good[1:]           # big-endian mark
    with pytest.raises(ValueError):
        decode_wkb(pa.array([be], pa.binary()))
    zm = bytearray(good)
    zm[1:5] = (1001).to_bytes(4, "little")   # WKB Z point
    with pytest.raises(ValueError):
        decode_wkb(pa.array([bytes(zm)], pa.binary()))
