"""Distributed GeoJSON source/sink + conversion pipelines (S12/K5)."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from geobuf_ray.io import geojson as gj
from geobuf_ray.io import geojson_io as gio

REF = "/root/reference/test_data"
needs_ref = pytest.mark.skipif(
    not os.path.exists(f"{REF}/county.geojson"), reason="reference corpus absent"
)


def spans_of(s: str):
    arr = np.frombuffer(s.encode(), np.uint8)
    starts, ends, _ = gio.feature_spans(arr)
    return [s[a:b] for a, b in zip(starts, ends)]


def test_feature_spans_string_aware():
    s = '{"a": "has } brace"} {"b": "quote \\" and {"} junk {"c": 1}'
    assert spans_of(s) == ['{"a": "has } brace"}', '{"b": "quote \\" and {"}',
                          '{"c": 1}']


def test_feature_spans_nested():
    s = '[{"g": {"x": [{"y": 1}]}},\n{"h": 2}]'
    assert spans_of(s) == ['{"g": {"x": [{"y": 1}]}}', '{"h": 2}']


def test_iter_feature_json_featurecollection(tmp_path):
    feats = [{"type": "Feature", "id": i, "properties": {"p": f"v{i}"},
              "geometry": {"type": "Point", "coordinates": [i * 1.0, -i * 1.0]}}
             for i in range(50)]
    p = tmp_path / "fc.geojson"
    p.write_text(json.dumps({"type": "FeatureCollection", "features": feats}))
    with open(p, "rb") as f:
        got = [json.loads(s) for batch in gio.iter_feature_json(f, chunk_size=256)
               for s in batch]
    assert got == feats


def test_iter_feature_json_line_delimited(tmp_path):
    feats = [{"type": "Feature", "id": i, "properties": {},
              "geometry": {"type": "Point", "coordinates": [i * 1.0, 0.0]}}
             for i in range(20)]
    p = tmp_path / "feats.ndjson"
    p.write_text("\n".join(json.dumps(f) for f in feats))
    with open(p, "rb") as f:
        got = [json.loads(s) for batch in gio.iter_feature_json(f, chunk_size=64)
               for s in batch]
    assert got == feats


@needs_ref
def test_read_geojson_county(ray_session):
    ds = gio.read_geojson(f"{REF}/county.geojson")
    rows = ds.take_all()
    ref = gj.load_feature_collection(f"{REF}/county.geojson")
    assert len(rows) == len(ref) == 3304
    by_id = {r["id"]: r for r in rows}
    for f in ref[:20]:
        row = by_id[f["id"]]
        flat = [v for ring in f["geometry"]["coordinates"] for pt in ring for v in pt]
        assert np.allclose(row["coords"], flat)
        assert row["AREA"] == f["properties"]["AREA"]


@needs_ref
def test_geojson_geobuf_roundtrip_pipelines(ray_session, tmp_path):
    from geobuf_ray.pipelines import convert

    gb_dir = str(tmp_path / "gb")
    m1 = convert.geojson_to_geobuf(f"{REF}/county.geojson", gb_dir)
    assert sum(m1["num_features"].to_pylist()) == 3304

    gj_dir = str(tmp_path / "gj")
    single = str(tmp_path / "county_rt.geojson")
    m2 = convert.geobuf_to_geojson(
        [p for p in m1["path"].to_pylist()], gj_dir, single_file=single)
    assert sum(m2["num_features"].to_pylist()) == 3304

    back = gj.load_feature_collection(single)
    ref = gj.load_feature_collection(f"{REF}/county.geojson")
    by_id = {f["id"]: f for f in back}
    assert len(by_id) == 3304
    for f in ref[:30]:
        b = by_id[f["id"]]
        ra = np.array([v for ring in f["geometry"]["coordinates"]
                       for pt in ring for v in pt])
        ba = np.array([v for ring in b["geometry"]["coordinates"]
                       for pt in ring for v in pt])
        assert len(ra) == len(ba)
        assert np.abs(ra - ba).max() <= 1.0000001e-7
        assert b["properties"]["AREA"] == f["properties"]["AREA"]
        # number->double rule: index survives as float
        assert float(b["properties"]["index"]) == float(f["properties"]["index"])


def test_geobuf_to_geojson_empty_input_single_file(ray_session, tmp_path):
    """A geobuf input with no features still yields a typed manifest and
    an (empty) single FeatureCollection file."""
    from geobuf_ray.pipelines import convert

    empty = tmp_path / "empty.geobuf"
    empty.write_bytes(b"")
    single = str(tmp_path / "all.geojson")
    m = convert.geobuf_to_geojson([str(empty)], str(tmp_path / "gj"),
                                  single_file=single)
    assert m.num_rows == 0
    assert m.schema.names == ["path", "num_features", "size_bytes"]
    assert gj.load_feature_collection(single) == []
