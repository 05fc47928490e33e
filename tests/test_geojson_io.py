"""Distributed GeoJSON source/sink + conversion pipelines (S12/K5)."""

import gc
import json

import numpy as np
import pytest

import feature_corpus
import feature_oracle
from feature_oracle import geometry_from_nested
from geobuf_ray.codec.schema import GEOM_TYPE_CODES
from geobuf_ray.io import geojson as gj
from geobuf_ray.io import geojson_io as gio


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


def _spans_reference(s: bytes, start_depth: int):
    """Per-character state machine with ``feature_spans``' contract: a
    quote after an odd backslash run is escaped, braces inside strings
    do not count, starts and ends pair up in order."""
    starts, ends = [], []
    depth, in_str, run = start_depth, False, 0
    for i, c in enumerate(s):
        if c == 0x5C:
            run += 1
            continue
        if c == 0x22 and run % 2 == 0:
            in_str = not in_str
        elif c == 0x7B and not in_str:
            depth += 1
            if depth == 1:
                starts.append(i)
        elif c == 0x7D and not in_str:
            depth -= 1
            if depth == 0:
                ends.append(i + 1)
        run = 0
    m = min(len(starts), len(ends))
    return starts[:m], ends[:m], depth


def test_feature_spans_matches_reference_scanner():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    tokens = st.sampled_from(["{", "}", '"', "\\", "a", ",", ":", "[", "]",
                              " ", '\\"', "\\\\", "\\\\\\", '\\\\\\"'])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(tokens, max_size=60), st.sampled_from([0, 1]))
    def check(parts, start_depth):
        s = "".join(parts).encode()
        starts, ends, depth = gio.feature_spans(np.frombuffer(s, np.uint8),
                                                start_depth)
        assert starts.dtype == ends.dtype == np.int64
        assert (starts.tolist(), ends.tolist(), depth) == \
            _spans_reference(s, start_depth)

    check()


def test_iter_feature_json_same_at_every_chunk_size(tmp_path):
    """Line-delimited features past the 1 MiB head, some with quotes,
    backslashes and braces in their strings, split the same at every
    chunk size."""
    base = feature_corpus.features()
    feats = []
    for i in range(3100):
        f = json.loads(json.dumps(base[i % len(base)]))
        f["id"] = i
        if i % 7 == 0:
            f["properties"]["name"] = f'a "q{i}" {{x}} \\ \\"}} end'
        feats.append(f)
    p = tmp_path / "flow.ndjson"
    p.write_text("".join(json.dumps(f, separators=(",", ":")) + "\n"
                         for f in feats))
    assert p.stat().st_size > (1 << 20) + 8192
    for chunk_size in (7, 64, 4096):
        with open(p, "rb") as f:
            got = [json.loads(s) for batch in
                   gio.iter_feature_json(f, chunk_size=chunk_size)
                   for s in batch]
        assert got == feats, chunk_size


@pytest.mark.parametrize("geometry", [
    {"type": "LineString", "coordinates": [[1, 2, 3], [4, 5]]},
    {"type": "Point", "coordinates": [1]},
    {"type": "Polygon", "coordinates": [[[0, 0], [1], [0, 0]]]},
    {"type": "Circle", "coordinates": [0, 0]},
    {"type": "LineString", "coordinates": [1, 2]},
    {"type": "Polygon", "coordinates": [[1, 2], [3, 4]]},
    {"type": "MultiPolygon", "coordinates": [[[1, 2]]]},
], ids=["short_later_position", "one_value_point", "one_value_ring_vertex",
        "unknown_type", "linestring_of_numbers", "polygon_of_positions",
        "multipolygon_of_rings"])
def test_malformed_geometry_raises_value_error_at_parse(geometry):
    feat = {"type": "Feature", "properties": {}, "geometry": geometry}
    with pytest.raises(ValueError):
        gio.parse_features_batch([json.dumps(feat)])
    with pytest.raises(ValueError):
        geometry_from_nested(geometry["type"], geometry["coordinates"])


def test_longer_positions_truncate_to_first_dim():
    g = geometry_from_nested("LineString", [[1, 2], [3, 4, 5]])
    assert (g["dim"], g["coords"]) == (2, [1, 2, 3, 4])


def _feature_json(geometry, fid=None, props=None) -> str:
    return json.dumps({"type": "Feature", "id": fid, "properties": props or {},
                       "geometry": geometry})


_LINE = {"type": "LineString", "coordinates": [[1, 2], [3, 4]]}


@pytest.mark.parametrize("geometry", [
    {"type": "LineString", "coordinates": [[1, 2], ["a", 4]]},
    {"type": "LineString", "coordinates": [[1, 2], None]},
    {"type": "Polygon", "coordinates": [[[0, 0], [1, 1], [0, 0]], None]},
    {"type": "MultiPolygon", "coordinates": [None]},
    {"type": "Point", "coordinates": [[1, 2]]},
    {"type": "MultiPoint", "coordinates": [[1, 2], [3]]},
], ids=["string_value", "null_position", "null_ring", "null_polygon",
        "nested_point", "short_position"])
def test_malformed_geometry_error_names_the_feature(geometry):
    """The error names the feature's index in the batch, after a good
    feature of another type and one of the same type."""
    same = {"type": geometry["type"],
            "coordinates": {"Point": [1, 2],
                            "MultiPoint": [[1, 2]],
                            "LineString": [[1, 2], [3, 4]],
                            "Polygon": [[[0, 0], [1, 1], [0, 0]]],
                            "MultiPolygon": [[[[0, 0], [1, 1], [0, 0]]]],
                            }[geometry["type"]]}
    batch = [_feature_json({"type": "Point", "coordinates": [0, 0]}),
             _feature_json(same), _feature_json(geometry)]
    with pytest.raises(ValueError, match="^feature 2: "):
        gio.parse_features_batch(batch)


def test_batch_parse_keeps_one_feature_per_string():
    """One ``json.loads`` parses the batch, but a string holding two
    features still fails, and a bad string is named by its index."""
    with pytest.raises(ValueError, match="2 values"):
        gio.parse_features_batch(['{"a": 1}, {"b": 2}'])
    with pytest.raises(json.JSONDecodeError, match="^feature 1: "):
        gio.parse_features_batch([_feature_json(_LINE), '{"type": ',
                                  _feature_json(_LINE)])
    assert gio.parse_features_batch([]).num_rows == 0


@pytest.mark.parametrize("bad", [
    '[1, 2]',
    '{"type": "Feature", "geometry": "Point"}',
    '{"type": "Feature", "properties": [1], "geometry": %s}'
    % json.dumps(_LINE),
], ids=["feature_array", "geometry_string", "properties_array"])
def test_non_object_feature_parts_name_the_feature(bad):
    """A feature, geometry or properties that is not a JSON object fails
    with a ValueError naming the feature, not an AttributeError."""
    with pytest.raises(ValueError, match="^feature 1: .*not an object"):
        gio.parse_features_batch([_feature_json(_LINE), bad])


@pytest.mark.parametrize("fid", ["NaN", "Infinity", "1e19",
                                 "9223372036854775808"])
def test_id_outside_int64_becomes_null(fid):
    """An id that is a number but does not fit int64 becomes null, as a
    non-numeric id does, and the batch's other ids survive."""
    bad = _feature_json(_LINE).replace('"id": null', f'"id": {fid}')
    tbl = gio.parse_features_batch([_feature_json(_LINE, fid=-(2**63)), bad,
                                    _feature_json(_LINE, fid=7.9)])
    assert tbl["id"].to_pylist() == [-(2**63), None, 7]


def test_integer_property_past_2_53_rounds_as_float_does():
    """Arrow refuses to convert an integer past 2^53 to a double; the
    column then takes the per-value path, where ``float()`` rounds it,
    mixed with floats or alone."""
    big = 2**53 + 1
    feats = [json.loads(_feature_json(_LINE, 1, {"n": big, "m": big})),
             json.loads(_feature_json(_LINE, 2, {"n": 0.5, "m": 3}))]
    tbl = gj.features_to_table(feats)
    assert tbl["n"].to_pylist() == [float(big), 0.5]
    assert tbl["m"].to_pylist() == [float(big), 3.0]
    assert tbl.equals(feature_oracle.features_to_table(feats))


def test_property_key_order_and_mixed_types_match_oracle():
    """Keys come in the order they are first seen with a kept value, and
    a mixed-type key keeps its majority type."""
    feats = [json.loads(_feature_json(_LINE, i, p)) for i, p in enumerate([
        {"late": None, "mix": "a", "gone": [1], "b": True},
        {"mix": 1, "late": 2, "gone": {"x": 1}},
        {"mix": 2.5, "b": 3, "late": "s"},
        {"mix": False, "b": False},
    ])]
    tbl = gj.features_to_table(feats)
    assert tbl.column_names[6:] == ["mix", "b", "late"]
    assert tbl["mix"].to_pylist() == [None, 1.0, 2.5, None]
    assert tbl["b"].to_pylist() == [True, None, None, False]
    assert tbl.equals(feature_oracle.features_to_table(feats))


def test_columnwise_table_equals_oracle_on_corpora(tmp_path):
    """The suite corpus and a benchmark-generator corpus build the same
    table, schema included, as the per-feature oracle."""
    from perfbench import gen

    feats = feature_corpus.features()
    assert gj.features_to_table(feats).equals(
        feature_oracle.features_to_table(feats))
    corpus = gen.geojson_corpus(str(tmp_path / "flow"), 3000, seed=5)
    with open(corpus["paths"][0]) as f:
        lines = f.read().splitlines()
    got = gio.parse_features_batch(lines)
    assert got.num_rows == 3000
    assert got.equals(feature_oracle.features_to_table(map(json.loads, lines)))


def _geometry_strategy():
    from hypothesis import strategies as st

    value = st.one_of(st.floats(-180, 180, allow_nan=False),
                      st.integers(-180, 180))

    @st.composite
    def geometry(draw):
        kind = draw(st.sampled_from(feature_corpus.KINDS))
        dim = draw(st.sampled_from([2, 3]))
        longer = draw(st.booleans())

        def position():
            n = dim + (draw(st.integers(0, 2)) if longer else 0)
            return draw(st.lists(value, min_size=n, max_size=n))

        def positions():
            return [position() for _ in range(draw(st.integers(0, 4)))]

        # the first ring's first position sets dim, so only later
        # positions may be longer
        if kind == "Point":
            coords = rings = [[position()]]
        elif kind in ("LineString", "MultiPoint"):
            coords = [position()] + positions()
            rings = [coords]
        elif kind in ("Polygon", "MultiLineString"):
            coords = rings = [positions()
                              for _ in range(draw(st.integers(1, 3)))]
        else:
            coords = [[positions() for _ in range(draw(st.integers(0, 2)))]
                      for _ in range(draw(st.integers(1, 3)))]
            rings = [r for poly in coords for r in poly]
        if rings and rings[0]:
            del rings[0][0][dim:]
        if kind == "Point":
            coords = coords[0][0]
        return draw(st.sampled_from([
            {"type": kind, "coordinates": coords},
            {"type": kind, "coordinates": coords},
            {"type": kind, "coordinates": coords},
            None, {}, {"type": kind, "coordinates": []},
            {"type": kind, "coordinates": None}]))

    return geometry()


def test_columnwise_table_equals_oracle_on_generated_features():
    """All six types in 2-D and 3-D, longer positions, empty rings and
    polygons, empty or null geometry, every kind of id and mixed-type
    property keys: the table equals the per-feature oracle's, built from
    the dicts and from their JSON strings."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    fid = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                    st.integers(-(2**70), 2**70), st.floats())
    prop_value = st.one_of(
        st.none(), st.booleans(), st.text(max_size=4),
        st.integers(-(2**64), 2**64),
        st.floats(allow_nan=False), st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
    feature = st.builds(
        lambda i, g, p: {"type": "Feature", "id": i, "geometry": g,
                         "properties": p},
        fid, _geometry_strategy(),
        st.dictionaries(st.sampled_from("abcde"), prop_value, max_size=4))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(feature, max_size=12))
    def check(feats):
        want = feature_oracle.features_to_table(feats)
        assert gj.features_to_table(feats).equals(want)
        strs = [json.dumps(f) for f in feats]
        assert gio.parse_features_batch(strs).equals(
            feature_oracle.features_to_table(map(json.loads, strs)))

    check()


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_features_batch_restores_gc_state(enabled):
    """The collector pause ends with the batch, whether it parses or
    raises, and a collector disabled by the caller stays disabled."""
    good = [json.dumps(f) for f in feature_corpus.features(12)]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert gio.parse_features_batch(good).num_rows == 12
        assert gc.isenabled() is enabled
        with pytest.raises(json.JSONDecodeError):
            gio.parse_features_batch(good[:3] + ['{"type": "Feature", '])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _rings(kind: str, coordinates) -> list:
    """The rings of a GeoJSON geometry, in the flat layout's order."""
    if kind == "Point":
        return [[coordinates]]
    if kind in ("LineString", "MultiPoint"):
        return [coordinates]
    if kind in ("Polygon", "MultiLineString"):
        return coordinates
    return [ring for poly in coordinates for ring in poly]


def _check_row(row: dict, f: dict) -> None:
    """A canonical feature row carries exactly ``f``'s id, geometry and
    properties (JSON numbers as doubles)."""
    geom = f["geometry"]
    rings = _rings(geom["type"], geom["coordinates"])
    assert row["id"] == f["id"]
    assert row["geom_type"] == GEOM_TYPE_CODES[geom["type"]]
    assert row["dim"] == len(rings[0][0])
    assert row["ring_sizes"] == [len(r) for r in rings]
    assert row["coords"] == [v for r in rings for pt in r for v in pt]
    props = f["properties"]
    assert row["name"] == props["name"]
    assert row["count"] == float(props["count"])
    assert row["score"] == props["score"]
    assert row["flag"] is props["flag"]


def test_read_geojson_county(ray_session, tmp_path):
    """``read_geojson`` through Ray yields every feature of a
    FeatureCollection file, 3-D and empty-ring features included."""
    path = str(tmp_path / "corpus.geojson")
    n = feature_corpus.write_geojson(path)
    rows = gio.read_geojson(path).take_all()
    assert len(rows) == n
    by_id = {r["id"]: r for r in rows}
    feats = feature_corpus.features()
    assert sorted(by_id) == [f["id"] for f in feats]
    for f in feats:
        _check_row(by_id[f["id"]], f)
    assert {r["dim"] for r in rows} == {2, 3}
    assert any(r["ring_sizes"][-1] == 0 for r in rows)


def test_geojson_geobuf_roundtrip_pipelines(ray_session, tmp_path):
    """GeoJSON -> geobuf -> one FeatureCollection file keeps every
    feature's id, geometry (to the codec's 1e-7 grid) and properties."""
    from geobuf_ray.pipelines import convert

    src = str(tmp_path / "corpus.geojson")
    n = feature_corpus.write_geojson(src)
    gb_dir = str(tmp_path / "gb")
    m1 = convert.geojson_to_geobuf(src, gb_dir)
    assert sum(m1["num_features"].to_pylist()) == n

    gj_dir = str(tmp_path / "gj")
    single = str(tmp_path / "corpus_rt.geojson")
    m2 = convert.geobuf_to_geojson(
        [p for p in m1["path"].to_pylist()], gj_dir, single_file=single)
    assert sum(m2["num_features"].to_pylist()) == n

    back = gj.load_feature_collection(single)
    by_id = {f["id"]: f for f in back}
    feats = feature_corpus.features()
    assert sorted(by_id) == [f["id"] for f in feats]
    for f in feats:
        b = by_id[f["id"]]
        kind = f["geometry"]["type"]
        assert b["geometry"]["type"] == kind
        want = _rings(kind, f["geometry"]["coordinates"])
        if kind == "Point":
            # the wire format keeps a Point's x and y only
            want = [[want[0][0][:2]]]
        got = _rings(kind, b["geometry"]["coordinates"])
        assert [len(r) for r in got] == [len(r) for r in want]
        assert [len(pt) for r in got for pt in r] == \
            [len(pt) for r in want for pt in r]
        ra = np.array([v for r in want for pt in r for v in pt])
        ba = np.array([v for r in got for pt in r for v in pt])
        assert np.abs(ra - ba).max() <= 1.0000001e-7
        # number -> double rule: integer properties come back as floats
        assert b["properties"] == {**f["properties"],
                                   "count": float(f["properties"]["count"])}


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
