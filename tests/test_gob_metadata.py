"""Gob MetaData index: reference-compatible key-addressed reads.

Covers VERDICT round-1 missing item #2 (reader.go:236-304): the gob
``MetaData`` header is parsed (not just skipped), and SubFileSeek /
SubFileBytes-style reads return exactly the keyed subfile's features.
The wire format is validated against the public encoding/gob spec via
the documented Point byte vector."""

import numpy as np
import pyarrow as pa

from geobuf_ray.codec import decode as dc, feature as fc
from geobuf_ray.io import geobuf_file as gf
from geobuf_ray.state import gob


DOC_POINT = bytes.fromhex(
    "1fff8103010105506f696e7401ff820001020101580104000101590104000000"
    "07ff82012c014200")


def test_gob_decoder_documented_point_vector():
    assert gob.GobDecoder(DOC_POINT).decode() == {"X": 22, "Y": 33}


def test_gob_encoder_byte_exact_on_doc_vector():
    out = bytearray()
    gob._msg(out, gob._struct_typedef(65, "Point", [("X", 2), ("Y", 2)]))
    body = bytearray()
    gob._write_int(body, 65)
    body.extend(bytes([0x01, 0x2C, 0x01, 0x42, 0x00]))
    gob._msg(out, bytes(body))
    assert bytes(out) == DOC_POINT


def test_metadata_roundtrip_with_zero_fields():
    meta = {
        "FileSize": 0, "NumberFeatures": 3,
        "Files": {"k": {"Positions": [0, 10], "NumberFeatures": 0, "Size": 10}},
        "Bounds": {"N": 1.0, "S": 0.0, "E": 0.0, "W": -2.0},
    }
    assert gob.decode_metadata(gob.encode_metadata(meta)) == meta


def _point_stream(ids):
    n = len(ids)
    k = np.asarray(ids, np.int64)
    coords = np.empty(2 * n)
    coords[0::2] = k * 1.0
    coords[1::2] = k * 2.0
    feat = pa.table({
        "id": pa.array(k),
        "geom_type": pa.array(np.ones(n, np.int8)),
        "dim": pa.array(np.full(n, 2, np.int8)),
        "coords": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 2 * n + 2, 2, dtype=np.int32)),
            pa.array(coords)),
        "ring_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
    })
    return fc.frame_records(fc.encode_batch(feat))


def test_indexed_geobuf_key_addressed_reads(tmp_path):
    path = str(tmp_path / "indexed.geobuf")
    subfiles = [("0-0-1", _point_stream([1, 2, 3])),
                ("1-0-1", _point_stream([10, 11])),
                ("1-1-1", _point_stream([20]))]
    meta = gf.write_indexed_geobuf(subfiles, path, bounds=(-10, -5, 10, 5))
    assert meta["NumberFeatures"] == 6
    parsed = gf.read_metadata(path)
    assert parsed is not None
    got_meta, origin = parsed
    assert got_meta["Files"].keys() == {"0-0-1", "1-0-1", "1-1-1"}
    assert got_meta["Bounds"] == {"N": 5.0, "S": -5.0, "E": 10.0, "W": -10.0}
    # SubFileSeek/SubFileBytes parity: each key returns exactly its rows
    for key, ids in [("0-0-1", [1, 2, 3]), ("1-0-1", [10, 11]), ("1-1-1", [20])]:
        tbl = gf.read_subfile(path, key)
        dec = dc.decode_batch(tbl["geobuf"])
        assert dec["id"].to_pylist() == ids
    assert gf.read_subfile(path, "9-9-9").num_rows == 0


def _ids(path, key):
    return dc.decode_batch(gf.read_subfile(path, key)["geobuf"])["id"].to_pylist()


def _header_len(path):
    with open(path, "rb") as f:
        return gf._read_header(f, path)[1]


def test_index_decoded_once_per_distinct_header(tmp_path, monkeypatch):
    """Key-addressed reads decode the gob index once per distinct header
    content; the cache stays within its bound."""
    gf._positions.cache_clear()
    calls = []
    real = gob.decode_metadata
    monkeypatch.setattr(gob, "decode_metadata",
                        lambda blob: calls.append(1) or real(blob))
    path = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf([("a", _point_stream([1, 2])),
                             ("b", _point_stream([3]))], path)
    for _ in range(5):
        assert _ids(path, "a") == [1, 2]
        assert _ids(path, "b") == [3]
    assert len(calls) == 1
    for i in range(gf._INDEX_CACHE_SIZE + 3):
        p = str(tmp_path / f"other{i}.geobuf")
        gf.write_indexed_geobuf([(f"k{i}", _point_stream([i]))], p)
        assert _ids(p, f"k{i}") == [i]
    assert gf._positions.cache_info().currsize == gf._INDEX_CACHE_SIZE


def test_rewritten_index_of_same_length_is_not_stale(tmp_path):
    """A file rewritten in place with a different index of the same byte
    length (and the same file size) is read through its new index.  The
    ids all quantize to varints of one length, so only the subfile
    boundaries move."""
    path = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf([("a", _point_stream([20, 21, 22])),
                             ("b", _point_stream([23, 24]))], path)
    before, head = open(path, "rb").read(), _header_len(path)
    assert _ids(path, "a") == [20, 21, 22]
    assert _ids(path, "b") == [23, 24]
    gf.write_indexed_geobuf([("a", _point_stream([25, 26])),
                             ("b", _point_stream([27, 28, 29]))], path)
    after = open(path, "rb").read()
    assert len(after) == len(before) and _header_len(path) == head
    assert after[:head] != before[:head]
    assert _ids(path, "a") == [25, 26]
    assert _ids(path, "b") == [27, 28, 29]


def test_mutating_read_metadata_result_does_not_change_reads(tmp_path):
    path = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf([("a", _point_stream([1, 2])),
                             ("b", _point_stream([3]))], path)
    meta, _ = gf.read_metadata(path)
    meta["Files"]["a"]["Positions"][1] = 0
    meta["Files"]["b"]["Positions"] = [0, 1]
    meta["Files"].pop("a")
    assert _ids(path, "a") == [1, 2]
    assert _ids(path, "b") == [3]
    again, _ = gf.read_metadata(path)
    assert set(again["Files"]) == {"a", "b"}


def test_missing_key_reads_empty_geobuf_table(tmp_path):
    path = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf([("a", _point_stream([1]))], path)
    tbl = gf.read_subfile(path, "zz")
    assert tbl.num_rows == 0
    assert tbl.schema == pa.schema([("geobuf", pa.binary())])


def test_file_without_metadata_header(tmp_path):
    """A plain stream (first frame is a feature) and an empty file: no
    index, so ``read_metadata`` is None and key reads raise."""
    import pytest

    plain = tmp_path / "plain.geobuf"
    plain.write_bytes(_point_stream([1, 2, 3]))
    empty = tmp_path / "empty.geobuf"
    empty.write_bytes(b"")
    for path in (str(plain), str(empty)):
        assert gf.read_metadata(path) is None
        with pytest.raises(ValueError, match="no gob metadata index"):
            gf.read_subfile(path, "a")


def test_truncated_header_raises_value_error(tmp_path):
    """A header frame whose length runs past EOF (or whose length varint
    is cut) raises ValueError from both readers, never a partial index."""
    import pytest

    good = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf([("a", _point_stream([1, 2])),
                             ("b", _point_stream([3]))], good)
    data = open(good, "rb").read()
    assert _ids(good, "a") == [1, 2]  # the full header is in the cache
    for n, cut in enumerate((data[:_header_len(good) - 1], data[:40],
                             data[:2], b"\x0a\xff")):
        path = str(tmp_path / f"cut{n}.geobuf")
        open(path, "wb").write(cut)
        with pytest.raises(ValueError, match="truncated"):
            gf.read_metadata(path)
        with pytest.raises(ValueError, match="truncated"):
            gf.read_subfile(path, "a")


def test_indexed_geobuf_streams_through_datasource(ray_session, tmp_path):
    """The same indexed file reads as a plain stream (metadata header
    skipped) through the Ray datasource."""
    path = str(tmp_path / "indexed.geobuf")
    gf.write_indexed_geobuf(
        [("a", _point_stream([1, 2])), ("b", _point_stream([3]))], path)
    ds = gf.read_geobuf([path])
    recs = ds.take_all()
    dec = dc.decode_batch(pa.array([r["geobuf"] for r in recs], pa.binary()))
    assert sorted(dec["id"].to_pylist()) == [1, 2, 3]


def test_split_combine_clip_and_combine_indexed(ray_session, tmp_path):
    """The flagship pipeline end-to-end: polygons -> CLIPPED per-tile
    subfiles -> ONE gob-indexed combined geobuf; key-addressed reads
    return clipped geometry inside each tile's bounds."""
    import ray

    from geobuf_ray.codec.schema import geometry_from_nested
    from geobuf_ray.pipelines.tiling import split_combine
    from geobuf_ray.spatial import tiles

    ring = [[-50.0, -40.0], [20.0, -35.0], [25.0, 30.0], [-40.0, 38.0],
            [-50.0, -40.0]]
    g = geometry_from_nested("Polygon", [ring])
    batch = pa.table({
        "id": pa.array([7], pa.int64()),
        "geom_type": pa.array([g["geom_type"]], pa.int8()),
        "dim": pa.array([2], pa.int8()),
        "coords": pa.array([g["coords"]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([g["ring_sizes"]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([g["poly_sizes"]], pa.list_(pa.int32())),
    })
    ds = ray.data.from_arrow(batch)
    out = str(tmp_path / "tiles")
    combined = str(tmp_path / "combined.geobuf")
    manifest = split_combine(ds, out, zoom=3, clip=True,
                             combine_path=combined)
    assert manifest.num_rows >= 4
    parsed = gf.read_metadata(combined)
    assert parsed is not None
    meta, _ = parsed
    assert set(meta["Files"].keys()) == set(manifest["key"].to_pylist())
    for key in meta["Files"]:
        tbl = gf.read_subfile(combined, key)
        assert tbl.num_rows == 1
        dec = dc.decode_batch(tbl["geobuf"])
        x, y, z = (int(v) for v in key.split("-"))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(
            np.array([x]), np.array([y]), z))
        vals = dec["coords"].combine_chunks().values.to_numpy(
            zero_copy_only=False)
        # clipped: every vertex inside the tile (codec quantizes 1e-7)
        assert (vals[0::2] >= w - 1e-6).all() and (vals[0::2] <= e + 1e-6).all()
        assert (vals[1::2] >= s - 1e-6).all() and (vals[1::2] <= n + 1e-6).all()


def test_split_combine_keys_user_hook(ray_session, tmp_path):
    """Generic key-split (the reference's `myfunc []string` hook):
    features fan out to user-assigned string keys; subfiles + combined
    index contain exactly the assigned rows."""
    import ray

    from geobuf_ray.pipelines.tiling import split_combine_keys

    n = 40
    k = np.arange(n, dtype=np.int64)
    coords = np.empty(2 * n)
    coords[0::2] = k * 0.5
    coords[1::2] = -k * 0.25
    batch = pa.table({
        "id": pa.array(k),
        "geom_type": pa.array(np.ones(n, np.int8)),
        "dim": pa.array(np.full(n, 2, np.int8)),
        "coords": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 2 * n + 2, 2, dtype=np.int32)),
            pa.array(coords)),
        "ring_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
    })

    def by_parity(b: pa.Table):
        ids = b["id"].to_numpy(zero_copy_only=False)
        # every feature lands in its parity bucket; multiples of 10 ALSO
        # land in "tens" (multi-key fan-out like the reference hook)
        row_idx = np.concatenate([np.arange(len(ids)),
                                  np.flatnonzero(ids % 10 == 0)])
        keys = (["even" if i % 2 == 0 else "odd" for i in ids]
                + ["tens"] * int((ids % 10 == 0).sum()))
        return row_idx, keys

    out = str(tmp_path / "bykey")
    combined = str(tmp_path / "bykey.geobuf")
    manifest = split_combine_keys(
        ray.data.from_arrow(batch), out, by_parity, combine_path=combined)
    keys = set(manifest["key"].to_pylist())
    assert keys == {"even", "odd", "tens"}
    got = {key: sorted(dc.decode_batch(
        gf.read_subfile(combined, key)["geobuf"])["id"].to_pylist())
        for key in keys}
    assert got["even"] == [i for i in range(40) if i % 2 == 0]
    assert got["odd"] == [i for i in range(40) if i % 2 == 1]
    assert got["tens"] == [0, 10, 20, 30]
