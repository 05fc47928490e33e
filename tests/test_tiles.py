"""Slippy tile math vs an independent scalar oracle (FIXTURES.md F5)."""

import math

import numpy as np
import pytest

from geobuf_ray.spatial import tiles


def oracle_tile(lon, lat, zoom):
    """Scalar slippy formula, written independently (OSM wiki form)."""
    lat = max(min(lat, tiles.MAX_LAT), -tiles.MAX_LAT)
    n = 2 ** zoom
    x = int((lon + 180.0) / 360.0 * n)
    lat_r = math.radians(lat)
    y = int((1.0 - math.asinh(math.tan(lat_r)) / math.pi) / 2.0 * n)
    return min(max(x, 0), n - 1), min(max(y, 0), n - 1)


def test_lonlat_to_tile_matches_oracle():
    rng = np.random.default_rng(42)
    lon = rng.uniform(-180, 180, 500)
    lat = rng.uniform(-85, 85, 500)
    for z in (0, 4, 8, 12):
        x, y = tiles.lonlat_to_tile(lon, lat, z)
        for i in range(len(lon)):
            assert (x[i], y[i]) == oracle_tile(lon[i], lat[i], z), (lon[i], lat[i], z)


def test_tile_bounds_inverse():
    rng = np.random.default_rng(7)
    lon = rng.uniform(-179, 179, 200)
    lat = rng.uniform(-80, 80, 200)
    z = 10
    x, y = tiles.lonlat_to_tile(lon, lat, z)
    w, s, e, n = tiles.tile_bounds(x, y, z)
    assert ((lon >= w) & (lon < e + 1e-12)).all()
    assert ((lat >= s - 1e-9) & (lat <= n + 1e-9)).all()


def test_pack_unpack_parent():
    z = np.array([10, 10, 3])
    x = np.array([511, 0, 7])
    y = np.array([340, 1023, 0])
    k = tiles.pack(z, x, y)
    zz, xx, yy = tiles.unpack(k)
    assert (zz == z).all() and (xx == x).all() and (yy == y).all()
    pk = tiles.parent(k, np.array([8, 8, 2]))
    pz, px, py = tiles.unpack(pk)
    assert (pz == [8, 8, 2]).all()
    assert (px == x >> np.array([2, 2, 1])).all()
    assert (py == y >> np.array([2, 2, 1])).all()


def test_cover_expand():
    x0 = np.array([0, 5])
    x1 = np.array([1, 5])
    y0 = np.array([0, 2])
    y1 = np.array([2, 2])
    row, x, y = tiles.cover_expand(x0, x1, y0, y1)
    got = set(zip(row.tolist(), x.tolist(), y.tolist()))
    want = {(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 5, 2)}
    assert got == want


def test_k_ring():
    k = tiles.pack(np.array([5]), np.array([10]), np.array([10]))
    row, nbrs = tiles.k_ring(k, 1)
    z, x, y = tiles.unpack(nbrs)
    assert len(nbrs) == 9
    assert set(zip(x.tolist(), y.tolist())) == {
        (a, b) for a in (9, 10, 11) for b in (9, 10, 11)
    }
    # edge clamp at x=0
    k0 = tiles.pack(np.array([5]), np.array([0]), np.array([0]))
    _, nb0 = tiles.k_ring(k0, 1)
    _, x0, y0 = tiles.unpack(nb0)
    assert x0.min() == 0 and y0.min() == 0


def test_plan_zoom_matches_fd_budget_semantics():
    # whole-world bbox: zoom walks down until <=750 tiles (split_combine.go:440-448)
    z = tiles.plan_zoom(-180, -85, 180, 85, 12, max_grid=750)
    assert tiles.size_grid(-180, -85, 180, 85, z) <= 750
    assert tiles.size_grid(-180, -85, 180, 85, z + 1) > 750


def test_k_ring_wraps_antimeridian():
    """x must wrap across lon=±180 (cells x=0 and x=2^z-1 are
    geographically adjacent); y clips at the poles."""
    z = 4
    n = 1 << z
    k = tiles.pack(np.array([z]), np.array([0]), np.array([5]))
    _, ring = tiles.k_ring(k, 1)
    zz, xx, yy = tiles.unpack(ring)
    assert set(xx.tolist()) == {n - 1, 0, 1}
    assert set(yy.tolist()) == {4, 5, 6}
    # pole side clips
    k2 = tiles.pack(np.array([z]), np.array([5]), np.array([0]))
    _, ring2 = tiles.k_ring(k2, 1)
    _, _, yy2 = tiles.unpack(ring2)
    assert yy2.min() == 0 and set(yy2.tolist()) == {0, 1}


def test_adaptive_tile_assign_vs_scalar_rule(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.pipelines.tiling import adaptive_tile_assign
    from geobuf_ray.spatial import tiles as t

    rng = np.random.default_rng(41)
    # skewed corpus: a dense hotspot (forces splits to zmax) + sparse
    # background (stays at zmin)
    n_hot, n_bg = 400, 120
    lon = np.concatenate([rng.uniform(10.0, 10.2, n_hot),
                          rng.uniform(-170, 170, n_bg)])
    lat = np.concatenate([rng.uniform(45.0, 45.2, n_hot),
                          rng.uniform(-80, 80, n_bg)])
    ids = np.arange(len(lon), dtype=np.int64)
    tbl = pa.table({"pid": pa.array(ids), "lon": pa.array(lon),
                    "lat": pa.array(lat)})
    zmin, zmax, cap = 2, 7, 16
    out = adaptive_tile_assign(
        ray.data.from_arrow(tbl).repartition(5), lon_col="lon",
        lat_col="lat", zmin=zmin, zmax=zmax, cap=cap,
        id_col="pid").to_pandas().sort_values("pid").reset_index(drop=True)
    # scalar reference from FULL per-level counts
    want = {}
    packs = {}
    for z in range(zmin, zmax + 1):
        x, y = t.lonlat_to_tile(lon, lat, z)
        p = (x.astype(np.int64) << 32) | y
        packs[z] = p
    from collections import Counter
    counts = {z: Counter(packs[z].tolist()) for z in range(zmin, zmax)}
    for i in range(len(lon)):
        for z in range(zmin, zmax):
            if counts[z][int(packs[z][i])] <= cap:
                want[i] = (z, int(packs[z][i] >> 32),
                           int(packs[z][i] & 0xFFFFFFFF))
                break
        else:
            want[i] = (zmax, int(packs[zmax][i] >> 32),
                       int(packs[zmax][i] & 0xFFFFFFFF))
    got = {int(r.pid): (int(r.zoom), int(r.tile_x), int(r.tile_y))
           for r in out.itertuples()}
    assert got == want
    zs = {v[0] for v in want.values()}
    assert zmin in zs and zmax in zs, "corpus must exercise both ends"

    # partition invariance
    out2 = adaptive_tile_assign(
        ray.data.from_arrow(tbl).repartition(1), lon_col="lon",
        lat_col="lat", zmin=zmin, zmax=zmax, cap=cap,
        id_col="pid").to_pandas().sort_values("pid").reset_index(drop=True)
    assert out.equals(out2)


def test_zorder_index_pruned_lookup(ray_session, tmp_path):
    import glob
    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.spatial.curves import (zorder_bbox_buckets,
                                           zorder_bbox_lookup,
                                           zorder_build)

    rng = np.random.default_rng(47)
    n = 4000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-90, 90, n)
    ids = np.arange(n, dtype=np.int64)
    tbl = pa.table({"pid": pa.array(ids), "lon": pa.array(lon),
                    "lat": pa.array(lat)})
    idx = str(tmp_path / "zidx")
    zorder_build(ray.data.from_arrow(tbl).repartition(4), idx,
                 bucket_bits=8)
    w, s, e, nn = -10.0, 20.0, 35.0, 55.0
    out = zorder_bbox_lookup(idx, w, s, e, nn, columns=["pid"],
                             bucket_bits=8).to_pandas()
    want = set(ids[(lon >= w) & (lon <= e)
                   & (lat >= s) & (lat <= nn)].tolist())
    assert set(out["pid"].tolist()) == want and len(out) == len(want)
    # true partition pruning: the bbox touches FAR fewer buckets than
    # the layout holds
    total = len(glob.glob(f"{idx}/zbucket=*"))
    touched = len(zorder_bbox_buckets(w, s, e, nn, bucket_bits=8))
    assert touched < total / 4, (touched, total)
    # inclusive boundary semantics: a point exactly on every edge hits
    edge = pa.table({"pid": pa.array([0], pa.int64()),
                     "lon": pa.array([w]), "lat": pa.array([nn])})
    idx2 = str(tmp_path / "zidx2")
    zorder_build(ray.data.from_arrow(edge), idx2, bucket_bits=8)
    out2 = zorder_bbox_lookup(idx2, w, s, e, nn, columns=["pid"],
                              bucket_bits=8).to_pandas()
    assert out2["pid"].tolist() == [0]


def test_tile_pyramid_layout_and_rollup(ray_session, tmp_path, no_ray_groupby):
    """tile_pyramid writes the Combine layout at every level: per-tile
    files + gob-indexed combined file; a parent tile's subfile decodes
    to exactly the union of its children's features (byte-concat
    rollup), and key-addressed reads work per level."""
    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.io.geobuf_file import read_metadata, read_subfile
    from geobuf_ray.pipelines.tiling import tile_pyramid

    rng = np.random.default_rng(7)
    n = 300
    lon = rng.uniform(-170, 170, n)
    lat = rng.uniform(-80, 80, n)
    coords = np.empty(2 * n)
    coords[0::2] = lon
    coords[1::2] = lat
    feat = pa.table({
        "id": pa.array(np.arange(n), pa.int64()),
        "geom_type": pa.array(np.ones(n, np.int8)),
        "dim": pa.array(np.full(n, 2, np.int8)),
        "coords": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 2 * n + 2, 2, dtype=np.int32)),
            pa.array(coords)),
        "ring_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
    })
    ds = ray.data.from_arrow(feat).repartition(4)
    out = str(tmp_path / "pyr")
    mans = tile_pyramid(ds, out, 3, levels=3)
    assert sorted(mans) == [1, 2, 3]

    ids_by = {}
    for z, m in mans.items():
        # every level holds every feature exactly once
        assert sum(m["num_features"].to_pylist()) == n
        combined = f"{out}/z{z}/combined.geobuf"
        meta, _ = read_metadata(combined)
        mkeys = {r["key"]: r["num_features"] for r in m.to_pylist()}
        assert set(meta["Files"]) == set(mkeys)
        ids_by[z] = {}
        for k, cnt in mkeys.items():
            sub = read_subfile(combined, k)
            assert sub.num_rows == cnt, (z, k)
            dec = dc.decode_batch(sub["geobuf"].combine_chunks())
            ids_by[z][k] = set(dec["id"].to_pylist())

    # parent subfile = union of its children (byte-concat rollup)
    for z in (2, 1):
        for pk, pids in ids_by[z].items():
            px, py, pz = (int(v) for v in pk.split("-"))
            want = set()
            for ck, cids in ids_by[z + 1].items():
                cx, cy, cz = (int(v) for v in ck.split("-"))
                if cx // 2 == px and cy // 2 == py:
                    want |= cids
            assert pids == want, pk

    import pytest

    with pytest.raises(ValueError, match="underflows"):
        tile_pyramid(ds, str(tmp_path / "bad"), 1, levels=3)


def _points_table(n: int):
    import pyarrow as pa

    k = np.arange(n, dtype=np.int64)
    coords = np.empty(2 * n)
    coords[0::2] = k * 0.5
    coords[1::2] = -k * 0.25
    return pa.table({
        "id": pa.array(k),
        "geom_type": pa.array(np.ones(n, np.int8)),
        "dim": pa.array(np.full(n, 2, np.int8)),
        "coords": pa.ListArray.from_arrays(
            pa.array(np.arange(0, 2 * n + 2, 2, dtype=np.int32)),
            pa.array(coords)),
        "ring_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
        "poly_sizes": pa.array([[1]] * n, pa.list_(pa.int32())),
    })


@pytest.mark.parametrize("split", ["tiles_outside_bounds", "no_key_assigned"])
def test_empty_split_returns_manifest(ray_session, tmp_path, split):
    """A split that writes no tile returns (and commits) a zero-row
    manifest with the manifest columns, and the combined file gets an
    empty index."""
    import pyarrow.parquet as pq
    import ray

    from geobuf_ray.io.geobuf_file import read_metadata, read_subfile
    from geobuf_ray.pipelines.tiling import split_combine, split_combine_keys

    ds = ray.data.from_arrow(_points_table(40))
    out = str(tmp_path / "split")
    combined = str(tmp_path / "combined.geobuf")
    if split == "tiles_outside_bounds":
        manifest = split_combine(ds, out, 4, bounds=(100.0, 40.0, 120.0, 60.0),
                                 combine_path=combined)
    else:
        manifest = split_combine_keys(
            ds, out, lambda b: (np.empty(0, np.int64), []),
            combine_path=combined)
    columns = ["path", "key", "num_features", "size_bytes", "west",
               "south", "east", "north", "write_seconds"]
    assert manifest.num_rows == 0
    assert manifest.column_names == columns
    committed = pq.read_table(f"{out}/_manifest.parquet")
    assert committed.num_rows == 0 and committed.column_names == columns
    meta, _ = read_metadata(combined)
    assert meta["Files"] == {} and meta["NumberFeatures"] == 0
    assert read_subfile(combined, "0-0-0").num_rows == 0


def test_key_split_files_stay_in_out_dir(ray_session, tmp_path):
    """A user key names a file, never a path: ``../up`` and ``a/b``
    write inside ``out_dir``, while the manifest and the combined index
    keep the raw keys."""
    import os

    import ray

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.io.geobuf_file import read_subfile
    from geobuf_ray.pipelines.tiling import split_combine_keys

    keys = ["../up", "a/b", "plain"]

    def key_fn(batch):
        ids = batch["id"].to_numpy()
        return np.arange(batch.num_rows), [keys[i % 3] for i in ids]

    out = str(tmp_path / "split")
    combined = str(tmp_path / "combined.geobuf")
    manifest = split_combine_keys(ray.data.from_arrow(_points_table(12)),
                                  out, key_fn, combine_path=combined)
    assert sorted(manifest["key"].to_pylist()) == sorted(keys)
    for path in manifest["path"].to_pylist():
        assert os.path.dirname(os.path.realpath(path)) == \
            os.path.realpath(out), path
        assert os.path.isfile(path)
    assert sorted(os.listdir(tmp_path)) == ["combined.geobuf", "split"]
    got = dc.decode_batch(read_subfile(combined, "a/b")["geobuf"]
                          .combine_chunks())
    assert sorted(got["id"].to_pylist()) == [1, 4, 7, 10]


# ---- the split encodes each block once before the shuffle; per key it
# writes the same records, counts, sizes and bounds as one encode of
# that key's rows (``_encode_stream``, the per-group writer's own path)

_ZOOM = 4


def _corpus_table():
    """tests/feature_corpus.py decoded: every geometry type, 2-D and
    3-D, every wire property kind, empty rings."""
    from feature_corpus import stream

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc

    return dc.decode_batch(fc.scan_frames(stream()))


def _blocks(tbl, n=3):
    """A dataset of ``n`` fixed blocks of ``tbl``."""
    import ray

    step = -(-tbl.num_rows // n)
    return ray.data.from_arrow(
        [tbl.slice(i, step) for i in range(0, tbl.num_rows, step)])


def _keyed(rows, key_fn, name="split_key"):
    import pyarrow as pa

    idx, keys = key_fn(rows)
    return rows.take(pa.array(idx, pa.int64())).append_column(
        name, pa.array(keys, pa.string()))


def _side(vals, fn):
    vals = [np.nan if v is None else v for v in vals]
    return np.nan if np.isnan(vals).all() else fn(vals)


def _per_key_written(manifest):
    """Per manifest key: (sorted records, features, bytes, W/S/E/N) over
    every file written for that key."""
    from geobuf_ray.codec import feature as fc

    out = {}
    for row in manifest.to_pylist():
        with open(row["path"], "rb") as f:
            recs = fc.scan_frames(f.read()).to_pylist()
        acc = out.setdefault(row["key"], ([], [], [], []))
        acc[0].extend(recs)
        acc[1].append(row["num_features"])
        acc[2].append(row["size_bytes"])
        acc[3].append([row[s] for s in ("west", "south", "east", "north")])
    return {k: (sorted(r), sum(n), sum(b),
                tuple(_side([x[i] for x in bb], f)
                      for i, f in enumerate((np.nanmin, np.nanmin,
                                             np.nanmax, np.nanmax))))
            for k, (r, n, b, bb) in out.items()}


def _per_key_encoded(rows, key_col, write_bbox, key_column):
    """Per key: ``_encode_stream`` over that key's rows at once."""
    import pyarrow as pa

    from geobuf_ray.codec import feature as fc
    from geobuf_ray.io.geobuf_file import _encode_stream

    keys = np.array(rows[key_col].to_pylist(), object)
    out = {}
    for k in sorted(set(keys)):
        group = rows.take(pa.array(np.flatnonzero(keys == k), pa.int64()))
        stream, n, bb = _encode_stream(group, write_bbox, key_column)
        out[k] = (sorted(fc.scan_frames(stream).to_pylist()), n,
                  len(stream), tuple(bb))
    return out


@pytest.mark.parametrize("case", ["fanout", "salted", "clipped", "no_bbox",
                                  "keys", "raw_keys", "checkpointed"])
def test_split_writes_same_records_as_per_group_encode(ray_session, tmp_path,
                                                       case):
    """Sorted records, not file bytes: the record order inside a tile
    follows block arrival, which no run fixes."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geobuf_ray.codec import feature as fc
    from geobuf_ray.io.geobuf_file import read_geobuf
    from geobuf_ray.pipelines import tiling
    from geobuf_ray.state import checkpoint as ck
    from feature_corpus import stream

    # the key hooks live in the test: Ray ships them to workers by
    # value, and workers cannot import a test module
    def by_geom_type(batch):
        """Every row to its geometry type; ids divisible by 3 also to
        ``third`` (fan-out)."""
        ids = batch["id"].to_numpy()
        third = np.flatnonzero(ids % 3 == 0)
        return (np.concatenate([np.arange(batch.num_rows), third]),
                [f"g{t}" for t in batch["geom_type"].to_pylist()]
                + ["third"] * len(third))

    def by_record_length(batch):
        lens = pc.binary_length(batch["geobuf"]).to_pylist()
        return np.arange(batch.num_rows), [f"len{k % 5}" for k in lens]

    tbl = _corpus_table()
    out = str(tmp_path / "split")
    write_bbox = case != "no_bbox"
    key_column = "tile_str"
    if case == "clipped":
        tbl = tbl.filter(pc.equal(tbl["dim"], 2))
        rows = tiling.tile_clip_batch(tbl, _ZOOM)
        rows = rows.append_column(
            "tile_salt", pa.array(np.zeros(rows.num_rows, np.uint8)))
        manifest = tiling.split_combine(_blocks(tbl), out, _ZOOM, clip=True)
    elif case in ("keys", "raw_keys"):
        key_column = "split_key"
        if case == "keys":
            ds, key_fn = _blocks(tbl), by_geom_type
        else:
            path = str(tmp_path / "corpus.geobuf")
            with open(path, "wb") as f:
                f.write(stream())
            ds, key_fn = read_geobuf(path), by_record_length
            tbl = pa.table({"geobuf": fc.scan_frames(stream())})
        rows = _keyed(tbl, key_fn)
        manifest = tiling.split_combine_keys(ds, out, key_fn)
    else:
        salt_bits = 2 if case in ("salted", "checkpointed") else 0
        rows = tiling.assign_tiles_batch(tbl, _ZOOM, salt_bits=salt_bits)
        if case == "checkpointed":
            key_column = "ckpt_key"
            rows = rows.append_column("ckpt_key", pa.array(
                [f"{t}~s{s}" for t, s in zip(rows["tile_str"].to_pylist(),
                                             rows["tile_salt"].to_pylist())]))
            manifest = ck.checkpointed_split_combine(
                _blocks(tbl), out, _ZOOM, salt_bits=salt_bits)
        else:
            manifest = tiling.split_combine(
                _blocks(tbl), out, _ZOOM, salt_bits=salt_bits,
                write_bbox=write_bbox)

    got = _per_key_written(manifest)
    want = _per_key_encoded(rows, key_column, write_bbox,
                            None if case == "checkpointed" else key_column)
    assert sorted(got) == sorted(want) and len(want) > 3
    if case == "salted":  # some tile split into several files
        assert manifest.num_rows > len(want)
    for k, (recs, n, size, bb) in want.items():
        g_recs, g_n, g_size, g_bb = got[k]
        assert g_recs == recs, k
        assert (g_n, g_size) == (n, size), k
        np.testing.assert_array_equal(g_bb, bb, err_msg=k)
        if case == "raw_keys":
            assert np.isnan(bb).all()
        else:
            assert not np.isnan(bb).any()


def test_combine_counts_from_manifest_keep_combined_bytes(ray_session,
                                                         tmp_path):
    """The Combine step takes each subfile's feature count from the
    manifest (split and rollup levels alike): every level's combined
    file is byte for byte the one counting each subfile's frames
    writes."""
    from geobuf_ray.io.geobuf_file import read_metadata, write_indexed_geobuf
    from geobuf_ray.pipelines.tiling import tile_pyramid

    out = str(tmp_path / "pyr")
    mans = tile_pyramid(_blocks(_corpus_table()), out, _ZOOM, levels=2)
    assert sorted(mans) == [_ZOOM - 1, _ZOOM]
    for z, m in mans.items():
        combined = f"{out}/z{z}/combined.geobuf"
        meta, _ = read_metadata(combined)
        assert meta["NumberFeatures"] == sum(m["num_features"].to_pylist())
        b = meta["Bounds"]
        walked = str(tmp_path / f"walked{z}.geobuf")
        subfiles = []
        for row in m.sort_by("key").to_pylist():
            with open(row["path"], "rb") as f:
                subfiles.append((row["key"], f.read()))
        write_indexed_geobuf(subfiles, walked,
                             bounds=(b["W"], b["S"], b["E"], b["N"]))
        with open(combined, "rb") as f, open(walked, "rb") as g:
            assert f.read() == g.read(), z


def test_combine_indexes_every_file_of_a_key(tmp_path):
    """Several subfiles of one key (a salted split's hot tile) get one
    index entry spanning them all, so a key-addressed read returns
    every row; a key whose subfiles are not adjacent raises."""
    from geobuf_ray.codec import decode as dc
    from geobuf_ray.io.geobuf_file import (_encode_stream, read_metadata,
                                           read_subfile,
                                           write_indexed_geobuf)

    tbl = _points_table(4)
    a, b, c = (_encode_stream(tbl.slice(i, n))[0]
               for i, n in ((0, 2), (2, 1), (3, 1)))
    out = str(tmp_path / "combined.geobuf")
    write_indexed_geobuf([("6-1-1", a, 2), ("6-1-1", b, 1),
                          ("6-1-2", c, 1)], out)
    meta, _ = read_metadata(out)
    assert meta["NumberFeatures"] == 4
    entry = meta["Files"]["6-1-1"]
    assert entry["NumberFeatures"] == 3
    assert entry["Positions"] == [0, len(a) + len(b)]
    rows = dc.decode_batch(read_subfile(out, "6-1-1")["geobuf"]
                           .combine_chunks())
    assert rows["id"].to_pylist() == [0, 1, 2]
    assert read_subfile(out, "6-1-2").num_rows == 1
    with pytest.raises(ValueError, match="6-1-1"):
        write_indexed_geobuf([("6-1-1", a, 2), ("6-1-2", c, 1),
                              ("6-1-1", b, 1)], str(tmp_path / "x.geobuf"))


def test_salted_split_combine_reads_back_every_row(ray_session, tmp_path):
    """A salted split writes a hot tile as several files under one key;
    the combined file must read back every row of every key."""
    import ray

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.io import geojson as gj
    from geobuf_ray.io.geobuf_file import read_metadata, read_subfile
    from geobuf_ray.pipelines.tiling import split_combine

    rng = np.random.default_rng(9)
    pts = [(10.0 + float(rng.uniform(0, 5)), 50.0 + float(rng.uniform(0, 5)))
           for _ in range(300)]
    pts += [(float(rng.uniform(-170, -10)), float(rng.uniform(-80, 0)))
            for _ in range(100)]
    feats = [{"type": "Feature", "id": i, "properties": {},
              "geometry": {"type": "Point", "coordinates": list(c)}}
             for i, c in enumerate(pts)]
    ds = ray.data.from_arrow(gj.features_to_table(feats)).repartition(4)
    combined = str(tmp_path / "combined.geobuf")
    m = split_combine(ds, str(tmp_path / "tiles"), 2, salt_bits=2,
                      combine_path=combined)
    per_key = {}
    for r in m.to_pylist():
        per_key[r["key"]] = per_key.get(r["key"], 0) + r["num_features"]
    assert len(per_key) < m.num_rows  # the hot tile spans several files
    meta, _ = read_metadata(combined)
    assert meta["NumberFeatures"] == sum(per_key.values()) == len(pts)
    for key, n in per_key.items():
        raw = read_subfile(combined, key)["geobuf"].combine_chunks()
        assert dc.decode_batch(raw).num_rows == n, key


def test_encode_rows_step_once_per_block(monkeypatch):
    """The split's map step, without Ray: one ``encode_batch`` per
    block, key columns kept, a property named like a manifest or bbox
    column still a property, empty blocks passed through."""
    import pyarrow as pa

    from geobuf_ray.codec import decode as dc
    from geobuf_ray.codec import feature as fc
    from geobuf_ray.io.geobuf_file import (_BBOX_COLUMNS, _EncodeRowsFn,
                                           _encode_stream)

    real = fc.encode_batch
    calls = []

    def spy(table, **kw):
        calls.append(table.num_rows)
        return real(table, **kw)

    monkeypatch.setattr(fc, "encode_batch", spy)
    n = 6
    tbl = _points_table(n)
    for name in ("west", "east", "bbox_north", "path", "num_features"):
        tbl = tbl.append_column(name, pa.array(np.arange(n) * 1.5))
    tbl = (tbl.append_column("split_key", pa.array(["a", "b"] * 3))
           .append_column("tile_salt", pa.array(np.zeros(n, np.uint8))))
    step = _EncodeRowsFn(True, "split_key")

    out = step(tbl)
    assert calls == [n]
    assert out.column_names == ["split_key", "tile_salt", "geobuf",
                                *_BBOX_COLUMNS]
    assert out["split_key"].to_pylist() == tbl["split_key"].to_pylist()
    dec = dc.decode_batch(out["geobuf"].combine_chunks())
    for name in ("west", "east", "bbox_north", "path", "num_features"):
        assert dec[name].to_pylist() == tbl[name].to_pylist(), name
    assert "split_key" not in dec.column_names
    assert "tile_salt" not in dec.column_names
    _, nfeat, bounds = _encode_stream(out)
    lon, lat = np.arange(n) * 0.5, -np.arange(n) * 0.25
    assert nfeat == n
    assert bounds == (lon.min(), lat.min(), lon.max(), lat.max())

    empty = step(tbl.slice(0, 0))
    assert calls == [n]
    assert empty.num_rows == 0 and empty.schema == out.schema
    assert step(pa.table({})).num_columns == 0
