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


def test_tile_pyramid_layout_and_rollup(ray_session, tmp_path):
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
