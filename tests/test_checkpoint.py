"""Resumable checkpointed tiling: atomic per-partition commit + resume
skips committed partitions (north_rule; the reference has no recovery —
split_combine.go:227-231 deletes intermediates on combine)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from geobuf_ray.io import geojson as gj
from geobuf_ray.state import checkpoint as ck


def _point_features(n: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-170, 170, n)
    lat = rng.uniform(-80, 80, n)
    return [
        {"type": "Feature", "id": i, "properties": {},
         "geometry": {"type": "Point", "coordinates": [float(lon[i]), float(lat[i])]}}
        for i in range(n)
    ]


@pytest.fixture
def points_ds(ray_session):
    import ray

    tbl = gj.features_to_table(_point_features(400))
    return ray.data.from_arrow(tbl).repartition(4)


def test_checkpoint_commit_and_resume(points_ds, tmp_path):
    out = str(tmp_path / "tiles")
    manifest = ck.checkpointed_split_combine(points_ds, out, zoom=2)
    keys = manifest["key"].to_pylist()
    assert len(keys) >= 4
    assert manifest["num_features"].to_pylist()
    total = sum(manifest["num_features"].to_pylist())
    assert total == 400
    # every manifest row's data file exists and lineage fields are set
    for row in manifest.to_pylist():
        assert os.path.exists(row["path"])
        assert row["codec_version"] == ck.CODEC_VERSION
        assert row["size_bytes"] > 0 and row["write_seconds"] > 0

    # simulate a crash: drop two partitions (data + manifest row)
    victims = sorted(keys)[:2]
    for k in victims:
        row = [r for r in manifest.to_pylist() if r["key"] == k][0]
        os.remove(row["path"])
        os.remove(os.path.join(ck.manifest_dir(out), ck._safe_key(k) + ".json"))
    survivor_mtimes = {
        r["key"]: os.path.getmtime(r["path"])
        for r in manifest.to_pylist() if r["key"] not in victims
    }

    manifest2 = ck.checkpointed_split_combine(points_ds, out, zoom=2)
    keys2 = set(manifest2["key"].to_pylist())
    assert keys2 == set(keys)  # victims rewritten
    assert sum(manifest2["num_features"].to_pylist()) == 400
    # survivors were NOT rewritten
    for r in manifest2.to_pylist():
        if r["key"] in survivor_mtimes:
            assert os.path.getmtime(r["path"]) == survivor_mtimes[r["key"]]


def test_checkpoint_roundtrip_readback(points_ds, tmp_path):
    from geobuf_ray.io.geobuf_file import read_geobuf

    out = str(tmp_path / "tiles")
    manifest = ck.checkpointed_split_combine(points_ds, out, zoom=1)
    paths = manifest["path"].to_pylist()
    ds = read_geobuf(paths)
    from geobuf_ray.stages import codec_stages as cs

    decoded = cs.decode(ds)
    rows = decoded.take_all()
    # points fall in exactly one tile each -> no fan-out duplication
    assert len(rows) == 400
    assert sorted(r["id"] for r in rows) == list(range(400))


def test_manifest_tolerates_empty_dir(tmp_path):
    assert ck.completed_keys(str(tmp_path)) == set()
    assert ck.load_manifest(str(tmp_path)).num_rows == 0


def test_salted_checkpoint_splits_hot_tile(ray_session, tmp_path):
    """A hot tile with salt_bits commits as independent prefix-
    addressable partitions whose union equals the unsalted output, and
    resume stays one-to-one with shuffle groups."""
    import ray

    # 300 points all inside one zoom-2 tile (hot), 100 spread out
    rng = np.random.default_rng(9)
    hot = [(10.0 + float(rng.uniform(0, 5)), 50.0 + float(rng.uniform(0, 5)))
           for _ in range(300)]
    cold = [(float(rng.uniform(-170, -10)), float(rng.uniform(-80, 0)))
            for _ in range(100)]
    feats = [{"type": "Feature", "id": i, "properties": {},
              "geometry": {"type": "Point", "coordinates": list(c)}}
             for i, c in enumerate(hot + cold)]
    ds = ray.data.from_arrow(gj.features_to_table(feats)).repartition(4)

    out_plain = str(tmp_path / "plain")
    m_plain = ck.checkpointed_split_combine(ds, out_plain, zoom=2)
    out_salt = str(tmp_path / "salt")
    m_salt = ck.checkpointed_split_combine(ds, out_salt, zoom=2, salt_bits=2)

    assert sum(m_salt["num_features"].to_pylist()) == 400
    # the hot tile must be split into >1 salted partitions
    hot_keys = [k for k in m_salt["key"].to_pylist() if "~s" in k]
    bases = {k.split("~s")[0] for k in hot_keys}
    counts = {}
    for k in hot_keys:
        counts[k.split("~s")[0]] = counts.get(k.split("~s")[0], 0) + 1
    assert max(counts.values()) > 1
    # same total per base tile as the unsalted run
    per_base = {}
    for r in m_salt.to_pylist():
        per_base.setdefault(r["key"].split("~s")[0], 0)
        per_base[r["key"].split("~s")[0]] += r["num_features"]
    plain_per = {r["key"]: r["num_features"] for r in m_plain.to_pylist()}
    assert per_base == plain_per
    # resume: second run rewrites nothing
    import os as _os

    mtimes = {r["key"]: _os.path.getmtime(r["path"]) for r in m_salt.to_pylist()}
    m2 = ck.checkpointed_split_combine(ds, out_salt, zoom=2, salt_bits=2)
    for r in m2.to_pylist():
        assert _os.path.getmtime(r["path"]) == mtimes[r["key"]]


def test_salted_checkpoint_high_zoom_keys(ray_session, tmp_path):
    """Regression: bit-packing salt into the tile key destroyed the
    zoom bits for zoom >= 16 (pack uses bits 58-63); keys must carry
    the true zoom."""
    import ray

    feats = [{"type": "Feature", "id": i, "properties": {},
              "geometry": {"type": "Point",
                           "coordinates": [10.0 + i * 1e-6, 50.0 + i * 1e-6]}}
             for i in range(60)]
    ds = ray.data.from_arrow(gj.features_to_table(feats))
    out = str(tmp_path / "z16")
    manifest = ck.checkpointed_split_combine(ds, out, zoom=16, salt_bits=2)
    assert sum(manifest["num_features"].to_pylist()) == 60
    for k in manifest["key"].to_pylist():
        base = k.split("~s")[0]
        assert base.endswith("-16"), k  # x-y-z format with TRUE zoom


def test_checkpointed_clip_resume(ray_session, tmp_path):
    """Clipped tiling commits per tile and resumes: a second run writes
    nothing new, and clipped vertices stay inside each tile."""
    import numpy as np
    import pyarrow as pa
    import ray

    from feature_oracle import geometry_from_nested
    from geobuf_ray.spatial import tiles
    from geobuf_ray.state import checkpoint as ck

    ring = [[-50.0, -40.0], [20.0, -35.0], [25.0, 30.0], [-40.0, 38.0],
            [-50.0, -40.0]]
    g = geometry_from_nested("Polygon", [ring])
    batch = pa.table({
        "id": pa.array([1], pa.int64()),
        "geom_type": pa.array([g["geom_type"]], pa.int8()),
        "dim": pa.array([2], pa.int8()),
        "coords": pa.array([g["coords"]], pa.list_(pa.float64())),
        "ring_sizes": pa.array([g["ring_sizes"]], pa.list_(pa.int32())),
        "poly_sizes": pa.array([g["poly_sizes"]], pa.list_(pa.int32())),
    })
    ds = ray.data.from_arrow(batch)
    out = str(tmp_path / "clip_ckpt")
    m1 = ck.checkpointed_split_combine(ds, out, zoom=3, clip=True)
    assert m1.num_rows >= 4
    import os

    mtimes = {r["path"]: os.path.getmtime(r["path"]) for r in m1.to_pylist()}
    m2 = ck.checkpointed_split_combine(ds, out, zoom=3, clip=True)
    assert m2.num_rows == m1.num_rows
    for r in m2.to_pylist():  # untouched on resume
        assert os.path.getmtime(r["path"]) == mtimes[r["path"]]
    # clipped geometry within tile bounds
    from geobuf_ray.codec import decode as dc, feature as fc

    for r in m1.to_pylist():
        key = os.path.basename(r["path"]).replace(".geobuf", "")
        x, y, z = (int(v) for v in key.split("-"))
        w, s, e, n = (float(v[0]) for v in tiles.tile_bounds(
            np.array([x]), np.array([y]), z))
        recs = fc.scan_frames(open(r["path"], "rb").read())
        dec = dc.decode_batch(recs)
        vals = dec["coords"].combine_chunks().values.to_numpy(
            zero_copy_only=False)
        assert (vals[0::2] >= w - 1e-6).all() and (vals[0::2] <= e + 1e-6).all()
        assert (vals[1::2] >= s - 1e-6).all() and (vals[1::2] <= n + 1e-6).all()


def test_tile_pyramid_resumes_killed_rollup(points_ds, tmp_path):
    """Crash injection mid-rollup: kill the level z-1 write after some
    parents committed.  A resume=True re-run must (a) NOT re-shuffle
    the leaf level (its files keep their mtimes), (b) NOT rewrite the
    committed parents, (c) finish the level and the deeper one with
    output identical to an uninterrupted run."""
    import pyarrow.parquet as pq

    from geobuf_ray.pipelines import tiling

    ref_out = str(tmp_path / "ref")
    ref = tiling.tile_pyramid(points_ds, ref_out, zoom=2, levels=3)

    out = str(tmp_path / "crash")
    # run the leaf level only, as tile_pyramid would
    leaf = tiling.split_combine(
        points_ds, os.path.join(out, "z2"), 2,
        combine_path=os.path.join(out, "z2", "combined.geobuf"))
    # start the z1 rollup and "crash" it: commit a strict subset of
    # parents by running the real rollup, then deleting some parents'
    # data + checkpoint rows (equivalent on-disk state to a kill)
    m1 = tiling._rollup_level(leaf, os.path.join(out, "z1"),
                              resume=True)
    keys1 = sorted(m1["key"].to_pylist())
    assert len(keys1) >= 2
    victims = keys1[: len(keys1) // 2 or 1]
    for r in m1.to_pylist():
        if r["key"] in victims:
            os.remove(r["path"])
            os.remove(os.path.join(ck.manifest_dir(os.path.join(out, "z1")),
                                   ck._safe_key(r["key"]) + ".json"))
    # the level manifest parquet must not exist yet (we crashed
    # before the level commit)
    os.remove(os.path.join(out, "z1", "_manifest.parquet"))

    leaf_mtimes = {r["path"]: os.path.getmtime(r["path"])
                   for r in leaf.to_pylist()}
    survivor_mtimes = {r["path"]: os.path.getmtime(r["path"])
                       for r in m1.to_pylist() if r["key"] not in victims}

    mans = tiling.tile_pyramid(points_ds, out, zoom=2, levels=3,
                               resume=True)
    # (a) leaf level untouched (no re-shuffle, no rewrite)
    for p, t in leaf_mtimes.items():
        assert os.path.getmtime(p) == t
    # (b) committed z1 parents untouched
    for p, t in survivor_mtimes.items():
        assert os.path.getmtime(p) == t
    # (c) full pyramid equals the uninterrupted reference run
    for z in (2, 1, 0):
        got = {r["key"]: (r["num_features"], r["size_bytes"])
               for r in mans[z].to_pylist()}
        want = {r["key"]: (r["num_features"], r["size_bytes"])
                for r in ref[z].to_pylist()}
        assert got == want, f"level z{z} mismatch"
        # level manifest parquet durable and consistent
        pm = pq.read_table(os.path.join(out, f"z{z}",
                                        "_manifest.parquet"))
        assert {r["key"] for r in pm.to_pylist()} == set(want)


def test_tile_pyramid_resume_ignores_earlier_run(ray_session, tmp_path,
                                                 monkeypatch):
    """A full run on input A, then a non-resume run on input B into the
    same out_dir killed during a rollup, then a resume of that run: the
    result must equal a fresh pyramid on B, with none of A's tiles."""
    import ray

    from geobuf_ray.pipelines import tiling

    ds_a = ray.data.from_arrow(
        gj.features_to_table(_point_features(400))).repartition(4)
    # B: fewer points, western hemisphere only, so its parents differ
    feats_b = [f for f in _point_features(300, seed=11)
               if f["geometry"]["coordinates"][0] < 0]
    ds_b = ray.data.from_arrow(gj.features_to_table(feats_b)).repartition(4)

    want = tiling.tile_pyramid(ds_b, str(tmp_path / "fresh"), zoom=2, levels=3)

    out = str(tmp_path / "pyr")
    tiling.tile_pyramid(ds_a, out, zoom=2, levels=3)

    real_rollup = tiling._rollup_level

    def killed_rollup(manifest, level_dir, combine_path=None, resume=False):
        # commit about half the parents, then die before the level commit
        m = real_rollup(manifest, level_dir, resume=resume)
        for r in sorted(m.to_pylist(), key=lambda r: r["key"])[::2]:
            os.remove(r["path"])
            os.remove(os.path.join(ck.manifest_dir(level_dir),
                                   ck._safe_key(r["key"]) + ".json"))
        os.remove(os.path.join(level_dir, "_manifest.parquet"))
        raise RuntimeError("killed during rollup")

    monkeypatch.setattr(tiling, "_rollup_level", killed_rollup)
    with pytest.raises(RuntimeError, match="killed"):
        tiling.tile_pyramid(ds_b, out, zoom=2, levels=3)
    monkeypatch.setattr(tiling, "_rollup_level", real_rollup)

    got = tiling.tile_pyramid(ds_b, out, zoom=2, levels=3, resume=True)
    assert sorted(got) == sorted(want)
    for z in want:
        assert sum(got[z]["num_features"].to_pylist()) == len(feats_b)
        assert ({r["key"]: (r["num_features"], r["size_bytes"])
                 for r in got[z].to_pylist()}
                == {r["key"]: (r["num_features"], r["size_bytes"])
                    for r in want[z].to_pylist()}), f"level z{z} mismatch"
