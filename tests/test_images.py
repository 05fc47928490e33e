"""Image table invariants (FIXTURES.md F6, input_hint)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from geobuf_ray.io import images as im


def test_procedural_determinism():
    a = im.procedural_pixels("img000000000007", 64, 32)
    b = im.procedural_pixels("img000000000007", 64, 32)
    assert a.shape == (32, 64, 3)
    assert (a == b).all()
    c = im.procedural_pixels("img000000000008", 64, 32)
    assert (a != c).any()


def test_rawz_lossless_roundtrip():
    px = im.procedural_pixels("x", 64, 64)
    back = im.decode_image(im.encode_rawz(px))
    assert (back == px).all()
    assert im.psnr(px, back) == float("inf")


def test_quantz_psnr_above_40db():
    for iid in ("a", "b", "c"):
        px = im.procedural_pixels(iid, 128, 128)
        back = im.decode_image(im.encode_quantz(px))
        assert im.psnr(px, back) >= 40.0


def test_unknown_format_is_marked_stub():
    # JPEG and PNG both have REAL pure-Python codecs now: truncated
    # streams are corrupt input (ValueError), not a missing decoder
    with pytest.raises(ValueError):
        im.decode_image(b"\xff\xd8\xff\xe0rest")
    with pytest.raises(ValueError):
        im.decode_image(b"\x89PNG\r\n\x1a\nrest")
    # a genuinely unknown payload magic stays a loud error
    with pytest.raises(ValueError, match="unknown image payload"):
        im.decode_image(b"\x00\x01\x02\x03rest")


def test_synthesize_slice_stability():
    t1 = im.synthesize_image_table(10)
    t2 = im.synthesize_image_table(5, start=5)
    assert t1.slice(5, 5).to_pylist() == t2.to_pylist()
    assert t1["image_id"][0].as_py() == "img000000000000"
    assert set(t1["fmt"].to_pylist()) <= {"rawz", "quantz"}


def test_decode_images_pipeline(ray_session, tmp_path):
    import ray

    tbl = im.synthesize_image_table(40)
    path = str(tmp_path / "imgs.parquet")
    pq.write_table(tbl, path)
    ds = im.read_image_table(path)
    out = im.decode_images(ds, batch_size=16)
    rows = out.take_all()
    assert len(rows) == 40
    by_id = {r["image_id"]: r for r in rows}
    src = tbl.to_pylist()
    for r in src:
        got = by_id[r["image_id"]]
        # caption exact equality + phash of decoded pixels matches for
        # lossless; PSNR >= 40 for lossy (input_hint invariant)
        assert got["caption"] == r["caption"]
        if r["fmt"] == "rawz":
            assert got["phash_decoded"] == r["phash"]
            assert got["psnr_db"] == float("inf")
        else:
            assert got["psnr_db"] >= 40.0


def test_resize_pipeline(ray_session, tmp_path):
    import ray

    tbl = im.synthesize_image_table(10)
    ds = ray.data.from_arrow(tbl)
    out = ds.map_batches(im.ResizeImagesFn(target=16),
                         batch_format="pyarrow", batch_size=4).take_all()
    assert all(r["w"] == 16 and r["h"] == 16 for r in out)
    px = im.decode_image(out[0]["bytes"])
    assert px.shape == (16, 16, 3)


def test_image_centroid_hot_cell_share():
    lons, lats = zip(*(im.image_centroid(f"img{i:012d}") for i in range(1000)))
    lons = np.asarray(lons)
    lats = np.asarray(lats)
    hot = ((lons >= 10.0) & (lons <= 10.2) & (lats >= 50.0) & (lats <= 50.2)).mean()
    assert 0.1 < hot < 0.35  # ~20% hot cluster for skew/salting tests


def test_mean_pool2_exact():
    import numpy as np

    from geobuf_ray.io.images import mean_pool2

    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, (7, 9, 3), np.uint8)  # odd dims crop
    p = mean_pool2(px)
    assert p.shape == (3, 4, 3)
    for y in range(3):
        for x in range(4):
            blk = px[2 * y: 2 * y + 2, 2 * x: 2 * x + 2].astype(int)
            exp = (blk.sum(axis=(0, 1)) + 2) // 4
            assert (p[y, x] == exp).all()


def test_pyramid_stage(ray_session):
    import numpy as np
    import ray

    from geobuf_ray.io.images import (PyramidImagesFn, build_pyramid,
                                      decode_image, mean_pool2,
                                      source_pixels, synthesize_image_table)

    tbl = synthesize_image_table(8)
    out = PyramidImagesFn(levels=2)(tbl).to_pandas()
    assert set(out.level) == {0, 1, 2}
    assert len(out) == 8 * 3
    # level-2 payload equals pooling the DECODED source twice (decode
    # may be lossy-quantized; the pyramid pools what it decodes)
    row0 = tbl.to_pydict()
    base = decode_image(row0["bytes"][0])
    exp = mean_pool2(mean_pool2(base))
    lvl2 = out[(out.image_id == row0["image_id"][0]) & (out.level == 2)]
    got = decode_image(lvl2.iloc[0]["bytes"])
    assert got.shape == exp.shape and (got == exp).all()
    # per-level dims halve exactly for EVERY image
    base_wh = {i: (w, h) for i, w, h in zip(tbl["image_id"].to_pylist(),
                                            tbl["w"].to_pylist(),
                                            tbl["h"].to_pylist())}
    for _, r in out.iterrows():
        bw, bh = base_wh[r.image_id]
        assert r.w == bw // (2 ** r.level) and r.h == bh // (2 ** r.level)
    # dataset-level stage
    ds = build_pyramid(ray.data.from_arrow(tbl), levels=1, batch_size=4)
    assert ds.count() == 16


def test_mosaic_tiles_deterministic_stitch(ray_session):
    import numpy as np
    import ray

    from geobuf_ray.io.images import (decode_image, mosaic_tiles,
                                      synthesize_image_table)
    from geobuf_ray.spatial import tiles as tl
    from geobuf_ray.io.images import image_centroids

    tbl = synthesize_image_table(30)
    ds = ray.data.from_arrow(tbl.select(["image_id", "bytes"])).repartition(3)
    out = mosaic_tiles(ds, zoom=2, cell=16, max_images=4, ncols=2)
    df = out.to_pandas()
    # layout law: n capped, grid 2-wide, 16px cells
    assert (df.mosaic_w == 16 * np.minimum(df.n_images, 2)).all()
    assert (df.mosaic_h == 16 * np.ceil(df.n_images / 2)).all()
    # pixel check: rebuild one tile's mosaic by hand
    idx = np.arange(30)
    lon, lat = image_centroids(idx)
    x, y = tl.lonlat_to_tile(lon, lat, 2)
    row = df.iloc[0]
    members = sorted(
        tbl["image_id"].to_pylist()[i] for i in range(30)
        if x[i] == row.tile_x and y[i] == row.tile_y)[:4]
    blob_of = dict(zip(tbl["image_id"].to_pylist(),
                       tbl["bytes"].to_pylist()))
    canvas = np.zeros((int(row.mosaic_h), int(row.mosaic_w), 3), np.uint8)
    for i, mid in enumerate(members):
        px = decode_image(blob_of[mid])
        h, w, _ = px.shape
        yi = (np.arange(16) * h) // 16
        xi = (np.arange(16) * w) // 16
        r, c = divmod(i, 2)
        canvas[r * 16:(r + 1) * 16, c * 16:(c + 1) * 16] = px[yi][:, xi]
    # re-run keeping bytes
    full = mosaic_tiles(ray.data.from_arrow(
        tbl.select(["image_id", "bytes"])), zoom=2, cell=16,
        max_images=4, ncols=2).to_pandas()
    target = full[(full.tile_x == row.tile_x)
                  & (full.tile_y == row.tile_y)].iloc[0]
    got = decode_image(target["bytes"])
    assert got.shape == canvas.shape and (got == canvas).all()


def test_images_dup_clusters_vs_unionfind(ray_session):
    """Cluster labels must equal brute-force union-find over the same
    candidate pairs (plus every image as a singleton)."""
    from geobuf_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    pairs = q.images_phash_pairs(sf)
    out = q.images_dup_clusters(sf)

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    ids = out["image_id"].to_pylist()
    for i in ids:
        find(i)
    for a, b in zip(pairs["image_id_a"].to_pylist(),
                    pairs["image_id_b"].to_pylist()):
        union(a, b)
    expected = {i: find(i) for i in ids}
    got = dict(zip(ids, out["cluster_id"].to_pylist()))
    assert got == expected
    # representatives are exactly the cluster minima
    reps = {i for i, r in zip(ids, out["is_representative"].to_pylist())
            if r}
    assert reps == set(expected.values())
    # the synthetic corpus plants near-dups: at least one real cluster
    assert len(reps) < len(ids)


def test_patchify_pixel_exact_reassembly(ray_session):
    import pyarrow as pa
    import ray

    tbl = im.synthesize_image_table(6, start=0)
    ds = ray.data.from_arrow(tbl).repartition(2)
    p = 16
    out = im.patchify_images(ds, patch=p, batch_size=2).to_pandas()
    src = tbl.to_pandas()
    for _, row in src.iterrows():
        px = im.decode_image(row["bytes"])
        h, w, _ = px.shape
        gh, gw = h // p, w // p
        sub = out[out.image_id == row.image_id]
        assert len(sub) == gh * gw
        # stitch every patch back; must equal the cropped source
        canvas = np.zeros((gh * p, gw * p, 3), np.uint8)
        for _, prow in sub.iterrows():
            pp = im.decode_image(prow["bytes"])
            assert pp.shape == (p, p, 3)
            canvas[prow.patch_row * p:(prow.patch_row + 1) * p,
                   prow.patch_col * p:(prow.patch_col + 1) * p] = pp
        assert np.array_equal(canvas, px[:gh * p, :gw * p])
        assert sub.px_sum.sum() == int(
            px[:gh * p, :gw * p].sum(dtype=np.int64))


def test_augment_identities(ray_session):
    import ray

    tbl = im.synthesize_image_table(4, start=10)
    ds = ray.data.from_arrow(tbl)
    out = im.augment_images(
        ds, ops=("hflip", "vflip", "rot90", "rot180", "rot270",
                 "center_crop"), batch_size=2).to_pandas()
    src = {r.image_id: im.decode_image(r["bytes"])
           for _, r in tbl.to_pandas().iterrows()}
    assert len(out) == 6 * 4
    for _, row in out.iterrows():
        px = src[row.image_id]
        got = im.decode_image(row["bytes"])
        expect = im.apply_augment(px, row.aug)
        assert np.array_equal(got, expect), row.aug
        # involution / cycle identities
        if row.aug in ("hflip", "vflip", "rot180"):
            assert np.array_equal(im.apply_augment(got, row.aug), px)
        if row.aug == "rot90":
            assert np.array_equal(im.apply_augment(got, "rot270"), px)


def test_augment_per_image_deterministic(ray_session):
    import ray

    tbl = im.synthesize_image_table(8, start=0)
    a = im.augment_images(ray.data.from_arrow(tbl).repartition(3),
                          ops=("hflip", "rot90", "rot180"),
                          per_image=1).to_pandas()
    b = im.augment_images(ray.data.from_arrow(tbl).repartition(1),
                          ops=("hflip", "rot90", "rot180"),
                          per_image=1).to_pandas()
    assert len(a) == 8
    ka = sorted(zip(a.image_id, a.aug))
    kb = sorted(zip(b.image_id, b.aug))
    assert ka == kb  # hash-chosen op is partition-invariant


def _scalar_dct2(g):
    """O(n^4) textbook 2-D DCT-II (orthonormal) — oracle for the
    einsum path."""
    n = g.shape[0]
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            cu = np.sqrt(0.5) if u == 0 else 1.0
            cv = np.sqrt(0.5) if v == 0 else 1.0
            s = 0.0
            for x in range(n):
                for y in range(n):
                    s += g[x, y] * np.cos(np.pi * (2 * x + 1) * u / (2 * n)) \
                        * np.cos(np.pi * (2 * y + 1) * v / (2 * n))
            out[u, v] = (2.0 / n) * cu * cv * s
    return out


def test_dct_matrix_vs_scalar_reference():
    rng = np.random.default_rng(3)
    g = rng.uniform(0, 255, (8, 8))
    d = im._dct_matrix(8)
    fast = d @ g @ d.T
    assert np.allclose(fast, _scalar_dct2(g), atol=1e-9)


def test_dct_phash_invariants():
    # identical pixels -> identical hash; lossy re-encode -> close;
    # different images -> far
    def hash_of(blob):
        px = im.decode_image(blob)
        stack = im._resample_gray32(px)[None]
        return int(im.dct_phash64(stack)[0])

    def ham(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")

    px = im.procedural_pixels("imgA", 128, 96)
    exact = hash_of(im.encode_rawz(px))
    again = hash_of(im.encode_rawz(px))
    assert exact == again
    lossy = hash_of(im.encode_quantz(px))
    assert ham(exact, lossy) <= 6
    other = hash_of(im.encode_rawz(im.procedural_pixels("imgB", 128, 96)))
    assert ham(exact, other) >= 12
    # planted near-dup rows (source_pixels brightness nudge) hash close
    base = hash_of(im.encode_rawz(im.source_pixels("img000000000027", 64, 64)))
    dup = hash_of(im.encode_rawz(im.source_pixels("img000000000034", 64, 64)))
    assert ham(base, dup) <= 8


def test_dct_phash_pipeline(ray_session):
    import pyarrow as pa

    from geobuf_ray.io.images import dct_phash_images

    ds = im.synthesize_image_dataset(40)
    out = dct_phash_images(ds, batch_size=16).to_arrow_refs()
    import ray

    tbl = pa.concat_tables([ray.get(r) for r in out])
    assert tbl.num_rows == 40
    assert "dct_phash" in tbl.column_names
    assert "bytes" not in tbl.column_names
    assert tbl["dct_phash"].null_count == 0


def test_dct_phash_pairs_query_planted_recall(ray_session):
    from geobuf_ray.pipelines import queries as q

    t = q.images_dct_phash_pairs("/root/testdata/sf0.01")  # n=300 corpus
    d = t.to_pydict()
    got = set(zip(d["image_id_a"], d["image_id_b"]))
    # the planted near-dups within the pigeonhole's guaranteed bound
    # (Hamming <= 3) must all be found; farther planted pairs are
    # legitimately out of threshold
    planted_close = 0
    for i in range(23, 300):
        if i % 23 != 11:
            continue
        a, b = f"img{i - 7:012d}", f"img{i:012d}"
        w, h, _, _ = im._row_meta(i)

        def hash_of(iid, idx):
            ww, hh, lossy, _ = im._row_meta(idx)
            px = im.source_pixels(iid, ww, hh)
            data = im.encode_quantz(px) if lossy else im.encode_rawz(px)
            st = im._resample_gray32(im.decode_image(data))[None]
            return int(im.dct_phash64(st)[0])

        dist = bin((hash_of(a, i - 7) ^ hash_of(b, i)) & ((1 << 64) - 1)) \
            .count("1")
        if dist <= 3:
            planted_close += 1
            assert (a, b) in got or (b, a) in got
    assert planted_close >= 5  # the corpus plants enough close pairs
    # every reported pair really is within the threshold
    assert max(d["distance"], default=0) <= 3


def test_embed_images_dedup_planted_and_brute_force(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from geobuf_ray.functions.dedup import embedding_dedup_pairs
    from geobuf_ray.io import images as im

    n = 150
    tbl = im.synthesize_image_table(n)
    prev = None
    for nparts in (2, 5):
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        emb = im.embed_images(ds, batch_size=16)
        edf = emb.to_pandas().sort_values("img_idx")
        V = np.stack(edf["embedding"].to_numpy())
        ids = edf["img_idx"].to_numpy()
        # embeddings are unit-normalized
        assert np.allclose((V * V).sum(axis=1), 1.0)
        # brute-force cosine ground truth at the query threshold
        cos = V @ V.T
        thr = 0.995
        want = set()
        for a in range(n):
            for b in range(a + 1, n):
                if cos[a, b] >= thr:
                    want.add((int(ids[a]), int(ids[b])))
        # planted near-copies are found by brute force (sanity that
        # the embedding actually separates/joins the right things)
        for i in range(23, n):
            if i % 23 == 11:
                pair = (min(i - 7, i), max(i - 7, i))
                assert pair in want
        pairs = embedding_dedup_pairs(emb, vec_col="embedding",
                                      id_col="img_idx", threshold=thr)
        pdf = pairs.to_pandas()
        got = set((int(a), int(b)) if a < b else (int(b), int(a))
                  for a, b, tr in zip(pdf.id_a, pdf.id_b, pdf.truncated)
                  if not tr)
        # LSH may miss borderline pairs but must find every planted one
        for i in range(23, n):
            if i % 23 == 11:
                assert (min(i - 7, i), i) in got
        assert got <= want  # exact verify: no false positives
        if prev is not None:
            assert got == prev
        prev = got


def _nms_scalar(boxes, thr_num=1, thr_den=2):
    """Reference greedy NMS for one image: list of (x0,y0,x1,y1,score,
    slot); returns kept slot set."""
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i][4], i))
    kept = []
    for i in order:
        x0, y0, x1, y1, s, _ = boxes[i]
        a = (x1 - x0) * (y1 - y0)
        ok = True
        for j in kept:
            u0, v0, u1, v1, _, _ = boxes[j]
            iw = min(x1, u1) - max(x0, u0)
            ih = min(y1, v1) - max(y0, v0)
            inter = max(iw, 0) * max(ih, 0)
            union = a + (u1 - u0) * (v1 - v0) - inter
            if inter * thr_den > thr_num * union:
                ok = False
                break
        if ok:
            kept.append(i)
    return {boxes[i][5] for i in kept}


def test_nms_dense_matches_scalar_greedy():
    from geobuf_ray.io.images import nms_dense

    rng = np.random.default_rng(3)
    g, kb = 200, 8
    x0 = rng.integers(0, 100, (g, kb))
    y0 = rng.integers(0, 100, (g, kb))
    x1 = x0 + rng.integers(4, 80, (g, kb))
    y1 = y0 + rng.integers(4, 80, (g, kb))
    sc = rng.integers(0, 50, (g, kb))  # narrow range forces score ties
    keep = nms_dense(x0, y0, x1, y1, sc)
    assert keep.any(axis=1).all()
    for i in range(g):
        boxes = [(int(x0[i, j]), int(y0[i, j]), int(x1[i, j]),
                  int(y1[i, j]), int(sc[i, j]), j) for j in range(kb)]
        assert {j for j in range(kb) if keep[i, j]} == _nms_scalar(boxes), i


def test_nms_identical_boxes_keep_one():
    from geobuf_ray.io.images import nms_dense

    one = np.full((1, 5), 10)
    keep = nms_dense(one * 0, one * 0, one * 0 + 20, one * 0 + 20,
                     np.array([[7, 9, 9, 3, 9]]))
    # three score-9 ties: stable sort keeps the lowest slot
    assert keep.tolist() == [[False, True, False, False, False]]


def test_synthesize_boxes_chunk_invariant():
    from geobuf_ray.io.images import synthesize_boxes

    idx = np.arange(40)
    w = np.full(40, 64)
    h = np.full(40, 48)
    full = synthesize_boxes(idx, w, h)
    part = synthesize_boxes(idx[13:27], w[13:27], h[13:27])
    for a, b in zip(full, part):
        assert (a[13:27] == b).all()
    x0, y0, x1, y1, sc = full
    assert (x1 > x0).all() and (y1 > y0).all()
    assert (x1 <= 64).all() and (y1 <= 48).all() and (x0 >= 0).all()


def test_box_sums_fn_scalar_reference():
    from geobuf_ray.io.images import (BoxSumsFn, decode_image, nms_dense,
                                      synthesize_boxes,
                                      synthesize_image_table)

    tbl = synthesize_image_table(12)
    out = BoxSumsFn(kb=8)(tbl)
    df = out.to_pandas()
    idx = np.arange(12)
    w = tbl["w"].to_numpy().astype(np.int64)
    h = tbl["h"].to_numpy().astype(np.int64)
    x0, y0, x1, y1, sc = synthesize_boxes(idx, w, h, kb=8)
    keep = nms_dense(x0, y0, x1, y1, sc)
    for i in range(12):
        px = decode_image(tbl["bytes"][i].as_py()).astype(np.int64) \
            .sum(axis=2)
        exp_total = int(px.sum())
        exp_kept = sum(int(px[y0[i, j]:y1[i, j], x0[i, j]:x1[i, j]].sum())
                       for j in range(8) if keep[i, j])
        assert df["image_pixel_sum"][i] == exp_total
        assert df["kept_pixel_sum"][i] == exp_kept
        assert df["n_kept"][i] == int(keep[i].sum())


def test_blob_stats_matches_flood_fill():
    from geobuf_ray.io.images import blob_stats

    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.random((20, 17)) < 0.35

        def flood(mask):
            seen = np.zeros_like(mask)
            sizes = []
            for sy, sx in zip(*np.nonzero(mask)):
                if seen[sy, sx]:
                    continue
                stack, size = [(sy, sx)], 0
                seen[sy, sx] = True
                while stack:
                    y, x = stack.pop()
                    size += 1
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < mask.shape[0] \
                                and 0 <= nx < mask.shape[1] \
                                and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
                sizes.append(size)
            return (len(sizes), max(sizes)) if sizes else (0, 0)

        assert blob_stats(m) == flood(m)


def test_blob_stats_u_shape_merges():
    from geobuf_ray.io.images import blob_stats

    m = np.zeros((5, 5), bool)
    m[0:4, 0] = True
    m[0:4, 4] = True
    m[3, 0:5] = True  # U: two arms joined at the bottom
    assert blob_stats(m) == (1, int(m.sum()))


def test_sharpness_scalar_replay_and_ordering():
    from geobuf_ray.io.images import (SharpnessFn, encode_rawz,
                                      synthesize_image_table)

    tbl = synthesize_image_table(6)
    out = SharpnessFn()(tbl).to_pandas()
    from geobuf_ray.io.images import decode_image

    for i in range(6):
        px = decode_image(tbl["bytes"][i].as_py()).astype(np.int64) \
            .sum(axis=2)
        lap = (px[:-2, 1:-1] + px[2:, 1:-1] + px[1:-1, :-2]
               + px[1:-1, 2:] - 4 * px[1:-1, 1:-1])
        assert out["lap_n"][i] == lap.size
        assert out["lap_sum"][i] == lap.sum()
        assert out["lap_sumsq"][i] == (lap * lap).sum()
        assert out["sharp_num"][i] == \
            lap.size * (lap * lap).sum() - lap.sum() ** 2

    import pyarrow as pa

    # a flat image scores zero; a checkerboard scores huge
    flat = np.full((16, 16, 3), 77, np.uint8)
    cb = np.indices((16, 16)).sum(axis=0) % 2 * 255
    cb = np.stack([cb, cb, cb], axis=2).astype(np.uint8)
    t2 = pa.table({
        "image_id": pa.array(["img000000000000", "img000000000001"]),
        "bytes": pa.array([encode_rawz(flat), encode_rawz(cb)],
                          pa.binary())})
    o2 = SharpnessFn()(t2).to_pandas()
    assert o2["sharp_num"][0] == 0
    assert o2["sharp_num"][1] > 10**9


def test_quarantine_decode_dead_letter():
    import pyarrow as pa

    from geobuf_ray.io.images import (QuarantineDecodeFn,
                                      synthesize_image_table)

    tbl = synthesize_image_table(10)
    blobs = tbl["bytes"].to_pylist()
    blobs[3] = b"XXXX" + blobs[3][4:]      # unknown magic
    blobs[7] = blobs[7][:20]               # truncated zlib
    tbl = tbl.set_column(tbl.column_names.index("bytes"), "bytes",
                         pa.array(blobs, pa.binary()))
    out = QuarantineDecodeFn()(tbl).to_pandas()
    bad = out["decode_error"].notna()
    assert bad.tolist() == [i in (3, 7) for i in range(10)]
    assert out.loc[~bad, "phash_decoded"].notna().all()
    assert out.loc[bad, "phash_decoded"].isna().all()
    assert out.loc[3, "decode_error"].startswith("ValueError")


def test_shard_write_and_random_access(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import ray

    from geobuf_ray.io.images import (read_shard_member,
                                      synthesize_image_table,
                                      write_shards)

    tbl = synthesize_image_table(20)
    out = str(tmp_path / "sh")
    man = write_shards(ray.data.from_arrow(tbl).repartition(3), out,
                       target_bytes=1 << 14)
    assert int(man["n_samples"].to_numpy().sum()) == 20
    # every sample readable by random access, byte-identical
    member = {}
    import pyarrow.parquet as pq

    for f in os.listdir(out):
        if f.endswith(".idx"):
            for s in pq.read_table(os.path.join(out, f))["image_id"] \
                    .to_pylist():
                member[s] = f[:-4]
    for i in range(20):
        iid = tbl["image_id"][i].as_py()
        assert read_shard_member(out, member[iid], iid) == \
            tbl["bytes"][i].as_py()
    with pytest.raises(KeyError):
        read_shard_member(out, next(iter(member.values())),
                          "img999999999999")


def test_equalize_scalar_replay_and_invariants():
    import pyarrow as pa

    from geobuf_ray.io.images import (EqualizeImagesFn, decode_image,
                                      encode_rawz, equalize_pixels,
                                      synthesize_image_table)

    # scalar replay of the LUT on a synthetic image
    tbl = synthesize_image_table(4)
    px = decode_image(tbl["bytes"][0].as_py())
    eq = equalize_pixels(px)
    npx = px.shape[0] * px.shape[1]
    for c in range(px.shape[2]):
        ch = px[:, :, c].astype(np.int64)
        hist = np.bincount(ch.reshape(-1), minlength=256)
        cdf = np.cumsum(hist)
        cdf_min = int(cdf[np.flatnonzero(hist)[0]])
        if cdf_min == npx:
            assert np.array_equal(eq[:, :, c], px[:, :, c])
            continue
        for v in np.unique(ch):
            want = (int(cdf[v]) - cdf_min) * 255 // (npx - cdf_min)
            got = eq[:, :, c][px[:, :, c] == v]
            assert np.all(got == want)
        # monotone: pixel order within the channel is preserved
        vs = np.unique(ch)
        luts = [(int(cdf[v]) - cdf_min) * 255 // (npx - cdf_min)
                for v in vs]
        assert all(a <= b for a, b in zip(luts, luts[1:]))
        # non-flat channel stretches to the full span
        if len(vs) >= 2:
            assert eq[:, :, c].min() == 0 and eq[:, :, c].max() == 255

    # flat channel is identity; flat image round-trips unchanged
    flat = np.full((8, 8, 3), 123, np.uint8)
    assert np.array_equal(equalize_pixels(flat), flat)

    # stage: audit columns and payload round-trip
    t2 = pa.table({
        "image_id": pa.array(["img000000000000", "img000000000001"]),
        "fmt": pa.array(["rawz", "rawz"]),
        "bytes": pa.array([encode_rawz(flat),
                           tbl["bytes"][1].as_py()], pa.binary())})
    out = EqualizeImagesFn()(t2)
    d = out.to_pandas()
    assert d["nonflat_ch"][0] == 0
    assert d["post_span"][0] == d["pre_span"][0] == 0
    assert d["nonflat_ch"][1] >= 1 and d["post_span"][1] == 255
    back = decode_image(d["bytes_eq"][1])
    assert np.array_equal(
        back, equalize_pixels(decode_image(tbl["bytes"][1].as_py())))


def test_trim_margins_replay_blank_and_nested():
    from geobuf_ray.io.images import (TrimBordersFn, add_border,
                                      decode_image, encode_rawz,
                                      pixel_checksum, trim_margins)

    rng = np.random.RandomState(7)
    px = rng.randint(0, 255, (20, 30, 3)).astype(np.uint8)
    px[0, 0] = (1, 2, 3)      # corners differ from any uniform gray
    px[-1, -1] = (4, 5, 6)
    padded = add_border(px, 2, 3, 4, 1, 131)
    assert trim_margins(padded) == (2, 3, 4, 1)

    # blank image: (h, 0, 0, 0) and the stage flags it
    blank = np.full((8, 10, 3), 42, np.uint8)
    assert trim_margins(blank) == (8, 0, 0, 0)

    # nested rings of DIFFERENT colors: one pass removes one ring
    nested = add_border(add_border(px, 1, 1, 1, 1, 9), 2, 2, 2, 2, 77)
    t, b, lf, r = trim_margins(nested)
    assert (t, b, lf, r) == (2, 2, 2, 2)
    core = nested[t:nested.shape[0] - b, lf:nested.shape[1] - r]
    assert trim_margins(core) == (1, 1, 1, 1)

    # a content image with NO border trims nothing (row 0 is not
    # uniform by construction)
    assert trim_margins(px) == (0, 0, 0, 0)

    import pyarrow as pa

    t2 = pa.table({
        "image_id": pa.array(["a", "b"]),
        "bytes": pa.array([encode_rawz(padded), encode_rawz(blank)],
                          pa.binary())})
    out = TrimBordersFn()(t2).to_pandas()
    assert out["blank"].tolist() == [0, 1]
    assert out["out_h"][0] == 20 and out["out_w"][0] == 30
    assert out["out_checksum"][0] == pixel_checksum(px)
    back = decode_image(out["bytes_trim"][0])
    assert np.array_equal(back, px)


def test_template_match_scalar_replay(ray_session):
    """Stamp + match round trip on a tiny corpus: planted rows
    recover their exact offset at SAD 0 in BOTH formats; a scalar
    SAD replay confirms the vectorized surface on one image; the
    template survives the quantz codec bit-exactly."""
    from geobuf_ray.io import images as im

    t = im.template_8()
    assert ((t.astype(np.int64) - 4) % 8 == 0).all()
    # quantz round-trip preserves the template exactly
    rt = im.decode_image(im.encode_quantz(
        np.tile(t, (4, 4, 1))))[:8, :8]
    assert np.array_equal(rt, t)

    # indices chosen so %7==3 hits both fmts (10,24 planted)
    tbl = im.synthesize_image_table(30)
    stamped = im.StampTemplateFn()(tbl)
    matched = im.MatchTemplateFn()(stamped)
    planted = matched["planted"].to_numpy()
    ms = matched["min_sad"].to_numpy()
    assert planted.sum() >= 2
    for r in matched.to_pylist():
        if r["planted"]:
            assert r["min_sad"] == 0 and r["n_zero_sad"] == 1
            assert (r["best_ox"], r["best_oy"]) == (r["p_ox"], r["p_oy"])
        else:
            assert r["min_sad"] > 0

    # scalar replay of the SAD surface on the first planted image
    k = int(np.flatnonzero(planted)[0])
    px = im.decode_image(stamped["bytes"][k].as_py()).astype(np.int64)
    h, w, _ = px.shape
    best = (1 << 62, -1, -1)
    for oy in range(h - 7):
        for ox in range(w - 7):
            sad = int(np.abs(px[oy:oy+8, ox:ox+8] - t).sum())
            if sad < best[0]:
                best = (sad, ox, oy)
    r = matched.to_pylist()[k]
    assert best == (r["min_sad"], r["best_ox"], r["best_oy"])


def test_otsu_threshold_fraction_replay():
    """OtsuThresholdFn vs an all-thresholds Fraction brute force on
    real corpus images plus a handcrafted bimodal image (where the
    answer is known) and a constant image (no valid split)."""
    from fractions import Fraction

    from geobuf_ray.io import images as im

    def brute_otsu(gray):
        hist = np.bincount(gray.reshape(-1), minlength=256)
        # plain Python ints: np.int64 would silently overflow D*D
        npx, S = int(hist.sum()), int((hist * np.arange(256)).sum())
        best_t, best = 0, Fraction(-1)
        c = s = 0
        for t in range(255):
            c += int(hist[t])
            s += int(hist[t]) * t
            w0, w1 = c, npx - c
            if w0 == 0 or w1 == 0:
                continue
            D = s * w1 - (S - s) * w0
            sc = Fraction(D * D, w0 * w1)
            if sc > best:
                best, best_t = sc, t
        return best_t

    tbl = im.synthesize_image_table(8)
    out = im.OtsuThresholdFn()(tbl)
    for k in range(8):
        px = im.decode_image(tbl["bytes"][k].as_py()).astype(np.int64)
        gray = px.sum(axis=2) // 3
        t = out["otsu_t"][k].as_py()
        assert t == brute_otsu(gray), k
        assert out["n_fg"][k].as_py() == int((gray > t).sum())
        assert out["n_bg"][k].as_py() == int((gray <= t).sum())

    import pyarrow as pa

    # handcrafted bimodal: half 10s, half 200s -> split between them
    bi = np.zeros((16, 16, 3), np.uint8)
    bi[:8] = 10 * 3 // 3
    bi[8:] = 200
    bi[:8] = 10
    t2 = im.OtsuThresholdFn()(pa.table({
        "bytes": pa.array([im.encode_rawz(bi)], pa.binary())}))
    tt = t2["otsu_t"][0].as_py()
    assert 10 <= tt < 200
    assert t2["n_fg"][0].as_py() == 128

    # constant image: no valid split -> t=0, everything background
    const = np.full((8, 8, 3), 77, np.uint8)
    t3 = im.OtsuThresholdFn()(pa.table({
        "bytes": pa.array([im.encode_rawz(const)], pa.binary())}))
    assert t3["otsu_t"][0].as_py() == 0
    assert t3["n_bg"][0].as_py() == 64 and t3["n_fg"][0].as_py() == 0


def test_seam_energy_scalar_replay():
    """SeamEnergyFn vs an exhaustive all-seams replay on small
    images: the DP cost must equal the true minimum over every
    monotone seam path, and the backtracked seam must realize it."""
    import pyarrow as pa

    from geobuf_ray.io import images as im

    def all_seams_min(e):
        h, w = e.shape
        # exact DP reference (independent implementation, dict-based)
        prev = {x: int(e[0, x]) for x in range(w)}
        for y in range(1, h):
            cur = {}
            for x in range(w):
                best = min(prev.get(x - 1, 1 << 60), prev[x],
                           prev.get(x + 1, 1 << 60))
                cur[x] = int(e[y, x]) + best
            prev = cur
        return min(prev.values())

    tbl = im.synthesize_image_table(6)
    out = im.SeamEnergyFn()(tbl)
    for i in range(6):
        px = im.decode_image(tbl["bytes"][i].as_py()).astype(np.int64)
        gray = px.sum(axis=2)
        dx = np.abs(np.diff(gray, axis=1))
        dx = np.concatenate([dx, dx[:, -1:]], axis=1)
        dy = np.abs(np.diff(gray, axis=0))
        dy = np.concatenate([dy, dy[-1:, :]], axis=0)
        e = dx + dy
        assert out["total_energy"][i].as_py() == int(e.sum())
        assert out["seam_cost"][i].as_py() == all_seams_min(e)

    # a flat image has zero energy everywhere: seam cost 0, leftmost
    # column wins the tie
    flat = np.full((10, 12, 3), 99, np.uint8)
    r = im.SeamEnergyFn()(pa.table({
        "bytes": pa.array([im.encode_rawz(flat)], pa.binary())}))
    assert r["seam_cost"][0].as_py() == 0
    assert r["seam_col"][0].as_py() == 0
    # checksum of the all-leftmost path: x stays 0 every row
    s = 0
    for _ in range(10):
        s = (s * 1_000_003 + 0) % (1 << 61)
    assert r["seam_checksum"][0].as_py() == s


def _ref_filter_png(px, filters):
    """Independent reference PNG writer: 8-bit RGB rows filtered with
    the given per-row filter types (scalar spec transcription)."""
    import struct
    import zlib

    h, w, _ = px.shape
    bpp = 3
    raw = bytearray()
    prev = bytes(w * bpp)
    for y in range(h):
        cur = px[y].reshape(-1).tobytes()
        f = filters[y % len(filters)]
        raw.append(f)
        for x in range(w * bpp):
            a = cur[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if f == 0:
                v = cur[x]
            elif f == 1:
                v = (cur[x] - a) & 0xFF
            elif f == 2:
                v = (cur[x] - b) & 0xFF
            elif f == 3:
                v = (cur[x] - ((a + b) >> 1)) & 0xFF
            else:
                p = a + b - c
                pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb_ and pa_ <= pc_) else \
                    (b if pb_ <= pc_ else c)
                v = (cur[x] - pred) & 0xFF
            raw.append(v)
        prev = cur

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    comp = zlib.compress(bytes(raw), 6)
    # split IDAT in two chunks to exercise concatenation
    mid = len(comp) // 2
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", comp[:mid]) + chunk(b"IDAT", comp[mid:])
            + chunk(b"IEND", b""))


def test_png_roundtrip_exact():
    """encode_png -> decode_png is pixel-exact on random RGB."""
    from geobuf_ray.io.png import decode_png, encode_png

    rng = np.random.default_rng(5)
    for shape in ((1, 1, 3), (7, 3, 3), (33, 57, 3)):
        px = rng.integers(0, 256, shape, dtype=np.uint8)
        out = decode_png(encode_png(px))
        assert (out == px).all()


def test_png_all_filter_types_decode():
    """decode_png vs an independent per-pixel reference writer using
    every scanline filter type (None/Sub/Up/Average/Paeth), split
    IDAT chunks included."""
    from geobuf_ray.io.png import decode_png

    rng = np.random.default_rng(9)
    px = rng.integers(0, 256, (10, 13, 3), dtype=np.uint8)
    for filters in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4]):
        data = _ref_filter_png(px, filters)
        assert (decode_png(data) == px).all(), filters


def test_png_unsupported_and_invalid():
    import struct
    import zlib

    import pytest

    from geobuf_ray.io.png import decode_png, encode_png

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    def make(depth=8, ctype=2, interlace=0):
        ihdr = struct.pack(">IIBBBBB", 2, 2, depth, ctype, 0, 0,
                           interlace)
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(b"\x00" * 14))
                + chunk(b"IEND", b""))

    with pytest.raises(NotImplementedError, match="depth"):
        decode_png(make(depth=16))
    with pytest.raises(NotImplementedError, match="interlaced"):
        decode_png(make(interlace=1))
    with pytest.raises(NotImplementedError, match="color type"):
        decode_png(make(ctype=3))
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"nope")
    with pytest.raises(ValueError):
        encode_png(np.zeros((2, 2), np.uint8))


def test_png_gray_and_rgba_decode():
    """Gray replicates to 3 channels; RGBA drops alpha."""
    import struct
    import zlib

    from geobuf_ray.io.png import decode_png

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    rng = np.random.default_rng(4)
    g = rng.integers(0, 256, (3, 5), dtype=np.uint8)
    raw = b"".join(b"\x00" + g[y].tobytes() for y in range(3))
    data = (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 3, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    out = decode_png(data)
    assert out.shape == (3, 5, 3)
    assert (out == g[:, :, None]).all()

    rgba = rng.integers(0, 256, (3, 5, 4), dtype=np.uint8)
    raw = b"".join(b"\x00" + rgba[y].tobytes() for y in range(3))
    data = (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 3, 8, 6, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))
    out = decode_png(data)
    assert (out == rgba[:, :, :3]).all()


def test_transcode_png_stage(ray_session):
    """The actor-pool PNG transcode stage: payloads become real PNGs,
    the standard decode stage consumes them, and the lossless chain
    preserves pixels bit-exactly."""
    import ray

    from geobuf_ray.io import images as im
    from geobuf_ray.io.png import decode_png

    tbl = im.synthesize_image_table(24)
    ds = ray.data.from_arrow(tbl).repartition(3)
    png = im.transcode_png(ds, batch_size=8)
    rows = png.take_all()
    assert all(r["fmt"] == "png" for r in rows)
    assert all(r["bytes"][:8] == b"\x89PNG\r\n\x1a\n" for r in rows)
    by_id = {r["image_id"]: r for r in rows}
    for orig in tbl.to_pylist():
        got = decode_png(by_id[orig["image_id"]]["bytes"])
        want = im.decode_image(orig["bytes"])
        assert (got == want).all()

    out = im.decode_images(png, batch_size=8)
    feats = out.take_all()
    assert all(np.isfinite(min(r["psnr_db"], 99.0)) and
               min(r["psnr_db"], 99.0) >= 40.0 for r in feats)


def test_read_image_table_lance():
    """Lance-backed read path (importorskip — the container has no
    lance; the parquet fallback is exercised everywhere else)."""
    import tempfile

    import pytest

    lance = pytest.importorskip("lance")
    import ray

    from geobuf_ray.io import images as im

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=2, include_dashboard=False)
    tbl = im.synthesize_image_table(8)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/images.lance"
        lance.write_dataset(tbl, path)
        ds = im.read_image_table(path)
        assert ds.count() == 8
        assert set(ds.schema().names) >= {"image_id", "bytes", "fmt"}


def test_png_roundtrip_property():
    """Hypothesis sweep: encode_png -> decode_png is pixel-exact for
    arbitrary shapes and contents (incl. 1-pixel edges and flat
    fills)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from geobuf_ray.io.png import decode_png, encode_png

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 2**32 - 1),
           st.sampled_from(["random", "flat", "gradient"]))
    def check(h, w, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        elif kind == "flat":
            px = np.full((h, w, 3), int(seed % 256), np.uint8)
        else:
            px = (np.arange(h * w * 3, dtype=np.int64)
                  .reshape(h, w, 3) % 256).astype(np.uint8)
        out = decode_png(encode_png(px))
        assert out.shape == px.shape and (out == px).all()

    check()


def test_ssim_pairs_replay(ray_session):
    """images_ssim_pairs vs a definition-level SSIM replay on each
    emitted pair; planted near-dups rank above unrelated controls."""
    from geobuf_ray.io import images as im
    from geobuf_ray.pipelines import queries as q

    out = q.images_ssim_pairs("/root/testdata/sf0.001").to_pylist()
    assert len(out) >= 4
    tbl = im.synthesize_image_table(100)
    blob = dict(zip(tbl["image_id"].to_pylist(),
                    tbl["bytes"].to_pylist()))
    C1, C2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    for r in out:
        a = im.decode_image(blob[r["id_a"]]).astype(np.float64)
        b = im.decode_image(blob[r["id_b"]]).astype(np.float64)
        h = min(a.shape[0], b.shape[0])
        w = min(a.shape[1], b.shape[1])
        av, bv = a[:h, :w].ravel(), b[:h, :w].ravel()
        mu_a, mu_b = av.mean(), bv.mean()
        va, vb = av.var(), bv.var()
        cov = (av * bv).mean() - mu_a * mu_b
        want = ((2 * mu_a * mu_b + C1) * (2 * cov + C2)) / (
            (mu_a**2 + mu_b**2 + C1) * (va + vb + C2))
        assert abs(r["ssim"] - want) < 1e-5, r
    planted = [r["ssim"] for r in out
               if int(r["id_b"][3:]) - int(r["id_a"][3:]) == 7]
    controls = [r["ssim"] for r in out
                if int(r["id_b"][3:]) - int(r["id_a"][3:]) == 1]
    assert planted and controls
    assert min(planted) >= 0.9 > max(controls)
