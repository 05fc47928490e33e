"""CLIP-score stage: scalar two-tower replay, planted caption-dup
invariant, partition invariance."""
import numpy as np
import pyarrow as pa

from geobuf_ray.io import images as im


def _scalar_scores(tbl: pa.Table, pool: int = 8) -> dict[int, int]:
    """Independent per-row replay: image tower via the module's own
    scalar pieces, text tower via caption_embed_batch on ONE row at a
    time (so any cross-row vectorization bug in the batch path
    diverges)."""
    out = {}
    p, step = pool, 32 // pool
    for i in range(tbl.num_rows):
        blob = tbl["bytes"][i].as_py()
        px = im.decode_image(blob)
        g32 = im._resample_gray32(px)
        v = g32.reshape(p, step, p, step).mean(axis=(1, 3)).reshape(-1)
        v = v / max(np.sqrt((v * v).sum()), 1e-12)
        t = im.caption_embed_batch([tbl["caption"][i].as_py()],
                                   dim=p * p)[0]
        score = float((v * t).sum())
        out[int(tbl["image_id"][i].as_py()[3:])] = int(
            np.floor(score * (1 << 20)))
    return out


def test_clip_score_scalar_replay(ray_session):
    import ray

    rows = im.synthesize_rows(np.arange(60))
    got = pa.concat_tables(ray.get(im.clip_scores(
        ray.data.from_arrow(rows).repartition(4)).to_arrow_refs()))
    by = dict(zip(got["img_idx"].to_pylist(),
                  got["score_q"].to_pylist()))
    assert by == _scalar_scores(rows)


def test_clip_score_planted_caption_dups(ray_session):
    """Planted near-dup rows (i % 23 == 11, i >= 23) share their base
    row's caption AND near-identical pixels, so their scores must sit
    within a few quanta of the base score — while the corpus-wide
    score spread is orders of magnitude larger."""
    import ray

    idx = np.arange(160)
    rows = im.synthesize_rows(idx)
    got = pa.concat_tables(ray.get(im.clip_scores(
        ray.data.from_arrow(rows)).to_arrow_refs()))
    by = dict(zip(got["img_idx"].to_pylist(), got["score_q"].to_pylist()))
    pairs = [(i, i - 7) for i in idx if i >= 23 and i % 23 == 11]
    assert pairs
    diffs = [abs(by[a] - by[b]) for a, b in pairs]
    spread = max(by.values()) - min(by.values())
    assert max(diffs) * 20 < spread  # pairs glued, corpus spread wide


def test_caption_embed_unit_norm_and_empty():
    v = im.caption_embed_batch(["a b c", "", "hello hello"], dim=16)
    norms = np.sqrt((v * v).sum(axis=1))
    assert abs(norms[0] - 1.0) < 1e-12
    assert norms[1] == 0.0  # empty caption -> zero vector
    assert abs(norms[2] - 1.0) < 1e-12


def test_clip_score_partition_invariance(ray_session):
    import ray

    rows = im.synthesize_rows(np.arange(40))

    def run(k):
        t = pa.concat_tables(ray.get(im.clip_scores(
            ray.data.from_arrow(rows).repartition(k)).to_arrow_refs()))
        return dict(zip(t["img_idx"].to_pylist(),
                        t["score_q"].to_pylist()))

    assert run(1) == run(6)


def test_aspect_buckets_scalar_replay(ray_session):
    import math

    import numpy as np

    from geobuf_ray.pipelines import queries as q
    from geobuf_ray.io import images as im

    out = q.images_aspect_buckets("/root/testdata/sf0.001")
    rows = im.synthesize_rows(np.arange(100))
    B = q._ASPECT_BUCKETS
    want = {}
    for w, h in zip(rows["w"].to_pylist(), rows["h"].to_pylist()):
        # scalar log-space nearest with the same tie rule (ties high)
        r = math.log(w / h)
        dists = [abs(r - math.log(bw / bh)) for bw, bh in B]
        m = min(dists)
        idx = max(i for i, d in enumerate(dists) if abs(d - m) < 1e-12)
        p = want.setdefault(idx, [0, 0])
        p[0] += 1
        p[1] += w * h
    got = {b: [n, s] for b, n, s in zip(out["bucket"].to_pylist(),
                                        out["n_images"].to_pylist(),
                                        out["sum_src_pixels"].to_pylist())}
    assert got == want
    for r in out.to_pylist():
        assert r["n_batches"] == (r["n_images"] + 31) // 32
