"""PQ (product quantization) oracles."""

import numpy as np
import pyarrow as pa
import pytest

from geobuf_ray.functions.ann import (pq_encode, pq_reconstruct,
                                      pq_topk, pq_train)


def _clustered(rng, n=600, d=16, n_blobs=12):
    centers = rng.normal(0, 5, (n_blobs, d))
    lab = rng.integers(0, n_blobs, n)
    return centers[lab] + rng.normal(0, 0.3, (n, d)), lab


def test_pq_adc_equals_reconstructed_distance(ray_session):
    import ray

    rng = np.random.default_rng(7)
    X, _ = _clustered(rng)
    books = pq_train(X[:400], m=4, ksub=16, iters=8, seed=0)
    tbl = pa.table({"vec_id": pa.array(np.arange(len(X), dtype=np.int64)),
                    "embedding": pa.array([r.tolist() for r in X],
                                          pa.list_(pa.float64()))})
    ds = ray.data.from_arrow(tbl).repartition(4)
    enc = pq_encode(ds, books).to_pandas().sort_values("vec_id")
    codes = np.stack([np.frombuffer(b, np.uint8)
                      for b in enc["pq_code"]])
    recon = pq_reconstruct(books, codes)
    q = rng.normal(0, 5, (5, X.shape[1]))
    queries = pa.table({"vec_id": pa.array(np.arange(5, dtype=np.int64)),
                        "embedding": pa.array([r.tolist() for r in q],
                                              pa.list_(pa.float64()))})
    codes_ds = ray.data.from_arrow(
        pa.Table.from_pandas(enc, preserve_index=False)).repartition(3)
    out = pq_topk(codes_ds, queries, books, k=len(X)).to_pandas()
    # ADC distance IS the exact L2 to the reconstruction
    for r in out.itertuples():
        want = ((q[int(r.query_id)] - recon[int(r.vec_id)]) ** 2).sum()
        assert abs(r.adc - want) < 1e-8 * max(1.0, want)


def test_pq_topk_matches_reconstructed_exact_and_blobs(ray_session):
    import ray

    rng = np.random.default_rng(11)
    X, lab = _clustered(rng, n=800)
    books = pq_train(X[:512], m=8, ksub=32, iters=10, seed=1)
    ids = np.arange(len(X), dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([r.tolist() for r in X],
                                          pa.list_(pa.float64()))})
    ds = ray.data.from_arrow(tbl).repartition(5)
    enc = pq_encode(ds, books).to_pandas().sort_values("vec_id")
    codes = np.stack([np.frombuffer(b, np.uint8) for b in enc["pq_code"]])
    recon = pq_reconstruct(books, codes)
    codes_ds = ray.data.from_arrow(
        pa.Table.from_pandas(enc, preserve_index=False)).repartition(5)
    queries = tbl.slice(0, 10)
    got = pq_topk(codes_ds, queries, books, k=10).to_pandas()
    blob_hits = 0
    for qi in range(10):
        # the PQ answer IS the exact top-k over the reconstructions
        # (ADC identity), with the same (distance, vec_id) tie-break
        d2 = ((recon - X[qi]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(X)), d2))[:10]
        pq_ids = got.loc[got["query_id"] == qi, "vec_id"].tolist()
        assert pq_ids == order.tolist()
        # and at the blob level PQ keeps the structure: neighbors come
        # from the query's own blob
        blob_hits += sum(lab[v] == lab[qi] for v in pq_ids)
    assert blob_hits / 100 >= 0.9, f"blob recall {blob_hits / 100}"


def test_pq_partition_invariance(ray_session):
    import ray

    rng = np.random.default_rng(13)
    X, _ = _clustered(rng, n=300)
    books = pq_train(X[:256], m=4, ksub=16, seed=2)
    tbl = pa.table({"vec_id": pa.array(np.arange(len(X), dtype=np.int64)),
                    "embedding": pa.array([r.tolist() for r in X],
                                          pa.list_(pa.float64()))})
    queries = tbl.slice(0, 4)
    outs = []
    for nb in (1, 6):
        ds = ray.data.from_arrow(tbl).repartition(nb)
        codes = pq_encode(ds, books)
        outs.append(pq_topk(codes, queries, books, k=7).to_pandas()
                    .reset_index(drop=True))
    assert outs[0].equals(outs[1])


def test_ivfpq_masked_identity_pruning_and_partitions(ray_session, tmp_path):
    """ivfpq_topk == pq_topk restricted to each query's probe cells
    (the masked-scan identity), the read touches only probed
    partitions, and the result is partition-invariant."""
    import os

    import ray

    from geobuf_ray.functions.ann import (fit_centroids, ivfpq_build,
                                          ivfpq_topk, ivf_probe_paths)
    from geobuf_ray.functions.ann import _normalize, _to_matrix

    rng = np.random.default_rng(19)
    X, _ = _clustered(rng, n=700, n_blobs=10)
    cent = fit_centroids(X[:512], 8)
    books = pq_train(X[:400], m=4, ksub=16, iters=8, seed=2)
    ids = np.arange(len(X), dtype=np.int64) * 3 + 1
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([r.tolist() for r in X],
                                          pa.list_(pa.float64()))})
    q = pa.table({"vec_id": pa.array(np.arange(6, dtype=np.int64)),
                  "embedding": pa.array([r.tolist() for r in X[:6]],
                                        pa.list_(pa.float64()))})
    nprobe, k = 3, 7
    prev = None
    for i, nparts in enumerate((2, 6)):
        idx = str(tmp_path / f"ivfpq{i}")
        ds = ray.data.from_arrow(tbl).repartition(nparts)
        ivfpq_build(ds, cent, books, idx)
        out = ivfpq_topk(idx, q, cent, books, k=k,
                         nprobe=nprobe).to_pandas()
        got = [(int(r.query_id), int(r.rank), int(r.vec_id))
               for r in out.itertuples(index=False)]
        if prev is not None:
            assert got == prev
        prev = got
        # pruning: probed paths are a strict subset of all partitions
        probes = np.argsort(-( _normalize(_to_matrix(q["embedding"]))
                               @ _normalize(cent).T), axis=1)[:, :nprobe]
        npart_dirs = len([d for d in os.listdir(idx)
                          if d.startswith("ivf_cell=")])
        probed_cells = len(np.unique(probes))
        assert probed_cells < npart_dirs or npart_dirs <= nprobe * len(q)

    # masked identity: per query, pq_topk over ONLY its probe-cell
    # rows gives the same ranking
    from geobuf_ray.functions.ann import ivf_partition, pq_encode, pq_topk

    stamped = ivf_partition(ray.data.from_arrow(tbl), cent).to_pandas()
    coded = pq_encode(ray.data.from_arrow(tbl), books).to_pandas()
    merged = stamped.merge(coded, on="vec_id")
    qm = _to_matrix(q["embedding"])
    probes = np.argsort(-(_normalize(qm) @ _normalize(cent).T),
                        axis=1)[:, :nprobe]
    for qi in range(len(q)):
        sub = merged[merged["ivf_cell"].isin(probes[qi])]
        sub_ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(sub["vec_id"].to_numpy()),
            "pq_code": pa.array(list(sub["pq_code"]), pa.binary())}))
        one_q = q.slice(qi, 1)
        want = pq_topk(sub_ds, one_q, books, k=k).to_pandas()
        got_rows = [r for r in prev if r[0] == int(q["vec_id"][qi].as_py())]
        want_rows = [(int(r.query_id), int(r.rank), int(r.vec_id))
                     for r in want.itertuples(index=False)]
        assert got_rows == want_rows


def _blob_table(n=400, d=32, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(8, d)) * 4
    vecs = centers[np.arange(n) % 8] + rng.normal(size=(n, d)) * 0.3
    return pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([v.astype(np.float32) for v in vecs],
                              pa.list_(pa.float32()))})


def test_bq_topk_rerank_all_is_exact(ray_session):
    import ray

    from geobuf_ray.functions.ann import bq_topk, brute_force_topk

    tbl = _blob_table()
    queries = tbl.slice(0, 4)
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = bq_topk(ds, queries, k=5, rerank=tbl.num_rows)
    exp = brute_force_topk(ray.data.from_arrow(tbl), queries, 5)
    assert got.select(["query_id", "rank", "vec_id"]).to_pydict() == \
        exp.select(["query_id", "rank", "vec_id"]).to_pydict()


def test_bq_topk_blob_recall(ray_session):
    import ray

    from geobuf_ray.functions.ann import bq_topk

    tbl = _blob_table()
    queries = tbl.slice(0, 8)
    ds = ray.data.from_arrow(tbl).repartition(4)
    got = bq_topk(ds, queries, k=5, rerank=48).to_pandas()
    # every retrieved neighbor should come from the query's own blob
    same_blob = (got["vec_id"] % 8) == (got["query_id"] % 8)
    assert same_blob.mean() >= 0.9


def test_bq_bits_shape_and_guard():
    from geobuf_ray.functions.ann import bq_bits

    m = np.array([[1.0, -2.0, 0.0, 3.0, -1.0, -1.0, 2.0, 0.5]])
    bits = bq_bits(m)
    assert bits.shape == (1, 1)
    assert bits[0, 0] == 0b10010011
    with pytest.raises(ValueError):
        bq_bits(np.zeros((2, 7)))
