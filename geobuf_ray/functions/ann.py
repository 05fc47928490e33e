"""Similarity search over embedding columns.

Baseline: brute-force cosine top-k — the query matrix rides on the
stage instance (shipped once per operator), each streamed batch does
one numpy matmul against it (never re-shipped per batch).  Scale path:
IVF — coarse centroids fit driver-side on a sample, vectors
hash-partitioned by nearest centroid, queries probe only the nearest
``nprobe`` partitions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _empty_topk_table() -> pa.Table:
    return pa.table({"query_id": pa.array([], pa.int64()),
                     "vec_id": pa.array([], pa.int64()),
                     "cosine": pa.array([], pa.float64())})


def _to_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix via flat values
    (zero-copy reshape when offsets are regular)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values = col.values.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    offs = col.offsets.to_numpy(zero_copy_only=False)
    d = offs[1] - offs[0] if len(offs) > 1 else 0
    if d and (np.diff(offs) == d).all():
        start = offs[0]
        return values[start : start + d * (len(offs) - 1)].reshape(-1, d)
    return np.asarray(col.to_pylist(), np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


class BruteForceTopK:
    """Map stage: cosine top-k of broadcast queries vs streamed
    vectors.  Emits per-batch LOCAL top-k (query_id, vec_id, cosine);
    reduce with :func:`topk_reduce` for the global answer — a
    partial+final aggregation, not a full shuffle."""

    def __init__(self, queries, k: int, vec_col: str, id_col: str):
        self.q_ids, qm = queries
        self.qm = _normalize(qm)
        self.k = k
        self.vec_col, self.id_col = vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_topk_table()
        vm = _normalize(_to_matrix(batch[self.vec_col]))
        ids = batch[self.id_col].combine_chunks().to_numpy(zero_copy_only=False)
        sims = self.qm @ vm.T  # (q, n)
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        ss = np.take_along_axis(sims, part, axis=1)
        return pa.table({
            "query_id": pa.array(np.repeat(self.q_ids, k)),
            "vec_id": pa.array(ids[part].reshape(-1)),
            "cosine": pa.array(ss.reshape(-1)),
        })


def topk_reduce(partials: pa.Table, k: int) -> pa.Table:
    """Final top-k per query from per-batch partials (small driver-side
    reduce; at scale this is a ``grouped_exchange`` on query_id)."""
    df = partials.to_pandas()
    df = df.sort_values(["query_id", "cosine", "vec_id"],
                        ascending=[True, False, True], kind="stable")
    df = df.groupby("query_id", as_index=False).head(k).reset_index(drop=True)
    # int32 to byte-match the oracle's CAST(row_number() AS INTEGER)
    df["rank"] = (df.groupby("query_id").cumcount() + 1).astype("int32")
    return pa.Table.from_pandas(df, preserve_index=False)


def brute_force_topk(ds, queries: pa.Table, k: int = 5, *,
                     vec_col="embedding", id_col="vec_id",
                     query_vec_col="embedding", query_id_col="vec_id",
                     **map_kwargs) -> pa.Table:
    """Exact cosine top-k of each query vs the full streamed dataset."""
    from ..collect import collect_table

    q = (
        queries[query_id_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64),
        _to_matrix(queries[query_vec_col]),
    )
    partials = ds.map_batches(
        BruteForceTopK(q, k, vec_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True, **map_kwargs)

    return topk_reduce(collect_table(partials), k)


# ---------------------------------------------------------------------------
# IVF (coarse-quantizer) variant — the 100 TB path
# ---------------------------------------------------------------------------


def fit_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                  seed: int = 0) -> np.ndarray:
    """Mini k-means on a driver-side sample (spherical: cosine)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample)
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cent = sample[idx].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                v = sample[m].mean(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    return cent


def ivf_partition(ds, centroids: np.ndarray, *, vec_col="embedding",
                  out_col="ivf_cell", **map_kwargs):
    """Stamp nearest-centroid id per row — the ONE partition key for
    vector data (mirrors the spatial cell key)."""
    class AssignFn:
        def __init__(self, cent):
            self.cent = cent

        def __call__(self, batch: pa.Table) -> pa.Table:
            vm = _normalize(_to_matrix(batch[vec_col]))
            cell = np.argmax(vm @ self.cent.T, axis=1).astype(np.int32)
            return batch.append_column(out_col, pa.array(cell))

    return ds.map_batches(AssignFn(_normalize(centroids)),
                          batch_format="pyarrow", zero_copy_batch=True,
                          **map_kwargs)


def ivf_build(ds, centroids: np.ndarray, out_dir: str, *,
              vec_col="embedding", **map_kwargs) -> str:
    """Write the ``ivf_cell``-partitioned parquet layout — the ANN
    index.  One hive directory per coarse cell, so a probe reads ONLY
    its ``nprobe`` cells' files (true partition pruning, not an
    in-stream filter).  Build once, query many times."""
    stamped = ivf_partition(ds, centroids, vec_col=vec_col, **map_kwargs)
    stamped.write_parquet(out_dir, partition_cols=["ivf_cell"])
    return out_dir


def ivf_probe_paths(index_dir: str, cells: np.ndarray) -> list[str]:
    """Parquet files of the probed cells' partition directories."""
    import glob
    import os

    paths = []
    for c in np.unique(cells):
        p = os.path.join(index_dir, f"ivf_cell={int(c)}")
        if os.path.isdir(p):
            paths.extend(sorted(glob.glob(os.path.join(p, "*.parquet"))))
    return paths


def ivf_topk(ds, queries: pa.Table, centroids: np.ndarray, k: int = 5, *,
             nprobe: int = 4, vec_col="embedding", id_col="vec_id",
             query_vec_col="embedding", query_id_col="vec_id",
             index_dir: str | None = None,
             **map_kwargs) -> pa.Table:
    """Approximate top-k: probe only the ``nprobe`` nearest IVF cells
    per query.

    With ``index_dir`` (an :func:`ivf_build` layout) the probe READS
    only the probed cells' partitions — rows outside them never leave
    storage; ``ds`` may be None then.  Without it, vectors outside
    probed cells are filtered batch-side over the full stream (correct
    but unpruned — only for index-less one-shot queries)."""
    import ray

    cent = _normalize(centroids)
    qm = _normalize(_to_matrix(queries[query_vec_col]))
    q_ids = queries[query_id_col].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    probes = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]  # (q, nprobe)
    payload = (q_ids, qm, probes)  # small: rides the task closure
    if index_dir is not None:
        paths = ivf_probe_paths(index_dir, probes.reshape(-1))
        if not paths:
            return _empty_topk_table().append_column(
                "rank", pa.array([], pa.int64()))
        ds = ray.data.read_parquet(paths, columns=[id_col, vec_col])

    class ProbeFn:
        def __init__(self):
            self.q_ids, self.qm, self.probes = payload
            self.cent = cent

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _empty_topk_table()
            vm = _normalize(_to_matrix(batch[vec_col]))
            ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
            cells = np.argmax(vm @ self.cent.T, axis=1)
            out_q, out_v, out_s = [], [], []
            for qi in range(len(self.q_ids)):
                mask = np.isin(cells, self.probes[qi])
                if not mask.any():
                    continue
                sims = self.qm[qi] @ vm[mask].T
                kk = min(k, len(sims))
                part = np.argpartition(-sims, kth=kk - 1)[:kk]
                out_q.append(np.full(kk, self.q_ids[qi]))
                out_v.append(ids[mask][part])
                out_s.append(sims[part])
            if not out_q:
                return pa.table({"query_id": pa.array([], pa.int64()),
                                 "vec_id": pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            return pa.table({
                "query_id": pa.array(np.concatenate(out_q)),
                "vec_id": pa.array(np.concatenate(out_v)),
                "cosine": pa.array(np.concatenate(out_s)),
            })

    partials = ds.map_batches(ProbeFn(), batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)
    from ..collect import collect_table

    return topk_reduce(collect_table(partials), k)


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the compressed-domain ANN path
# ---------------------------------------------------------------------------


def pq_train(sample: np.ndarray, m: int, ksub: int = 16,
             iters: int = 12, seed: int = 0) -> np.ndarray:
    """Train PQ codebooks (Jegou et al., "Product Quantization for
    Nearest Neighbor Search", TPAMI 2011) on a driver-side sample
    (the standard practice — encoding and scanning stay distributed).

    Splits d dims into ``m`` contiguous subspaces (d % m == 0) and runs
    an independent Lloyd k-means with ``ksub`` centroids per subspace.
    Returns codebooks (m, ksub, d // m) float64.
    """
    sample = np.asarray(sample, np.float64)
    n, d = sample.shape
    if d % m:
        raise ValueError(f"d={d} not divisible by m={m}")
    dsub = d // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, ksub, dsub))
    for j in range(m):
        x = sample[:, j * dsub:(j + 1) * dsub]
        idx = rng.choice(n, size=min(ksub, n), replace=False)
        cent = x[idx].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(len(cent)):
                sel = assign == c
                if sel.any():
                    cent[c] = x[sel].mean(axis=0)
        books[j, :len(cent)] = cent
        if len(cent) < ksub:           # tiny sample: repeat last row
            books[j, len(cent):] = cent[-1]
    return books


def pq_encode(ds, codebooks: np.ndarray, *, vec_col: str = "embedding",
              id_col: str = "vec_id", out_col: str = "pq_code",
              keep_cols: tuple = (), **map_kwargs):
    """Encode each vector to ``m`` uint8 nearest-subcentroid codes
    (one binary cell per row — d x 8 bytes shrink to m bytes).
    ``keep_cols`` pass through unchanged (e.g. an IVF cell stamp)."""
    import ray

    books = np.asarray(codebooks, np.float64)
    m, ksub, dsub = books.shape
    bref = ray.put(books)

    def enc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             out_col: pa.array([], pa.binary()),
                             **{c: batch[c] for c in keep_cols}})
        b = ray.get(bref)
        x = _to_matrix(batch[vec_col])
        n = len(x)
        codes = np.empty((n, m), np.uint8)
        for j in range(m):
            xj = x[:, j * dsub:(j + 1) * dsub]
            # argmin ||x - c||^2 == argmax 2 x.c - |c|^2
            s = 2.0 * (xj @ b[j].T) - (b[j] * b[j]).sum(axis=1)[None, :]
            codes[:, j] = np.argmax(s, axis=1).astype(np.uint8)
        return pa.table({
            id_col: batch[id_col],
            out_col: pa.array([codes[i].tobytes() for i in range(n)],
                              pa.binary()),
            **{c: batch[c] for c in keep_cols}})

    return ds.map_batches(enc, batch_format="pyarrow",
                          zero_copy_batch=True, **map_kwargs)


def pq_reconstruct(codebooks: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(n, d) reconstruction of (n, m) uint8 codes."""
    books = np.asarray(codebooks, np.float64)
    m, ksub, dsub = books.shape
    return np.concatenate(
        [books[j][codes[:, j].astype(np.int64)] for j in range(m)], axis=1)


class PQTopK:
    """Map stage: ADC (asymmetric distance computation) top-k — the
    per-query lookup tables ||q_j - c||^2 are built ONCE in __init__,
    on the driver, and ride on the instance; each batch is m uint8
    gathers + adds, never touching float vectors.  Emits per-batch local top-k (smallest ADC L2)."""

    def __init__(self, queries, books, k: int, code_col: str, id_col: str):
        q_ids, qm = queries
        self.q_ids = q_ids
        m, ksub, dsub = books.shape
        self.m = m
        qm = np.asarray(qm, np.float64)
        # lut[iq, j, c] = ||q_j - books[j, c]||^2
        self.lut = np.stack([
            ((qm[:, j * dsub:(j + 1) * dsub][:, None, :]
              - books[j][None, :, :]) ** 2).sum(axis=2)
            for j in range(m)], axis=1)
        self.k = k
        self.code_col, self.id_col = code_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        ca = batch[self.code_col].combine_chunks()
        n = len(ca)
        buf = np.frombuffer(ca.buffers()[2], np.uint8)
        offs = np.frombuffer(ca.buffers()[1], np.int32)[
            ca.offset: ca.offset + n + 1]
        codes = buf[offs[0]:offs[0] + n * self.m].reshape(n, self.m)
        ids = batch[self.id_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        nq = len(self.q_ids)
        # sort columns by id so the stable argsort below breaks ADC
        # ties (identical codes are COMMON) by lowest vec_id — the
        # partial top-k must use the same total order as the final
        # reduce or the result depends on the block layout
        o0 = np.argsort(ids, kind="stable")
        ids = ids[o0]
        codes = codes[o0]
        dist = np.zeros((nq, n))
        for j in range(self.m):
            dist += self.lut[:, j, :][:, codes[:, j].astype(np.int64)]
        k = min(self.k, n)
        part = np.argsort(dist, axis=1, kind="stable")[:, :k]
        dd = np.take_along_axis(dist, part, axis=1)
        return pa.table({
            "query_id": pa.array(np.repeat(self.q_ids, k)),
            "vec_id": pa.array(ids[part].reshape(-1)),
            "adc": pa.array(dd.reshape(-1)),
        })


def pq_topk(codes_ds, queries: pa.Table, codebooks: np.ndarray,
            k: int = 10, *, code_col: str = "pq_code",
            id_col: str = "vec_id", query_vec_col: str = "embedding",
            query_id_col: str = "vec_id", **map_kwargs) -> pa.Table:
    """ADC top-k of each query over the PQ-encoded dataset (partial
    per-block top-k + small final reduce; smallest distance wins,
    ties to the lowest vec_id)."""
    from ..collect import collect_table

    q = (queries[query_id_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64),
        _to_matrix(queries[query_vec_col]))
    books = np.asarray(codebooks, np.float64)
    partials = codes_ds.map_batches(
        PQTopK(q, books, k, code_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True, **map_kwargs)
    df = collect_table(partials).to_pandas()
    df = df.sort_values(["query_id", "adc", "vec_id"],
                        ascending=[True, True, True], kind="stable")
    df = df.groupby("query_id", as_index=False).head(k) \
        .reset_index(drop=True)
    df["rank"] = (df.groupby("query_id").cumcount() + 1).astype("int32")
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------------------
# IVF-PQ — coarse partition pruning + compressed-domain scan, composed
# ---------------------------------------------------------------------------


def ivfpq_build(ds, centroids: np.ndarray, codebooks: np.ndarray,
                out_dir: str, *, vec_col: str = "embedding",
                id_col: str = "vec_id") -> str:
    """Write the IVF-PQ index: one hive partition per coarse cell
    holding only ``(vec_id, pq_code, cell)`` — m bytes per vector, the
    float vectors never reach the index.  Composes the engine's two
    ANN halves: ivf_partition's coarse routing (a probe READS only its
    cells) and pq_encode's compressed codes (the scan never touches
    floats).  ``cell`` is duplicated as a data column because hive
    partition columns are stripped from the files and path-targeted
    reads don't re-parse them."""
    stamped = ivf_partition(ds, centroids, vec_col=vec_col)

    def dup(batch: pa.Table) -> pa.Table:
        return batch.append_column("cell", batch["ivf_cell"])

    coded = pq_encode(stamped.map_batches(dup, batch_format="pyarrow",
                                          zero_copy_batch=True),
                      codebooks, vec_col=vec_col, id_col=id_col,
                      keep_cols=("cell", "ivf_cell"))
    coded.write_parquet(out_dir, partition_cols=["ivf_cell"])
    return out_dir


class IVFPQTopK(PQTopK):
    """PQTopK with per-query probe-cell masking: each query scores
    ONLY rows whose coarse cell is in its own probe list (true IVF-PQ
    semantics — a union-of-partitions read still scans per query only
    its lists)."""

    def __init__(self, queries, books, k: int, code_col: str,
                 id_col: str, probes, cell_col: str = "cell"):
        super().__init__(queries, books, k, code_col, id_col)
        self.probes = probes
        self.cell_col = cell_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        ca = batch[self.code_col].combine_chunks()
        n = len(ca)
        buf = np.frombuffer(ca.buffers()[2], np.uint8)
        offs = np.frombuffer(ca.buffers()[1], np.int32)[
            ca.offset: ca.offset + n + 1]
        codes = buf[offs[0]:offs[0] + n * self.m].reshape(n, self.m)
        ids = batch[self.id_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        cells = batch[self.cell_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        # same id-sorted total order as PQTopK (ADC ties are common)
        o0 = np.argsort(ids, kind="stable")
        ids, codes, cells = ids[o0], codes[o0], cells[o0]
        nq = len(self.q_ids)
        # a batch is (usually) ONE coarse partition: score only the
        # queries that probed a cell present here — the others would
        # pay the full m-gather accumulation just to be masked to inf
        qmask = np.zeros(nq, bool)
        allowed_rows = []
        for qi in range(nq):
            a = np.isin(cells, self.probes[qi])
            if a.any():
                qmask[qi] = True
                allowed_rows.append(a)
        if not qmask.any():
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "adc": pa.array([], pa.float64())})
        qs = np.flatnonzero(qmask)
        allowed = np.stack(allowed_rows)
        dist = np.zeros((len(qs), n))
        for j in range(self.m):
            dist += self.lut[qs, j, :][:, codes[:, j].astype(np.int64)]
        dist[~allowed] = np.inf
        k = min(self.k, n)
        part = np.argsort(dist, axis=1, kind="stable")[:, :k]
        dd = np.take_along_axis(dist, part, axis=1)
        keep = np.isfinite(dd).reshape(-1)
        return pa.table({
            "query_id": pa.array(np.repeat(self.q_ids[qs], k)[keep]),
            "vec_id": pa.array(ids[part].reshape(-1)[keep]),
            "adc": pa.array(dd.reshape(-1)[keep]),
        })


def ivfpq_topk(index_dir: str, queries: pa.Table,
               centroids: np.ndarray, codebooks: np.ndarray,
               k: int = 10, *, nprobe: int = 4,
               code_col: str = "pq_code", id_col: str = "vec_id",
               query_vec_col: str = "embedding",
               query_id_col: str = "vec_id", **map_kwargs) -> pa.Table:
    """IVF-PQ top-k over an :func:`ivfpq_build` layout: per query the
    ``nprobe`` nearest coarse cells are chosen, the read touches ONLY
    the union of probed partitions (codes, never floats), and each
    query ADC-scans just its own lists.  Partial per-block top-k +
    bounded final reduce; smallest ADC wins, ties to lowest vec_id."""
    import ray

    from ..collect import collect_table

    cent = _normalize(centroids)
    qm_full = _to_matrix(queries[query_vec_col])
    qn = _normalize(qm_full)
    q_ids = queries[query_id_col].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64)
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]
    paths = ivf_probe_paths(index_dir, probes.reshape(-1))
    if not paths:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "adc": pa.array([], pa.float64()),
                         "rank": pa.array([], pa.int32())})
    ds = ray.data.read_parquet(paths, columns=[id_col, code_col, "cell"])
    books = np.asarray(codebooks, np.float64)
    partials = ds.map_batches(
        IVFPQTopK((q_ids, qm_full), books, k, code_col, id_col, probes),
        batch_format="pyarrow", zero_copy_batch=True, **map_kwargs)
    df = collect_table(partials).to_pandas()
    df = df.sort_values(["query_id", "adc", "vec_id"],
                        ascending=[True, True, True], kind="stable")
    df = df.groupby("query_id", as_index=False).head(k) \
        .reset_index(drop=True)
    df["rank"] = (df.groupby("query_id").cumcount() + 1).astype("int32")
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------------------
# binary quantization (sign-bit codes + Hamming scan + exact rerank)
# ---------------------------------------------------------------------------

_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.int64)


def bq_bits(m: np.ndarray) -> np.ndarray:
    """(n, d/8) uint8 sign-bit codes: bit j set iff v[j] > 0 — the
    32x-memory binary quantization (cosine sign structure survives:
    Hamming(codes) tracks angle for mean-centered-ish embeddings)."""
    if m.shape[1] % 8:
        raise ValueError("bq_bits: dimension must be a multiple of 8")
    return np.packbits(m > 0, axis=1)


def bq_encode(ds, *, vec_col: str = "embedding", id_col: str = "vec_id",
              **map_kwargs):
    """Dataset stage: float vectors -> (id, code) sign-bit rows.  A
    pure map (no state, no shuffle); codes are d/8 bytes per row."""
    def enc(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "code": pa.array([], pa.binary())})
        m = _to_matrix(batch[vec_col])
        codes = bq_bits(m)
        n, nb = codes.shape
        # flat-buffer binary column: no per-row Python slicing
        offs = pa.py_buffer((np.arange(n + 1, dtype=np.int32) * nb)
                            .tobytes())
        col = pa.Array.from_buffers(
            pa.binary(), n, [None, offs,
                             pa.py_buffer(np.ascontiguousarray(codes)
                                          .tobytes())])
        return pa.table({id_col: batch[id_col], "code": col})

    return ds.map_batches(enc, batch_format="pyarrow",
                          zero_copy_batch=True, **map_kwargs)


def bq_topk(ds, queries: pa.Table, *, k: int = 5, rerank: int = 64,
            vec_col: str = "embedding", id_col: str = "vec_id",
            query_vec_col: str = "embedding",
            query_id_col: str = "vec_id", **map_kwargs) -> pa.Table:
    """Two-stage binary-quantized ANN: (1) ONE pass over the sign-bit
    codes scans Hamming distances (XOR + 8-bit popcount LUT — 1 byte
    per 8 dims ships through the scan, the floats stay on disk) and
    keeps per-block top-``rerank`` candidates per query under the
    deterministic (hamming, vec_id) order; (2) the exact-cosine rerank
    reads ONLY the candidate rows (broadcast id set, searchsorted
    membership filter) and runs the brute-force kernel on that
    R-bounded subset.  With rerank >= corpus size this is EXACTLY
    brute_force_topk (identity-tested); smaller R trades recall for a
    32x lighter scan."""
    import ray

    from ..collect import collect_table

    q_ids = queries[query_id_col].combine_chunks() \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    q_bits = bq_bits(_to_matrix(queries[query_vec_col]))
    nb = q_bits.shape[1]

    codes = bq_encode(ds, vec_col=vec_col, id_col=id_col)

    def scan(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        from ..spatial.polygonize import _binary_rows

        flat = _binary_rows(batch["code"], n, nb)
        ids = batch[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ham = _POP8[flat[None, :, :] ^ q_bits[:, None, :]].sum(axis=2)
        r = min(rerank, n)
        # deterministic per-query top-r under (hamming, id)
        order = np.lexsort((np.broadcast_to(ids, ham.shape), ham),
                           axis=1)[:, :r]
        hh = np.take_along_axis(ham, order, axis=1)
        return pa.table({
            "query_id": pa.array(np.repeat(q_ids, r)),
            id_col: pa.array(ids[order].reshape(-1)),
            "hamming": pa.array(hh.reshape(-1))})

    parts = collect_table(codes.map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True,
        **map_kwargs))
    df = parts.to_pandas().sort_values(
        ["query_id", "hamming", id_col], kind="stable")
    cand = df.groupby("query_id").head(rerank)
    cand_ids = np.unique(cand[id_col].to_numpy())

    ref = ray.put(cand_ids)

    def keep(batch: pa.Table) -> pa.Table:
        want = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.clip(np.searchsorted(want, ids), 0, len(want) - 1)
        return batch.filter(pa.array(want[pos] == ids))

    survivors = ds.map_batches(keep, batch_format="pyarrow",
                               zero_copy_batch=True)
    return brute_force_topk(survivors, queries, k, vec_col=vec_col,
                            id_col=id_col, query_vec_col=query_vec_col,
                            query_id_col=query_id_col)
