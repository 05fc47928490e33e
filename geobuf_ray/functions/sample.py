"""Deterministic stratified sampling (fixed-n per group).

The global hash sample (queries.orders_hash_sample) keeps a fixed
FRACTION; training-data pipelines also need a fixed COUNT per group
(per language, per source, per bucket) — the "balanced subset" op.
Rows are ranked inside each group by a deterministic per-row hash, so
the sample is reproducible across runs/chunkings and needs no
coordination; one hash exchange on the group key, one lexsort + rank
per bucket.

The hash is a 32-bit multiplicative mix chosen to be exactly
reproducible in SQL (all intermediate products < 2^64, so a DuckDB
HUGEINT oracle can QUALIFY on the same ordering — see
__ray_entry__.oracle_sql()["lineitem_stratified_sample"]).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_M32 = np.uint64(0xFFFFFFFF)


def sample_hash32(v: np.ndarray) -> np.ndarray:
    """Deterministic 32-bit mix of non-negative int64 ids.

    SQL equivalent (DuckDB, v >= 0)::

        h1 = (v % 4294967296 * 2654435761 + v // 4294967296 * 40503)
             % 4294967296
        h2 = xor(h1, h1 // 65536)
        h3 = (h2 * 2246822519) % 4294967296
        h  = xor(h3, h3 // 8192)
    """
    u = v.astype(np.uint64)
    lo = u & _M32
    hi = u >> np.uint64(32)
    h = (lo * np.uint64(2654435761) + hi * np.uint64(40503)) & _M32
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(2246822519)) & _M32
    h ^= h >> np.uint64(13)
    return h


def stratified_sample(ds, *, key: str, id_col: str, n_per_key: int):
    """Keep the ``n_per_key`` rows of each ``key`` group that rank
    first by ``(sample_hash32(id), id)`` — a deterministic, seedless,
    chunking-independent per-group sample.  ``id_col`` must be a
    non-negative integer id, unique per row for an exactly-n result
    (ties on (hash, id) are impossible then)."""
    from .exchange import hash_exchange

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            return tbl
        kenc = tbl[key].combine_chunks().dictionary_encode()
        codes = kenc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = tbl[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = sample_hash32(ids)
        sel = np.lexsort((ids, h, codes))
        cs = codes[sel]
        new = np.concatenate(([True], cs[1:] != cs[:-1]))
        pos = np.arange(n, dtype=np.int64)
        seg_start = np.repeat(pos[new], np.diff(np.append(
            np.flatnonzero(new), n)))
        keep_sorted = (pos - seg_start) < n_per_key
        keep = np.zeros(n, bool)
        keep[sel[keep_sorted]] = True
        return tbl.filter(pa.array(keep))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def weighted_sample(ds, *, weight: str, k: int, id_col: str,
                    seed: int = 0, schema: pa.Schema | None = None):
    """Weighted sampling without replacement (Efraimidis-Spirakis
    A-Res), DETERMINISTIC: each row's priority is ``ln(u)/w`` with
    ``u`` a uniform derived from a 64-bit hash of (id, seed) — so the
    sample is reproducible, independent of partitioning, and a new
    ``seed`` draws a fresh sample.  For ``k=1`` the inclusion
    probability is exactly ``w_i / sum(w)``; for ``k>1`` it follows
    the standard A-Res sequential scheme.

    Shape: per-block top-k on the priority (argpartition-class
    lexsort), then one bounded ``k x blocks`` driver merge — no
    shuffle, no full sort.  Rows with NULL, zero or negative weight
    never qualify.
    """
    import pyarrow as pa

    from ..collect import collect_table
    from .dedup import _mix

    in_schema = schema if schema is not None else pa.schema(
        list(zip(ds.schema().names, ds.schema().types)))
    out_schema = pa.schema(list(in_schema) + [("__pri", pa.float64())])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        w = batch[weight].combine_chunks()
        wv = w.to_numpy(zero_copy_only=False).astype(np.float64)
        ids = batch[id_col].combine_chunks()
        if pa.types.is_string(ids.type) or \
                pa.types.is_large_string(ids.type):
            from .text import fingerprint64
            h = fingerprint64(ids)
        else:
            h = ids.cast(pa.int64()).to_numpy(
                zero_copy_only=False).view(np.uint64)
        h = _mix(h, 0xA11CE ^ (seed * 0x9E3779B97F4A7C15 &
                               0xFFFFFFFFFFFFFFFF))
        # u in (0, 1): 53 mantissa bits, +1 ulp so ln(u) stays finite
        u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        ok = np.isfinite(wv) & (wv > 0)
        pri = np.where(ok, np.log(u) / np.maximum(wv, 1e-300), -np.inf)
        sel = np.argsort(-pri, kind="stable")[:k]
        sel = sel[np.isfinite(pri[sel])]
        out = batch.take(pa.array(sel, pa.int64()))
        return out.append_column("__pri", pa.array(pri[sel]))

    cand = collect_table(ds.map_batches(partial, batch_format="pyarrow",
                                        zero_copy_batch=True,
                                        batch_size=None))
    pri = cand["__pri"].to_numpy(zero_copy_only=False)
    order = np.argsort(-pri, kind="stable")[:k]
    return cand.take(pa.array(order, pa.int64())) \
        .drop_columns(["__pri"])


def stratified_split(ds, *, group: str, hash_col: str, frac: float,
                     out_col: str = "is_val",
                     **map_kwargs):
    """EXACT-quota stratified split: within every group, flag the
    ``max(ceil(frac * n_g), 1)`` rows with the smallest ``hash_col``
    values (pass a collision-free deterministic hash of the row id —
    the flag is then reproducible, partition-invariant, and each
    group's validation quota is met exactly, unlike rate-based
    sampling which only hits the quota in expectation).

    Shape: the per-group threshold is the ``PERCENTILE_DISC(frac)``
    of the hash values (``group_quantile``'s distinct-value exchange —
    rows never shuffle), broadcast once; assignment is a pure map
    compare.  Equal-hash collisions both land inside the split (the
    quota can then exceed by the collision count; a 64-bit id hash
    makes that astronomically rare, and the SQL twin using the same
    hash agrees bit-for-bit regardless)."""
    import ray as _ray

    from ..collect import collect_table
    from .agg import group_quantile

    thr_t = collect_table(group_quantile(
        ds.select_columns([group, hash_col]), [group], hash_col,
        {"thr": frac}))
    gk = thr_t[group].to_numpy(zero_copy_only=False).astype(np.int64)
    tv = thr_t["thr"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(gk)
    ref = _ray.put((gk[order], tv[order]))

    def assign(batch: pa.Table) -> pa.Table:
        keys, thr = _ray.get(ref) if isinstance(ref, _ray.ObjectRef) \
            else ref
        g = batch[group].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = batch[hash_col].to_numpy(zero_copy_only=False).astype(
            np.int64)
        pos = np.searchsorted(keys, g)
        ok = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)]
                                  == g)
        flag = np.zeros(len(g), np.int64)
        flag[ok] = (hv[ok] <= thr[pos[ok]]).astype(np.int64)
        return batch.append_column(out_col, pa.array(flag))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True, **map_kwargs)
