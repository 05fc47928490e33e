"""Partitioned window operators (LAG / LEAD / running totals).

The relational-window family the query layer previously only had in
fused forms (sessionization gaps, sliding sums).  Shape: one
hash-bucket exchange on the partition key, then a vectorized
lexsort + shift kernel per bucket — rows never centralize and a bucket
holds many keys (the per-distinct-key ``map_groups`` overhead the
dedup engine already measured and avoids).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def lag_lead(ds, *, key: str, order: str, value: str, lead: bool = False,
             out_col: str | None = None):
    """Per-row previous (or next) ``value`` within ``key`` groups in
    ``order`` order — SQL's ``LAG(value) OVER (PARTITION BY key ORDER
    BY order)``.  NULL where no predecessor exists.  ``order`` values
    must be unique per key for a deterministic result (SQL imposes the
    same caveat).
    """
    from .exchange import hash_exchange

    name = out_col or (("lead_" if lead else "lag_") + value)

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            # every upstream block fully filtered -> schemaless empty
            return pa.table({})
        if n == 0:
            return tbl.append_column(name, pa.array([], tbl[value].type))
        k = tbl[key].combine_chunks()
        kenc = k.dictionary_encode()
        # NULL keys form one partition (SQL window semantics); an
        # unfilled null index would round-trip through float NaN
        codes = kenc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        o = tbl[order].combine_chunks()
        ov = o.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            if pa.types.is_timestamp(o.type) or pa.types.is_date(o.type) \
            else o.to_numpy(zero_copy_only=False)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        same_prev = np.concatenate(([False], cs[1:] == cs[:-1]))
        src = np.empty(n, np.int64)
        if lead:
            # successor within key: reverse the predecessor relation
            same_next = np.concatenate((cs[:-1] == cs[1:], [False]))
            src[sel] = np.where(same_next, np.roll(sel, -1), -1)
        else:
            src[sel] = np.where(same_prev, np.roll(sel, 1), -1)
        vals = tbl[value].combine_chunks()
        take = pa.array(np.where(src < 0, None, src), pa.int64())
        return tbl.append_column(name, vals.take(take))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def _order_values(tbl: pa.Table, order: str) -> np.ndarray:
    o = tbl[order].combine_chunks()
    if pa.types.is_date32(o.type):
        # date32 -> int64 is an unsupported Arrow cast; go via the
        # int32 day storage
        return o.cast(pa.int32()).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
    if pa.types.is_timestamp(o.type) or pa.types.is_date(o.type):
        return o.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return o.to_numpy(zero_copy_only=False)


def _key_codes(tbl: pa.Table, key: str) -> np.ndarray:
    """Dictionary codes of the partition key; NULL keys form one
    partition (code -1), matching SQL window semantics."""
    kenc = tbl[key].combine_chunks().dictionary_encode()
    return kenc.indices.fill_null(-1).to_numpy(
        zero_copy_only=False).astype(np.int64)


def moving_agg(ds, *, key: str, order: str, value: str, window: int,
               prefix: str = "mv"):
    """Rows-frame moving aggregate — SQL ``SUM(value) OVER (PARTITION
    BY key ORDER BY order ROWS BETWEEN window-1 PRECEDING AND CURRENT
    ROW)`` — plus the frame's row count (``{prefix}_n``), from which
    the caller derives the moving average.  Integer values stay int64
    (exact, hash-matches SQL); the kernel is one lexsort + prefix-sum
    difference per bucket, no per-window loop.  ``order`` must be
    unique per key for a deterministic result."""
    from .exchange import hash_exchange

    if window < 1:
        raise ValueError("window must be >= 1")
    sum_name, n_name = f"{prefix}_sum", f"{prefix}_n"

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            vt = tbl[value].type
            rt = pa.int64() if pa.types.is_integer(vt) else pa.float64()
            return (tbl.append_column(sum_name, pa.array([], rt))
                    .append_column(n_name, pa.array([], pa.int64())))
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        vcol = tbl[value].combine_chunks()
        is_int = pa.types.is_integer(vcol.type)
        if vcol.null_count:
            vcol = vcol.fill_null(0)  # SQL SUM OVER skips NULLs
        v = vcol.to_numpy(zero_copy_only=False).astype(
            np.int64 if is_int else np.float64)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        new = np.concatenate(([True], cs[1:] != cs[:-1]))
        pos = np.arange(n, dtype=np.int64)
        seg_start = np.repeat(pos[new], np.diff(np.append(
            np.flatnonzero(new), n)))
        # frame start = max(segment start, i - window + 1); the moving
        # sum is prefix[i] - prefix[start-1] with a virtual 0 at -1
        start = np.maximum(seg_start, pos - window + 1)
        pref = np.cumsum(v[sel])
        win_sorted = pref - np.where(start > 0, pref[start - 1], 0)
        cnt_sorted = pos - start + 1
        out_sum = np.empty(n, v.dtype)
        out_sum[sel] = win_sorted
        out_n = np.empty(n, np.int64)
        out_n[sel] = cnt_sorted
        return (tbl.append_column(sum_name, pa.array(out_sum))
                .append_column(n_name, pa.array(out_n)))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def range_moving_agg(ds, *, key: str, order: str, value: str, span: int,
                     prefix: str = "rv"):
    """RANGE-frame moving aggregate — SQL ``SUM(value) OVER (PARTITION
    BY key ORDER BY order RANGE BETWEEN span PRECEDING AND CURRENT
    ROW)`` — plus the frame's row count (``{prefix}_n``).  The frame
    is VALUE-based: every row whose order value lies in
    ``[t_i - span, t_i]`` contributes, including peers of the current
    row that sort after it, so duplicate order values are handled
    exactly as SQL does (unlike the ROWS frame, ``order`` need not be
    unique per key).

    ``order`` must be integer-typed and non-null; the time axis stays
    int64 end-to-end (``t_i - span`` saturates at INT64_MIN instead of
    wrapping, so nanosecond epochs anywhere in the int64 domain are
    exact).  Frame starts are found with a vectorized bisection over
    the per-key sorted runs — O(n log max_segment), no per-row Python.
    One hash-bucket exchange on ``key``; integer values stay int64 so
    results hash-match SQL."""
    from .exchange import hash_exchange

    if span < 0:
        raise ValueError("span must be >= 0")
    sum_name, n_name = f"{prefix}_sum", f"{prefix}_n"

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            vt = tbl[value].type
            rt = pa.int64() if pa.types.is_integer(vt) else pa.float64()
            return (tbl.append_column(sum_name, pa.array([], rt))
                    .append_column(n_name, pa.array([], pa.int64())))
        codes = _key_codes(tbl, key)
        ocol = tbl[order].combine_chunks()
        if ocol.null_count:
            raise ValueError("range_moving_agg: order column has NULLs")
        ov = ocol.to_numpy(zero_copy_only=False)
        if not np.issubdtype(ov.dtype, np.integer):
            raise TypeError("range_moving_agg: order must be integer "
                            "(cast timestamps to epoch first)")
        ov = ov.astype(np.int64)
        vcol = tbl[value].combine_chunks()
        is_int = pa.types.is_integer(vcol.type)
        if vcol.null_count:
            vcol = vcol.fill_null(0)  # SQL SUM OVER skips NULLs
        v = vcol.to_numpy(zero_copy_only=False).astype(
            np.int64 if is_int else np.float64)
        sel = np.lexsort((ov, codes))
        cs, ts = codes[sel], ov[sel]
        pos = np.arange(n, dtype=np.int64)
        new_seg = np.concatenate(([True], cs[1:] != cs[:-1]))
        seg_start = np.repeat(pos[new_seg], np.diff(np.append(
            np.flatnonzero(new_seg), n)))
        # saturating t - span: span >= 0, so a wrapped subtraction
        # (result > t) means underflow -> clamp to INT64_MIN
        with np.errstate(over="ignore"):
            target = ts - np.int64(span)
        target = np.where(target > ts, np.iinfo(np.int64).min, target)
        # vectorized bisection: leftmost index in [seg_start, i] with
        # ts >= target (ts[i] >= target always holds, so it converges)
        lo = seg_start.copy()
        hi = pos.copy()
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            ge = ts[mid] >= target
            hi = np.where(active & ge, mid, hi)
            lo = np.where(active & ~ge, mid + 1, lo)
        # frame end: last PEER of the current row (same key, same t)
        run_new = np.concatenate(([True],
                                  (cs[1:] != cs[:-1]) | (ts[1:] != ts[:-1])))
        run_id = np.cumsum(run_new) - 1
        run_last = np.append(np.flatnonzero(run_new)[1:], n) - 1
        hi_idx = run_last[run_id]
        pref = np.cumsum(v[sel])
        win_sorted = pref[hi_idx] - np.where(lo > 0, pref[lo - 1], 0)
        cnt_sorted = hi_idx - lo + 1
        out_sum = np.empty(n, v.dtype)
        out_sum[sel] = win_sorted
        out_n = np.empty(n, np.int64)
        out_n[sel] = cnt_sorted
        return (tbl.append_column(sum_name, pa.array(out_sum))
                .append_column(n_name, pa.array(out_n)))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def rank_window(ds, *, key: str, order: str,
                rank_col: str = "rnk", dense_col: str = "drnk",
                percent: bool = False):
    """SQL ``RANK()`` and ``DENSE_RANK() OVER (PARTITION BY key ORDER
    BY order)`` in one pass: ties on ``order`` share a rank; RANK
    leaves gaps after a tie run, DENSE_RANK does not.  One lexsort per
    bucket; both ranks fall out of the run-start positions.

    ``percent=True`` adds ``pct_rank`` (``PERCENT_RANK()`` =
    (rank-1)/(n-1), 0 for single-row partitions) and ``cume_dist``
    (``CUME_DIST()`` = rows-with-order<=current / n) — both are
    deterministic under ties (unlike NTILE, deliberately omitted)."""
    from .exchange import hash_exchange

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            out = (tbl.append_column(rank_col, pa.array([], pa.int64()))
                   .append_column(dense_col, pa.array([], pa.int64())))
            if percent:
                out = (out.append_column("pct_rank",
                                         pa.array([], pa.float64()))
                       .append_column("cume_dist",
                                      pa.array([], pa.float64())))
            return out
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        sel = np.lexsort((ov, codes))
        cs, os_ = codes[sel], ov[sel]
        new_seg = np.concatenate(([True], cs[1:] != cs[:-1]))
        new_run = new_seg | np.concatenate(([True], os_[1:] != os_[:-1]))
        pos = np.arange(n, dtype=np.int64)
        seg_len = np.diff(np.append(np.flatnonzero(new_seg), n))
        seg_start = np.repeat(pos[new_seg], seg_len)
        # run start position, broadcast to every row of the tie run
        run_len = np.diff(np.append(np.flatnonzero(new_run), n))
        run_start = np.repeat(pos[new_run], run_len)
        rnk_sorted = run_start - seg_start + 1
        # dense: count of runs so far within the segment
        runs_cum = np.cumsum(new_run)
        drnk_sorted = runs_cum - np.repeat(runs_cum[new_seg], seg_len) + 1
        rnk = np.empty(n, np.int64)
        rnk[sel] = rnk_sorted
        drnk = np.empty(n, np.int64)
        drnk[sel] = drnk_sorted
        out = (tbl.append_column(rank_col, pa.array(rnk))
               .append_column(dense_col, pa.array(drnk)))
        if percent:
            seg_n = np.repeat(seg_len, seg_len).astype(np.float64)
            pct_sorted = np.where(seg_n > 1,
                                  (rnk_sorted - 1) / np.maximum(
                                      seg_n - 1, 1.0), 0.0)
            run_end = np.repeat(pos[new_run] + run_len, run_len)
            cume_sorted = (run_end - seg_start) / seg_n
            pct = np.empty(n, np.float64)
            pct[sel] = pct_sorted
            cume = np.empty(n, np.float64)
            cume[sel] = cume_sorted
            out = (out.append_column("pct_rank", pa.array(pct))
                   .append_column("cume_dist", pa.array(cume)))
        return out

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def value_window(ds, *, key: str, order: str, value: str,
                 ntile: int | None = None):
    """``FIRST_VALUE(value)`` / ``LAST_VALUE(value) OVER (PARTITION BY
    key ORDER BY order ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
    FOLLOWING)`` — note the explicit full frame: SQL's *default* frame
    makes LAST_VALUE degenerate to the current row, which nobody wants
    — plus, when ``ntile`` is given, ``NTILE(ntile)`` with SQL's exact
    fill rule (the first ``n % k`` tiles get one extra row).

    Values pass through verbatim (an Arrow ``take``, no arithmetic), so
    float columns hash-match SQL bit-for-bit.  ``order`` must be unique
    per key for NTILE to be deterministic (SQL shares the caveat);
    FIRST/LAST are deterministic whenever the extreme order value is
    unique.  Same shape as :func:`lag_lead`: one hash-bucket exchange on
    the partition key, one lexsort per bucket.
    """
    from .exchange import hash_exchange

    first_name, last_name = f"first_{value}", f"last_{value}"
    if ntile is not None and ntile < 1:
        raise ValueError("ntile must be >= 1")
    tile_name = f"ntile{ntile}" if ntile is not None else None

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            vt = tbl[value].type
            out = (tbl.append_column(first_name, pa.array([], vt))
                   .append_column(last_name, pa.array([], vt)))
            if ntile is not None:
                out = out.append_column(tile_name, pa.array([], pa.int64()))
            return out
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        new = np.concatenate(([True], cs[1:] != cs[:-1]))
        pos = np.arange(n, dtype=np.int64)
        seg_len = np.diff(np.append(np.flatnonzero(new), n))
        seg_start = np.repeat(pos[new], seg_len)
        # source row index (original order) of each segment's first and
        # last sorted position, broadcast to every row of the segment
        first_src = np.empty(n, np.int64)
        first_src[sel] = sel[seg_start]
        last_src = np.empty(n, np.int64)
        last_src[sel] = sel[seg_start + np.repeat(seg_len, seg_len) - 1]
        vals = tbl[value].combine_chunks()
        out = (tbl.append_column(first_name, vals.take(pa.array(first_src)))
               .append_column(last_name, vals.take(pa.array(last_src))))
        if ntile is not None:
            k = np.int64(ntile)
            npart = np.repeat(seg_len, seg_len)
            p = pos - seg_start            # 0-based position in segment
            size = npart // k              # floor rows per tile
            rem = npart % k                # first `rem` tiles get +1
            cut = rem * (size + 1)         # rows covered by fat tiles
            # size==0 (fewer rows than tiles) keeps every p under cut,
            # so the thin-tile divisor never sees a zero
            thin = np.maximum(size, 1)
            tile_sorted = np.where(
                p < cut, p // (size + 1) + 1,
                rem + (p - cut) // thin + 1)
            tile = np.empty(n, np.int64)
            tile[sel] = tile_sorted
            out = out.append_column(tile_name, pa.array(tile))
        return out

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def running_agg(ds, *, key: str, order: str, value: str,
                out_col: str | None = None):
    """Per-row running sum of ``value`` within ``key`` groups in
    ``order`` order (SQL ``SUM(value) OVER (PARTITION BY key ORDER BY
    order ROWS UNBOUNDED PRECEDING)``) plus the 1-based row number.
    Same exchange + lexsort shape as :func:`lag_lead`; the cumulative
    itself is one segmented cumsum."""
    from .exchange import hash_exchange

    name = out_col or ("running_" + value)

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if tbl.num_columns == 0:
            return pa.table({})
        if n == 0:
            # keep the running column's dtype consistent with the
            # non-empty buckets (int64 for integer values) so a sparse
            # key domain cannot promote the whole column to float64
            vt = tbl[value].type
            rt = pa.int64() if pa.types.is_integer(vt) else pa.float64()
            return (tbl.append_column(name, pa.array([], rt))
                    .append_column("row_num", pa.array([], pa.int64())))
        kenc = tbl[key].combine_chunks().dictionary_encode()
        codes = kenc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        o = tbl[order].combine_chunks()
        ov = o.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            if pa.types.is_timestamp(o.type) or pa.types.is_date(o.type) \
            else o.to_numpy(zero_copy_only=False)
        vcol = tbl[value].combine_chunks()
        is_int = pa.types.is_integer(vcol.type)
        # SQL SUM OVER skips NULLs: fill 0 BEFORE the numpy cast (an
        # unfilled null round-trips through float NaN, which astype
        # turns into INT64_MIN and poisons every later prefix sum)
        if vcol.null_count:
            vcol = vcol.fill_null(0)
        # int64 stays int64: the whole-array-cumsum-minus-segment-base
        # trick is EXACT in integers (and hash-matches SQL); in float
        # it reorders roundings, so float results are ~1e-9-close, not
        # bit-equal — use integer units (cents) when exactness matters
        v = vcol.to_numpy(zero_copy_only=False).astype(
            np.int64 if is_int else np.float64)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        new = np.concatenate(([True], cs[1:] != cs[:-1]))
        c = np.cumsum(v[sel])
        base = np.repeat(c[new] - v[sel][new],
                         np.diff(np.append(np.flatnonzero(new), n)))
        run = np.empty(n, v.dtype)
        run[sel] = c - base
        pos = np.arange(n, dtype=np.int64)
        seg_start = np.repeat(pos[new], np.diff(np.append(
            np.flatnonzero(new), n)))
        rn = np.empty(n, np.int64)
        rn[sel] = pos - seg_start + 1
        return (tbl.append_column(name, pa.array(run))
                .append_column("row_num", pa.array(rn)))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def interval_coalesce(ds, *, key: str, start: str, end: str):
    """Merge overlapping / touching intervals per key (gaps-and-
    islands): rows ``(key, start, end)`` collapse to the minimal set
    of disjoint ``[island_start, island_end]`` intervals, with the
    member count per island.  Touching intervals (next start == the
    running max end) merge, matching the SQL window formulation
    ``new island when s > MAX(e) OVER (... 1 PRECEDING)``.

    One key-hash exchange; the bucket kernel is fully vectorized
    ACROSS keys: one lexsort, then a segmented running-max computed
    with a rank-banded ``np.maximum.accumulate`` (each key segment
    occupies its own band of end-value RANKS, so a single global
    cummax yields the per-key prefix max — no per-key Python loop).
    int64 domain end-to-end.
    """
    from .exchange import hash_exchange

    out_schema = pa.schema([(key, pa.int64()),
                            ("island_start", pa.int64()),
                            ("island_end", pa.int64()),
                            ("n_intervals", pa.int64())])

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        k = tbl[key].to_numpy(zero_copy_only=False).astype(np.int64)
        s = tbl[start].to_numpy(zero_copy_only=False).astype(np.int64)
        e = tbl[end].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(k)
        order = np.lexsort((e, s, k))
        k, s, e = k[order], s[order], e[order]
        newk = np.concatenate(([True], k[1:] != k[:-1]))
        seg = np.cumsum(newk) - 1
        # ranks of e (ties keep any order; max-rank maps to max-value)
        rorder = np.argsort(e, kind="stable")
        rank = np.empty(n, np.int64)
        rank[rorder] = np.arange(n, dtype=np.int64)
        e_by_rank = e[rorder]
        band = seg * np.int64(n + 1) + rank
        bmax = np.maximum.accumulate(band)
        prev_bmax = np.concatenate(([np.int64(-1)], bmax[:-1]))
        seg_base = seg * np.int64(n + 1)
        in_seg = prev_bmax >= seg_base
        prev_rank = np.where(in_seg, prev_bmax - seg_base, 0)
        prev_max = np.where(in_seg, e_by_rank[prev_rank],
                            np.iinfo(np.int64).min)
        new_isl = newk | (s > prev_max)
        isl = np.cumsum(new_isl) - 1
        nisl = int(isl[-1]) + 1
        isl_heads = np.flatnonzero(new_isl)
        return pa.table({key: k[new_isl],
                         "island_start": s[new_isl],
                         "island_end": np.maximum.reduceat(e, isl_heads),
                         "n_intervals": np.bincount(
                             isl, minlength=nisl).astype(np.int64)})

    return hash_exchange(ds.select_columns([key, start, end]),
                         on=key, reduce_fn=kernel, schema=out_schema)


def transition_counts(ds, *, key: str, order: str, state: str,
                      tiebreak: str | None = None):
    """Markov transition counts: per ``key``, order rows by
    (``order``, ``tiebreak``) and count every consecutive
    (state, next_state) pair — SQL's ``LEAD(state) OVER (PARTITION BY
    key ORDER BY order, tiebreak)`` followed by a GROUP BY.

    Shape: one hash exchange on ``key`` co-locates each key's rows, so
    every transition is visible inside exactly one bucket; the bucket
    kernel is vectorized ACROSS keys (one lexsort, one shifted
    compare) and collapses immediately to (state, next_state, n)
    partial counts — at most ``nstates**2`` rows leave a bucket no
    matter how many events entered, the combiner discipline every
    aggregate here follows.  The caller sums partials (they are
    disjoint only per bucket).  NULL states group together (SQL GROUP
    BY semantics); the last row of each key emits no pair (its LEAD is
    NULL, SQL drops it under ``WHERE next IS NOT NULL``).
    """
    from .exchange import hash_exchange

    out_schema = None  # derived from the state dictionary per bucket

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            st = tbl[state].type if tbl.num_columns else pa.string()
            return pa.table({"state": pa.array([], st),
                             "next_state": pa.array([], st),
                             "n": pa.array([], pa.int64())})
        n = tbl.num_rows
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        senc = tbl[state].combine_chunks().dictionary_encode()
        scode = senc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        sdict = senc.dictionary
        keys_sort = (ov, codes) if tiebreak is None else \
            (_order_values(tbl, tiebreak), ov, codes)
        sel = np.lexsort(keys_sort)
        cs = codes[sel]
        ss = scode[sel]
        same_next = cs[:-1] == cs[1:] if n > 1 else np.zeros(0, bool)
        a = ss[:-1][same_next]
        b = ss[1:][same_next]
        if a.size == 0:
            return pa.table({"state": pa.array([], sdict.type),
                             "next_state": pa.array([], sdict.type),
                             "n": pa.array([], pa.int64())})
        # -1 (NULL state) shifts to a dense non-negative code space
        nst = len(sdict) + 1
        cnt = np.bincount((a + 1) * nst + (b + 1), minlength=nst * nst)
        nz = np.flatnonzero(cnt)
        ai = nz // nst - 1
        bi = nz % nst - 1
        take = lambda ix: sdict.take(  # noqa: E731
            pa.array(np.where(ix < 0, None, ix), pa.int64()))
        return pa.table({"state": take(ai), "next_state": take(bi),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    cols = [key, order, state] + ([tiebreak] if tiebreak else [])
    return hash_exchange(ds.select_columns(cols), on=key, reduce_fn=kernel,
                         schema=out_schema)


def gap_fill(ds, *, key: str, tick: str, start: int, stop: int,
             step: int = 1, zero_cols: tuple = (), ffill_cols: tuple = (),
             interp_cols: tuple = ()):
    """Dense time-spine gap fill: for every key present in ``ds``, emit
    one row per tick in ``start..stop`` (inclusive, stride ``step``) —
    SQL's ``generate_series CROSS JOIN keys LEFT JOIN facts``.  Missing
    ticks get 0 in ``zero_cols`` and the last observed value (NULL
    before the first observation) in ``ffill_cols``.

    ``interp_cols`` are LINEARLY interpolated between the two nearest
    observations (``pv + (nv - pv) * (t - pt) / (nt - pt)`` in float64
    — the exact expression a SQL twin can reproduce op-for-op); ticks
    before the first / after the last observation stay NULL.

    Duplicate (key, tick) rows are summed first (so per-block partial
    aggregates can feed this directly); ticks outside the spine are
    dropped, off-grid ticks raise.  Shape: one hash exchange on ``key``
    co-locates each key's rows; the bucket kernel scatters observed
    rows into a (keys_in_bucket x nticks) dense grid — the output is
    inherently |keys| x |spine| and each bucket materializes only its
    own keys' spines, so nothing centralizes.  Forward fill is one
    ``maximum.accumulate`` over the grid of observed row indices, no
    per-key loop.
    """
    from .exchange import hash_exchange

    if step <= 0 or stop < start:
        raise ValueError("need step > 0 and stop >= start")
    nticks = (stop - start) // step + 1
    vcols = list(zero_cols) + list(ffill_cols) + list(interp_cols)

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            kt = tbl[key].type if tbl.num_columns else pa.int64()
            cols = {key: pa.array([], kt), tick: pa.array([], pa.int64())}
            for c in vcols:
                # match the non-empty buckets' summed types, or the
                # exchange's concat fails on mixed schemas
                vt = tbl[c].type if tbl.num_columns else pa.int64()
                cols[c] = pa.array([], pa.int64()
                                   if pa.types.is_integer(vt)
                                   else pa.float64())
            return pa.table(cols)
        g = tbl.group_by([key, tick]).aggregate(
            [(c, "sum") for c in vcols])
        g = g.rename_columns([key, tick] + vcols)
        tv = g[tick].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (tv >= start) & (tv <= stop)
        if not keep.all():
            g = g.filter(pa.array(keep))
            tv = tv[keep]
        if ((tv - start) % step != 0).any():
            raise ValueError("tick off the spine grid")
        kenc = g[key].combine_chunks().dictionary_encode()
        code = kenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nk = len(kenc.dictionary)
        slot = code * nticks + (tv - start) // step
        out_key = kenc.dictionary.take(
            pa.array(np.repeat(np.arange(nk, dtype=np.int64), nticks)))
        out_tick = np.tile(start + step * np.arange(nticks, dtype=np.int64),
                           nk)
        cols = {key: out_key, tick: pa.array(out_tick)}
        for c in zero_cols:
            v = g[c].to_numpy(zero_copy_only=False)
            z = np.zeros(nk * nticks, v.dtype)
            z[slot] = v
            cols[c] = pa.array(z)
        if ffill_cols or interp_cols:
            # accumulate SLOT indices (monotone along the tick axis by
            # construction), not row indices — group_by output order is
            # arbitrary, so the latest tick need not be the last row
            obs = np.full(nk * nticks, -1, np.int64)
            obs[slot] = slot
            last = np.maximum.accumulate(
                obs.reshape(nk, nticks), axis=1).ravel()
            row_of = np.full(nk * nticks, -1, np.int64)
            row_of[slot] = np.arange(len(slot))
            idx = np.where(last < 0, -1, row_of[np.maximum(last, 0)])
            take = pa.array(np.where(idx < 0, None, idx), pa.int64())
            for c in ffill_cols:
                cols[c] = g[c].combine_chunks().take(take)
        if interp_cols:
            # the NEXT observation: reversed maximum.accumulate of the
            # negated slot axis
            big = nk * nticks
            obs2 = np.full(big, big, np.int64)
            obs2[slot] = slot
            nxt = np.minimum.accumulate(
                obs2.reshape(nk, nticks)[:, ::-1], axis=1)[:, ::-1].ravel()
            nidx = np.where(nxt >= big, -1,
                            row_of[np.minimum(nxt, big - 1)])
            both = (idx >= 0) & (nidx >= 0)
            pt = (last % nticks).astype(np.float64)
            nt = (nxt % nticks).astype(np.float64)
            tt = np.tile(np.arange(nticks, dtype=np.float64), nk)
            denom = np.where(nt > pt, nt - pt, 1.0)
            frac = (tt - pt) / denom
            for c in interp_cols:
                v = g[c].to_numpy(zero_copy_only=False).astype(np.float64)
                pv = v[np.maximum(idx, 0)]
                nv = v[np.maximum(nidx, 0)]
                val = pv + (nv - pv) * frac
                cols[c] = pa.Array.from_buffers(
                    pa.float64(), big,
                    [pa.py_buffer(np.packbits(both, bitorder="little")),
                     pa.py_buffer(np.ascontiguousarray(val))])
        return pa.table(cols)

    return hash_exchange(ds.select_columns([key, tick] + vcols),
                         on=key, reduce_fn=kernel)


def scd2_intervals(ds, *, key: str, order: str, value: str):
    """SCD-type-2 history reconstruction (gaps-and-islands): per
    ``key``, collapse consecutive runs of equal ``value`` (ordered by
    ``order``) into validity intervals — one row per run with
    ``valid_from`` (the run's first order value) and ``valid_to`` (the
    next run's start; NULL for the key's current run).  The CDC
    change-log -> dimension-history rebuild.

    ``order`` must be unique per key (SQL's window caveat; composite
    axes like day*2^24+id work).  NULL values compare equal to each
    other (one run), matching the SQL twin's ``pv IS DISTINCT FROM v``
    island rule.  One hash exchange on ``key``; the bucket kernel is
    one lexsort + shifted compares vectorized across keys.
    """
    import pyarrow.compute as pc

    from .exchange import hash_exchange

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            vt = tbl[value].type if tbl.num_columns else pa.string()
            kt = tbl[key].type if tbl.num_columns else pa.int64()
            return pa.table({key: pa.array([], kt),
                             value: pa.array([], vt),
                             "valid_from": pa.array([], pa.int64()),
                             "valid_to": pa.array([], pa.int64())})
        n = tbl.num_rows
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        sel = np.lexsort((ov, codes))
        cs, os_ = codes[sel], ov[sel]
        vals = tbl[value].combine_chunks().take(pa.array(sel))
        new_key = np.concatenate(([True], cs[1:] != cs[:-1]))
        if n > 1:
            a, b = vals.slice(1), vals.slice(0, n - 1)
            neq = pc.not_equal(a, b).fill_null(False).to_numpy(
                zero_copy_only=False)
            amask = pc.is_null(a).to_numpy(zero_copy_only=False)
            bmask = pc.is_null(b).to_numpy(zero_copy_only=False)
            changed = np.concatenate(([True], neq | (amask != bmask)))
        else:
            changed = np.array([True])
        start = new_key | changed
        sidx = np.flatnonzero(start)
        vfrom = os_[sidx]
        # next run's start within the same key, else NULL
        nxt = np.empty(len(sidx), np.int64)
        nxt[:-1] = vfrom[1:]
        nxt[-1] = 0
        same_key_next = np.empty(len(sidx), bool)
        same_key_next[:-1] = cs[sidx[:-1]] == cs[sidx[1:]]
        same_key_next[-1] = False
        keys_out = tbl[key].combine_chunks().take(pa.array(sel[sidx]))
        return pa.table({
            key: keys_out,
            value: vals.take(pa.array(sidx)),
            "valid_from": pa.array(vfrom),
            "valid_to": pa.Array.from_buffers(
                pa.int64(), len(sidx),
                [pa.py_buffer(np.packbits(same_key_next,
                                          bitorder="little")),
                 pa.py_buffer(np.ascontiguousarray(nxt))]),
        })

    return hash_exchange(ds.select_columns([key, order, value]),
                         on=key, reduce_fn=kernel)


def cusum_alarms(ds, *, key: str, order: str, value: str, drift: int,
                 threshold: int):
    """One-sided CUSUM change detection per key — the streaming
    drift/data-quality monitor.  The classic recurrence
    ``C_i = max(0, C_{i-1} + x_i - drift)`` has the closed vectorized
    form ``C_i = S_i - min(S_0..S_i, 0)`` with ``S`` the prefix sum of
    ``x - drift`` — one cumsum + one running min per key segment, no
    sequential loop.  Emits each row's CUSUM statistic and an
    ``alarm`` flag (``C_i > threshold``).  Integer values stay exact
    int64, so the output hash-matches the SUM-OVER / MIN-OVER SQL
    twin.  ``order`` must be unique per key."""
    from .exchange import hash_exchange

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0:
            return pa.table({})
        n = tbl.num_rows
        if n == 0:
            return (tbl.append_column("cusum", pa.array([], pa.int64()))
                    .append_column("alarm", pa.array([], pa.bool_())))
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        x = tbl[value].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        d = x[sel] - np.int64(drift)
        s = np.cumsum(d)
        # per-segment prefix sums: subtract the running total at each
        # segment's entry point
        new = np.concatenate(([True], cs[1:] != cs[:-1]))
        starts = np.flatnonzero(new)
        seg_len = np.diff(np.append(starts, n))
        base = np.repeat(np.where(starts > 0, s[starts - 1], 0), seg_len)
        s = s - base
        # segmented running min via the rank-banded accumulate (the
        # interval_coalesce trick, min flavor): rank s globally, band
        # by DESCENDING segment id so a later segment's band values all
        # sort below every earlier segment's — one global
        # minimum.accumulate then never leaks mins across segments
        seg = np.cumsum(new) - 1
        nseg = int(seg[-1]) + 1
        rorder = np.argsort(s, kind="stable")
        rank = np.empty(n, np.int64)
        rank[rorder] = np.arange(n, dtype=np.int64)
        s_by_rank = s[rorder]
        band = (np.int64(nseg - 1) - seg) * np.int64(n + 1) + rank
        bmin = np.minimum.accumulate(band)
        minrank = bmin - (np.int64(nseg - 1) - seg) * np.int64(n + 1)
        run_min = s_by_rank[minrank]
        # virtual 0 before each segment: C_i = S_i - min(0, S_1..S_i)
        c = s - np.minimum(run_min, 0)
        out_c = np.empty(n, np.int64)
        out_c[sel] = c
        out_a = np.empty(n, bool)
        out_a[sel] = c > np.int64(threshold)
        return (tbl.append_column("cusum", pa.array(out_c))
                .append_column("alarm", pa.array(out_a)))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def ewma(ds, *, key: str, order: str, value: str, alpha: float,
         out_col: str = "ewma",
         chunk_len: int = 256):
    """Per-key exponentially weighted moving average (pandas
    ``ewm(alpha, adjust=False)`` semantics: ``y_0 = x_0``,
    ``y_i = (1-a) y_{i-1} + a x_i``) — the linear-recurrence twin of
    ``cusum_alarms``\' max-plus scan.

    Two-level vectorization with NO closed-form weighted cumsum (the
    ``(1-a)^-j`` form amplifies rounding by its weight span — measured
    1e-7 relative error at alpha=0.3): within chunks of ``chunk_len``
    the exact recurrence runs as a column loop vectorized ACROSS all
    chunks of every key (chunk_len iterations of O(active chunks)
    gathers), and chunk boundaries compose by linear superposition —
    the homogeneous solution propagates as ``carry * (1-a)^(j+1)``,
    one round per chunk depth, vectorized across keys.  Total Python
    iterations = chunk_len + max_chunks ~ O(sqrt(longest key)) at the
    default; every operation is the recurrence itself, so precision is
    O(eps) per step with no amplification.
    """
    from .exchange import hash_exchange

    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha in (0, 1]")
    if chunk_len < 2 or chunk_len > 65536:
        raise ValueError("chunk_len in [2, 65536]")
    b = 1.0 - alpha

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0:
            return pa.table({})
        n = tbl.num_rows
        if n == 0:
            return tbl.append_column(out_col, pa.array([], pa.float64()))
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        x = tbl[value].to_numpy(zero_copy_only=False).astype(np.float64)
        sel = np.lexsort((ov, codes))
        cs = codes[sel]
        xs = x[sel]
        new_seg = np.concatenate(([True], cs[1:] != cs[:-1]))
        seg_starts = np.flatnonzero(new_seg)
        seg_len = np.diff(np.append(seg_starts, n))
        pos = np.arange(n, dtype=np.int64) - np.repeat(seg_starts, seg_len)
        j = pos % chunk_len
        new_chunk = new_seg | (j == 0)
        g_starts = np.flatnonzero(new_chunk)
        g_len = np.diff(np.append(g_starts, n))
        # in-chunk exact recurrence, one column at a time across all
        # chunks: y_j = a x_j + b y_{j-1}
        y = alpha * xs
        y[new_seg] = xs[new_seg]        # y_0 = x_0 per key
        for jj in range(1, chunk_len):
            gsel = g_starts[g_len > jj] + jj
            if len(gsel) == 0:
                break
            y[gsel] += b * y[gsel - 1]
        # carry rounds: chunk c inherits the end value of its
        # segment\'s chunk c-1 (already final), scaled by b^(j+1) —
        # the homogeneous solution of the recurrence
        chunk_id = pos // chunk_len
        for c in range(1, int(chunk_id.max()) + 1 if n else 0):
            rows = np.flatnonzero(chunk_id == c)
            if len(rows) == 0:
                break
            carry = y[rows - (j[rows] + 1)]  # donor = chunk start - 1
            y[rows] += carry * (b ** (j[rows] + 1.0))
        out = np.empty(n, np.float64)
        out[sel] = y
        return tbl.append_column(out_col, pa.array(out))

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=None)


def autocorr_ingredients(ds, *, key: str, order, value: str, lag: int):
    """Per-key lag-``lag`` autocorrelation ingredients: the EXACT
    integer moments of the (x_t, x_{t+lag}) pair stream that Pearson's
    r at lag k is a ratio of — per key ``npairs, sum_x, sum_y, sum_xy,
    sum_xx, sum_yy`` where x runs over the key's rows ordered by
    ``order`` and y is the value ``lag`` rows later in the SAME key
    (SQL's ``LEAD(value, lag) OVER (PARTITION BY key ORDER BY ...)``).

    ``value`` must already be integer-typed (quantize upstream — cents
    convention); every sum is exact int64, so the result is
    partition-invariant and hash-checks bit-for-bit against a HUGEINT
    SQL twin.  The division (r_k = (n*sxy - sx*sy) /
    sqrt((n*sxx - sx^2) * (n*syy - sy^2))) stays with the consumer.
    Keys with fewer than ``lag + 1`` rows emit nothing (the twin's
    ``HAVING COUNT(y) > 0``).  One hash exchange on ``key``; the
    kernel is one lexsort + two shifted views — the pair stream never
    materializes beyond aligned slices.  Int64 bound: |value|^2 x
    rows-per-key must stay under 2^63 (cents-scale values hold to
    ~1e10 rows per key)."""
    from .exchange import hash_exchange

    if lag < 1:
        raise ValueError("lag must be >= 1")
    order_cols = [order] if isinstance(order, str) else list(order)

    out_schema = pa.schema([(key, pa.int64()), ("npairs", pa.int64()),
                            ("sum_x", pa.int64()), ("sum_y", pa.int64()),
                            ("sum_xy", pa.int64()), ("sum_xx", pa.int64()),
                            ("sum_yy", pa.int64())])

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows <= lag:
            return out_schema.empty_table()
        if not pa.types.is_integer(tbl[value].type):
            raise TypeError(f"autocorr value column {value!r} must be "
                            f"integer-typed, got {tbl[value].type}")
        k = tbl[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ovs = [_order_values(tbl, c) for c in order_cols]
        sel = np.lexsort(tuple(reversed(ovs)) + (k,))
        ks = k[sel]
        v = tbl[value].to_numpy(zero_copy_only=False).astype(
            np.int64)[sel]
        same = ks[:-lag] == ks[lag:]
        if not same.any():
            return out_schema.empty_table()
        x, y, kk = v[:-lag][same], v[lag:][same], ks[:-lag][same]
        uu, inv = np.unique(kk, return_inverse=True)

        def seg(vals: np.ndarray) -> np.ndarray:
            # int64 accumulation (bincount weights are float64 — loses
            # ulps once products pass 2^53)
            out = np.zeros(len(uu), np.int64)
            np.add.at(out, inv, vals)
            return out

        return pa.table({key: pa.array(uu),
                         "npairs": pa.array(seg(np.ones(len(kk),
                                                        np.int64))),
                         "sum_x": pa.array(seg(x)),
                         "sum_y": pa.array(seg(y)),
                         "sum_xy": pa.array(seg(x * y)),
                         "sum_xx": pa.array(seg(x * x)),
                         "sum_yy": pa.array(seg(y * y))})

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=out_schema)


def watermark_window_agg(ds, *, ts_col: str, wave_col: str,
                         cents_col: str, window_us: int,
                         delay_us: int, nwaves: int):
    """Watermark / late-data semantics of a streaming windowed
    aggregate, replayed deterministically over a batch corpus: rows
    arrive in ``nwaves`` deterministic waves; the watermark at the
    START of wave w is ``max(ts of waves < w) - delay``; a row is LATE
    iff its window has already closed under that watermark
    (``window_end <= watermark``) — the Flink/Beam allowed-lateness
    rule with the RNG-free arrival order that makes the whole thing
    SQL-checkable and partition-invariant.

    Two distributed passes, no iteration: pass A reduces per-wave max
    timestamps (``nwaves`` scalars) and the exclusive prefix max turns
    them into per-wave watermarks broadcast in the task closure; pass
    B classifies every row against its wave's watermark and partial-
    aggregates per window.  Returns per-window
    ``(window_id, n_ontime, cents_ontime, n_late)`` partial rows —
    callers finish with a driver-sized combine."""
    import pyarrow as pa

    def wave_max(b: pa.Table) -> pa.Table:
        w = b[wave_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mx = np.full(nwaves, np.iinfo(np.int64).min, np.int64)
        np.maximum.at(mx, w, t)
        live = mx > np.iinfo(np.int64).min
        return pa.table({"wave": pa.array(np.flatnonzero(live)),
                         "max_t": pa.array(mx[live])})

    from ..collect import collect_table

    parts = collect_table(ds.map_batches(
        wave_max, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None))
    mx = np.full(nwaves, np.iinfo(np.int64).min, np.int64)
    np.maximum.at(mx, parts["wave"].to_numpy(zero_copy_only=False)
                  .astype(np.int64),
                  parts["max_t"].to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    NEG = np.iinfo(np.int64).min
    pmax = np.full(nwaves, NEG, np.int64)
    if nwaves > 1:
        np.maximum.accumulate(mx[:-1], out=pmax[1:])
    # watermark per wave; NEG stays "no watermark yet" (never late)
    wm = np.where(pmax == NEG, NEG, pmax - np.int64(delay_us))

    def classify(b: pa.Table) -> pa.Table:
        w = b[wave_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = b[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = b[cents_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        win = t // np.int64(window_us)
        late = (wm[w] != NEG) & ((win + 1) * np.int64(window_us)
                                 <= wm[w])
        uniq, inv = np.unique(win, return_inverse=True)
        k = len(uniq)
        n_on = np.bincount(inv[~late], minlength=k).astype(np.int64)
        c_on = np.bincount(inv[~late], weights=cents[~late],
                           minlength=k).astype(np.int64)
        n_late = np.bincount(inv[late], minlength=k).astype(np.int64)
        return pa.table({"window_id": pa.array(uniq),
                         "n_ontime": pa.array(n_on),
                         "cents_ontime": pa.array(c_on),
                         "n_late": pa.array(n_late)})

    return ds.map_batches(classify, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def debounce(ds, key: str, time_col: str, cooldown: int, **map_kwargs):
    """Event-stream DEBOUNCE / throttle: per key keep the first event,
    then the next event at ``t >= last_kept + cooldown``, and so on —
    the rate-limiting rule where the cooldown restarts from the last
    KEPT event (sessionize's gap rule restarts from the last SEEN
    event; the two differ on bursty streams).  The kept chain is
    inherently sequential, so the kernel advances ALL keys in lockstep
    rounds: one global searchsorted per round over segment-offset
    times (each key's times shift into a disjoint window, making the
    bucket globally sorted), rounds = the longest kept chain — never
    a per-key Python loop.  Emits one (key, time) row per kept event
    (same-time duplicates collapse, matching the SQL MIN(t) twin)."""
    import numpy as np

    from ..functions.exchange import hash_exchange

    if cooldown <= 0:
        raise ValueError("debounce: cooldown must be positive")
    out_schema = pa.schema([(key, pa.int64()), (time_col, pa.int64())])

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        k = tbl[key].to_numpy(zero_copy_only=False).astype(np.int64)
        t = tbl[time_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((t, k))
        k, t = k[order], t[order]
        n = len(k)
        starts = np.concatenate(([0], np.flatnonzero(np.diff(k)) + 1))
        ends = np.concatenate((starts[1:], [n]))
        seg_of = np.repeat(np.arange(len(starts)), ends - starts)
        trel = t - t[starts[seg_of]]
        span = int(trel.max(initial=0)) + cooldown + 1
        if span * len(starts) >= 1 << 62:
            raise OverflowError("debounce: time span x keys overflows")
        tglob = trel + seg_of * span
        cur = starts.copy()
        kept = []
        while len(cur):
            kept.append(cur)
            nxt = np.searchsorted(tglob, tglob[cur] + cooldown,
                                  side="left")
            live = nxt < ends[seg_of[cur]]
            cur = nxt[live]
        pos = np.sort(np.concatenate(kept))
        return pa.table({key: pa.array(k[pos]),
                         time_col: pa.array(t[pos])})

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=out_schema)


def sliding_median(ds, key: str, order_cols: list[str], value: str,
                   *, w: int = 5, **map_kwargs):
    """Exact sliding-window MEDIAN (ROWS w-1 PRECEDING .. CURRENT,
    complete windows only): the robust-smoothing window aggregate the
    prefix-sum family can't express.  Per bucket one lexsort, then the
    w-wide windows materialize as w shifted column views and one
    np.sort across the small axis — O(w log w) per row vectorized over
    the whole bucket, windows straddling a key boundary dropped.
    ``w`` must be odd so the median is an exact data value (int64 in,
    int64 out, bit-identical to SQL's windowed median)."""
    import numpy as np

    from ..functions.exchange import hash_exchange

    if w % 2 == 0:
        raise ValueError("sliding_median: w must be odd")
    out_schema = pa.schema(
        [(key, pa.int64())] + [(c, pa.int64()) for c in order_cols]
        + [("median", pa.int64())])

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows < w:
            return out_schema.empty_table()
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ords = [t[c].to_numpy(zero_copy_only=False).astype(np.int64)
                for c in order_cols]
        v = t[value].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort(tuple(reversed(ords)) + (k,))
        k = k[o]
        v = v[o]
        ords = [c[o] for c in ords]
        n = len(k)
        m = n - w + 1
        stack = np.stack([v[i:i + m] for i in range(w)], axis=1)
        same = np.ones(m, bool)
        for i in range(1, w):
            same &= k[i:i + m] == k[:m]
        med = np.sort(stack, axis=1)[:, w // 2]
        sel = np.flatnonzero(same)
        end = sel + w - 1  # window END row position
        cols = {key: pa.array(k[end])}
        for c, arr in zip(order_cols, ords):
            cols[c] = pa.array(arr[end])
        cols["median"] = pa.array(med[sel])
        return pa.table(cols)

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=out_schema,
                         **map_kwargs)


def pattern_match_counts(ds, *, key: str, order: str, state: str,
                         patterns: list[str],
                         tiebreak: str | None = None):
    """MATCH_RECOGNIZE-lite: per ``key``, order rows by (``order``,
    ``tiebreak``), render each key's state sequence as a string of
    FIRST CHARACTERS of ``state``, and count the leftmost
    NON-OVERLAPPING occurrences of each regex in ``patterns`` —
    ``re.findall`` semantics, identical to RE2's
    ``regexp_extract_all`` so a ``string_agg(substr(state,1,1))``
    SQL twin is exact.

    Contract: the rendered alphabet is the LATIN-1 FIRST CHARACTER
    of each state value — two distinct states sharing a first letter
    alias to the same symbol (callers must pick initial-distinct
    state vocabularies or pre-map), and a state whose first code
    point is above U+00FF renders as ``\\x00`` (the same symbol as
    null/empty — it never matches printable patterns, and never
    raises).

    Shape: one hash exchange on ``key`` co-locates each key's rows so
    every sequence is complete inside exactly one bucket; the bucket
    kernel is vectorized up to the per-key regex scan (one lexsort,
    dictionary-encoded first-char gather, one contiguous byte buffer
    sliced per key segment — the only Python loop is one
    ``findall`` per (key, pattern), bounded by keys-per-bucket) and
    collapses immediately to ``len(patterns)`` partial rows
    (pattern, n_matches, n_users, max_per_user) — the combiner
    discipline: no per-key rows leave a bucket.  The caller sums /
    maxes partials across buckets."""
    import re

    from .exchange import hash_exchange

    compiled = [(p, re.compile(p)) for p in sorted(patterns)]
    out_schema = pa.schema([
        ("pattern", pa.string()), ("n_matches", pa.int64()),
        ("n_users", pa.int64()), ("max_per_user", pa.int64())])

    def kernel(tbl: pa.Table) -> pa.Table:
        if tbl.num_columns == 0 or tbl.num_rows == 0:
            return out_schema.empty_table()
        codes = _key_codes(tbl, key)
        ov = _order_values(tbl, order)
        senc = tbl[state].combine_chunks().dictionary_encode()
        scode = senc.indices.fill_null(-1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # first byte per dictionary value; null/empty state and any
        # first code point above U+00FF -> \x00 (never matched by the
        # printable patterns callers pass; see docstring contract)
        def _initial(v) -> bytes:
            c = (v.as_py() or "\x00")[:1]
            return c.encode("latin1") if c <= "\xff" else b"\x00"
        first = np.frombuffer(
            b"".join(_initial(s) for s in senc.dictionary), np.uint8)
        keys_sort = (ov, codes) if tiebreak is None else \
            (_order_values(tbl, tiebreak), ov, codes)
        sel = np.lexsort(keys_sort)
        cs = codes[sel]
        chars = np.where(scode[sel] >= 0, first[scode[sel]],
                         np.uint8(0)).astype(np.uint8)
        buf = chars.tobytes()
        bounds = np.flatnonzero(np.diff(cs)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(cs)]))
        nm = np.zeros(len(compiled), np.int64)
        nu = np.zeros(len(compiled), np.int64)
        mx = np.zeros(len(compiled), np.int64)
        for st, en in zip(starts, ends):
            s = buf[st:en].decode("latin1")
            for i, (_, rx) in enumerate(compiled):
                k = len(rx.findall(s))
                nm[i] += k
                nu[i] += k > 0
                if k > mx[i]:
                    mx[i] = k
        return pa.table({
            "pattern": pa.array([p for p, _ in compiled]),
            "n_matches": pa.array(nm), "n_users": pa.array(nu),
            "max_per_user": pa.array(mx)})

    return hash_exchange(ds, on=key,
                         reduce_fn=kernel, schema=out_schema)
