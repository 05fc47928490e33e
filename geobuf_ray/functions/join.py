"""Generic large x large hash equi-join (round-1 missing item #3).

The reference has no relational join at all; the broadcast-lookup path
(queries.py `_broadcast_lookup_aggregate`) covers small dimension
tables.  This operator is the missing fact x fact path: BOTH sides are
hash-partitioned on the join key through the engine's one shuffle
(``functions/exchange.py``) and co-grouped per bucket, where a
vectorized sort + searchsorted kernel expands the matches — no per-row
Python, no driver materialization of either side.

Shape (the only one that survives 100 TB):

    left, right -> split each by hash(key) % nbuckets
    hash_cogroup -> per bucket: local vectorized hash join

Each side ships only its own columns.  The bucket count is sized from
both inputs' bytes (about 1 MiB per bucket), which bounds the
per-bucket working set; hot keys are salted (``hot_keys=``) since the
bucket key is a HASH, not the raw key.  The binned joins
(:func:`range_join`, :func:`interval_overlap_join`) co-locate their
bins on the same exchange.

Broadcast or shuffle: :func:`hash_join` (inner or left, unsalted),
:func:`asof_join` and :func:`range_join` (integer bounds) first read
their build side's block-metadata bytes (the right side; the
intervals).  At most ``_BROADCAST_BYTES`` and that side is collected
and shipped once to every task of the other side
(:func:`broadcast_join`, :func:`broadcast_asof_join`,
:func:`broadcast_range_join`), which never shuffles the large side;
above it both sides co-group.  The caller does not choose.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)

# a join broadcasts a build side of at most this many metadata bytes;
# below the exchange's sizing cap (_MAX_BUCKETS x _BUCKET_BYTES), so
# the choice reads no more of the input than sizing does
_BROADCAST_BYTES = 8 << 20


def _build_side(ds, schema: pa.Schema):
    """Read the build side ``ds``'s block-metadata bytes.  At most
    ``_BROADCAST_BYTES``: ``(table, None)``, the side collected from the
    bundles read, to broadcast.  Otherwise ``(None, read)``: the
    ``(nbytes, bundles)`` the co-group sizes from and replays, so no
    upstream block runs twice."""
    import ray

    from .exchange import _bundles, _read_bytes, _to_table

    nbytes, bundles = _read_bytes(_bundles(ds))
    if nbytes > _BROADCAST_BYTES:
        return None, (nbytes, bundles)
    refs = [ref for bundle in bundles for ref in bundle.block_refs]
    tables = [t for t in map(_to_table, ray.get(refs)) if t.num_rows]
    if not tables:
        return schema.empty_table(), None
    return pa.concat_tables(tables, promote_options="default") \
        .select(schema.names), None


def _key_hash(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        from .text import fingerprint64

        if arr.null_count:
            arr = arr.fill_null("")  # masked out by callers via is_null
        return fingerprint64(arr)
    if arr.null_count:
        arr = arr.fill_null(0)
    if pa.types.is_floating(t):
        # hash the BIT pattern (astype(int64) would truncate 1.2 and
        # 1.9 onto the same key); +0.0 canonicalizes -0.0 so the two
        # equal zeros hash together.  NaN hash-collides with NaN; the
        # join's value-verify filter (applied to every non-integer key
        # type) drops those pairs, giving SQL's NaN-matches-nothing.
        f = arr.to_numpy(zero_copy_only=False).astype(np.float64) + 0.0
        v = f.view(np.uint64)
    else:
        v = arr.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
    x = (v ^ (v >> np.uint64(33))) * _P1
    x = (x ^ (x >> np.uint64(29))) * _P2
    return x ^ (x >> np.uint64(32))


def _combined_hash(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Order-sensitive mix of the per-column hashes (composite keys).

    The accumulator is MULTIPLIED before each xor — a plain
    ``hash(c0) ^ hash(c1)`` cancels to the same value for every
    ``(a, a)`` pair since both columns use the same mix."""
    h = _key_hash(tbl[cols[0]])
    for i, c in enumerate(cols[1:], start=1):
        x = (h * _P1 + np.uint64(2 * i + 1)) ^ _key_hash(tbl[c])
        x = (x ^ (x >> np.uint64(33))) * _P2
        h = x ^ (x >> np.uint64(31))
    return h


def _null_any(tbl: pa.Table, cols: list[str], n: int) -> np.ndarray:
    """True where ANY key column is null (SQL: matches nothing)."""
    out = np.zeros(n, bool)
    for c in cols:
        col = tbl[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            out |= col.is_null().to_numpy(zero_copy_only=False)
    return out


def detect_hot_keys(ds, on: str, *, threshold: int, topk: int = 16
                    ) -> np.ndarray:
    """One cheap extra pass over ``ds`` returning key values whose
    total count provably reaches ``threshold``: each block reports only
    its ``topk`` most frequent keys (two scalars each), the driver sums
    those partial counts, and a key qualifies when the LOWER BOUND
    (sum of the block counts that surfaced it) reaches ``threshold``.

    Detection has one-sided error: a genuinely hot key dominates some
    blocks and is caught; a key spread so thin it never makes a block's
    top-``topk`` can be missed, which only means it stays unsalted
    (correctness unaffected, just the plain-join cost).  Feed the
    result to :func:`hash_join`'s ``hot_keys``."""
    from ..collect import collect_table

    def partial(b: pa.Table) -> pa.Table:
        arr = b[on]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if arr.null_count:
            mask = ~arr.is_null().to_numpy(zero_copy_only=False)
            k = arr.fill_null(0).to_numpy(
                zero_copy_only=False).astype(np.int64)[mask]
        else:
            k = arr.to_numpy(zero_copy_only=False).astype(np.int64)
        uk, cnt = np.unique(k, return_counts=True)
        if len(uk) > topk:
            sel = np.argpartition(cnt, -topk)[-topk:]
            uk, cnt = uk[sel], cnt[sel]
        return pa.table({"k": pa.array(uk),
                         "n": pa.array(cnt.astype(np.int64))})

    t = collect_table(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        schema=pa.schema([("k", pa.int64()), ("n", pa.int64())]))
    if t.num_rows == 0:
        return np.empty(0, np.int64)
    agg = t.group_by(["k"]).aggregate([("n", "sum")])
    k = agg["k"].to_numpy().astype(np.int64)
    n = agg["n_sum"].to_numpy().astype(np.int64)
    return np.sort(k[n >= threshold])


def _salted_bucket_fns(key_col: str, nbuckets: int, hot: np.ndarray,
                       salt: int):
    """Bucket functions for the skew-salted join: cold rows route by
    the ordinary hash % nbuckets; each hot KEY owns a dedicated range
    of ``salt`` buckets after the cold range.  Left hot rows partition
    across their key's salt buckets (any assignment is correct for
    inner/left — every right row of the key is present in every salt
    bucket); right hot rows REPLICATE x``salt`` via the exchange's
    fan-out form, so each qualifying pair still meets exactly once, in
    the left row's salt bucket."""
    hot = np.sort(np.asarray(hot, np.int64))

    def classify(tbl: pa.Table):
        b = (_combined_hash(tbl, [key_col])
             % np.uint64(nbuckets)).astype(np.int64)
        arr = tbl[key_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        null = (arr.is_null().to_numpy(zero_copy_only=False)
                if arr.null_count else None)
        k = arr.fill_null(0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(hot, k), len(hot) - 1)
        is_hot = (hot[pos] == k) if len(hot) else np.zeros(len(k), bool)
        if null is not None:
            is_hot &= ~null
        return b, pos, is_hot

    def left_fn(tbl: pa.Table):
        b, pos, is_hot = classify(tbl)
        nh = int(is_hot.sum())
        if nh:
            b[is_hot] = (nbuckets + pos[is_hot] * salt
                         + np.arange(nh, dtype=np.int64) % salt)
        return b, tbl

    def right_fn(tbl: pa.Table):
        b, pos, is_hot = classify(tbl)
        if not is_hot.any():
            return b, tbl
        cold = np.flatnonzero(~is_hot)
        hotr = np.flatnonzero(is_hot)
        idx = np.concatenate([cold, np.repeat(hotr, salt)])
        hb = ((nbuckets + pos[hotr] * salt)[:, None]
              + np.arange(salt, dtype=np.int64)[None, :]).ravel()
        buckets = np.concatenate([b[cold], hb])
        return buckets, tbl.take(pa.array(idx, pa.int64()))

    return left_fn, right_fn


def hash_join(left, right, on, *, how: str = "inner", rsuffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None,
              hot_keys=None, salt: int = 8):
    """Equi-join two Datasets on column ``on`` (a name or a list of
    names for a composite key).

    Returns a Dataset with the left columns plus the right columns
    (minus the key; name collisions get ``rsuffix``).  ``how`` is
    ``"inner"``, ``"left"``, ``"right"`` or ``"full"``.  The key
    columns follow SQL ``USING`` semantics: one output column per key,
    carrying ``COALESCE(left.key, right.key)`` — for right-side-only
    rows of a right/full join the key columns hold the RIGHT values.
    Passing ``left_schema``/``right_schema`` (pyarrow) skips the
    ``Dataset.schema()`` peek, which otherwise executes one upstream
    block per side.  Ray reports no schema for an empty side after a
    ``repartition``; such a side matches nothing, and the result is the
    other side's unmatched rows that ``how`` keeps, in its own columns.

    An inner or left join without ``hot_keys`` whose right side reads
    at most ``_BROADCAST_BYTES`` runs as :func:`broadcast_join`.  Any
    other join routes through the exchange's co-group — the raw-task
    simple shuffle, sized from both inputs' bytes — so each side ships
    only its own columns; the per-bucket kernel is one vectorized sort
    + searchsorted expansion.

    **Skew salting**: pass ``hot_keys`` (an int64 array of key VALUES,
    e.g. from :func:`detect_hot_keys`) and each hot key's rows split
    across ``salt`` dedicated buckets after the sized ones — left rows
    partitioned, right rows replicated — so one boilerplate key can no
    longer pin a whole join to a single reduce task.  Replication makes
    the results exactly equal to the unsalted join for ``how="inner"`` /
    ``"left"``; ``"right"``/``"full"`` would see a replicated right row
    miss in one salt bucket while matching in another, so salting those
    raises.  Salting requires a single integer key column.
    """
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(f"unsupported how={how!r}")
    on_cols = [on] if isinstance(on, str) else list(on)
    l_schema = left_schema if left_schema is not None else left.schema()
    r_schema = right_schema if right_schema is not None else right.schema()
    if l_schema is None or r_schema is None:  # an empty side: see above
        other, kept = ((right, ("right", "full")) if l_schema is None
                       else (left, ("left", "full")))
        return other if how in kept else other.limit(0)
    l_names = list(l_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    r_names = [n for n in r_schema.names if n not in on_cols]
    out_r_names = [n + rsuffix if n in l_names else n for n in r_names]
    l_pa_schema = pa.schema([(n, l_types[n]) for n in l_names])
    r_pa_schema = pa.schema([(n, r_types[n]) for n in r_schema.names])
    # single integer key: the mix is invertible, hash-match IS
    # key-match.  composite keys and every other type (string
    # fingerprints, float bit patterns, ...): verify the actual values
    # to kill collisions and to give NaN keys SQL's matches-nothing
    # semantics
    needs_verify = len(on_cols) > 1 or not pa.types.is_integer(
        l_types[on_cols[0]])

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # SQL null semantics: a NULL in ANY key column matches nothing —
        # null right rows vanish; null left rows survive only as
        # how="left" misses
        knull_l = _null_any(lt, on_cols, lt.num_rows)
        knull_r = _null_any(rt, on_cols, rt.num_rows)
        li = np.flatnonzero(~knull_l)
        null_li = np.flatnonzero(knull_l)
        ri = np.flatnonzero(~knull_r)
        lkeys = _combined_hash(lt, on_cols)[li]
        rkeys = _combined_hash(rt, on_cols)[ri]
        # local join: sort right, range-match every left key at once
        order = np.argsort(rkeys, kind="stable")
        rk = rkeys[order]
        lo = np.searchsorted(rk, lkeys, side="left")
        hi = np.searchsorted(rk, lkeys, side="right")
        cnt = hi - lo
        l_exp = np.repeat(np.arange(len(li)), cnt)
        from ..codec.varint import ramp

        r_exp = order[np.repeat(lo, cnt) + ramp(cnt)]
        ltab = lt.take(pa.array(li[l_exp], pa.int64()))
        rtab = rt.take(pa.array(ri[r_exp], pa.int64()))
        cols = {n: ltab[n] for n in l_names}
        for rn, orn in zip(r_names, out_r_names):
            cols[orn] = rtab[rn]
        out = pa.table(cols)
        match_cnt = cnt
        r_match = np.bincount(r_exp, minlength=len(ri))
        if needs_verify:
            import pyarrow.compute as pc

            eq = None
            for c in on_cols:
                e = pc.equal(ltab[c], rtab[c])
                eq = e if eq is None else pc.and_(eq, e)
            eqm = eq.to_numpy(zero_copy_only=False)
            out = out.filter(eq)
            if how in ("left", "full"):
                # a left row whose matches were ALL collisions is a
                # miss, not a silent drop
                match_cnt = np.bincount(
                    l_exp, weights=eqm, minlength=len(li)).astype(np.int64)
            if how in ("right", "full") and len(r_exp):
                r_match = np.bincount(
                    r_exp, weights=eqm, minlength=len(ri)).astype(np.int64)
        if how in ("left", "full"):
            miss_rows = np.concatenate((li[np.flatnonzero(match_cnt == 0)],
                                        null_li))
            if len(miss_rows):
                mtab = lt.take(pa.array(miss_rows, pa.int64()))
                mcols = {n: mtab[n] for n in l_names}
                for rn, orn in zip(r_names, out_r_names):
                    mcols[orn] = pa.nulls(len(miss_rows), r_types[rn])
                out = pa.concat_tables([out, pa.table(mcols)])
        if how in ("right", "full"):
            null_ri = np.flatnonzero(knull_r)
            rmiss = np.concatenate((ri[np.flatnonzero(r_match == 0)],
                                    null_ri))
            if len(rmiss):
                mtab = rt.take(pa.array(rmiss, pa.int64()))
                mcols = {}
                for n in l_names:
                    if n in on_cols:
                        # USING/COALESCE: key values come from the right
                        kcol = mtab[n]
                        if kcol.type != l_types[n]:
                            kcol = kcol.cast(l_types[n])
                        mcols[n] = kcol
                    else:
                        mcols[n] = pa.nulls(len(rmiss), l_types[n])
                for rn, orn in zip(r_names, out_r_names):
                    mcols[orn] = mtab[rn]
                out = pa.concat_tables([out, pa.table(mcols)])
        return out

    from .exchange import _cogroup, _keyed_route

    if hot_keys is not None and len(hot_keys):
        if how not in ("inner", "left"):
            raise ValueError("hot_keys salting supports how='inner'/"
                             f"'left', not {how!r} (replicated right "
                             "rows would emit spurious misses)")
        if len(on_cols) != 1 or not pa.types.is_integer(
                l_types[on_cols[0]]):
            raise ValueError("hot_keys salting requires a single "
                             "integer key column")

        def salted_route(n: int):
            return (n + len(hot_keys) * salt,
                    *_salted_bucket_fns(on_cols[0], n, hot_keys, salt))

        return _cogroup(left, right, salted_route, join_bucket,
                        l_pa_schema, r_pa_schema)

    if how in ("inner", "left"):
        small, right = _build_side(right, r_pa_schema)
        if small is not None:
            return broadcast_join(left, small, on_cols, how=how,
                                  rsuffix=rsuffix)
    return _cogroup(left, right, _keyed_route(on_cols, on_cols),
                    join_bucket, l_pa_schema, r_pa_schema)


def semi_join(left, right, on, *, right_on=None, anti: bool = False,
              left_schema: pa.Schema | None = None):
    """Distributed semi-join: the left rows with (``anti=False``) or
    without (``anti=True``) at least one key match on the right —
    SQL's ``WHERE [NOT] EXISTS (SELECT 1 FROM right WHERE right.key =
    left.key)``.  Left rows pass through exactly once; no right
    columns are emitted, and the right side is PROJECTED TO ITS KEY
    COLUMNS before the exchange, so an arbitrarily wide probe table
    ships only the key bytes.

    NULL semantics follow ``EXISTS``: a NULL in any left key column
    never matches, so such rows are dropped by the semi form and kept
    by the anti form (NOT-``IN``'s null-poisoning is deliberately NOT
    reproduced).  ``right_on`` names the right key columns when they
    differ from ``on``.  A left side with no schema (Ray's report for
    an empty side after a ``repartition``) is returned as it is."""
    on_cols = [on] if isinstance(on, str) else list(on)
    r_cols = on_cols if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    l_schema = left_schema if left_schema is not None else left.schema()
    if l_schema is None:
        return left
    l_pa_schema = pa.schema(list(zip(l_schema.names, l_schema.types)))
    needs_verify = len(on_cols) > 1 or not pa.types.is_integer(
        dict(zip(l_schema.names, l_schema.types))[on_cols[0]])
    right = right.select_columns(r_cols)

    def member_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0 or lt.num_columns == 0:
            return l_pa_schema.empty_table()
        if rt.num_rows == 0 or rt.num_columns == 0:
            # NOT EXISTS against an empty probe keeps every left row
            return lt if anti else lt.slice(0, 0)
        knull_l = _null_any(lt, on_cols, lt.num_rows)
        knull_r = _null_any(rt, r_cols, rt.num_rows)
        li = np.flatnonzero(~knull_l)
        ri = np.flatnonzero(~knull_r)
        lkeys = _combined_hash(lt, on_cols)[li]
        rkeys = _combined_hash(rt, r_cols)[ri]
        rk = np.unique(rkeys)
        lo = np.searchsorted(rk, lkeys, side="left")
        hit = (lo < len(rk)) & (rk[np.minimum(lo, len(rk) - 1)] == lkeys) \
            if len(rk) else np.zeros(len(li), bool)
        if needs_verify and hit.any():
            # hash hits must be confirmed against the actual values:
            # expand candidate pairs (bounded by the number of hash
            # matches) and AND per-column equality
            import pyarrow.compute as pc

            order = np.argsort(rkeys, kind="stable")
            rkeys_s = rkeys[order]
            cand = np.flatnonzero(hit)
            lo2 = np.searchsorted(rkeys_s, lkeys[cand], side="left")
            hi2 = np.searchsorted(rkeys_s, lkeys[cand], side="right")
            cnt = hi2 - lo2
            from ..codec.varint import ramp

            l_exp = np.repeat(cand, cnt)
            r_exp = order[np.repeat(lo2, cnt) + ramp(cnt)]
            ltab = lt.take(pa.array(li[l_exp], pa.int64()))
            rtab = rt.take(pa.array(ri[r_exp], pa.int64()))
            eq = None
            for lc, rc in zip(on_cols, r_cols):
                e = pc.equal(ltab[lc], rtab[rc])
                eq = e if eq is None else pc.and_(eq, e)
            eqm = eq.to_numpy(zero_copy_only=False)
            true_cnt = np.bincount(l_exp, weights=eqm, minlength=len(li))
            hit = true_cnt > 0
        keep = np.zeros(lt.num_rows, bool)
        keep[li[hit]] = True
        if anti:
            keep = ~keep
        return lt.filter(pa.array(keep))

    from .exchange import hash_cogroup

    # right_schema stays None: an all-empty bucket falls back to the
    # zero-row fragment, which carries the true (projected) right schema
    return hash_cogroup(left, right,
                        left_on=on_cols, right_on=r_cols,
                        reduce_fn=member_bucket,
                        left_schema=l_pa_schema, right_schema=None)


def anti_join(left, right, on, *, right_on=None,
              left_schema: pa.Schema | None = None):
    """SQL ``NOT EXISTS``: left rows with no key match on the right.
    See :func:`semi_join` for semantics (this is its ``anti=True``
    form)."""
    return semi_join(left, right, on, right_on=right_on, anti=True,
                     left_schema=left_schema)


def range_join(points, intervals, *, value: str, lo: str, hi: str,
               bin_width: float, rsuffix: str = "_r",
               points_schema: pa.Schema | None = None,
               intervals_schema: pa.Schema | None = None, **map_kwargs):
    """Interval containment join: point rows match every interval row
    with ``lo <= value < hi`` (the 1-D range-join shape; the spatial
    engine's cell co-group generalized to numeric intervals).

    Points land in ONE bin (``floor(value / bin_width)``); intervals
    fan out to every bin they cover, so each match is found in exactly
    the point's bin — no dedup pass.  Pick ``bin_width`` near the
    median interval length: too wide co-locates unrelated rows, too
    narrow amplifies the interval fan-out (the same trade-off as the
    tile zoom in the spatial joins).  The two sides co-group their bins
    on the exchange, sized from both inputs' bytes.

    With integer ``lo``/``hi`` and an interval side of at most
    ``_BROADCAST_BYTES``, the join runs as :func:`broadcast_range_join`
    instead: the same rows, no bins, and ``map_kwargs`` go to its
    ``map_batches``.  A side with no schema (Ray's report for an empty
    side after a ``repartition``) gives no rows.
    """
    from ..codec.varint import ramp
    from .exchange import _cogroup, _group_kernel, _resolve_bucket_fn

    p_schema = points_schema if points_schema is not None else points.schema()
    i_schema = (intervals_schema if intervals_schema is not None
                else intervals.schema())
    if p_schema is None or i_schema is None:
        return points.limit(0)
    p_names = list(p_schema.names)
    i_names = list(i_schema.names)
    out_i_names = [n + rsuffix if n in p_names else n for n in i_names]
    p_types = dict(zip(p_schema.names, p_schema.types))
    i_types = dict(zip(i_schema.names, i_schema.types))
    lo_out = lo + rsuffix if lo in p_names else lo
    hi_out = hi + rsuffix if hi in p_names else hi

    if pa.types.is_integer(i_types[lo]) and pa.types.is_integer(i_types[hi]):
        small, intervals = _build_side(
            intervals, pa.schema([(n, i_types[n]) for n in i_names]))
        if small is not None:
            return broadcast_range_join(
                points, small.rename_columns(out_i_names), value=value,
                lo=lo_out, hi=hi_out, id_cols=out_i_names, **map_kwargs)

    def stamp_points(batch: pa.Table) -> pa.Table:
        v = batch[value].to_numpy(zero_copy_only=False).astype(np.float64)
        cols = {n: batch[n] for n in p_names}
        for n, on_ in zip(i_names, out_i_names):
            cols[on_] = pa.nulls(batch.num_rows, i_types[n])
        cols["__bin"] = pa.array(
            np.floor(v / bin_width).astype(np.int64))
        cols["__side"] = pa.array(np.zeros(batch.num_rows, np.int8))
        return pa.table(cols)

    def stamp_intervals(batch: pa.Table) -> pa.Table:
        lov = batch[lo].to_numpy(zero_copy_only=False).astype(np.float64)
        hiv = batch[hi].to_numpy(zero_copy_only=False).astype(np.float64)
        b0 = np.floor(lov / bin_width).astype(np.int64)
        # [lo, hi): the bin containing hi is needed only when hi is not
        # exactly on a boundary
        b1 = np.ceil(hiv / bin_width).astype(np.int64) - 1
        b1 = np.maximum(b1, b0)
        cnt = b1 - b0 + 1
        rows = np.repeat(np.arange(batch.num_rows), cnt)
        bins = np.repeat(b0, cnt) + ramp(cnt)
        taken = batch.take(pa.array(rows, pa.int64()))
        cols = {}
        for n in p_names:
            cols[n] = pa.nulls(len(rows), p_types[n])
        for n, on_ in zip(i_names, out_i_names):
            cols[on_] = taken[n]
        cols["__bin"] = pa.array(bins)
        cols["__side"] = pa.array(np.ones(len(rows), np.int8))
        return pa.table(cols)

    out_schema = pa.schema(
        [(n, p_types[n]) for n in p_names]
        + [(on_, i_types[n]) for n, on_ in zip(i_names, out_i_names)])
    tagged_schema = pa.schema(list(out_schema) + [("__bin", pa.int64()),
                                                  ("__side", pa.int8())])

    def join_bin(group: pa.Table) -> pa.Table:
        side = group["__side"].to_numpy(zero_copy_only=False)
        pi = np.flatnonzero(side == 0)
        ii = np.flatnonzero(side == 1)
        if len(pi) == 0 or len(ii) == 0:
            return out_schema.empty_table()
        v = group[value].to_numpy(zero_copy_only=False)[pi].astype(np.float64)
        lov = group[lo_out].to_numpy(zero_copy_only=False)[ii].astype(np.float64)
        hiv = group[hi_out].to_numpy(zero_copy_only=False)[ii].astype(np.float64)
        order = np.argsort(lov, kind="stable")
        lov_s = lov[order]
        # candidates: intervals with lo <= v; every interval in this
        # bin overlaps it, so false candidates are bounded by intervals
        # ENDING inside the bin below v — output-proportional work
        cnt = np.searchsorted(lov_s, v, side="right")
        p_exp = np.repeat(np.arange(len(pi)), cnt)
        i_exp = order[ramp(cnt)]
        keep = hiv[i_exp] > v[p_exp]
        p_exp, i_exp = p_exp[keep], i_exp[keep]
        ptab = group.take(pa.array(pi[p_exp], pa.int64()))
        itab = group.take(pa.array(ii[i_exp], pa.int64()))
        cols = {n: ptab[n] for n in p_names}
        for on_ in out_i_names:
            cols[on_] = itab[on_]
        return pa.table(cols)

    by_bins = _group_kernel(["__bin"], join_bin, out_schema)

    def route(n: int):
        by_bin = _resolve_bucket_fn(["__bin"], None, n)
        return (n, lambda t: by_bin(stamp_points(t)),
                lambda t: by_bin(stamp_intervals(t)))

    return _cogroup(points, intervals, route,
                    lambda pt, it: by_bins(pa.concat_tables([pt, it])),
                    tagged_schema, tagged_schema)


def asof_join(left, right, on, *, left_time: str, right_time: str,
              direction: str = "backward", rsuffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """As-of join: each left row matches one right row with the same
    key (``on``: a column name or list of names) by time
    (inner semantics: unmatched left rows drop).

    ``direction``:

    - ``"backward"`` (default): the LATEST right row with
      ``right_time <= left_time``;
    - ``"forward"``: the EARLIEST right row with
      ``right_time >= left_time`` — implemented as backward over the
      order-reversing bijection ``~t`` (no negation overflow anywhere
      in the int64 domain);
    - ``"nearest"``: whichever of the two candidates is closer in
      time; exact ties prefer the backward match.  Distances compare
      in uint64, so they are exact across the whole int64 domain.

    Rows with a NULL in any key column match
    nothing.  Composite / non-integer keys rely on the 64-bit combined
    hash (collision probability ~2^-64 per key pair); the segment
    kernel does not re-verify values.  A side with no schema (Ray's
    report for an empty side after a ``repartition``) gives no rows.

    A right side of at most ``_BROADCAST_BYTES`` runs as
    :func:`broadcast_asof_join`, with the same rows and columns.  A
    larger one takes the same hash-bucket co-group shape as
    :func:`hash_join`; the per-bucket kernel is one lexsort of the
    merged rows by (key, time, side) — right rows first at equal times
    — followed by a forward-fill of the last-seen right index with
    resets at key changes.  No per-row Python; ties inside a (key,
    time) break toward the LAST right row in sort order (sort the right
    side's tiebreak columns into ``right_time`` order upstream if that
    matters).
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unsupported direction={direction!r}")
    on_cols = [on] if isinstance(on, str) else list(on)
    l_schema = left_schema if left_schema is not None else left.schema()
    r_schema = right_schema if right_schema is not None else right.schema()
    if l_schema is None or r_schema is None:
        return left.limit(0)
    l_names = list(l_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    r_names = [n for n in r_schema.names if n not in on_cols]
    out_r_names = [n + rsuffix if n in l_names else n for n in r_names]
    l_pa_schema = pa.schema([(n, l_types[n]) for n in l_names])
    r_pa_schema = pa.schema([(n, r_types[n]) for n in r_schema.names])

    def asof_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        nl_, nr_ = lt.num_rows, rt.num_rows
        # SQL comparison semantics: a NULL time or NULL key matches
        # nothing (an unmasked null would sort somewhere real and
        # falsely match)
        tl, null_l, int_l = _time_axis(lt[left_time], nl_)
        tr, null_r, int_r = _time_axis(rt[right_time], nr_)
        sl = np.flatnonzero(~(null_l | _null_any(lt, on_cols, nl_)))
        sr = np.flatnonzero(~(null_r | _null_any(rt, on_cols, nr_)))
        keys = np.concatenate([_combined_hash(lt, on_cols)[sl],
                               _combined_hash(rt, on_cols)[sr]])
        # one merged time axis; int64 end-to-end when both sides are
        # integer-typed, float64 only when a side genuinely is float
        if int_l and int_r:
            t = np.concatenate([tl[sl], tr[sr]])
        else:
            t = np.concatenate([tl[sl].astype(np.float64),
                                tr[sr].astype(np.float64)])
        if len(sl) == 0 or len(sr) == 0:  # inner: nothing can match
            ltab = lt.take(pa.array([], pa.int64()))
            rtab = rt.take(pa.array([], pa.int64()))
            cols = {n: ltab[n] for n in l_names}
            for rn, orn in zip(r_names, out_r_names):
                cols[orn] = rtab[rn]
            return pa.table(cols)
        side = np.concatenate([np.zeros(len(sl), np.int8),
                               np.ones(len(sr), np.int8)])

        def matches(tax: np.ndarray) -> np.ndarray:
            """Per left merged position: merged position of the latest
            right row with right_tax <= left_tax in its key segment,
            or -1.  Right rows sort BEFORE left at equal (key, tax) so
            an equal-time right is visible to its left row."""
            order = np.lexsort((1 - side, tax, keys))
            ks, ss = keys[order], side[order]
            new_key = np.concatenate(([True], ks[1:] != ks[:-1]))
            seg_id = np.cumsum(new_key) - 1
            # segmented "last right row seen so far": encode (segment,
            # sort position) into one monotone int so a single
            # maximum.accumulate forward-fills WITH key-boundary
            # resets — a new segment's base always exceeds the
            # previous segment's max
            n_all = len(order)
            pos = np.arange(n_all, dtype=np.int64)
            enc = np.where(ss == 1,
                           seg_id * (n_all + 1) + pos + 1,
                           seg_id * (n_all + 1))
            acc = np.maximum.accumulate(enc)
            last_pos = np.where(acc // (n_all + 1) == seg_id,
                                acc % (n_all + 1) - 1, -1)
            is_left = ss == 0
            lrows = order[is_left]      # merged positions (< len(sl))
            lp = last_pos[is_left]
            match_of = np.full(len(sl), -1, np.int64)
            okm = lp >= 0
            match_of[lrows[okm]] = order[lp[okm]]
            return match_of

        is_float_axis = not (int_l and int_r)
        if direction == "backward":
            m = matches(t)
        elif direction == "forward":
            m = matches(-t if is_float_axis else ~t)
        else:  # nearest
            mb = matches(t)
            mf = matches(-t if is_float_axis else ~t)
            tl_m = t[:len(sl)]
            if is_float_axis:
                db_ = np.where(mb >= 0,
                               tl_m - t[np.maximum(mb, 0)], np.inf)
                df_ = np.where(mf >= 0,
                               t[np.maximum(mf, 0)] - tl_m, np.inf)
            else:
                # exact uint64 distances over the whole int64 domain
                tu = t.view(np.uint64)
                tlu = tu[:len(sl)]
                db_ = np.where(mb >= 0, tlu - tu[np.maximum(mb, 0)],
                               np.uint64(np.iinfo(np.uint64).max))
                df_ = np.where(mf >= 0, tu[np.maximum(mf, 0)] - tlu,
                               np.uint64(np.iinfo(np.uint64).max))
            # ties prefer backward
            m = np.where((mb >= 0) & ((mf < 0) | (db_ <= df_)), mb, mf)
        ok = m >= 0
        ltab = lt.take(pa.array(sl[np.flatnonzero(ok)], pa.int64()))
        rtab = rt.take(pa.array(sr[m[ok] - len(sl)], pa.int64()))
        cols = {n: ltab[n] for n in l_names}
        for rn, orn in zip(r_names, out_r_names):
            cols[orn] = rtab[rn]
        return pa.table(cols)

    small, right = _build_side(right, r_pa_schema)
    if small is not None:
        return broadcast_asof_join(left, small, on_cols, left_time=left_time,
                                   right_time=right_time,
                                   direction=direction, rsuffix=rsuffix)
    from .exchange import _cogroup, _keyed_route

    return _cogroup(left, right, _keyed_route(on_cols, on_cols),
                    asof_bucket, l_pa_schema, r_pa_schema)


def _time_axis(col, n: int):
    """(values, null_mask, is_int) — int64 domain for integer and
    timestamp columns (no float64 round-trip: int64 epochs above
    2^53 would lose ~256 µs ulp and mis-order near-boundary rows);
    nulls come from the Arrow validity mask BEFORE any cast, so
    timestamp NaT cannot slip through as INT64_MIN."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    null = (col.is_null().to_numpy(zero_copy_only=False)
            if col.null_count else np.zeros(n, bool))
    t = col.type
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        v = col.cast(pa.timestamp("us")).cast(pa.int64()).fill_null(0)
        return v.to_numpy(zero_copy_only=False).astype(np.int64), null, True
    if pa.types.is_integer(t):
        v = col.fill_null(0)
        return v.to_numpy(zero_copy_only=False).astype(np.int64), null, True
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return v, null | np.isnan(v), False


def broadcast_join(left, right: pa.Table, on, *, how: str = "inner",
                   rsuffix: str = "_r", **map_kwargs):
    """Equi-join a Dataset against a SMALL in-memory table without a
    shuffle: the right side ships once via ``ray.put`` and every batch
    probes it locally — the correct shape whenever one side fits a
    worker heap (dimension tables, lookup maps).  :func:`hash_join`
    runs this for an inner or left join whose right side reads at most
    ``_BROADCAST_BYTES``.  Composite keys via ``on`` as a list.

    Same output contract as :func:`hash_join` (right columns minus the
    key, collisions suffixed); inner or left.  Verification against the
    true key values uses the same rule as hash_join: non-integer or
    composite keys re-check equality, so hash collisions cannot leak
    wrong matches.
    """
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    on_cols = [on] if isinstance(on, str) else list(on)
    r_names = [n for n in right.column_names if n not in on_cols]

    # pre-hash + sort the small side once; ship (hash, row order) only
    rh = _combined_hash(right, on_cols)
    r_null = _null_any(right, on_cols, right.num_rows)
    rorder = np.argsort(rh, kind="stable")
    handle = ray.put((rh[rorder], rorder, r_null, right))
    needs_verify = len(on_cols) > 1 or not all(
        pa.types.is_integer(right.schema.field(c).type) for c in on_cols)
    # the probe closure must NOT reference `right` (it would cloudpickle
    # the whole table into the UDF alongside the ray.put copy); capture
    # only the per-column types the left-join null fill needs
    r_types = {rn: right.schema.field(rn).type for rn in r_names}

    def probe(batch: pa.Table) -> pa.Table:
        rh_sorted, rord, rnull, rtab = ray.get(handle)
        n = batch.num_rows
        lh = _combined_hash(batch, on_cols)
        lnull = _null_any(batch, on_cols, n)
        lo = np.searchsorted(rh_sorted, lh, side="left")
        hi = np.searchsorted(rh_sorted, lh, side="right")
        counts = np.where(lnull, 0, hi - lo)
        lidx = np.repeat(np.arange(n), counts)
        # candidate right rows per left row (usually 1)
        from ..codec.varint import ramp

        rpos = np.repeat(lo, counts) + ramp(counts)
        ridx = rord[rpos]
        keep = ~rnull[ridx]
        if needs_verify and len(lidx):
            ok = np.ones(len(lidx), bool)
            lt = batch.take(pa.array(lidx, pa.int64()))
            rt = rtab.take(pa.array(ridx, pa.int64()))
            for c in on_cols:
                import pyarrow.compute as pc

                eq = pc.equal(lt[c].combine_chunks(),
                              rt[c].combine_chunks())
                ok &= eq.fill_null(False).to_numpy(zero_copy_only=False)
            keep &= ok
        lidx, ridx = lidx[keep], ridx[keep]
        lt = batch.take(pa.array(lidx, pa.int64()))
        rt = rtab.take(pa.array(ridx, pa.int64()))
        cols = {nme: lt[nme] for nme in batch.column_names}
        for rn in r_names:
            orn = rn + rsuffix if rn in batch.column_names else rn
            cols[orn] = rt[rn]
        out = pa.table(cols)
        if how == "left":
            matched = np.zeros(n, bool)
            matched[lidx] = True
            miss = np.flatnonzero(~matched)
            if len(miss):
                lt2 = batch.take(pa.array(miss, pa.int64()))
                cols2 = {nme: lt2[nme] for nme in batch.column_names}
                for rn in r_names:
                    orn = rn + rsuffix if rn in batch.column_names else rn
                    cols2[orn] = pa.nulls(len(miss), r_types[rn])
                out = pa.concat_tables([out, pa.table(cols2)])
        return out

    return left.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True, **map_kwargs)


def interval_overlap_join(a, b, *, a_lo: str, a_hi: str, b_lo: str,
                          b_hi: str, bin_width: int,
                          nbuckets: int = 32, rsuffix: str = "_r",
                          a_schema: pa.Schema | None = None,
                          b_schema: pa.Schema | None = None,
                          **map_kwargs):
    """Interval x interval overlap join on CLOSED integer intervals:
    emit every (a, b) pair with ``a_lo <= b_hi AND b_lo <= a_hi``,
    exactly once (the 2-sided generalization of :func:`range_join`).

    Both sides fan out to every width-``bin_width`` bin they cover and
    co-group per bin; each overlapping pair is generated ONLY in the
    bin containing ``max(a_lo, b_lo)`` — its reference point — and the
    candidate searchsorted windows are pre-clipped to the bin, so
    exactly-once needs no post-filter and no dedup shuffle, and the
    per-bin work is output-proportional:

    * a pair with ``b_lo >= a_lo`` is found from the *a* side (b's
      start inside [a_lo, a_hi], a range query on sorted b_lo);
    * a pair with ``b_lo < a_lo`` is found from the *b* side (a's
      start inside (b_lo, b_hi], a range query on sorted a_lo);

    each case implies the other overlap inequality automatically.
    Endpoints must be integer-typed (exact arithmetic; the closed /
    half-open distinction never hinges on a float ulp).
    """
    from ..codec.varint import ramp
    from .exchange import grouped_exchange

    a_sch = a_schema if a_schema is not None else a.schema()
    b_sch = b_schema if b_schema is not None else b.schema()
    a_names = list(a_sch.names)
    b_names = list(b_sch.names)
    out_b_names = [n + rsuffix if n in a_names else n for n in b_names]
    a_types = dict(zip(a_sch.names, a_sch.types))
    b_types = dict(zip(b_sch.names, b_sch.types))
    w = int(bin_width)
    if w <= 0:
        raise ValueError("bin_width must be a positive integer")

    def stamp(lo_col, hi_col, side):
        def fn(batch: pa.Table) -> pa.Table:
            lov = batch[lo_col].to_numpy(zero_copy_only=False)
            hiv = batch[hi_col].to_numpy(zero_copy_only=False)
            if not (np.issubdtype(lov.dtype, np.integer)
                    and np.issubdtype(hiv.dtype, np.integer)):
                raise TypeError("interval_overlap_join needs integer "
                                f"endpoints, got {lov.dtype}/{hiv.dtype}")
            lov = lov.astype(np.int64)
            hiv = hiv.astype(np.int64)
            b0 = lov // w
            b1 = np.maximum(hiv // w, b0)
            cnt = b1 - b0 + 1
            rows = np.repeat(np.arange(batch.num_rows), cnt)
            bins = np.repeat(b0, cnt) + ramp(cnt)
            taken = batch.take(pa.array(rows, pa.int64()))
            cols = {}
            for n in a_names:
                cols[n] = (taken[n] if side == 0
                           else pa.nulls(len(rows), a_types[n]))
            for n, on_ in zip(b_names, out_b_names):
                cols[on_] = (taken[n] if side == 1
                             else pa.nulls(len(rows), b_types[n]))
            cols["__bin"] = pa.array(bins)
            cols["__side"] = pa.array(np.full(len(rows), side, np.int8))
            return pa.table(cols)
        return fn

    tagged = a.map_batches(stamp(a_lo, a_hi, 0), batch_format="pyarrow",
                           zero_copy_batch=True, **map_kwargs) \
        .union(b.map_batches(stamp(b_lo, b_hi, 1), batch_format="pyarrow",
                             zero_copy_batch=True, **map_kwargs))

    blo_out = b_lo + rsuffix if b_lo in a_names else b_lo
    bhi_out = b_hi + rsuffix if b_hi in a_names else b_hi
    out_schema = pa.schema(
        [(n, a_types[n]) for n in a_names]
        + [(on_, b_types[n]) for n, on_ in zip(b_names, out_b_names)])

    def join_bin(group: pa.Table) -> pa.Table:
        side = group["__side"].to_numpy(zero_copy_only=False)
        ia = np.flatnonzero(side == 0)
        ib = np.flatnonzero(side == 1)
        if len(ia) == 0 or len(ib) == 0:
            return out_schema.empty_table()
        bin_id = int(group["__bin"][0].as_py())
        bs, be = bin_id * w, bin_id * w + w - 1
        alo = group[a_lo].to_numpy(zero_copy_only=False)[ia] \
            .astype(np.int64)
        ahi = group[a_hi].to_numpy(zero_copy_only=False)[ia] \
            .astype(np.int64)
        blo = group[blo_out].to_numpy(zero_copy_only=False)[ib] \
            .astype(np.int64)
        bhi = group[bhi_out].to_numpy(zero_copy_only=False)[ib] \
            .astype(np.int64)
        ob = np.argsort(blo, kind="stable")
        blo_s = blo[ob]
        # pairs with b_lo >= a_lo: b starts inside [a_lo, a_hi],
        # clipped to this bin
        l1 = np.searchsorted(blo_s, np.maximum(alo, bs), side="left")
        r1 = np.searchsorted(blo_s, np.minimum(ahi, be), side="right")
        c1 = np.maximum(r1 - l1, 0)
        a1 = np.repeat(np.arange(len(ia)), c1)
        b1 = ob[np.repeat(l1, c1) + ramp(c1)]
        oa = np.argsort(alo, kind="stable")
        alo_s = alo[oa]
        # pairs with b_lo < a_lo: a starts inside (b_lo, b_hi],
        # clipped to this bin (two left/right bounds, no +1 overflow)
        l2 = np.maximum(np.searchsorted(alo_s, blo, side="right"),
                        np.searchsorted(alo_s, bs, side="left"))
        r2 = np.searchsorted(alo_s, np.minimum(bhi, be), side="right")
        c2 = np.maximum(r2 - l2, 0)
        b2 = np.repeat(np.arange(len(ib)), c2)
        a2 = oa[np.repeat(l2, c2) + ramp(c2)]
        ai = np.concatenate([a1, a2])
        bi = np.concatenate([b1, b2])
        atab = group.take(pa.array(ia[ai], pa.int64()))
        btab = group.take(pa.array(ib[bi], pa.int64()))
        cols = {n: atab[n] for n in a_names}
        for on_ in out_b_names:
            cols[on_] = btab[on_]
        return pa.table(cols)

    return grouped_exchange(tagged, "__bin", join_bin,
                            nbuckets=nbuckets, schema=out_schema)


def broadcast_range_join(points, intervals: pa.Table, *, value: str,
                         lo: str, hi: str, id_cols: list[str] | None = None,
                         **map_kwargs):
    """Point-in-interval join with a BROADCAST small side:
    :func:`range_join` runs this when its bounds are integers and its
    interval side reads at most ``_BROADCAST_BYTES``.  Intervals are
    half-open ``[lo, hi)`` integer ranges and MAY overlap; one with
    ``hi <= lo`` matches nothing, as does a NULL or NaN point value.  A
    float value matches where its floor does.

    The interval set flattens driver-side into elementary segments
    (sorted distinct endpoints) with a CSR list of covering interval
    ids per segment — built once, shipped once via ``ray.put``.  Each
    point batch is then ONE searchsorted + one ragged CSR window
    gather: output-proportional, no shuffle, no per-point loop.  Use
    when ``|intervals| x |overlap depth|`` fits a broadcast (the CSR is
    O(sum of per-interval segment spans), worst case O(B^2) for B
    fully-overlapping intervals); above that, ``range_join``'s bin
    fan-out co-group is the scale path.  An id column that a point
    batch also has raises ``ValueError`` in that batch's task.
    """
    import ray

    id_cols = list(id_cols) if id_cols is not None else \
        [c for c in intervals.schema.names if c not in (lo, hi)]
    lov = intervals[lo].to_numpy(zero_copy_only=False).astype(np.int64)
    hiv = intervals[hi].to_numpy(zero_copy_only=False).astype(np.int64)
    ends = np.unique(np.concatenate([lov, hiv]))
    # band covers elementary segment j = [ends[j], ends[j+1]) iff
    # lo <= ends[j] < hi
    s = np.searchsorted(ends, lov, side="left")
    e = np.searchsorted(ends, hiv, side="left")
    ln = np.maximum(e - s, 0)
    band_of = np.repeat(np.arange(len(lov), dtype=np.int64), ln)
    seg_of = (np.arange(int(ln.sum()), dtype=np.int64)
              - np.repeat(np.cumsum(ln) - ln, ln)
              + np.repeat(s, ln))
    order = np.argsort(seg_of, kind="stable")
    seg_sorted, band_sorted = seg_of[order], band_of[order]
    offs = np.zeros(len(ends) + 1, np.int64)
    np.add.at(offs, seg_sorted + 1, 1)
    offs = np.cumsum(offs)
    payload = ray.put((ends, offs, band_sorted,
                       {c: intervals[c].combine_chunks() for c in id_cols}))

    def lookup(batch: pa.Table) -> pa.Table:
        ends_, offs_, bands_, idc = ray.get(payload)
        clash = [c for c in id_cols if c in batch.schema.names]
        if clash:
            raise ValueError(
                f"interval id column(s) {clash} collide with point "
                "columns — rename one side (silent overwrite otherwise)")
        out_empty = {c: batch[c].slice(0, 0) for c in batch.schema.names}
        out_empty.update({c: idc[c].slice(0, 0) for c in id_cols})
        if batch.num_rows == 0:
            return pa.table(out_empty)
        v = batch[value].to_numpy(zero_copy_only=False)
        live = np.ones(len(v), bool)
        if v.dtype.kind == "f":  # NULL, NaN and |v| past int64: none
            live = (v >= -2.0 ** 63) & (v < 2.0 ** 63)
            v = np.floor(np.where(live, v, 0))
        p = v.astype(np.int64)
        j = np.searchsorted(ends_, p, side="right") - 1
        ok = live & (j >= 0) & (j < len(ends_) - 1)
        jj = np.where(ok, j, 0)
        a, b = offs_[jj], offs_[jj + 1]
        ln = np.where(ok, b - a, 0)
        tot = int(ln.sum())
        if tot == 0:
            return pa.table(out_empty)
        pi = np.repeat(np.arange(len(p), dtype=np.int64), ln)
        off = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(ln) - ln, ln)
        bi = bands_[np.repeat(a, ln) + off]
        out = {c: batch[c].combine_chunks().take(pa.array(pi))
               for c in batch.schema.names}
        for c in id_cols:
            out[c] = idc[c].take(pa.array(bi))
        return pa.table(out)

    return points.map_batches(lookup, batch_format="pyarrow",
                              zero_copy_batch=True, **map_kwargs)


def theta_join(left, right: pa.Table, predicate, *, how: str = "inner",
               rsuffix: str = "_r", chunk_cells: int = 1 << 18,
               **map_kwargs):
    """General-predicate (theta) join of a Dataset against a SMALL
    broadcast table — the physical join shape for conditions no
    equi/band/interval operator expresses (``<>``, multi-clause
    inequalities, arbitrary vectorized expressions).

    The right side ships ONCE via ``ray.put``; every left batch
    evaluates ``predicate`` over the candidate cross product in
    bounded chunks of at most ``chunk_cells`` pairs, so per-task
    memory is O(chunk_cells) regardless of batch size.  This is a
    broadcast NESTED-LOOP join: cost is |left| x |right| predicate
    evaluations by definition, which is exactly right when the right
    side is a handful of rule rows (tier tables, configuration bands)
    and wrong for two large sides — large x large non-equi conditions
    should compose a lossless prefilter (``range_join``,
    ``interval_overlap_join``, S2 covers) with a refine map instead.

    ``predicate(lt, rt)`` receives two pair-aligned ``pa.Table`` views
    (row i of each is candidate pair i) and returns a bool ndarray;
    it must be a pure vectorized function.  Output = left columns +
    right columns (collisions suffixed ``rsuffix``); ``how`` is
    ``inner`` or ``left`` (unmatched left rows null-extend the right
    columns, SQL LEFT JOIN ON <predicate> semantics).
    """
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    m = right.num_rows
    r_names = list(right.column_names)
    handle = ray.put(right)
    r_types = {rn: right.schema.field(rn).type for rn in r_names}

    def probe(batch: pa.Table) -> pa.Table:
        rtab = ray.get(handle)
        n = batch.num_rows
        l_names = batch.column_names
        out_r = [rn + rsuffix if rn in l_names else rn for rn in r_names]

        def emit(lidx: np.ndarray, ridx: np.ndarray) -> pa.Table:
            lt = batch.take(pa.array(lidx, pa.int64()))
            cols = {nme: lt[nme] for nme in l_names}
            for rn, orn in zip(r_names, out_r):
                cols[orn] = rtab[rn].take(pa.array(ridx, pa.int64()))
            return pa.table(cols)

        if n == 0 or m == 0:
            parts = [emit(np.empty(0, np.int64), np.empty(0, np.int64))]
            matched = np.zeros(n, bool)
        else:
            step = max(1, chunk_cells // m)
            parts, matched = [], np.zeros(n, bool)
            tile = np.tile(np.arange(m), step)
            for s in range(0, n, step):
                cl = min(step, n - s)
                lidx = s + np.repeat(np.arange(cl), m)
                ridx = tile[:cl * m]
                lt = batch.take(pa.array(lidx, pa.int64()))
                rt = rtab.take(pa.array(ridx, pa.int64()))
                ok = np.asarray(predicate(lt, rt), bool)
                if ok.shape != (cl * m,):
                    raise ValueError("theta_join: predicate returned "
                                     f"shape {ok.shape}, want {(cl*m,)}")
                keep = np.flatnonzero(ok)
                matched[lidx[keep]] = True
                parts.append(emit(lidx[keep], ridx[keep]))
        if how == "left":
            miss = np.flatnonzero(~matched)
            if len(miss):
                lt = batch.take(pa.array(miss, pa.int64()))
                cols = {nme: lt[nme] for nme in l_names}
                for rn, orn in zip(r_names, out_r):
                    cols[orn] = pa.nulls(len(miss), r_types[rn])
                parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return left.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True, **map_kwargs)


def _search(a: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(a, v, side)`` with the needles sorted first: a
    walk in order costs about a fifth of random probes into a large
    ``a``."""
    order = np.argsort(v, kind="stable")
    out = np.empty(len(v), np.int64)
    out[order] = np.searchsorted(a, v[order], side)
    return out


def broadcast_asof_join(left, right: pa.Table, on, *, left_time: str,
                        right_time: str, direction: str = "backward",
                        rsuffix: str = "_r", **map_kwargs):
    """As-of join against a SMALL in-memory right table, without a
    shuffle: :func:`asof_join` runs this when its right side reads at
    most ``_BROADCAST_BYTES``, and returns the same rows and columns
    either way (``direction``, ties, distances and NULLs follow
    :func:`asof_join`).

    The right side is sorted once on the driver by (key hash, time),
    each row keyed by ``key id * T + time rank`` over its T distinct
    times, and shipped once via ``ray.put``.  A left row then finds its
    match with one ``searchsorted`` on that key, so a batch costs
    O(batch log right) whatever the right side's size."""
    import ray

    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"unsupported direction={direction!r}")
    on_cols = [on] if isinstance(on, str) else list(on)
    n_r = right.num_rows
    tr, null_r, int_r = _time_axis(right[right_time], n_r)
    live = np.flatnonzero(~(null_r | _null_any(right, on_cols, n_r)))
    keys, key_id = np.unique(_combined_hash(right, on_cols)[live],
                             return_inverse=True)
    times, time_id = np.unique(tr[live], return_inverse=True)
    rank = key_id.astype(np.int64) * len(times) + time_id
    # stable: rows of one (key, time) keep their table order, and the
    # last of them matches, as in asof_join's kernel
    order = np.argsort(rank, kind="stable")
    rows, rank = live[order], rank[order]
    handle = ray.put((right, rows, keys, times, rank, tr[rows]))

    def probe(batch: pa.Table) -> pa.Table:
        rtab, rows, keys, times, rank, tr = ray.get(handle)
        n = batch.num_rows
        tl, null_l, int_l = _time_axis(batch[left_time], n)
        m = np.full(n, -1, np.int64)
        if len(rank) and n:
            if not (int_l and int_r):
                tl, tr, times = (tl.astype(np.float64), tr.astype(np.float64),
                                 times.astype(np.float64))
            h = _combined_hash(batch, on_cols)
            k = np.minimum(_search(keys, h, "left"), len(keys) - 1)
            ok_l = ~(null_l | _null_any(batch, on_cols, n)) & (keys[k] == h)
            base = k.astype(np.int64) * len(times)
            if direction != "forward":
                # the last row of the key at a time <= tl
                pb = _search(rank, base + _search(times, tl, "right") - 1,
                             "right") - 1
                okb = ok_l & (pb >= 0)
                pb = np.maximum(pb, 0)
                okb &= rank[pb] >= base
            if direction != "backward":
                # the first row of the key at a time >= tl, then the
                # last row at that time
                pf = _search(rank, base + _search(times, tl, "left"), "left")
                okf = ok_l & (pf < len(rank))
                pf = np.minimum(pf, len(rank) - 1)
                okf &= rank[pf] < base + len(times)
                pf = _search(rank, rank[pf], "right") - 1
            if direction == "backward":
                m = np.where(okb, pb, -1)
            elif direction == "forward":
                m = np.where(okf, pf, -1)
            else:  # nearest; ties prefer backward
                if int_l and int_r:  # exact uint64 distances
                    db = tl.view(np.uint64) - tr[pb].view(np.uint64)
                    df = tr[pf].view(np.uint64) - tl.view(np.uint64)
                else:
                    db = tl - tr[pb]
                    df = tr[pf] - tl
                m = np.where(okb & (~okf | (db <= df)), pb,
                             np.where(okf, pf, -1))
        hit = np.flatnonzero(m >= 0)
        ltab = batch.take(pa.array(hit, pa.int64()))
        rtake = rtab.take(pa.array(rows[m[hit]], pa.int64()))
        l_names = batch.column_names
        cols = {c: ltab[c] for c in l_names}
        for c in rtab.column_names:
            if c not in on_cols:
                cols[c + rsuffix if c in l_names else c] = rtake[c]
        return pa.table(cols)

    return left.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True, **map_kwargs)
