"""Raw-task hash exchange: the engine's shuffle primitive.

Ray Data's ``groupby(col).map_groups`` routes through the generic
sort-based shuffle: every block is boundary-sampled, sorted, range-
partitioned and merged — machinery for UNKNOWN key domains.  Our wide
operators (hash join, as-of join, cell co-group, dedup buckets)
already know their partitioning: an int bucket in ``[0, nbuckets)``
computed from a key hash.  For that shape the classic simple-shuffle
beats the sort shuffle by 2-3x measured here, and ships strictly less
data for co-grouped two-sided ops (the union+null-padding encoding a
two-sided co-group needs under ``groupby`` makes every left row carry
null right columns and vice versa).

This is the one documented place the engine drops below the Dataset
API to raw Ray tasks (the brief's case (c)): a shuffle's routing —
block fragment -> reduce task — is not expressible as a per-batch
transform.  Everything re-enters Ray Data via ``from_arrow_refs`` so
downstream stages stay streaming Dataset pipelines.

Shape::

    map:    for each input block (coalesced ``blocks_per_map`` at a
            time): bucket = hash(keys) % nbuckets; one argsort; return
            ``nbuckets`` contiguous slices  (num_returns=nbuckets)
    reduce: per bucket b: concat its fragments from every map task,
            apply ``reduce_fn`` -> one output block

Cost accounting at scale (the number that matters at 100 TB): the
exchange creates ``nmaps x nbuckets`` small objects.  Bound both
factors: ``blocks_per_map`` coalesces input blocks so
``nmaps ~ input_bytes / (blocks_per_map x block_size)``, and
``nbuckets`` should track ``data / target_partition_bytes``, not the
cluster size.  Past ~10^7 fragments, raise ``blocks_per_map`` or run
pass ``rounds=2`` to :func:`hash_exchange` (bucket high bits, then the
exact bucket id) — same primitive, composed.

Skew: the bucket key is a HASH of the join key, so hot single keys are
the only irreducible skew; salt at the caller (as `knn_cell_join` and
the LSH dedups do) by extending the key with a salt column.

Fault tolerance / resume: all fragments are plain Ray objects — a lost
reduce re-fetches its fragments via lineage, a lost map re-runs from
the (deterministic) upstream block, which is Ray Data's recovery
story for its own shuffle too.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import ray


def _to_table(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    import pandas as pd

    if isinstance(block, pd.DataFrame):
        return pa.Table.from_pandas(block, preserve_index=False)
    return pa.table(block)


@ray.remote
def _split_task(bucket_fn, nbuckets: int, *blocks):
    """Partition the concatenated blocks into ``nbuckets`` contiguous
    slices by bucket id.  ``bucket_fn(tbl) -> (int ndarray in
    [0, nbuckets), tbl)`` may also rewrite the table (fan-out: return a
    row-expanded table and one bucket per expanded row)."""
    tbls = [_to_table(b) for b in blocks]
    # a fully-filtered map_batches output can surface as a ZERO-COLUMN
    # empty block (Ray emits a schemaless RefBundle); concat would
    # erase every column and bucket_fn would KeyError on the key
    tbls = [t for t in tbls if t.num_columns > 0]
    if not tbls or all(t.num_rows == 0 for t in tbls):
        empty = (tbls[0] if tbls else pa.table({})).slice(0, 0)
        # num_returns=1 does NOT unpack a returned tuple: the single
        # ref must hold the table itself
        return empty if nbuckets == 1 else tuple(
            empty for _ in range(nbuckets))
    tbl = tbls[0] if len(tbls) == 1 else pa.concat_tables(
        tbls, promote_options="default")
    bucket, tbl = bucket_fn(tbl)
    if nbuckets == 1:
        return tbl.combine_chunks()
    order = np.argsort(bucket, kind="stable")
    tbl = tbl.take(pa.array(order, pa.int64()))
    bounds = np.searchsorted(bucket[order], np.arange(nbuckets + 1))
    # combine_chunks: each fragment must be self-contained so the
    # object store holds ONE copy of the block, not nbuckets references
    # pinning the whole parent buffer
    return tuple(
        tbl.slice(bounds[i], bounds[i + 1] - bounds[i]).combine_chunks()
        for i in range(nbuckets))


@ray.remote
def _reduce_one(reduce_fn, schema: pa.Schema | None, *parts):
    ts = [p for p in parts if p.num_rows]
    if ts:
        tbl = ts[0] if len(ts) == 1 else pa.concat_tables(
            ts, promote_options="default")
    else:
        tbl = (schema.empty_table() if schema is not None
               else parts[0] if parts else pa.table({}))
    return reduce_fn(tbl) if reduce_fn is not None else tbl


@ray.remote
def _reduce_two(reduce_fn, lschema: pa.Schema | None,
                rschema: pa.Schema | None, nl: int, *parts):
    def cat(ps, schema):
        ts = [p for p in ps if p.num_rows]
        if ts:
            return ts[0] if len(ts) == 1 else pa.concat_tables(
                ts, promote_options="default")
        if schema is not None:
            return schema.empty_table()
        return ps[0] if ps else pa.table({})

    return reduce_fn(cat(parts[:nl], lschema), cat(parts[nl:], rschema))


def _drive_splits(ds, bucket_fn, nbuckets: int, blocks_per_map: int,
                  remote_args: dict) -> list:
    """Launch one split task per ``blocks_per_map`` input blocks,
    streaming: upstream stages execute with backpressure while we
    launch; the only barrier is the reduce (inherent to any shuffle)."""
    split = _split_task.options(num_returns=nbuckets, **remote_args)

    def launch(blocks):
        res = split.remote(bucket_fn, nbuckets, *blocks)
        # num_returns=1 hands back a bare ObjectRef, not a list
        return (res,) if nbuckets == 1 else res

    maps, pend = [], []
    for bundle in ds.iter_internal_ref_bundles():
        for bref, _meta in bundle.blocks:
            pend.append(bref)
            if len(pend) >= blocks_per_map:
                maps.append(launch(pend))
                pend = []
    if pend:
        maps.append(launch(pend))
    return maps


def key_bucket_fn(cols: list[str] | str, nbuckets: int):
    """Standard bucket fn: 64-bit combined hash of key columns, mod
    ``nbuckets`` (rows with NULL keys still land in a bucket — key-null
    semantics are the reduce kernel's business)."""
    from .join import _combined_hash

    cols = [cols] if isinstance(cols, str) else list(cols)

    def fn(tbl: pa.Table):
        h = (_combined_hash(tbl, cols) % np.uint64(nbuckets))
        return h.astype(np.int64), tbl

    return fn


def hash_exchange(ds, *, nbuckets: int, bucket_fn=None, on=None,
                  reduce_fn=None, schema: pa.Schema | None = None,
                  blocks_per_map: int = 4, map_remote_args: dict | None = None,
                  reduce_remote_args: dict | None = None,
                  rounds: int = 1):
    """Exchange ``ds`` so all rows of one bucket land in one output
    block, then apply ``reduce_fn(table) -> table`` per bucket.

    Pass either ``on`` (key column name(s); bucket = hash % nbuckets)
    or an explicit ``bucket_fn(tbl) -> (bucket ndarray, tbl)`` for
    fan-out / custom routing.  Returns a Ray ``Dataset`` of the reduce
    outputs (``nbuckets`` blocks).

    ``rounds=2`` composes the exchange with itself for the
    >10^7-fragment regime: round 1 routes by the bucket id's HIGH part
    into ~sqrt(nbuckets) coarse groups (plain concat, no reduce),
    round 2 routes the coarse blocks by the exact bucket id and runs
    ``reduce_fn``.  The bucket id is computed ONCE (round 1 stows it
    in a ``__bucket__`` column — a fan-out bucket_fn must not run
    twice) and fragment count drops from ``nmaps x nbuckets`` to
    ``nmaps x n1 + ceil(n1 / blocks_per_map) x nbuckets``.  Each
    bucket holds the same set of rows as under the single-round
    exchange, but not necessarily in the same order, so under
    ``rounds=2`` ``reduce_fn`` must not depend on row order within a
    bucket.  Output blocks stay in bucket order.
    """
    if bucket_fn is None:
        if on is None:
            raise ValueError("need bucket_fn or on=")
        bucket_fn = key_bucket_fn(on, nbuckets)
    if rounds > 1:
        n1 = max(1, int(np.ceil(np.sqrt(nbuckets))))
        fan = -(-nbuckets // n1)  # final buckets per coarse group

        def coarse_fn(tbl: pa.Table):
            b, t = bucket_fn(tbl)
            if "__bucket__" in t.column_names:
                raise ValueError(
                    "rounds=2 reserves the '__bucket__' column name; "
                    "rename the caller's column")
            t = t.append_column("__bucket__", pa.array(b, pa.int64()))
            return b // fan, t

        inter = hash_exchange(
            ds, nbuckets=n1, bucket_fn=coarse_fn, reduce_fn=None,
            blocks_per_map=blocks_per_map,
            map_remote_args=map_remote_args,
            reduce_remote_args=reduce_remote_args)

        def fine_fn(tbl: pa.Table):
            b = tbl["__bucket__"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return b, tbl

        def strip_reduce(tbl: pa.Table) -> pa.Table:
            if "__bucket__" in tbl.column_names:
                tbl = tbl.drop_columns(["__bucket__"])
            return reduce_fn(tbl) if reduce_fn is not None else tbl

        return hash_exchange(
            inter, nbuckets=nbuckets, bucket_fn=fine_fn,
            reduce_fn=strip_reduce, schema=schema,
            blocks_per_map=blocks_per_map,
            map_remote_args=map_remote_args,
            reduce_remote_args=reduce_remote_args)
    maps = _drive_splits(ds, bucket_fn, nbuckets, blocks_per_map,
                         map_remote_args or {})
    red = _reduce_one.options(**(reduce_remote_args or {}))
    outs = [red.remote(reduce_fn, schema, *[m[b] for m in maps])
            for b in range(nbuckets)]
    return ray.data.from_arrow_refs(outs)


def hash_cogroup(left, right, *, nbuckets: int, reduce_fn,
                 left_on=None, right_on=None,
                 left_bucket_fn=None, right_bucket_fn=None,
                 left_schema: pa.Schema | None = None,
                 right_schema: pa.Schema | None = None,
                 blocks_per_map: int = 4,
                 map_remote_args: dict | None = None,
                 reduce_remote_args: dict | None = None):
    """Two-sided exchange: co-locate equal buckets of ``left`` and
    ``right`` and apply ``reduce_fn(left_tbl, right_tbl) -> table`` per
    bucket.  Each side ships only its own columns (no union padding).

    The two sides' upstream pipelines execute CONCURRENTLY (driven from
    two threads — ``iter_internal_ref_bundles`` would otherwise
    serialize read+map of right behind left).
    """
    if left_bucket_fn is None:
        left_bucket_fn = key_bucket_fn(left_on, nbuckets)
    if right_bucket_fn is None:
        right_bucket_fn = key_bucket_fn(right_on, nbuckets)
    margs = map_remote_args or {}
    with ThreadPoolExecutor(max_workers=2) as ex:
        fl = ex.submit(_drive_splits, left, left_bucket_fn, nbuckets,
                       blocks_per_map, margs)
        fr = ex.submit(_drive_splits, right, right_bucket_fn, nbuckets,
                       blocks_per_map, margs)
        lmaps, rmaps = fl.result(), fr.result()
    red = _reduce_two.options(**(reduce_remote_args or {}))
    outs = [red.remote(reduce_fn, left_schema, right_schema, len(lmaps),
                       *[m[b] for m in lmaps], *[m[b] for m in rmaps])
            for b in range(nbuckets)]
    return ray.data.from_arrow_refs(outs)


def presplit(ds, *, nbuckets: int, on=None, bucket_fn=None,
             blocks_per_map: int = 4, map_remote_args: dict | None = None):
    """Bucket a Dataset ONCE and return the per-map bucket refs for
    reuse across several :func:`cogroup_presplit` calls — the shape an
    iterative algorithm needs when one side (e.g. a static edge set)
    is re-co-grouped every round: hashing + shipping it once instead
    of once per round."""
    if bucket_fn is None:
        if on is None:
            raise ValueError("need bucket_fn or on=")
        bucket_fn = key_bucket_fn(on, nbuckets)
    return _drive_splits(ds, bucket_fn, nbuckets, blocks_per_map,
                         map_remote_args or {})


def cogroup_presplit(lmaps, right, *, nbuckets: int, reduce_fn,
                     right_on=None, right_bucket_fn=None,
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None,
                     blocks_per_map: int = 4,
                     map_remote_args: dict | None = None,
                     reduce_remote_args: dict | None = None):
    """Co-group an already-:func:`presplit` left side with a fresh
    right Dataset (same ``nbuckets`` as the presplit)."""
    if right_bucket_fn is None:
        right_bucket_fn = key_bucket_fn(right_on, nbuckets)
    rmaps = _drive_splits(right, right_bucket_fn, nbuckets,
                          blocks_per_map, map_remote_args or {})
    red = _reduce_two.options(**(reduce_remote_args or {}))
    outs = [red.remote(reduce_fn, left_schema, right_schema, len(lmaps),
                       *[m[b] for m in lmaps], *[m[b] for m in rmaps])
            for b in range(nbuckets)]
    return ray.data.from_arrow_refs(outs)


def grouped_exchange(ds, keys, group_fn, *, nbuckets: int,
                     schema: pa.Schema | None = None,
                     blocks_per_map: int = 4,
                     map_remote_args: dict | None = None,
                     reduce_remote_args: dict | None = None,
                     rounds: int = 1):
    """``groupby(keys).map_groups(group_fn)`` on the raw-task hash
    exchange: rows co-locate by ``hash(keys) % nbuckets`` (no
    distributed SORT — Ray's groupby pays a full range-sort shuffle),
    then each bucket lexsorts locally and applies ``group_fn`` to every
    (keys) segment.  Drop-in for kernels written against map_groups;
    group sizes and contents are identical, only the group-to-block
    placement differs.
    """
    import numpy as np

    key_list = [keys] if isinstance(keys, str) else list(keys)

    def kernel(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        if n == 0 or tbl.num_columns == 0:
            # map_groups parity: group_fn NEVER sees an empty group
            # (an empty bucket yields a zero-row block; a zero-column
            # one arises when every input block was a schemaless
            # filtered-out batch)
            return (schema.empty_table() if schema is not None
                    else pa.table({}))
        cols = []
        for c in key_list:
            col = tbl[c].combine_chunks()
            if (not (pa.types.is_integer(col.type)
                     or pa.types.is_unsigned_integer(col.type))
                    or col.null_count):
                # dictionary codes are >= 0, so -1 is an unambiguous
                # NULL marker; filling an INT column's nulls with a
                # literal -1 would merge NULL with genuine -1 keys
                col = col.dictionary_encode().indices.fill_null(-1)
            cols.append(col.to_numpy(zero_copy_only=False).astype(np.int64))
        order = np.lexsort(tuple(reversed(cols)))
        sorted_tbl = tbl.take(pa.array(order, pa.int64()))
        ks = np.stack([c[order] for c in cols])
        change = np.zeros(n, bool)
        change[0] = True
        for row in ks:
            change[1:] |= row[1:] != row[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        outs = []
        for s, e in zip(starts, ends):
            outs.append(group_fn(sorted_tbl.slice(s, e - s)))
        outs = [o for o in outs if o.num_rows] or outs[:1]
        return pa.concat_tables(outs, promote_options="default")

    return hash_exchange(ds, nbuckets=nbuckets, on=key_list,
                         reduce_fn=kernel, schema=schema,
                         blocks_per_map=blocks_per_map,
                         map_remote_args=map_remote_args,
                         reduce_remote_args=reduce_remote_args,
                         rounds=rounds)
