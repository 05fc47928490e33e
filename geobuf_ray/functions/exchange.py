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

    map:    for each input block (coalesced ``_BLOCKS_PER_MAP`` at a
            time): bucket = hash(keys) % nbuckets; one argsort; return
            ``nbuckets`` contiguous slices  (num_returns=nbuckets)
    reduce: per bucket b: concat its fragments from every map task of
            every side, apply ``reduce_fn`` -> one output block

Every public exchange runs these same two steps (``_drive_splits``,
then ``_reduce``); they differ only in how many sides they split, and
:func:`presplit` stops after the split.

Cost accounting at scale (the number that matters at 100 TB): the
exchange creates ``nmaps x nbuckets`` small objects.  Bound both
factors: ``_BLOCKS_PER_MAP`` coalesces input blocks so
``nmaps ~ input_bytes / (_BLOCKS_PER_MAP x block_size)``, and
``nbuckets`` tracks the data, not the cluster size: called without it,
an exchange sums its input blocks' metadata ``size_bytes`` (both sides
for a co-group; no data moves, and at most the cap ``_MAX_BUCKETS x
_BUCKET_BYTES`` of refs per side is held) and takes ``clamp(ceil(bytes
/ _BUCKET_BYTES), 1, _MAX_BUCKETS)`` buckets, so each carries enough
bytes to cover its task's fixed cost.  The keyed aggregate, window,
sample, join and set operators take no count; ``on=[]`` (one group)
gets one bucket.  A count stays explicit where bytes do not decide it:
``nbuckets=1`` for a keyless step; a custom ``bucket_fn``; layouts
reused across rounds (:func:`presplit`, :func:`cogroup_presplit`, the
graph operators); and the S2 joins, image stitch and point builds,
whose reduce cost follows pair counts.  Past ~10^7 fragments, pass
``rounds=2`` to :func:`hash_exchange` (bucket high bits, then the exact
bucket id) — same primitive, composed.

Skew: the bucket key is a HASH of the join key, so hot single keys are
the only irreducible skew; salt at the caller (as `knn_s2_join` and
the LSH dedups do) by extending the key with a salt column.

Fault tolerance / resume: all fragments are plain Ray objects — a lost
reduce re-fetches its fragments via lineage, a lost map re-runs from
the (deterministic) upstream block, which is Ray Data's recovery
story for its own shuffle too.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import ray

# input blocks coalesced into one split task: nmaps ~ nblocks / this
_BLOCKS_PER_MAP = 4
# a self-sized exchange gives each bucket about this many input bytes:
# at 1 MiB a bucket's frame-and-write work about equals its task cost
_BUCKET_BYTES = 1 << 20
# and never more buckets than this
_MAX_BUCKETS = 64


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
def _reduce_task(reduce_fn, schemas, sizes, *parts):
    """Concatenate each side's fragments (``sizes[i]`` consecutive
    ``parts`` for side ``i``) and apply ``reduce_fn(*sides)``; with no
    ``reduce_fn`` the one side is the output.  An empty side becomes
    its schema's empty table."""
    sides, i = [], 0
    for schema, n in zip(schemas, sizes):
        ps, i = parts[i:i + n], i + n
        ts = [p for p in ps if p.num_rows]
        if ts:
            sides.append(ts[0] if len(ts) == 1 else pa.concat_tables(
                ts, promote_options="default"))
        elif schema is not None:
            sides.append(schema.empty_table())
        else:
            sides.append(ps[0] if ps else pa.table({}))
    return reduce_fn(*sides) if reduce_fn is not None else sides[0]


def _bundles(ds):
    """``ds``'s ref bundles, lazily: the Dataset starts executing when
    the first bundle is pulled, not when this is called."""
    yield from ds.iter_internal_ref_bundles()


def _drive_splits(bundles, bucket_fn, nbuckets: int) -> list:
    """Launch one split task per ``_BLOCKS_PER_MAP`` blocks of
    ``bundles`` (from :func:`_bundles`), streaming: upstream stages
    execute with backpressure while we launch; the only barrier is the
    reduce (inherent to any shuffle).  Returns one sequence of
    ``nbuckets`` refs per split task."""
    split = _split_task.options(num_returns=nbuckets)

    def launch(blocks):
        res = split.remote(bucket_fn, nbuckets, *blocks)
        # num_returns=1 hands back a bare ObjectRef, not a list
        return (res,) if nbuckets == 1 else res

    maps, pend = [], []
    for bundle in bundles:
        for bref, _meta in bundle.blocks:
            pend.append(bref)
            if len(pend) >= _BLOCKS_PER_MAP:
                maps.append(launch(pend))
                pend = []
    if pend:
        maps.append(launch(pend))
    return maps


def _read_bytes(bundles):
    """``(nbytes, bundles)``: metadata ``size_bytes`` summed until the
    cap or the input's end (a block with no size counts as the cap);
    ``bundles`` replays the ones read, then the rest."""
    cap = _MAX_BUCKETS * _BUCKET_BYTES
    bundles = iter(bundles)
    held, total = [], 0
    for bundle in bundles:
        held.append(bundle)
        for _, meta in bundle.blocks:
            size = meta.size_bytes
            total = cap if size is None else total + size
        if total >= cap:
            break
    return total, itertools.chain(held, bundles)


def _bucket_count(nbytes: int) -> int:
    return min(_MAX_BUCKETS, max(1, -(-nbytes // _BUCKET_BYTES)))


def _size_buckets(bundles):
    """One input's self-sized ``(nbuckets, bundles)``."""
    nbytes, bundles = _read_bytes(bundles)
    return _bucket_count(nbytes), bundles


def _reduce(reduce_fn, nbuckets: int, sides):
    """Start one reduce task per bucket over ``sides``, a list of
    ``(maps, schema)`` pairs (``maps`` from :func:`_drive_splits`)."""
    schemas = [schema for _, schema in sides]
    sizes = [len(maps) for maps, _ in sides]
    outs = [_reduce_task.remote(reduce_fn, schemas, sizes,
                                *[m[b] for maps, _ in sides for m in maps])
            for b in range(nbuckets)]
    return ray.data.from_arrow_refs(outs)


def _zero_bucket(tbl: pa.Table):
    return np.zeros(tbl.num_rows, np.int64), tbl


def _resolve_bucket_fn(on, bucket_fn, nbuckets: int):
    """``bucket_fn`` if given, else hash ``on`` into ``nbuckets``; one
    bucket needs no hash and no key (every row goes to bucket 0)."""
    if bucket_fn is not None:
        return bucket_fn
    if nbuckets == 1:
        return _zero_bucket
    if on is not None:
        return key_bucket_fn(on, nbuckets)
    raise ValueError("need bucket_fn or on=")


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


def hash_exchange(ds, *, nbuckets: int | None = None, bucket_fn=None,
                  on=None, reduce_fn=None, schema: pa.Schema | None = None,
                  rounds: int = 1):
    """Exchange ``ds`` so all rows of one bucket land in one output
    block, then apply ``reduce_fn(table) -> table`` per bucket.

    Pass either ``on`` (key column name(s); bucket = hash % nbuckets)
    or an explicit ``bucket_fn(tbl) -> (bucket ndarray, tbl)`` for
    fan-out / custom routing; with ``nbuckets=1`` both may be omitted.
    Without ``nbuckets`` a keyed (``on``) exchange sizes itself (see the
    module docstring); a custom ``bucket_fn`` needs an explicit count.
    Returns a Ray ``Dataset`` of the reduce outputs, one block per
    bucket (``nbuckets`` blocks, or the self-sized count).

    ``rounds=2`` composes the exchange with itself for the
    >10^7-fragment regime: round 1 routes by the bucket id's HIGH part
    into ~sqrt(nbuckets) coarse groups (plain concat, no reduce),
    round 2 routes the coarse blocks by the exact bucket id and runs
    ``reduce_fn``.  The bucket id is computed ONCE (round 1 stows it
    in a ``__bucket__`` column — a fan-out bucket_fn must not run
    twice) and fragment count drops from ``nmaps x nbuckets`` to
    ``nmaps x n1 + ceil(n1 / _BLOCKS_PER_MAP) x nbuckets``.  Each
    bucket holds the same set of rows as under the single-round
    exchange, but not necessarily in the same order, so under
    ``rounds=2`` ``reduce_fn`` must not depend on row order within a
    bucket.  Output blocks stay in bucket order.
    """
    if nbuckets is None and (bucket_fn is not None or on is None):
        raise ValueError("an exchange without nbuckets sizes itself and "
                         "needs on=; a custom bucket_fn needs nbuckets")
    bundles = _bundles(ds)
    if nbuckets is None:
        # an empty key list is one group: nothing to hash, one bucket
        nbuckets, bundles = (_size_buckets(bundles) if len(on)
                             else (1, bundles))
    bucket_fn = _resolve_bucket_fn(on, bucket_fn, nbuckets)
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

        inter = _reduce(None, n1,
                        [(_drive_splits(bundles, coarse_fn, n1), None)])

        def fine_fn(tbl: pa.Table):
            b = tbl["__bucket__"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return b, tbl

        def strip_reduce(tbl: pa.Table) -> pa.Table:
            if "__bucket__" in tbl.column_names:
                tbl = tbl.drop_columns(["__bucket__"])
            return reduce_fn(tbl) if reduce_fn is not None else tbl

        return hash_exchange(inter, nbuckets=nbuckets, bucket_fn=fine_fn,
                             reduce_fn=strip_reduce, schema=schema)
    maps = _drive_splits(bundles, bucket_fn, nbuckets)
    return _reduce(reduce_fn, nbuckets, [(maps, schema)])


def hash_cogroup(left, right, *, reduce_fn, nbuckets: int | None = None,
                 left_on=None, right_on=None,
                 left_bucket_fn=None, right_bucket_fn=None,
                 left_schema: pa.Schema | None = None,
                 right_schema: pa.Schema | None = None):
    """Two-sided exchange: co-locate equal buckets of ``left`` and
    ``right`` and apply ``reduce_fn(left_tbl, right_tbl) -> table`` per
    bucket.  Each side ships only its own columns (no union padding).
    Without ``nbuckets`` a keyed co-group (``left_on`` and ``right_on``)
    sizes itself from both inputs' bytes L and R:
    ``clamp(ceil((L + R) / _BUCKET_BYTES), 1, _MAX_BUCKETS)``.

    The two sides' upstream pipelines execute CONCURRENTLY (sized and
    driven from two threads — ``iter_internal_ref_bundles`` would
    otherwise serialize read+map of right behind left).
    """
    if nbuckets is None and (left_on is None or right_on is None
                             or left_bucket_fn or right_bucket_fn):
        raise ValueError("a self-sized co-group (no nbuckets) needs "
                         "left_on= and right_on=, not a bucket_fn")
    return _cogroup(left, right, lambda n: (
        n, _resolve_bucket_fn(left_on, left_bucket_fn, n),
        _resolve_bucket_fn(right_on, right_bucket_fn, n)),
        reduce_fn, left_schema, right_schema, nbuckets)


def _keyed_route(left_on, right_on):
    """The ``route`` of a co-group keyed by ``left_on`` / ``right_on``."""
    return lambda n: (n, _resolve_bucket_fn(left_on, None, n),
                      _resolve_bucket_fn(right_on, None, n))


def _sized(side):
    """A co-group side's ``(nbytes, bundles)``: a Dataset is read here,
    a pair that :func:`_read_bytes` already returned passes through."""
    return side if isinstance(side, tuple) else _read_bytes(_bundles(side))


def _cogroup(left, right, route, reduce_fn, left_schema, right_schema,
             nbuckets: int | None = None):
    """:func:`hash_cogroup` with ``route(nbuckets) -> (total, left_fn,
    right_fn)`` building the routing once the count is known; ``total``
    may exceed it (a salted join appends its hot-key buckets).  Without
    ``nbuckets`` either side may be the ``(nbytes, bundles)`` that
    :func:`_read_bytes` returned for it (a join reads its build side
    first to choose broadcast or shuffle); its bundles replay here."""
    with ThreadPoolExecutor(max_workers=2) as ex:
        if nbuckets is None:
            sized = list(ex.map(_sized, (left, right)))
            nbuckets = _bucket_count(sum(nbytes for nbytes, _ in sized))
            sides = [bundles for _, bundles in sized]
        else:
            sides = [_bundles(left), _bundles(right)]
        total, left_fn, right_fn = route(nbuckets)
        fl = ex.submit(_drive_splits, sides[0], left_fn, total)
        fr = ex.submit(_drive_splits, sides[1], right_fn, total)
        lmaps, rmaps = fl.result(), fr.result()
    return _reduce(reduce_fn, total,
                   [(lmaps, left_schema), (rmaps, right_schema)])


def presplit(ds, *, nbuckets: int, on=None, bucket_fn=None):
    """Bucket a Dataset ONCE and return the per-map bucket refs for
    reuse across several :func:`cogroup_presplit` calls — the shape an
    iterative algorithm needs when one side (e.g. a static edge set)
    is re-co-grouped every round: hashing + shipping it once instead
    of once per round."""
    return _drive_splits(_bundles(ds),
                         _resolve_bucket_fn(on, bucket_fn, nbuckets),
                         nbuckets)


def cogroup_presplit(lmaps, right, *, nbuckets: int, reduce_fn,
                     right_on=None, right_bucket_fn=None,
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None):
    """Co-group an already-:func:`presplit` left side with a fresh
    right Dataset (same ``nbuckets`` as the presplit)."""
    rmaps = _drive_splits(
        _bundles(right),
        _resolve_bucket_fn(right_on, right_bucket_fn, nbuckets), nbuckets)
    return _reduce(reduce_fn, nbuckets,
                   [(lmaps, left_schema), (rmaps, right_schema)])


def grouped_exchange(ds, keys, group_fn, *, nbuckets: int | None = None,
                     schema: pa.Schema | None = None, rounds: int = 1):
    """``groupby(keys).map_groups(group_fn)`` on the raw-task hash
    exchange: rows co-locate by ``hash(keys) % nbuckets`` (no
    distributed SORT — Ray's groupby pays a full range-sort shuffle),
    then each bucket lexsorts locally and applies ``group_fn`` to every
    (keys) segment.  Drop-in for kernels written against map_groups;
    group sizes and contents are identical, only the group-to-block
    placement differs.  Without ``nbuckets`` the count is sized from
    the input's bytes (see :func:`hash_exchange`); the result has one
    block per bucket.
    """
    key_list = [keys] if isinstance(keys, str) else list(keys)
    return hash_exchange(ds, nbuckets=nbuckets, on=key_list,
                         reduce_fn=_group_kernel(key_list, group_fn, schema),
                         schema=schema, rounds=rounds)


def _group_kernel(key_list: list[str], group_fn, schema):
    """A reduce function applying ``group_fn`` to every ``key_list``
    segment of its bucket, as :func:`grouped_exchange` does."""

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

    return kernel
