"""Bloom-filter semi-join prefilter.

The 100 TB join pattern the generic ``semi_join`` can't give you: when
the probe side is selective (urgent orders among all orders) but the
big side is huge, the exchange still ships EVERY big-side row to its
bucket just to drop most of them there.  A Bloom filter built from the
probe keys and broadcast once (``ray.put``) lets every big-side block
drop non-members BEFORE the shuffle — the exchange then carries only
plausible matches (true matches + the filter's false-positive rate),
and the exact :func:`~geobuf_ray.functions.join.semi_join` downstream
removes the false positives, so results stay EXACT.

Build shape: each block sets its keys' bits in a private bitset (one
``np.bitwise_or.at`` scatter), blocks emit one bitset row each, and a
two-level OR-reduce (hash exchange on block index, then a driver OR of
the few reduced rows) assembles the final filter — the driver never
holds more than ``levels x nbits/8`` bytes.  With the default
``nbits=2**23`` (1 MiB) and ``k=7`` the false-positive rate at one
million distinct probe keys is ~0.1%.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _positions(h: np.ndarray, nbits: int, k: int) -> np.ndarray:
    """(k, n) bit positions via double hashing; ``nbits`` must be a
    power of two."""
    h1 = h
    x = (h ^ (h >> np.uint64(31))) * _GOLD
    h2 = (x ^ (x >> np.uint64(29))) | np.uint64(1)  # odd -> full cycle
    j = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + j * h2[None, :])
            & np.uint64(nbits - 1)).astype(np.int64)


def _key_hashes(tbl: pa.Table, on_cols: list[str]) -> np.ndarray:
    from .join import _combined_hash

    return _combined_hash(tbl, on_cols)


def bloom_build(ds, on, *, nbits: int = 1 << 23, k: int = 7,
                nreduce: int = 8) -> np.ndarray:
    """Build one Bloom bitset (``uint64[nbits/64]``) over the key
    column(s) of ``ds``.  Distributed: per-block scatter + OR-reduce;
    the only thing that ever centralizes is ``nreduce`` bitsets."""
    if nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two")
    on_cols = [on] if isinstance(on, str) else list(on)
    nwords = nbits // 64

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.table({"bits": pa.array([], pa.large_binary())})
        h = np.unique(_key_hashes(batch, on_cols))
        pos = _positions(h, nbits, k).ravel()
        bits = np.zeros(nwords, np.uint64)
        np.bitwise_or.at(bits, pos >> 6,
                         np.uint64(1) << (pos.astype(np.uint64)
                                          & np.uint64(63)))
        return pa.table({"bits": pa.array([bits.tobytes()],
                                          pa.large_binary())})

    def or_reduce(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0 or tbl.num_columns == 0:
            return pa.table({"bits": pa.array([], pa.large_binary())})
        acc = np.zeros(nwords, np.uint64)
        for buf in tbl["bits"].to_pylist():
            acc |= np.frombuffer(buf, np.uint64)
        return pa.table({"bits": pa.array([acc.tobytes()],
                                          pa.large_binary())})

    parts = ds.select_columns(on_cols).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)

    from .exchange import hash_exchange

    def spread(t: pa.Table):
        return np.arange(t.num_rows, dtype=np.int64) % nreduce, t

    reduced = hash_exchange(parts, nbuckets=nreduce, bucket_fn=spread,
                            reduce_fn=or_reduce,
                            schema=pa.schema([("bits", pa.large_binary())]))
    acc = np.zeros(nwords, np.uint64)
    for row in reduced.take_all():
        acc |= np.frombuffer(row["bits"], np.uint64)
    return acc


def bloom_contains(tbl: pa.Table, on_cols: list[str], bits: np.ndarray,
                   *, k: int = 7) -> np.ndarray:
    """Vectorized membership test: True where ALL k bits are set (no
    false negatives; false positives at the filter's design rate)."""
    nbits = len(bits) * 64
    h = _key_hashes(tbl, on_cols)
    pos = _positions(h, nbits, k)
    words = bits[pos >> 6]
    hit = (words >> (pos.astype(np.uint64) & np.uint64(63))) \
        & np.uint64(1)
    return hit.all(axis=0)


def bloom_prefilter(ds, on, bits_ref, *, k: int = 7,
                    schema: pa.Schema | None = None):
    """Drop rows whose key is definitely NOT in the broadcast filter
    (``bits_ref`` = ``ray.put`` of a :func:`bloom_build` bitset).
    Exact-superset output: every true member survives."""
    import ray

    on_cols = [on] if isinstance(on, str) else list(on)
    out_schema = schema if schema is not None else pa.schema(
        list(zip(ds.schema().names, ds.schema().types)))

    def keep(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        bits = ray.get(bits_ref) if isinstance(
            bits_ref, ray.ObjectRef) else bits_ref
        return batch.filter(pa.array(
            bloom_contains(batch, on_cols, bits, k=k)))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def bloom_semi_join(left, right, on, *, right_on=None,
                    nbits: int = 1 << 23, k: int = 7,
                    left_schema: pa.Schema | None = None):
    """EXACT semi-join with a Bloom prefilter on the left (big) side:
    build the filter from the right keys, broadcast it once, drop
    non-member left rows before the exchange, then run the exact
    :func:`~geobuf_ray.functions.join.semi_join` on the survivors.
    Same result as ``semi_join`` (the exact pass kills the Bloom's
    false positives); the exchange ships only plausible matches."""
    import ray

    from .join import semi_join

    on_cols = [on] if isinstance(on, str) else list(on)
    r_cols = on_cols if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    bits = bloom_build(right, r_cols, nbits=nbits, k=k)
    bits_ref = ray.put(bits)
    pre = bloom_prefilter(left, on_cols, bits_ref, k=k,
                          schema=left_schema)
    return semi_join(pre, right, on_cols, right_on=r_cols,
                     left_schema=left_schema)
