"""MERGE INTO for a hash-keyed parquet layout — incremental upsert
maintenance with partition pruning (the lakehouse CDC-apply shape).

A *keyed layout* is a directory of ``part-<i>.parquet`` files where a
row lives in partition ``hash(key) % npartitions`` (the join family's
64-bit mix, pinned in ``meta.json`` so every later merge routes
identically).  Applying a delta then touches ONLY the partitions that
received delta rows: each is read, upserted (latest ``version`` wins,
delta beats base on ties), and atomically replaced via tmp + rename —
every other partition file is left byte-identical, which is what makes
a 100 TB table maintainable by small CDC batches.  The per-partition
rewrite is a raw Ray task (a deliberate Dataset-API exception: the
unit of work is a FILE swap keyed by partition id, not a record
transform — the same justification as the split-combine subfile
writers, SURVEY §2.4 T1).

Two write paths, the Iceberg/Delta pair:

- **copy-on-write** (:func:`merge_into`): each touched partition is
  read, upserted, rewritten — reads stay plain parquet scans.
- **merge-on-read** (:func:`append_delta`): the delta lands as an
  O(delta) ``delta-<part>-<seq>.parquet`` file per touched partition
  with NO base read; :func:`read_keyed_layout` resolves latest-wins
  (version, then append order — base is seq 0) at scan time until
  :func:`compact_keyed_layout` folds deltas back into the base.
  Mixing paths is refused while deltas are pending (tie order would
  be ambiguous): compact first.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..functions.join import _key_hash


def _part_ids(tbl: pa.Table, key: str, nparts: int) -> np.ndarray:
    return (_key_hash(tbl[key]) % np.uint64(nparts)).astype(np.int64)


def _upsert_last_wins(tbl: pa.Table, key: str, version: str,
                      delta_flag: np.ndarray) -> pa.Table:
    """Keep one row per key: highest (version, is_delta) — the delta
    copy survives a version tie."""
    k = tbl[key].to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl[version].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((delta_flag, v, k))
    ks = k[order]
    last = np.concatenate((ks[1:] != ks[:-1], [True]))
    return tbl.take(pa.array(order[last], pa.int64()))


def build_keyed_layout(ds, out_dir: str, *, key: str, version: str,
                       npartitions: int = 32) -> dict:
    """Materialize ``ds`` as a hash-keyed layout (one parquet file per
    partition, every file present even when empty so later merges can
    rely on the directory shape).  ``ds`` must already be one row per
    key (build-time duplicates are upserted by ``version``)."""
    from ..functions.exchange import hash_exchange

    os.makedirs(out_dir, exist_ok=True)
    meta = {"key": key, "version": version, "npartitions": npartitions}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)

    def bucket_fn(tbl: pa.Table):
        return _part_ids(tbl, key, npartitions), tbl

    parts = hash_exchange(ds, nbuckets=npartitions, bucket_fn=bucket_fn,
                          reduce_fn=None)
    refs = [r for b in parts.iter_internal_ref_bundles()
            for r in b.block_refs]

    @ray.remote
    def write_one(i: int, blk) -> int:
        t = blk if isinstance(blk, pa.Table) else pa.table(blk)
        if t.num_rows:
            flag = np.zeros(t.num_rows, np.int64)
            t = _upsert_last_wins(t, key, version, flag)
        tmp = os.path.join(out_dir, f".part-{i}.parquet.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(out_dir, f"part-{i}.parquet"))
        return t.num_rows

    counts = ray.get([write_one.remote(i, r)
                      for i, r in enumerate(refs)])
    meta["rows"] = int(sum(counts))
    return meta


def _delta_files(out_dir: str, as_of: int | None = None
                 ) -> dict[int, list[str]]:
    """Pending merge-on-read delta files, grouped by partition id and
    sorted by append sequence (the resolve order).  ``as_of`` keeps
    only files from snapshots <= as_of (time travel); the snapshot id
    is global per append, so the per-partition sorted order is the
    append order."""
    out: dict[int, list[str]] = {}
    for f in sorted(os.listdir(out_dir)):
        if f.startswith("delta-") and f.endswith(".parquet"):
            if as_of is not None and \
                    int(f.split("-")[2].split(".")[0]) > as_of:
                continue
            out.setdefault(int(f.split("-")[1]), []).append(f)
    return out


def _write_meta(out_dir: str, meta: dict) -> None:
    tmp = os.path.join(out_dir, ".meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(out_dir, "meta.json"))


def _advance_cow_snapshot(out_dir: str, meta: dict) -> int:
    """A copy-on-write rewrite (merge_into / delete_from) mutates the
    base files in place: the new state is a NEW snapshot and history
    below it is GONE — advance both the snapshot counter and the
    compacted_at watermark so ``as_of`` / ``table_changes`` raise
     'expired' instead of silently serving rewritten state."""
    snap = int(meta.get("snapshot", 0)) + 1
    meta["snapshot"] = snap
    meta["compacted_at"] = snap
    _write_meta(out_dir, meta)
    return snap


def _resolve_partition(out_dir: str, i: int, key: str, version: str,
                       dfiles: list[str],
                       adds: dict | None = None) -> pa.Table:
    """Base file + its delta files -> one row per key, highest
    (version, append-seq) wins — the base carries seq 0, so a delta
    beats the base on a version tie and a later delta beats an
    earlier one (the same tie rule merge_into applies eagerly).
    Evolved columns fill PER FILE (initial-default semantics)."""
    path = os.path.join(out_dir, f"part-{i}.parquet")
    tbls = [pq.read_table(path)] if os.path.exists(path) else []
    tbls += [pq.read_table(os.path.join(out_dir, f)) for f in dfiles]
    if adds:
        tbls = [_apply_schema_adds(t, adds) for t in tbls]
    return _upsert_tables(tbls, key, version)


def _upsert_tables(tbls: list[pa.Table], key: str,
                   version: str) -> pa.Table:
    merged = tbls[0] if len(tbls) == 1 else pa.concat_tables(
        tbls, promote_options="default")
    if merged.num_rows == 0:
        return merged
    seq = np.concatenate([np.full(t.num_rows, j, np.int64)
                          for j, t in enumerate(tbls)])
    return _upsert_last_wins(merged, key, version, seq)


def read_keyed_layout(out_dir: str, *, as_of: int | None = None,
                      keys=None):
    """Scan the layout.  With no pending deltas this is a plain
    parquet read of the base files; with merge-on-read deltas present
    each partition resolves base + deltas to latest-wins rows in a
    per-partition task (the file group is the unit of work — the same
    raw-task exception the writers use).

    ``as_of`` reads the table AS OF a snapshot: 0 = the base build,
    k = after the k-th :func:`append_delta` (snapshot ids are global,
    recorded in ``meta.json``).  History lives in the delta files, so
    time travel reaches back only to the last compaction — an
    ``as_of`` older than ``compacted_at`` raises (the Iceberg
    expire-snapshots contract).

    ``keys`` (int64 array-like) is the POINT-LOOKUP path — the
    lakehouse analog of the geobuf SubFile seek (reader.go:277-304):
    only the partitions the pinned hash routes those keys to are
    opened (every other file is never touched), then an exact key
    filter refines.  Cost is O(partitions hit + matched rows),
    independent of table size."""
    meta = _load_meta(out_dir)
    if as_of is not None:
        floor_ = int(meta.get("compacted_at", 0))
        if as_of < floor_:
            raise ValueError(
                f"snapshot {as_of} expired: compaction folded history "
                f"up to snapshot {floor_} into the base files")
    deltas = _delta_files(out_dir, as_of)
    adds = meta.get("schema_adds") or {}
    key, version = meta["key"], meta["version"]
    nparts = meta["npartitions"]

    if keys is not None:
        kk = np.unique(np.asarray(keys, np.int64))
        ktbl = pa.table({key: pa.array(kk, pa.int64())})
        wanted = np.unique(_part_ids(ktbl, key, nparts)) \
            if len(kk) else np.array([0], np.int64)

        @ray.remote
        def lookup_one(i: int) -> pa.Table:
            t = _resolve_partition(out_dir, i, key, version,
                                   deltas.get(i, []), adds)
            if t.num_rows == 0 or len(kk) == 0:
                return t.slice(0, 0)
            k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.clip(np.searchsorted(kk, k), 0, len(kk) - 1)
            return t.filter(pa.array(kk[pos] == k))

        return ray.data.from_arrow_refs(
            [lookup_one.remote(int(i)) for i in wanted])

    if not deltas and not adds:
        return ray.data.read_parquet(
            [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
             if f.startswith("part-") and f.endswith(".parquet")])

    @ray.remote
    def resolve_one(i: int) -> pa.Table:
        return _resolve_partition(out_dir, i, key, version,
                                  deltas.get(i, []), adds)

    return ray.data.from_arrow_refs(
        [resolve_one.remote(i) for i in range(nparts)])


def append_delta(out_dir: str, delta) -> dict:
    """Merge-on-read CDC append: route ``delta`` through the pinned
    hash and write one ``delta-<part>-<seq>.parquet`` per touched
    partition — the base files are NEVER read or rewritten, so an
    append costs O(delta) regardless of table size (the
    Iceberg/Delta merge-on-read write path; :func:`merge_into` is the
    copy-on-write twin).  Reads resolve latest-wins at scan time until
    :func:`compact_keyed_layout` folds the deltas back into the base.
    Within one append, a later delta row beats an earlier one on a
    version tie (the order merge_into's stable sort gives).  Single
    writer assumed (a commit protocol is out of scope here)."""
    from ..functions.exchange import hash_exchange

    meta = _load_meta(out_dir)
    key, version = meta["key"], meta["version"]
    nparts = meta["npartitions"]

    def bucket_fn(tbl: pa.Table):
        return _part_ids(tbl, key, nparts), tbl

    parts = hash_exchange(delta, nbuckets=nparts, bucket_fn=bucket_fn,
                          reduce_fn=None)
    refs = [r for b in parts.iter_internal_ref_bundles()
            for r in b.block_refs]

    # global snapshot id: one per append (single writer), so any
    # partition's sorted delta files are in append order AND a
    # snapshot cut (as_of) is one filename-number compare.  The floor
    # over EXISTING file seqs keeps a crashed append (files written,
    # meta not yet advanced) or a legacy per-partition-seq layout from
    # being silently overwritten by id reuse
    disk_max = max((int(f.split("-")[2].split(".")[0])
                    for f in os.listdir(out_dir)
                    if f.startswith("delta-") and f.endswith(".parquet")),
                   default=0)
    snap = max(int(meta.get("snapshot", 0)), disk_max) + 1

    adds = meta.get("schema_adds") or {}

    @ray.remote
    def append_one(i: int, blk) -> int:
        d = blk if isinstance(blk, pa.Table) else pa.table(blk)
        if d.num_rows == 0:
            return 0
        d = _apply_schema_adds(d, adds)  # post-evolution writes are
        d = _upsert_last_wins(d, key, version,  # physically complete
                              np.arange(d.num_rows, dtype=np.int64))
        tmp = os.path.join(out_dir, f".delta-{i}-{snap:05d}.parquet.tmp")
        pq.write_table(d, tmp)
        os.replace(tmp, os.path.join(out_dir,
                                     f"delta-{i}-{snap:05d}.parquet"))
        return 1

    touched_flags = ray.get([append_one.remote(i, r)
                             for i, r in enumerate(refs)])
    meta["snapshot"] = snap
    _write_meta(out_dir, meta)
    touched = [i for i, t in enumerate(touched_flags) if t]
    return {"touched": touched, "untouched": nparts - len(touched),
            "snapshot": snap}


def compact_keyed_layout(out_dir: str) -> dict:
    """Copy-on-write compaction: fold every partition's pending delta
    files into its base file (resolving latest-wins exactly as the
    merge-on-read scan does), atomically replace the base, and remove
    the deltas.  Partitions with no deltas are never opened — their
    files stay byte-identical.  After compaction a scan is a plain
    parquet read again."""
    meta = _load_meta(out_dir)
    key, version = meta["key"], meta["version"]
    nparts = meta["npartitions"]
    deltas = _delta_files(out_dir)

    adds = meta.get("schema_adds") or {}

    @ray.remote
    def compact_one(i: int, dfiles: list[str]) -> int:
        # resolve fills evolved columns, so compaction MATERIALIZES
        # them physically in the rewritten base files
        t = _resolve_partition(out_dir, i, key, version, dfiles, adds)
        tmp = os.path.join(out_dir, f".part-{i}.parquet.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(out_dir, f"part-{i}.parquet"))
        for f in dfiles:
            os.remove(os.path.join(out_dir, f))
        return t.num_rows

    ray.get([compact_one.remote(i, fs) for i, fs in deltas.items()])
    # history up to the current snapshot is now folded into the base:
    # time travel below this watermark raises from read_keyed_layout
    meta["compacted_at"] = int(meta.get("snapshot", 0))
    _write_meta(out_dir, meta)
    return {"compacted": sorted(deltas),
            "untouched": nparts - len(deltas),
            "compacted_at": meta["compacted_at"]}


def merge_into(out_dir: str, delta, *, npartitions: int | None = None
               ) -> dict:
    """Apply ``delta`` (a Ray Dataset with the layout's key + version
    columns and the same schema) to the layout at ``out_dir``.

    Returns ``{"touched": [...], "untouched": n}``; untouched
    partition files are never opened, never rewritten."""
    from ..functions.exchange import hash_exchange

    meta = _load_meta(out_dir)
    key, version = meta["key"], meta["version"]
    nparts = meta["npartitions"]
    if _delta_files(out_dir):
        raise ValueError(
            "layout has pending merge-on-read delta files; run "
            "compact_keyed_layout() before a copy-on-write merge "
            "(mixing the two write paths would make version-tie "
            "resolution order-ambiguous)")

    def bucket_fn(tbl: pa.Table):
        return _part_ids(tbl, key, nparts), tbl

    parts = hash_exchange(delta, nbuckets=nparts, bucket_fn=bucket_fn,
                          reduce_fn=None)
    refs = [r for b in parts.iter_internal_ref_bundles()
            for r in b.block_refs]

    adds = meta.get("schema_adds") or {}

    @ray.remote
    def apply_one(i: int, blk) -> int:
        d = blk if isinstance(blk, pa.Table) else pa.table(blk)
        if d.num_rows == 0:
            return 0  # pruned: the base file is not even opened
        d = _apply_schema_adds(d, adds)
        path = os.path.join(out_dir, f"part-{i}.parquet")
        base = _apply_schema_adds(pq.read_table(path), adds) \
            if os.path.exists(path) else d.slice(0, 0)
        d = d.select(base.column_names) if base.num_columns else d
        merged = pa.concat_tables([base, d],
                                  promote_options="default")
        flag = np.concatenate(
            (np.zeros(base.num_rows, np.int64),
             np.ones(d.num_rows, np.int64)))
        merged = _upsert_last_wins(merged, key, version, flag)
        tmp = os.path.join(out_dir, f".part-{i}.parquet.tmp")
        pq.write_table(merged, tmp)
        os.replace(tmp, path)
        return 1

    touched_flags = ray.get([apply_one.remote(i, r)
                             for i, r in enumerate(refs)])
    touched = [i for i, t in enumerate(touched_flags) if t]
    out = {"touched": touched, "untouched": nparts - len(touched)}
    if touched:  # base files changed: this IS a new snapshot
        out["snapshot"] = _advance_cow_snapshot(out_dir, meta)
    return out


def delete_from(out_dir: str, keys) -> dict:
    """Partition-pruned DELETE: drop every row whose key appears in
    ``keys`` (a Ray Dataset carrying the layout's key column, or a
    numpy int64 array).  Like :func:`merge_into`, only partitions that
    hash-route a requested key are opened and atomically rewritten;
    keys absent from the table delete nothing (idempotent replay —
    the CDC tombstone contract)."""
    from ..collect import collect_table

    meta = _load_meta(out_dir)
    key = meta["key"]
    nparts = meta["npartitions"]
    if _delta_files(out_dir):
        raise ValueError(
            "layout has pending merge-on-read delta files; run "
            "compact_keyed_layout() before DELETE (a tombstone must "
            "see the resolved table, not just the base files)")

    if not isinstance(keys, np.ndarray):
        keys = collect_table(keys.select_columns([key]))[key] \
            .to_numpy(zero_copy_only=False).astype(np.int64)
    keys = np.unique(keys)
    ktbl = pa.table({key: pa.array(keys, pa.int64())})
    pid = _part_ids(ktbl, key, nparts)

    @ray.remote
    def delete_one(i: int, kk: np.ndarray) -> int:
        path = os.path.join(out_dir, f"part-{i}.parquet")
        if not os.path.exists(path):
            return 0
        base = pq.read_table(path)
        k = base[key].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.clip(np.searchsorted(kk, k), 0, len(kk) - 1)
        drop = kk[pos] == k
        if not drop.any():
            return 0  # nothing matched: leave the file untouched
        out = base.filter(pa.array(~drop))
        tmp = os.path.join(out_dir, f".part-{i}.parquet.tmp")
        pq.write_table(out, tmp)
        os.replace(tmp, path)
        return int(drop.sum())

    jobs = {}
    for i in np.unique(pid):
        jobs[int(i)] = delete_one.remote(int(i), np.sort(keys[pid == i]))
    dropped = ray.get(list(jobs.values()))
    touched = [i for i, d in zip(jobs, dropped) if d]
    out = {"touched": touched, "deleted": int(sum(dropped)),
           "untouched": nparts - len(jobs)}
    if touched:  # base files changed: this IS a new snapshot
        out["snapshot"] = _advance_cow_snapshot(out_dir, meta)
    return out


def _row_diff_mask(a: pa.Table, b: pa.Table) -> np.ndarray:
    """Per-row 'any column differs' over two ALIGNED tables (same
    schema, same row count).  Null == null; null vs value differs."""
    import pyarrow.compute as pc

    changed = np.zeros(a.num_rows, bool)
    for name in a.column_names:
        ca, cb = a[name], b[name]
        eq = pc.equal(ca, cb)  # null where either side is null
        both_null = pc.and_(pc.is_null(ca), pc.is_null(cb))
        same = pc.fill_null(pc.or_(pc.fill_null(eq, False), both_null),
                            False)
        changed |= ~same.to_numpy(zero_copy_only=False)
    return changed


def table_changes(out_dir: str, *, from_snapshot: int,
                  to_snapshot: int | None = None):
    """Change data feed between two snapshots (the Delta CDF shape):
    a Dataset of the rows that changed from ``from_snapshot``'s state
    to ``to_snapshot``'s (default: latest), each stamped with
    ``_change_type`` in {insert, update_preimage, update_postimage,
    delete}.

    Both states resolve PER PARTITION from base + snapshot-cut delta
    files (the time-travel read), so the diff is bucket-local: a key
    lives in exactly one partition at both snapshots and never
    re-shuffles.  Cost is O(touched partitions x partition size);
    partitions no delta in (from, to] ever touched are skipped
    entirely — their two states are provably identical.  History
    reaches back to the last compaction, like ``as_of``."""
    meta = _load_meta(out_dir)
    key, version = meta["key"], meta["version"]
    floor_ = int(meta.get("compacted_at", 0))
    cur = int(meta.get("snapshot", 0))
    if to_snapshot is None:
        to_snapshot = cur
    if from_snapshot < floor_:
        raise ValueError(
            f"snapshot {from_snapshot} expired: compaction folded "
            f"history up to snapshot {floor_} into the base files")
    if to_snapshot < from_snapshot:
        raise ValueError("to_snapshot must be >= from_snapshot")
    d_from = _delta_files(out_dir, from_snapshot)
    d_to = _delta_files(out_dir, to_snapshot)
    # a partition whose delta list is identical at both cuts cannot
    # have changed — skip it without opening any file
    touched = [i for i in d_to
               if d_to.get(i, []) != d_from.get(i, [])]

    adds = meta.get("schema_adds") or {}

    @ray.remote
    def diff_one(i: int) -> pa.Table:
        # d_from's file list is a PREFIX of d_to's (same files, lower
        # snapshot cut), so read base + to-files ONCE and resolve both
        # states from slices — no file is opened twice
        path = os.path.join(out_dir, f"part-{i}.parquet")
        tbls = [pq.read_table(path)] if os.path.exists(path) else []
        nfrom = len(tbls) + len(d_from.get(i, []))
        tbls += [pq.read_table(os.path.join(out_dir, f))
                 for f in d_to.get(i, [])]
        if adds:
            tbls = [_apply_schema_adds(t, adds) for t in tbls]
        a = _upsert_tables(tbls[:nfrom], key, version)
        b = _upsert_tables(tbls, key, version)
        ka = a[key].to_numpy(zero_copy_only=False).astype(np.int64)
        kb = b[key].to_numpy(zero_copy_only=False).astype(np.int64)
        # resolve output is key-sorted (the upsert lexsort); align
        in_a = np.isin(kb, ka)
        in_b = np.isin(ka, kb)
        ins = b.filter(pa.array(~in_a))
        dele = a.filter(pa.array(~in_b))
        ac = a.filter(pa.array(in_b))
        bc = b.filter(pa.array(in_a))
        chg = _row_diff_mask(ac, bc.select(ac.column_names))
        pre = ac.filter(pa.array(chg))
        post = bc.filter(pa.array(chg))

        def stamp(t: pa.Table, typ: str) -> pa.Table:
            return t.append_column(
                "_change_type",
                pa.array(np.full(t.num_rows, typ), pa.string()))

        return pa.concat_tables([
            stamp(ins, "insert"), stamp(pre, "update_preimage"),
            stamp(post, "update_postimage"), stamp(dele, "delete")])

    if not touched:
        # empty feed with the right schema: diff partition 0 at the
        # SAME cut (provably empty rows, real columns)
        d_from = d_to = {0: d_to.get(0, [])}
        touched = [0]
    return ray.data.from_arrow_refs(
        [diff_one.remote(i) for i in sorted(touched)])


def _apply_schema_adds(t: pa.Table, adds: dict) -> pa.Table:
    """Fill evolved columns PER PHYSICAL FILE: a table missing an
    added column predates the evolution, so every row reads as the
    declared initial default (the Iceberg initial-default rule) — a
    column physically present is left alone, so a genuine NULL written
    after the evolution stays NULL."""
    for name, spec in adds.items():
        if name not in t.column_names:
            typ = pa.type_for_alias(spec["type"])
            if spec["default"] is None:
                col = pa.nulls(t.num_rows, typ)
            else:
                col = pa.array([spec["default"]] * t.num_rows, typ)
            t = t.append_column(name, col)
    return t


def add_column(out_dir: str, name: str, type_alias: str,
               default=None) -> dict:
    """Metadata-only schema evolution: declare a new column with an
    initial default.  NO data file is touched — the default applies at
    read time to every file that predates the column; writes from now
    on carry it physically (appends/merges fill absent columns with
    the default at write time), and compaction materializes it.
    Type must be a pyarrow alias (``int64``, ``float64``, ``string``,
    ...); re-adding an existing column raises."""
    pa.type_for_alias(type_alias)  # validate early
    meta = _load_meta(out_dir)
    adds = meta.setdefault("schema_adds", {})
    base0 = os.path.join(out_dir, "part-0.parquet")
    physical = (pq.read_schema(base0).names
                if os.path.exists(base0) else [])
    if name in adds or name in physical:
        raise ValueError(f"column {name!r} already exists")
    adds[name] = {"type": type_alias, "default": default}
    _write_meta(out_dir, meta)
    return meta


def _finish_rebalance(out_dir: str, meta: dict) -> None:
    """Roll FORWARD a committed rebalance (meta carries
    ``rebalance_pending``): move any staged files still in
    ``rebalance.tmp/`` into place (idempotent — os.replace), drop
    old-layout files beyond the new partition count, clear the marker.
    Called from _load_meta, so ANY reader or writer that opens the
    layout completes an interrupted swap before using it."""
    new = int(meta["rebalance_pending"])
    tmp = os.path.join(out_dir, "rebalance.tmp")
    if os.path.isdir(tmp):
        for i in range(new):
            p = os.path.join(tmp, f"part-{i}.parquet")
            if os.path.exists(p):
                os.replace(p, os.path.join(out_dir,
                                           f"part-{i}.parquet"))
        if not os.listdir(tmp):
            os.rmdir(tmp)
    for f in list(os.listdir(out_dir)):
        if f.startswith("part-") and f.endswith(".parquet") and \
                int(f.split("-")[1].split(".")[0]) >= new:
            os.remove(os.path.join(out_dir, f))
    meta["npartitions"] = new
    del meta["rebalance_pending"]
    _write_meta(out_dir, meta)


def _load_meta(out_dir: str) -> dict:
    """Read meta.json, completing any committed-but-interrupted
    rebalance first (the commit point is the pending marker: before
    it the old layout is untouched, after it the swap is
    deterministic and idempotent)."""
    with open(os.path.join(out_dir, "meta.json")) as f:
        meta = json.load(f)
    if meta.get("rebalance_pending"):
        _finish_rebalance(out_dir, meta)
    return meta


def rebalance_keyed_layout(out_dir: str, new_npartitions: int) -> dict:
    """Re-bucket the layout to a new partition count (the lakehouse
    maintenance op for a table that outgrew — or over-shot — its
    bucket layout).  Every row re-routes through the SAME pinned hash
    at the new modulus, so the routing contract stays one function
    (`_part_ids`); evolved columns materialize physically in the
    rewritten files.  Refuses pending merge-on-read deltas (compact
    first — same rule as the CoW paths) and advances the snapshot +
    watermark: the rewrite destroys file-level history.

    Crash safety is a two-phase commit: ALL new files stage into
    ``rebalance.tmp/`` while the live layout is untouched, then ONE
    atomic meta write (``rebalance_pending`` + the snapshot advance)
    commits the swap, and the swap itself is rolled forward by any
    later reader/writer via :func:`_load_meta` if interrupted.  A
    crash before the marker leaves the old layout live (the staged
    dir is vacuum-able debris); a crash after it leaves a swap that
    completes deterministically."""
    import shutil

    from ..functions.exchange import hash_exchange

    meta = _load_meta(out_dir)
    key, version = meta["key"], meta["version"]
    old_nparts = meta["npartitions"]
    if _delta_files(out_dir):
        raise ValueError(
            "layout has pending merge-on-read delta files; run "
            "compact_keyed_layout() before a rebalance")
    if new_npartitions < 1:
        raise ValueError("new_npartitions must be >= 1")

    def bucket_fn(tbl: pa.Table):
        return _part_ids(tbl, key, new_npartitions), tbl

    parts = hash_exchange(read_keyed_layout(out_dir),
                          nbuckets=new_npartitions,
                          bucket_fn=bucket_fn, reduce_fn=None)
    refs = [r for b in parts.iter_internal_ref_bundles()
            for r in b.block_refs]
    adds = meta.get("schema_adds") or {}
    tmp = os.path.join(out_dir, "rebalance.tmp")
    shutil.rmtree(tmp, ignore_errors=True)  # stale uncommitted stage
    os.makedirs(tmp)

    @ray.remote
    def write_new(i: int, blk) -> int:
        t = blk if isinstance(blk, pa.Table) else pa.table(blk)
        t = _apply_schema_adds(t, adds)
        if t.num_rows:
            t = _upsert_last_wins(t, key, version,
                                  np.zeros(t.num_rows, np.int64))
        pq.write_table(t, os.path.join(tmp, f"part-{i}.parquet"))
        return t.num_rows

    counts = ray.get([write_new.remote(i, r)
                      for i, r in enumerate(refs)])
    # COMMIT POINT: one atomic meta write carries the pending marker
    # and the snapshot/watermark advance together
    snap = int(meta.get("snapshot", 0)) + 1
    meta["snapshot"] = snap
    meta["compacted_at"] = snap
    meta["rebalance_pending"] = new_npartitions
    _write_meta(out_dir, meta)
    _finish_rebalance(out_dir, meta)
    return {"npartitions": new_npartitions,
            "old_npartitions": old_nparts,
            "rows": int(sum(counts)), "snapshot": snap}


def vacuum_keyed_layout(out_dir: str) -> dict:
    """Remove crash debris: orphaned dot-``.tmp`` staging files (an
    interrupted atomic write never swapped them in), an UNCOMMITTED
    ``rebalance.tmp/`` stage (no pending marker in meta — the live
    layout never changed), and delta files at-or-below the compaction
    watermark (their content already lives in the base files).  Live
    state is NEVER touched: _load_meta first completes any COMMITTED
    rebalance, so staged files that are the only copy of data are
    moved into place, never deleted.  Always safe, idempotent."""
    import shutil

    meta = _load_meta(out_dir)  # completes a committed rebalance
    floor_ = int(meta.get("compacted_at", 0))
    removed = {"staging": [], "expired_deltas": []}
    tmp = os.path.join(out_dir, "rebalance.tmp")
    if os.path.isdir(tmp):  # uncommitted: meta has no pending marker
        removed["staging"].append("rebalance.tmp/")
        shutil.rmtree(tmp)
    for f in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, f)
        if f.endswith(".tmp") and f.startswith("."):
            removed["staging"].append(f)
            os.remove(path)
        elif f.startswith("delta-") and f.endswith(".parquet") and \
                int(f.split("-")[2].split(".")[0]) <= floor_:
            removed["expired_deltas"].append(f)
            os.remove(path)
    return removed


class LookupJoinFn:
    """Map-stage INDEX-NESTED-LOOP join against a keyed layout: each
    probe batch routes its keys through the pinned hash and resolves
    ONLY the partitions they land in (latest-wins through pending
    merge-on-read deltas), with an LRU of resolved, key-sorted
    partitions so hot partitions load once per task, not once per
    batch.  The layout's metadata and delta list are read once, when
    the stage is built on the driver, so every task sees one snapshot.

    This is the enrichment-join physical shape the other joins can't
    give at 100 TB: the dimension table is too big to broadcast, and
    a shuffle join would read + re-partition ALL of it when the table
    is already hash-partitioned on disk — the lookup touches only the
    partitions the probe stream actually references, O(partitions hit
    + matches) like the geobuf SubFile seek it mirrors
    (reference reader.go:277-304)."""

    def __init__(self, layout_dir: str, on: str, *, how: str = "inner",
                 columns=None, rsuffix: str = "_r", cache_parts: int = 64):
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported how={how!r}")
        self.dir = layout_dir
        self.on = on
        self.how = how
        self.columns = list(columns) if columns is not None else None
        self.rsuffix = rsuffix
        self.cache_parts = cache_parts
        meta = _load_meta(layout_dir)
        self.key = meta["key"]
        self.version = meta["version"]
        self.nparts = meta["npartitions"]
        self.deltas = _delta_files(layout_dir)
        self.adds = meta.get("schema_adds") or {}
        from collections import OrderedDict

        self._cache: "OrderedDict[int, tuple]" = OrderedDict()

    def _partition(self, i: int):
        hit = self._cache.get(i)
        if hit is not None:
            self._cache.move_to_end(i)
            return hit
        t = _resolve_partition(self.dir, i, self.key, self.version,
                               self.deltas.get(i, []), self.adds)
        if self.columns is not None:
            want = [self.key] + [c for c in self.columns
                                 if c != self.key]
            t = t.select(want)
        k = t[self.key].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        entry = (k[order], t.take(pa.array(order, pa.int64())))
        self._cache[i] = entry
        if len(self._cache) > self.cache_parts:
            self._cache.popitem(last=False)
        return entry

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        col = batch[self.on]
        if col.null_count:
            raise ValueError("lookup_join: null probe keys (astype "
                             "would corrupt them silently)")
        pk = col.to_numpy(zero_copy_only=False).astype(np.int64)
        pid = _part_ids(pa.table({self.key: pa.array(pk)}),
                        self.key, self.nparts)
        lidx_all, ridx_all, rtabs = [], [], []
        for i in np.unique(pid):
            rows = np.flatnonzero(pid == i)
            keys_sorted, rtab = self._partition(int(i))
            pos = np.clip(np.searchsorted(keys_sorted, pk[rows]),
                          0, max(len(keys_sorted) - 1, 0))
            ok = (keys_sorted[pos] == pk[rows]) if len(keys_sorted) \
                else np.zeros(len(rows), bool)
            lidx_all.append(rows[ok])
            ridx_all.append(pos[ok])
            rtabs.append(rtab)
        l_names = batch.column_names
        parts = []
        matched = np.zeros(n, bool)
        for rows, pos, rtab in zip(lidx_all, ridx_all, rtabs):
            if not len(rows):
                continue
            matched[rows] = True
            lt = batch.take(pa.array(rows, pa.int64()))
            cols = {c: lt[c] for c in l_names}
            for rn in rtab.column_names:
                if rn == self.key:
                    continue
                orn = rn + self.rsuffix if rn in l_names else rn
                cols[orn] = rtab[rn].take(pa.array(pos, pa.int64()))
            parts.append(pa.table(cols))
        if self.how == "left":
            miss = np.flatnonzero(~matched)
            if len(miss):
                ref = self._partition(int(np.unique(pid)[0]))[1]
                lt = batch.take(pa.array(miss, pa.int64()))
                cols = {c: lt[c] for c in l_names}
                for rn in ref.column_names:
                    if rn == self.key:
                        continue
                    orn = rn + self.rsuffix if rn in l_names else rn
                    cols[orn] = pa.nulls(len(miss),
                                         ref.schema.field(rn).type)
                parts.append(pa.table(cols))
        if not parts:
            ref = self._partition(int(np.unique(pid)[0] if n else 0))[1]
            cols = {c: batch[c].slice(0, 0) for c in l_names}
            for rn in ref.column_names:
                if rn == self.key:
                    continue
                orn = rn + self.rsuffix if rn in l_names else rn
                cols[orn] = pa.nulls(0, ref.schema.field(rn).type)
            return pa.table(cols)
        return pa.concat_tables(parts)


def lookup_join(probe_ds, layout_dir: str, on: str, *,
                how: str = "inner", columns=None, rsuffix: str = "_r",
                batch_size: int = 8192, cache_parts: int = 64,
                **map_kwargs):
    """Dataset stage: stream probe rows through per-task partition-
    cached lookups against a keyed layout (see :class:`LookupJoinFn`)."""
    return probe_ds.map_batches(
        LookupJoinFn(layout_dir, on, how=how, columns=columns,
                     rsuffix=rsuffix, cache_parts=cache_parts),
        batch_format="pyarrow", batch_size=batch_size, **map_kwargs)
