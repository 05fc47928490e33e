"""Resumable per-partition checkpointing with lineage + metrics.

The reference has NO crash recovery: its tiling engine deletes
intermediate subfiles on combine and a crash mid-pass loses everything
(``splitcombine/split_combine.go:227-231``, SURVEY.md §4).  This module
supplies the north_rule's missing property: every partition (tile key /
shard) commits ATOMICALLY as

    <out_dir>/<data file>            (written to .tmp, then renamed)
    <out_dir>/_manifest/<key>.json   (written to .tmp, then renamed,
                                      AFTER the data file exists)

so a killed run leaves only whole partitions behind.  On resume,
``completed_keys`` lists durable partitions and ``filter_completed``
drops their rows from the input Dataset BEFORE the shuffle — finished
partitions cost one manifest read, not a rewrite.

Manifest rows carry lineage + metrics per the north_rule: partition
key, output path, feature count, byte size, bounds, codec version,
wall seconds and features/sec.

Scale note: the manifest is one tiny JSON per partition — reads/writes
are embarrassingly parallel, no coordination, safe for concurrent
writers on shared storage (rename is atomic per key; double-writing a
partition is idempotent because the row is keyed by partition).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

CODEC_VERSION = "geobuf-ray-1"

_MANIFEST_DIR = "_manifest"


def _safe_key(key: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in key)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, _MANIFEST_DIR)


def write_manifest_row(out_dir: str, key: str, row: dict) -> None:
    """Atomically commit one partition's lineage/metrics record."""
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, _safe_key(key) + ".json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"key": key, "codec_version": CODEC_VERSION, **row}, f)
    os.replace(tmp, path)


def load_manifest(out_dir: str) -> pa.Table:
    """All committed partition records as one table (empty if none)."""
    d = manifest_dir(out_dir)
    rows = []
    if os.path.isdir(d):
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    rows.append(json.load(f))
    if not rows:
        return pa.table({"key": pa.array([], pa.string())})
    return pa.Table.from_pylist(rows)


def completed_keys(out_dir: str) -> set[str]:
    """Partitions whose manifest row AND data file are both durable."""
    done = set()
    tbl = load_manifest(out_dir)
    if "path" not in tbl.column_names:
        return done
    for key, path in zip(tbl["key"].to_pylist(), tbl["path"].to_pylist()):
        if path and os.path.exists(path):
            done.add(key)
    return done


def filter_completed(ds, key_col: str, done: set[str], **map_kwargs):
    """Drop rows whose partition already committed (resume fast-path).

    ``done`` is shipped once via ``ray.put`` and read per actor/task —
    a broadcast small-side lookup, not re-serialized per batch.
    """
    if not done:
        return ds
    import ray

    done_ref = ray.put(frozenset(done))

    class _Filter:
        def __init__(self):
            self.done = ray.get(done_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            hit = pc.is_in(batch[key_col],
                           value_set=pa.array(sorted(self.done), pa.string()))
            return batch.filter(pc.invert(pc.fill_null(hit, False)))

    return ds.map_batches(_Filter, batch_format="pyarrow",
                          zero_copy_batch=True,
                          concurrency=map_kwargs.pop("concurrency", (1, 4)),
                          **map_kwargs)


def checkpointed_split_combine(
    ds,
    out_dir: str,
    zoom: int,
    *,
    bounds=None,
    salt_bits: int = 0,
    write_bbox: bool = True,
    clip: bool = False,
    map_kwargs: dict | None = None,
) -> pa.Table:
    """Resumable tiling: like ``pipelines.tiling.split_combine`` but each
    tile commits independently and a re-run skips committed tiles.
    ``clip=True`` commits CLIPPED per-tile geometry (ClipFeature
    flagship semantics) with the same resume guarantees.

    Returns the full manifest (committed-before + written-now).
    """
    import time

    from ..io.geobuf_file import _MANIFEST_SCHEMA, _encode_stream, _write_atomic
    from ..pipelines.tiling import _tile_rows, _write_groups

    os.makedirs(out_dir, exist_ok=True)
    done = completed_keys(out_dir)

    tiled = _tile_rows(ds, zoom, bounds, salt_bits, clip, map_kwargs)
    if salt_bits:
        # a salted hot tile commits as 2^salt_bits independent
        # partitions; the checkpoint key carries the salt so manifest
        # rows (and resume filtering) stay one-to-one with shuffle
        # groups while filenames remain tile-prefix addressable
        def add_ckpt_key(batch: pa.Table) -> pa.Table:
            salts = batch["tile_salt"].to_numpy(zero_copy_only=False)
            keys = [f"{t}~s{int(s)}" for t, s in
                    zip(batch["tile_str"].to_pylist(), salts)]
            return batch.append_column("ckpt_key", pa.array(keys, pa.string()))
    else:
        def add_ckpt_key(batch: pa.Table) -> pa.Table:
            return batch.append_column("ckpt_key", batch["tile_str"])

    tiled = tiled.map_batches(add_ckpt_key, batch_format="pyarrow",
                              zero_copy_batch=True)
    todo = filter_completed(tiled, "ckpt_key", done)

    def write_tile(group: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        key = str(group["ckpt_key"][0].as_py())
        stream, nfeat, bb = _encode_stream(group, write_bbox)
        path = os.path.join(out_dir, _safe_key(key) + ".geobuf")
        os.makedirs(out_dir, exist_ok=True)
        _write_atomic(path, stream)
        dt = time.perf_counter() - t0
        row = {
            "path": path,
            "num_features": nfeat,
            "size_bytes": len(stream),
            **{side: None if np.isnan(v) else v
               for side, v in zip(("west", "south", "east", "north"), bb)},
            "write_seconds": dt,
            "features_per_sec": nfeat / dt if dt > 0 else None,
        }
        write_manifest_row(out_dir, key, row)
        return pa.Table.from_pylist([{"key": key, **row}],
                                    schema=_MANIFEST_SCHEMA)

    # the shuffle: one group per (salted) tile key, committed
    # independently; the manifest is read back from the durable rows
    _write_groups(todo, ["tile_key", "tile_salt"], write_tile)
    return load_manifest(out_dir)
