"""Distributed GeoJSON source / sink.

The reference converts GeoJSON with a streaming brace-splitter: find the
``features`` array's ``[``, then read 10 MB chunks and split them into
balanced ``{...}`` feature strings (``convert_geojson.go:25-107``), one
goroutine per feature to parse+encode (``:110-139``).  Here the same
capability is a Ray ``FileBasedDatasource``: each read task streams its
file in chunks, splits feature spans with a VECTORIZED numpy scanner
(string-aware brace depth — no per-character Python loop), parses them,
and yields canonical Arrow feature blocks.  Both whole
FeatureCollection files and line-delimited files work — the scanner
only looks at top-level object spans, so framing commas/newlines are
irrelevant.

The sink writes one ``.ndjson`` shard per block (resumable, never one
giant file) and ``concat_feature_collection`` assembles a single
FeatureCollection file driver-side when a user needs the reference's
one-file output (``ConvertGeobuf``, convert_geojson.go:169-193).
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Iterator

import numpy as np
import pyarrow as pa

from . import geojson as gj

_CHUNK = 8 << 20


def feature_spans(buf: np.ndarray, start_depth: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Top-level ``{...}`` spans in a byte chunk, string-aware.

    Returns ``(starts, ends, end_depth)`` where ends are exclusive and
    ``end_depth`` is the brace depth at the chunk's end (for carrying
    state across chunk boundaries; callers instead carry the unfinished
    tail bytes, so ``start_depth`` is always 0 in practice).
    """
    if len(buf) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), start_depth
    # escaped positions: a char is escaped iff preceded by an odd run of backslashes
    is_bs = buf == 0x5C
    run = np.zeros(len(buf), np.int64)
    if is_bs.any():
        # run[i] = length of backslash run ending at i
        idx = np.arange(len(buf))
        start_of_run = is_bs & ~np.concatenate(([False], is_bs[:-1]))
        run_id = np.cumsum(start_of_run)
        first_idx = np.zeros(int(run_id[-1]) + 1, np.int64)
        first_idx[run_id[start_of_run]] = idx[start_of_run]
        run = np.where(is_bs, idx - first_idx[run_id] + 1, 0)
    escaped = np.zeros(len(buf), bool)
    escaped[1:] = (run[:-1] % 2) == 1

    quotes = (buf == 0x22) & ~escaped
    cs = np.cumsum(quotes)
    # parity BEFORE each position: odd -> inside a string
    in_str = np.zeros(len(buf), bool)
    in_str[1:] = (cs[:-1] % 2) == 1

    opens = (buf == 0x7B) & ~in_str
    closes = (buf == 0x7D) & ~in_str
    delta = opens.astype(np.int64) - closes.astype(np.int64)
    depth = np.cumsum(delta) + start_depth
    starts = np.flatnonzero(opens & (depth == 1))
    ends = np.flatnonzero(closes & (depth == 0)) + 1
    m = min(len(starts), len(ends))
    return starts[:m], ends[:m], int(depth[-1])


def iter_feature_json(stream, chunk_size: int = _CHUNK) -> Iterator[list[str]]:
    """Yield lists of complete feature JSON strings from a byte stream.

    Handles FeatureCollection wrappers by skipping to the ``features``
    array (the reference's first-``[`` scan, convert_geojson.go:25-42)
    and line-delimited files trivially.
    """
    head = stream.read(1 << 20)
    if not head:
        return
    # Detect layout by PARSING, not key order: in NDJSON the first
    # top-level object is a complete Feature within the head; an FC
    # wrapper either spans past the head or parses to a non-Feature
    # dict, regardless of where its "type"/"features" keys sit.
    tail: bytes
    arr = np.frombuffer(head, np.uint8)
    starts, ends, _ = feature_spans(arr)
    is_ndjson = False
    if len(starts):
        try:
            first_obj = json.loads(head[starts[0]:ends[0]])
            is_ndjson = isinstance(first_obj, dict) and (
                first_obj.get("type") == "Feature" or "geometry" in first_obj)
        except ValueError:
            pass
    if is_ndjson:
        tail = head
    else:
        # FC wrapper: seek to the features array, reading further if a
        # large preamble precedes it
        buf = head
        while True:
            pos = buf.find(b'"features"')
            br = buf.find(b"[", pos) if pos >= 0 else -1
            if br >= 0:
                tail = buf[br + 1:]
                break
            more = stream.read(1 << 20)
            if not more:
                # no features array anywhere: fall through and scan
                # whatever top-level objects exist (may be none)
                tail = buf
                break
            buf += more
    while True:
        chunk = stream.read(chunk_size)
        buf = tail + chunk if chunk else tail
        if not buf:
            break
        arr = np.frombuffer(buf, np.uint8)
        starts, ends, _ = feature_spans(arr)
        if len(starts):
            yield [buf[s:e].decode() for s, e in zip(starts, ends)]
            tail = buf[ends[-1]:]
        else:
            tail = buf
        if not chunk:
            # only framing may remain: whitespace, commas, the closing
            # ']' / '}' of a FeatureCollection wrapper — anything else
            # is a cut-off feature, which must error (the geobuf source
            # raises on truncated tails; silent loss would differ)
            leftover = tail.translate(None, b" \t\r\n,]}")
            if leftover:
                raise ValueError("truncated GeoJSON stream: "
                                 f"{len(tail)} unparsed trailing bytes")
            break


def parse_features_batch(json_strs: list[str]) -> pa.Table:
    feats = [json.loads(s) for s in json_strs]
    return gj.features_to_table(feats)


try:
    from ray.data.datasource import FileBasedDatasource

    class GeojsonDatasource(FileBasedDatasource):
        """Ray Data source: GeoJSON file(s) -> canonical feature blocks."""

        _FILE_EXTENSIONS = ["geojson", "json", "ndjson"]

        def _read_stream(self, f, path: str):
            for json_strs in iter_feature_json(f):
                tbl = parse_features_batch(json_strs)
                if tbl.num_rows:
                    yield tbl

except ImportError:  # pragma: no cover
    GeojsonDatasource = None  # type: ignore[assignment]


def read_geojson(paths, **read_kwargs):
    """Dataset of canonical feature rows from GeoJSON files (S12)."""
    import ray

    return ray.data.read_datasource(GeojsonDatasource(paths), **read_kwargs)


_NDJSON_MANIFEST_SCHEMA = pa.schema([
    ("path", pa.string()),
    ("num_features", pa.int64()),
    ("size_bytes", pa.int64()),
])


class _WriteNdjsonFn:
    """Per-block sink: feature rows -> one .ndjson shard + manifest row."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        os.makedirs(self.out_dir, exist_ok=True)
        feats = gj.table_to_features(batch)
        body = "".join(json.dumps(f, separators=(",", ":")) + "\n"
                       for f in feats)
        # content-addressed shard name: a Ray task retry that re-runs a
        # committed block rewrites the SAME file instead of accumulating
        # a uuid-named duplicate
        digest = hashlib.sha256(body.encode()).hexdigest()[:16]
        path = os.path.join(self.out_dir, f"part-{digest}.ndjson")
        tmp = path + f".{uuid.uuid4().hex[:6]}.tmp"
        with open(tmp, "w") as f:
            f.write(body)
        os.replace(tmp, path)
        return pa.Table.from_pylist(
            [{"path": path, "num_features": len(feats),
              "size_bytes": os.path.getsize(path)}],
            schema=_NDJSON_MANIFEST_SCHEMA)


def write_geojson(ds, out_dir: str, **map_kwargs) -> pa.Table:
    """Write feature rows as line-delimited GeoJSON shards; returns the
    shard manifest (path, count, bytes); an empty input yields an
    empty manifest with those columns."""
    from ..collect import collect_table

    manifest_ds = ds.map_batches(_WriteNdjsonFn(out_dir),
                                 batch_format="pyarrow",
                                 zero_copy_batch=True, **map_kwargs)
    return collect_table(manifest_ds, _NDJSON_MANIFEST_SCHEMA)


def concat_feature_collection(shard_paths, out_path: str) -> int:
    """Assemble shards into ONE FeatureCollection file (streamed concat,
    driver-side — the single-file shape of ConvertGeobuf's output)."""
    n = 0
    tmp = out_path + ".tmp"
    with open(tmp, "w") as out:
        out.write('{"type": "FeatureCollection", "features": [')
        for p in shard_paths:
            with open(p) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    if n:
                        out.write(",\n")
                    out.write(line)
                    n += 1
        out.write("]}")
    os.replace(tmp, out_path)
    return n
