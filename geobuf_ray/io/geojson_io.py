"""Distributed GeoJSON source / sink.

The reference converts GeoJSON with a streaming brace-splitter: find the
``features`` array's ``[``, then read 10 MB chunks and split them into
balanced ``{...}`` feature strings (``convert_geojson.go:25-107``), one
goroutine per feature to parse+encode (``:110-139``).  Here the same
capability is a Ray ``FileBasedDatasource``: each read task streams its
file in chunks and splits feature spans with a numpy scanner over the
POSITIONS of the quotes, backslashes and braces (escape parity, string
parity and brace depth computed on those few positions, never an array
per byte and never a per-character Python loop).  Each batch of spans
is then parsed by one ``json.loads`` and tabled column-wise
(``geojson.features_to_table``: one Arrow conversion per geometry
type) with the cyclic garbage collector paused, and yielded as a
canonical Arrow feature block.  Both whole
FeatureCollection files and line-delimited files work — the scanner
only looks at top-level object spans, so framing commas/newlines are
irrelevant.

The sink writes one ``.ndjson`` shard per block (resumable, never one
giant file) and ``concat_feature_collection`` assembles a single
FeatureCollection file driver-side when a user needs the reference's
one-file output (``ConvertGeobuf``, convert_geojson.go:169-193).
"""

from __future__ import annotations

import gc
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

    Works on the positions of the four bytes that matter (``"``, ``\\``,
    ``{``, ``}``), never on an array per byte of the chunk: a quote is
    escaped when the backslash run just before it has odd length, a
    brace is inside a string when an odd number of unescaped quotes
    precede it, and the depth is a running sum over the braces alone.

    Returns ``(starts, ends, end_depth)``: int64 starts, exclusive int64
    ends, and the brace depth at the chunk's end (for carrying state
    across chunk boundaries; callers instead carry the unfinished tail
    bytes, so ``start_depth`` is always 0 in practice).
    """
    quotes = np.flatnonzero(buf == 0x22)
    bs = np.flatnonzero(buf == 0x5C)
    if len(bs) and len(quotes):
        # bs[i] - i is constant along a run of adjacent backslashes, so
        # the run ending at bs[k - 1] starts at the first index with
        # that key
        key = bs - np.arange(len(bs))
        k = np.searchsorted(bs, quotes)  # backslashes before each quote
        last = np.maximum(k - 1, 0)
        run = np.where((k > 0) & (bs[last] == quotes - 1),
                       k - np.searchsorted(key, key[last]), 0)
        quotes = quotes[run % 2 == 0]
    braces = np.flatnonzero((buf == 0x7B) | (buf == 0x7D))
    braces = braces[np.searchsorted(quotes, braces) % 2 == 0]
    opens = buf[braces] == 0x7B
    depth = np.cumsum(np.where(opens, 1, -1)) + start_depth
    starts = braces[opens & (depth == 1)]
    ends = braces[~opens & (depth == 0)] + 1
    m = min(len(starts), len(ends))
    end_depth = int(depth[-1]) if len(depth) else start_depth
    return starts[:m], ends[:m], end_depth


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
    """Canonical feature table from a list of feature JSON strings.

    Each string holds one feature.  The batch is parsed by ONE
    ``json.loads`` of the strings joined into a JSON array (one call's
    fixed cost, and object keys shared across the batch).  A string
    holding two values shifts the count, and a count that differs from
    ``len(json_strs)`` raises ``ValueError``; the count cannot see such
    a string next to two fragments that join into one value, which the
    brace scanner (``iter_feature_json``) never yields.
    A string that does not parse raises ``json.JSONDecodeError`` naming
    its index (found by parsing the strings one by one, on the error
    path only).

    The cyclic garbage collector is paused while the batch is parsed and
    tabled: the parse allocates a few hundred thousand dicts and lists,
    enough to start full collections that walk the whole (Ray worker)
    heap.  Parsed JSON holds no reference cycles, so refcounting frees
    every dict once ``feats`` is dropped, before the collector resumes.
    The collector is re-enabled only if it was enabled on entry, so a
    caller's own pause survives, and calls overlapping in two threads
    still leave an enabled collector enabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            feats = json.loads("[" + ",".join(json_strs) + "]")
        except json.JSONDecodeError as err:
            raise _decode_error(json_strs) or err
        if len(feats) != len(json_strs):
            raise ValueError(f"{len(json_strs)} feature strings parsed to "
                             f"{len(feats)} values; each string must hold "
                             "exactly one feature")
        table = gj.features_to_table(feats)
        del feats
        return table
    finally:
        if was_enabled:
            gc.enable()


def _decode_error(json_strs: list[str]) -> json.JSONDecodeError | None:
    """The first string's own decode error, with its index."""
    for i, s in enumerate(json_strs):
        try:
            json.loads(s)
        except json.JSONDecodeError as e:
            return json.JSONDecodeError(f"feature {i}: {e.msg}", e.doc, e.pos)
    return None


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
