"""Single-thread codec-vs-JSON microbench (BASELINE.md protocol).

20k x 32-vertex LineStrings with 4 properties; best-of-5 per side.
JSON side = ``json.dumps`` / ``json.loads`` per feature (the
line-delimited-GeoJSON shape the reference benchmarks against its
``encoding/json`` baseline, README.md:6,19); geobuf side = this
engine's vectorized batch kernels (``encode_batch``/``decode_batch``).
Single process, no Ray — this is the per-core codec constant that the
distributed stages multiply.

Usage: python tools/codec_vs_json.py [N] [V]
       python tools/codec_vs_json.py --concurrent [P] [N] [V]
       python tools/codec_vs_json.py --batch-sizes 10,80,8000 [N] [V]
       python tools/codec_vs_json.py --geojson-read [N] [V]
Prints one JSON line with sizes, seconds, and speedups.  The default
line also times the two frame kernels on the encoded records:
``frame_us`` (``frame_records``) and ``scan_us`` (``scan_frames`` over
the framed stream), best-of-5 microseconds per feature.

``--batch-sizes`` measures each codec kernel's fixed cost per call:
the same N features (default 8,000 LineStrings of 8 vertices) are
encoded in consecutive slices of each batch size, then each slice is
framed, scanned back and decoded, and the line reports the best-of-3
microseconds per feature of every kernel at every size.  A small
batch pays the per-call cost over few features.  The line also
reports each of the decoder's two structure walks on every slice:
``scan_vec_us`` (the lockstep vectorised walk) and ``scan_scalar_us``
(the record-at-a-time walk), best-of-3 microseconds per call.  The
decoder sends a batch to the scalar walk up to the largest size at
which it is the faster one (``decode._SCALAR_MAX_RECORDS``).

``--geojson-read`` measures the GeoJSON read kernel that feeds the
encoder on two corpora of N features (default 20,000), each written as
line-delimited GeoJSON to a temporary file: ``lines`` (LineStrings of
V vertices, default 32) and ``mixed`` (all six geometry types with the
``geobuf_flow`` benchmark's properties, from ``perfbench.gen``).  Each
is split by ``iter_feature_json`` and tabled by
``parse_features_batch``.  One line per corpus reports the best-of-3
microseconds per feature of the whole read and of its three parts
(``scan``: the split; ``loads``: one ``json.loads`` per batch;
``table``: ``features_to_table``; the last two with GC paused, as the
read runs them), and the number of full (generation-2) garbage
collections over the three whole reads, from ``gc.get_stats()``.

``--concurrent`` mirrors the reference's 18x READ protocol
(README.md:6 + geobuf_concurrent.go:23-33: goroutine-parallel feature
decode measured against the sequential ``encoding/json`` baseline):
the framed stream splits at frame boundaries across P worker
processes, each decoding its slice with the same batch kernels, while
the JSON side stays the single-thread loop the reference compares
against.  The default mode stays single-thread on BOTH sides — the
per-core codec constant (the reference's sequential "5-10x" class,
README.md:19).
"""
from __future__ import annotations

import gc
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, ".")

from geobuf_ray.codec import decode, feature  # noqa: E402
from geobuf_ray.io.geojson import features_to_table  # noqa: E402
from geobuf_ray.io.geojson_io import (  # noqa: E402
    iter_feature_json,
    parse_features_batch,
)

GEOM_COLS = {"id", "gtype", "geom_type", "dim", "coords",
             "ring_sizes", "poly_sizes"}


def build_features(n: int, v: int):
    rng = np.random.default_rng(7)
    feats = []
    for i in range(n):
        base = rng.uniform(-120, -60, 2)
        pts = base + np.cumsum(rng.uniform(-0.001, 0.001, (v, 2)), axis=0)
        feats.append({
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": np.round(pts, 7).tolist()},
            "properties": {"name": f"road-{i}", "lanes": int(i % 6),
                           "speed": float(30 + (i % 50)),
                           "oneway": bool(i % 2)},
        })
    return feats


def best_of(k, fn):
    best = float("inf")
    out = None
    for _ in range(k):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _decode_slice(framed: bytes) -> int:
    from geobuf_ray.codec import decode, feature

    return decode.decode_batch(feature.scan_frames(framed)).num_rows


def run_concurrent(procs: int, n: int, v: int) -> None:
    """Concurrent-read protocol: P processes decode frame-aligned
    slices of ONE framed stream; JSON baseline stays single-thread."""
    import multiprocessing as mp

    feats = build_features(n, v)
    js = [json.dumps(f) for f in feats]
    json_read, _ = best_of(5, lambda: [json.loads(s) for s in js])

    tbl = parse_features_batch(js)
    prop_cols = [c for c in tbl.column_names if c not in GEOM_COLS]
    enc = feature.encode_batch(tbl, prop_cols=prop_cols)
    framed = feature.frame_records(enc)
    # frame-aligned slices (scan once for boundaries, split evenly)
    import numpy as np

    data = np.frombuffer(framed, np.uint8)
    starts, lens, _ = feature.frame_boundaries(data)
    # frame k begins where frame k-1's payload ends
    frame_begin = [0] + [int(starts[k - 1] + lens[k - 1])
                         for k in range(1, len(starts))]
    cuts = [0]
    for p in range(1, procs):
        cuts.append(frame_begin[(len(starts) * p) // procs])
    cuts.append(len(framed))
    slices = [framed[cuts[i]: cuts[i + 1]] for i in range(procs)]
    with mp.get_context("fork").Pool(procs) as pool:
        pool.map(_decode_slice, slices)  # warm the pool
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            counts = pool.map(_decode_slice, slices)
            best = min(best, time.perf_counter() - t0)
    assert sum(counts) == n, counts
    print(json.dumps({
        "mode": "concurrent", "procs": procs, "n": n, "vertices": v,
        "json_read_s": round(json_read, 3),
        "buf_read_concurrent_s": round(best, 3),
        "read_speedup_concurrent": round(json_read / best, 2),
    }))


def run_batch_sizes(sizes: list[int], n: int, v: int) -> None:
    """Microseconds per feature when N features go through each codec
    kernel in slices of each batch size (one call per slice): encode,
    frame (``frame_records``), scan (``scan_frames``) and decode; and
    microseconds per call of each structure walk of the decoder."""
    tbl = parse_features_batch([json.dumps(f) for f in build_features(n, v)])
    prop_cols = [c for c in tbl.column_names if c not in GEOM_COLS]
    secs = {k: {} for k in ("encode", "frame", "scan", "decode")}
    scan_us = {"vec": {}, "scalar": {}}  # per call, not per feature
    for size in sizes:
        slices = [tbl.slice(i, size) for i in range(0, n, size)]
        best, encs = best_of(3, lambda: [
            feature.encode_batch(s, prop_cols=prop_cols) for s in slices])
        secs["encode"][str(size)] = best
        best, framed = best_of(3, lambda: [
            feature.frame_records(e) for e in encs])
        secs["frame"][str(size)] = best
        best, _ = best_of(3, lambda: [
            feature.scan_frames(f) for f in framed])
        secs["scan"][str(size)] = best
        best, _ = best_of(3, lambda: [
            decode.decode_batch(e) for e in encs])
        secs["decode"][str(size)] = best
        parts = [decode._binary_parts(e) for e in encs]
        for walk, fn in (("vec", decode._structure_scan_vec),
                         ("scalar", decode._structure_scan_scalar)):
            best, _ = best_of(3, lambda: [fn(d, o) for d, o in parts])
            scan_us[walk][str(size)] = round(best / len(parts) * 1e6, 1)
    line = {"mode": "batch_sizes", "n": n, "vertices": v}
    for kernel, per_size in secs.items():
        line[f"{kernel}_us_per_feature"] = {
            size: round(s / n * 1e6, 2) for size, s in per_size.items()}
    for walk, per_size in scan_us.items():
        line[f"scan_{walk}_us"] = per_size
    print(json.dumps(line))


def _paused(fn):
    """``fn`` timed as ``parse_features_batch`` runs it: cyclic GC off."""
    def run():
        gc.disable()
        try:
            return fn()
        finally:
            gc.enable()
    return run


def _time_read(path: str, n: int) -> dict:
    """Best-of-3 seconds of the whole read and of its three parts, and
    the full collections over the three whole reads."""
    def read() -> int:
        rows = 0
        with open(path, "rb") as f:
            for strs in iter_feature_json(f):
                rows += parse_features_batch(strs).num_rows
        return rows

    def scan() -> list:
        with open(path, "rb") as f:
            return list(iter_feature_json(f))

    full_before = gc.get_stats()[2]["collections"]
    read_s, rows = best_of(3, read)
    full = gc.get_stats()[2]["collections"] - full_before
    assert rows == n, rows
    scan_s, batches = best_of(3, scan)
    loads_s, parsed = best_of(3, _paused(lambda: [
        json.loads("[" + ",".join(b) + "]") for b in batches]))
    table_s, _ = best_of(3, _paused(lambda: [
        features_to_table(p) for p in parsed]))
    us = {f"{k}_us_per_feature": round(s / n * 1e6, 2) for k, s in (
        ("read", read_s), ("scan", scan_s), ("loads", loads_s),
        ("table", table_s))}
    return {"geojson_mb": round(os.path.getsize(path) / 1e6, 2),
            "read_s": round(read_s, 3), **us, "gen2_collections": full}


def run_geojson_read(n: int, v: int) -> None:
    """Microseconds per feature to split and table N NDJSON features,
    one line per corpus: ``lines`` (LineStrings of V vertices) and
    ``mixed`` (all six geometry types, the ``geobuf_flow`` corpus)."""
    import tempfile

    from perfbench import gen

    with tempfile.TemporaryDirectory() as d:
        lines = os.path.join(d, "lines.ndjson")
        with open(lines, "w") as f:
            for feat in build_features(n, v):
                f.write(json.dumps(feat, separators=(",", ":")) + "\n")
        mixed = gen.geojson_corpus(os.path.join(d, "mixed"), n,
                                   seed=211)["paths"][0]
        for corpus, path, verts in (("lines", lines, v),
                                    ("mixed", mixed, None)):
            print(json.dumps({"mode": "geojson_read", "corpus": corpus,
                              "n": n, "vertices": verts,
                              **_time_read(path, n)}))


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--geojson-read":
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
        v = int(sys.argv[3]) if len(sys.argv) > 3 else 32
        run_geojson_read(n, v)
        return
    if len(sys.argv) > 1 and sys.argv[1] == "--batch-sizes":
        sizes = [int(x) for x in sys.argv[2].split(",")]
        n = int(sys.argv[3]) if len(sys.argv) > 3 else 8_000
        v = int(sys.argv[4]) if len(sys.argv) > 4 else 8
        run_batch_sizes(sizes, n, v)
        return
    if len(sys.argv) > 1 and sys.argv[1] == "--concurrent":
        procs = int(sys.argv[2]) if len(sys.argv) > 2 else 8
        n = int(sys.argv[3]) if len(sys.argv) > 3 else 20_000
        v = int(sys.argv[4]) if len(sys.argv) > 4 else 32
        run_concurrent(procs, n, v)
        return
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    v = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    feats = build_features(n, v)

    json_write, js = best_of(5, lambda: [json.dumps(f) for f in feats])
    json_read, _ = best_of(5, lambda: [json.loads(s) for s in js])
    json_size = sum(len(s) for s in js)

    tbl = parse_features_batch([json.dumps(f) for f in feats])
    prop_cols = [c for c in tbl.column_names if c not in GEOM_COLS]
    buf_write, enc = best_of(
        5, lambda: feature.encode_batch(tbl, prop_cols=prop_cols))
    # encode_batch returns a BinaryArray of per-feature frames
    buf_size = sum(len(b.as_py()) for b in enc)
    buf_read, dec = best_of(5, lambda: decode.decode_batch(enc))
    assert dec.num_rows == n
    frame_s, framed = best_of(5, lambda: feature.frame_records(enc))
    scan_s, scanned = best_of(5, lambda: feature.scan_frames(framed))
    assert scanned.equals(enc)

    print(json.dumps({
        "n": n, "vertices": v,
        "json_write_s": round(json_write, 3),
        "json_read_s": round(json_read, 3),
        "buf_write_s": round(buf_write, 3),
        "buf_read_s": round(buf_read, 3),
        "frame_us": round(frame_s / n * 1e6, 3),
        "scan_us": round(scan_s / n * 1e6, 3),
        "json_mb": round(json_size / 1e6, 2),
        "buf_mb": round(buf_size / 1e6, 2),
        "write_speedup": round(json_write / buf_write, 2),
        "read_speedup": round(json_read / buf_read, 2),
        "size_ratio": round(json_size / max(buf_size, 1), 2),
    }))


if __name__ == "__main__":
    main()
