"""The three workloads.  Each one writes its seeded inputs once in
``prepare`` (untimed), warms up in ``warmup`` (run several times; the
median is the set-up time), then offers a closed-loop sequence of
operations through ``next_op``.

An operation is ``(name, run, check)``: ``run()`` is the timed call into
the engine's public functions and returns what ``check(result)``
verifies, untimed.  ``check`` raises :class:`CheckFailed` on a wrong
answer.  ``pass_done`` tells the loop where a pass over the workload's
fixed unit of work ends, so a run stops on a pass boundary.

``report(samples)`` turns the checked samples, ``(pass, name, seconds)``
triples, into metrics.  Every workload reports the two end-to-end
timings of ``BENCHMARK.json`` under their shared names, ``pass_s`` and
``step_s``, and the same numbers again under the workload's own names
(``flow_s``, ``subfile_read_p50_ms``, ``entry_s``, ...).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from . import gen
from .harness import CheckFailed, median, tail


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _quantized(x: np.ndarray) -> np.ndarray:
    """The codec's 1e-7 quantization (truncation toward zero)."""
    return (np.asarray(x, np.float64) * 1e7).astype(np.int64)


def _check_coords(tbl, corpus: dict, what: str) -> None:
    """Every row's coordinates equal its input feature's, on the 1e-7
    quantized grid, and every input id is present."""
    ids = tbl["id"].to_numpy()
    if set(np.unique(ids).tolist()) != set(corpus["coords"]):
        raise CheckFailed(f"{what}: feature ids differ from the input")
    want = np.concatenate([corpus["coords"][int(i)] for i in ids])
    got = tbl["coords"].combine_chunks().flatten().to_numpy()
    if len(got) != len(want) or not np.array_equal(_quantized(got),
                                                   _quantized(want)):
        raise CheckFailed(f"{what}: coordinates differ from the input")


class GeobufFlow:
    """GeoJSON -> geobuf -> tile split-combine -> gob-indexed file ->
    full decode read-back; one operation is one pass of the flow."""

    name = "geobuf_flow"
    features = 15000
    warm_features = 1000
    zoom = 6
    shards = 4
    op_limit_s = 90.0
    # the flow's Ray tasks run in parallel; on a VM whose vCPUs are taken
    # by other guests at random, which task is delayed decides the pass
    # time, so once Ray has started the run is held to one vCPU (the
    # ROADMAP's 1-vCPU host)
    vcpus = 1
    min_passes = 2  # a pass takes about as long as a run measures
    uses_ray = True

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.steps: dict[str, list[float]] = {
            "convert": [], "split_combine": [], "readback": []}
        self.ratio = None

    def prepare(self, d: str) -> None:
        self.warm = gen.geojson_corpus(os.path.join(d, "warm"),
                                       self.warm_features, self.seed + 1)
        self.corpus = gen.geojson_corpus(os.path.join(d, "corpus"),
                                         self.features, self.seed, self.shards)
        self.expect = {
            id(c): gen.expected_tile_rows(c["coords"], self.zoom)
            for c in (self.warm, self.corpus)}

    def warmup(self) -> None:
        """One pass of the whole flow on a small corpus."""
        out = _fresh(os.path.join(self.work, "flow-out"))
        r = self._run(out, self.warm)
        self._check(r, self.warm)

    def next_op(self):
        out = _fresh(os.path.join(self.work, "flow-out"))
        return ("pass", lambda: self._run(out, self.corpus),
                lambda r: self._check(r, self.corpus, record=True))

    def pass_done(self) -> bool:
        return True

    def _run(self, out: str, corpus: dict) -> dict:
        from geobuf_ray.collect import collect_table
        from geobuf_ray.io.geobuf_file import read_geobuf
        from geobuf_ray.pipelines import convert, tiling
        from geobuf_ray.stages import codec_stages

        gb_dir = os.path.join(out, "geobuf")
        tile_dir = os.path.join(out, "tiles")
        combined = os.path.join(out, "combined.geobuf")
        t0 = time.perf_counter()
        conv = convert.geojson_to_geobuf(corpus["paths"], gb_dir)
        t1 = time.perf_counter()
        ds = codec_stages.decode(read_geobuf(sorted(conv["path"].to_pylist())))
        tiles = tiling.split_combine(ds, tile_dir, self.zoom,
                                     combine_path=combined)
        t2 = time.perf_counter()
        back = collect_table(codec_stages.decode(read_geobuf([combined])))
        t3 = time.perf_counter()
        return {"conv": conv, "tiles": tiles, "combined": combined,
                "back": back, "times": (t1 - t0, t2 - t1, t3 - t2)}

    def _check(self, r: dict, corpus: dict, record: bool = False) -> None:
        from geobuf_ray.io.geobuf_file import read_metadata

        if sum(r["conv"]["num_features"].to_pylist()) != corpus["n"]:
            raise CheckFailed("convert: feature count differs from input")
        tile_rows = sum(r["tiles"]["num_features"].to_pylist())
        if tile_rows != self.expect[id(corpus)]:
            raise CheckFailed(f"split_combine: {tile_rows} tile rows, "
                              f"want {self.expect[id(corpus)]}")
        meta, _ = read_metadata(r["combined"])
        if meta["NumberFeatures"] != tile_rows:
            raise CheckFailed("combined file: NumberFeatures differs from "
                              "the per-tile counts")
        if r["back"].num_rows != tile_rows:
            raise CheckFailed("read-back: row count differs")
        _check_coords(r["back"], corpus, "read-back")
        if record:
            for k, v in zip(self.steps, r["times"]):
                self.steps[k].append(v)
            gb_bytes = sum(r["conv"]["size_bytes"].to_pylist())
            self.ratio = gb_bytes / corpus["bytes"]

    def report(self, samples) -> dict:
        flow = median([v for _, _, v in samples])
        conv = median(self.steps["convert"])
        tile = median(self.steps["split_combine"])
        return {
            "pass_s": (flow, "s"),
            "step_s": (conv, "s"),
            "flow_s": (flow, "s"),
            "convert_s": (conv, "s"),
            "split_combine_s": (tile, "s"),
            "readback_s": (median(self.steps["readback"]), "s"),
            "convert_features_per_s": (self.features / conv, "1/s"),
            "tile_features_per_s": (self.features / tile, "1/s"),
            "geobuf_bytes_per_geojson_byte": (self.ratio, "ratio"),
            "flow_passes": (len(samples), "count"),
        }


class SubfileReads:
    """Key-addressed reads of one gob-indexed file (no Ray tasks): one
    operation is ``read_subfile`` + decode of a Zipf-drawn key; every
    8th adds a ``read_bbox_batch`` partial read.  A pass is
    ``pass_reads`` consecutive reads."""

    name = "subfile_reads"
    features = 20000
    zoom = 8
    pass_reads = 25
    op_limit_s = 10.0
    vcpus = None  # every vCPU of the process
    min_passes = 1
    uses_ray = False  # no Ray task on this path, so Ray is not started

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.i = 0

    def prepare(self, d: str) -> None:
        """Build the gob-indexed file in this process: the corpus is
        parsed and encoded, grouped by its z``zoom`` tile (first vertex),
        each group framed as one stream, and the streams combined."""
        from geobuf_ray.codec import feature
        from geobuf_ray.io import geojson_io
        from geobuf_ray.io.geobuf_file import write_indexed_geobuf

        corpus = gen.geojson_corpus(os.path.join(d, "corpus"), self.features,
                                    self.seed)
        with open(corpus["paths"][0]) as f:
            tbl = geojson_io.parse_features_batch(f.read().splitlines())
        first = tbl["coords"].combine_chunks()
        starts = first.offsets.to_numpy()[:-1]
        flat = first.values.to_numpy()
        keys = gen.tile_keys(flat[starts], flat[starts + 1], self.zoom)
        order = np.argsort(keys, kind="stable")
        bounds = np.flatnonzero(np.r_[True, keys[order][1:] != keys[order][:-1],
                                      True])

        records = feature.encode_batch(tbl.take(order))

        def streams():
            for a, b in zip(bounds[:-1], bounds[1:]):
                yield keys[order[a]], feature.frame_records(
                    records.slice(a, b - a))

        self.path = os.path.join(d, "indexed.geobuf")
        meta = write_indexed_geobuf(streams(), self.path)
        self.counts = {k: v["NumberFeatures"] for k, v in meta["Files"].items()}
        self.keys = gen.zipf_keys(self.counts, 2000, self.pass_reads,
                                  self.seed)

    def warmup(self) -> None:
        """Open the index and read a few keys."""
        from geobuf_ray.io.geobuf_file import read_metadata

        meta, _ = read_metadata(self.path)
        if set(meta["Files"]) != set(self.counts):
            raise CheckFailed("index keys differ from the written keys")
        for key in sorted(self.counts)[:8]:
            self._check(self._read(key, True))

    def next_op(self):
        key = self.keys[self.i % len(self.keys)]
        bbox = self.i % 8 == 7
        self.i += 1
        return "read", lambda: self._read(key, bbox), self._check

    def _read(self, key: str, bbox: bool):
        from geobuf_ray.io.geobuf_file import read_subfile
        from geobuf_ray.stages import codec_stages

        raw = read_subfile(self.path, key)
        feats = codec_stages.decode_geobuf_batch(raw)
        boxes = codec_stages.read_bbox_batch(raw) if bbox else None
        return key, feats, boxes

    def pass_done(self) -> bool:
        return self.i % self.pass_reads == 0

    def _check(self, r) -> None:
        key, feats, boxes = r
        want = self.counts[key]
        if feats.num_rows != want or (boxes is not None
                                      and boxes.num_rows != want):
            raise CheckFailed(f"read_subfile({key!r}): {feats.num_rows} rows,"
                              f" index says {want}")

    def report(self, samples) -> dict:
        ms = [v * 1e3 for _, _, v in samples]
        label, tv = tail(ms)
        per_pass: dict[int, list[float]] = {}
        for p, _, v in samples:
            per_pass.setdefault(p, []).append(v)
        # whole passes only: a failed read leaves its pass short
        full = [sum(v) for v in per_pass.values() if len(v) == self.pass_reads]
        return {
            "pass_s": (median(full), "s"),
            "step_s": (median(ms) / 1e3, "s"),
            "subfile_read_p50_ms": (median(ms), "ms"),
            f"subfile_read_{label}_ms": (tv, "ms"),
            "subfile_reads_per_s": (len(ms) * 1e3 / sum(ms), "1/s"),
            "subfile_reads": (len(ms), "count"),
            "subfile_passes": (len(full), "count"),
            "subfile_keys": (len(self.counts), "count"),
        }


# the fixed spatial / tiling / codec / relational mix.  Left out, to
# keep a pass within the run-time budget: pip_rect_join_s2,
# pip_rect_join_s2_adaptive and knn_suppliers_s2 (other physical paths
# of pip_rect_join and knn_suppliers) and rects_contain_join (the
# overlap join's path with another predicate)
QUERY_MIX = (
    "pip_rect_join", "knn_suppliers", "suppliers_within_2000km",
    "rects_overlap_join", "segments_intersect_pairs",
    "tile_assign", "tile_counts", "tile_rollup", "customers_tile_pyramid",
    "rects_tile_clip", "rects_mvt_tiles", "rects_rasterize",
    "customers_hexbin", "suppliers_hex_neighbors",
    "customers_nearest_supplier", "codec_roundtrip_points",
    "codec_wkb_roundtrip", "codec_geoparquet_roundtrip",
    "customers_geohash_counts", "revenue_by_region",
    "revenue_by_region_shuffle", "tpch_q1", "images_in_rects",
    "images_knn_s2",
)
WARMUP = ("tpch_q1", "revenue_by_region_shuffle")
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem")


def _to_table(res):
    import pyarrow as pa
    import ray

    from geobuf_ray.collect import collect_table

    if isinstance(res, ray.data.Dataset):
        return collect_table(res)
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(res, preserve_index=False)


class SpatialQueries:
    """One pass = every query of ``QUERY_MIX`` on sf0.01-sized tables,
    then ``entry_repeats`` times the flagship ``pip_rect_join`` on
    sf0.001-sized tables (what ``entry()`` runs); each answer is
    hash-checked against its DuckDB oracle."""

    name = "spatial_queries"
    entry_repeats = 2
    op_limit_s = 60.0
    vcpus = None
    min_passes = 1
    uses_ray = True

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.i = 0
        self.pass_len = len(QUERY_MIX) + self.entry_repeats
        self.oracle: dict[tuple[str, str], str | None] = {}

    def prepare(self, d: str) -> None:
        import __ray_entry__ as entrymod

        # the engine sizes its image set by the "0.01" / "0.001" in the
        # directory name, and the image oracles assume the sf0.01 size
        self.sf = os.path.join(d, "sf0.01")
        self.sf_small = os.path.join(d, "sf0.001")
        gen.tpch_tables(self.sf, self.seed)
        gen.tpch_tables(self.sf_small, self.seed, customers=150, suppliers=10,
                        orders=1500, lineitems=6000, parts=200)
        self.queries = entrymod.queries()
        self.sql = entrymod.oracle_sql()
        for name in WARMUP:  # oracles of the warm-up, outside set-up time
            self._want(name, self.sf)

    def warmup(self) -> None:
        """Two queries spanning the read, map, exchange and collect
        paths."""
        for name in WARMUP:
            check = self._checker(name, self.sf)
            check(_to_table(self.queries[name](self.sf)))

    def next_op(self):
        from geobuf_ray.pipelines import queries as q

        k = self.i % self.pass_len
        self.i += 1
        if k >= len(QUERY_MIX):
            return ("entry", lambda: _to_table(q.pip_rect_join(self.sf_small)),
                    self._checker("pip_rect_join", self.sf_small))
        name = QUERY_MIX[k]
        fn = self.queries[name]
        return (f"query.{name}", lambda: _to_table(fn(self.sf)),
                self._checker(name, self.sf))

    def pass_done(self) -> bool:
        return self.i % self.pass_len == 0

    def _want(self, name: str, sf: str):
        key = (name, sf)
        if key not in self.oracle:
            if name not in self.sql:
                self.oracle[key] = None
            else:
                import duckdb

                con = duckdb.connect()
                try:
                    for t in TABLES:
                        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                                    f"'{os.path.join(sf, t)}.parquet'")
                    df = con.execute(self.sql[name]).fetchdf()
                finally:
                    con.close()
                self.oracle[key] = _digest(df)
        return self.oracle[key]

    def _checker(self, name: str, sf: str):
        def check(tbl) -> None:
            if tbl.num_rows == 0:
                raise CheckFailed(f"{name}: no rows")
            want = self._want(name, sf)
            if want is not None and _digest(tbl.to_pandas()) != want:
                raise CheckFailed(f"{name}: answer differs from its oracle")
        return check

    def report(self, samples) -> dict:
        per: dict[str, list[float]] = {}
        for _, n, v in samples:
            per.setdefault(n, []).append(v)
        mix = [median(v) for n, v in per.items() if n.startswith("query.")]
        # a query that failed in every pass would drop out of the sum
        mix_s = sum(mix) if len(mix) == len(QUERY_MIX) else float("nan")
        entry_s = median(per.get("entry", []))
        return {
            "pass_s": (mix_s, "s"),
            "step_s": (entry_s, "s"),
            "spatial_mix_s": (mix_s, "s"),
            "entry_s": (entry_s, "s"),
            "query_s": ({n[6:]: median(v) for n, v in per.items()
                         if n.startswith("query.")}, "s"),
            "mix_passes": (min(map(len, per.values())), "count"),
        }


def _digest(df) -> tuple:
    """Row count, column names and the order-insensitive value hash of
    ``tools/check_oracles.py``."""
    from tools.check_oracles import canon, value_hash

    c = canon(df)
    return (len(c), tuple(c.columns), value_hash(c))


WORKLOADS = {w.name: w for w in (GeobufFlow, SubfileReads, SpatialQueries)}
