"""Per-layer metrics of a traced run, from its spans.

Counts and times are per traced operation (a flow pass, one subfile
read, or one query of the mix), so runs of different lengths compare.
``busy_s`` sums the spans of one name that are not nested in a span of
the same name; ``self_s`` sums their self time (the span minus the part
its child spans cover).  Spans of every process count, so ``busy_s`` of
a layer running in two Ray workers at once can exceed wall time.
"""

from __future__ import annotations

import statistics

from . import trace
from .workloads import QUERY_MIX


def _add(out: dict, name: str, value, unit: str) -> None:
    out[name] = {"value": value, "unit": unit}


def summarize(spans: list[list], driver_pid: int, loop) -> dict:
    roots = [s for s in spans if s[5] == driver_pid and s[1] is None]
    traced_ops = [r for r in loop.roots if r is not None]
    keep = set(traced_ops)
    roots = [r for r in roots if r[0] in keep]
    trace.attach_workers(spans, driver_pid, roots)
    root_of = {}
    for s in spans:  # keep only spans inside a traced operation
        p = s[1]
        if s[5] == driver_pid and p is None:
            root_of[id(s)] = s[0] in keep
        else:
            root_of[id(s)] = s[6].get("op") is not None
    spans = [s for s in spans if root_of[id(s)]]
    selfs = trace.self_times(spans, driver_pid)
    n_ops = max(1, len(traced_ops))
    out: dict = {}

    by: dict[str, list[list]] = {}
    for s in spans:
        by.setdefault(s[2], []).append(s)

    def dur(s):
        return (s[4] - s[3]) / 1e9

    def self_s(s):
        return selfs[(s[5], s[0])] / 1e9

    def outer(name):
        """Spans of ``name`` not nested in another span of that name."""
        ids = {(s[5], s[0]) for s in by.get(name, [])}
        return [s for s in by.get(name, [])
                if not (isinstance(s[1], int) and (s[5], s[1]) in ids)]

    def prefix(p):
        return [s for n, ss in by.items() if n.startswith(p) for s in ss]

    def total(ss, key):
        return sum(s[6].get(key) or 0 for s in ss)

    # codec
    enc, dec = outer("codec.encode"), outer("codec.decode")
    nf_enc, nf_dec = total(enc, "features"), total(dec, "features")
    t_enc, t_dec = sum(map(dur, enc)), sum(map(dur, dec))
    _add(out, "codec.encode.features", nf_enc / n_ops, "count")
    _add(out, "codec.encode.busy_s", t_enc / n_ops, "s")
    _add(out, "codec.encode.us_per_feature",
         t_enc * 1e6 / nf_enc if nf_enc else 0.0, "us")
    _add(out, "codec.decode.features", nf_dec / n_ops, "count")
    _add(out, "codec.decode.busy_s", t_dec / n_ops, "s")
    _add(out, "codec.decode.us_per_feature",
         t_dec * 1e6 / nf_dec if nf_dec else 0.0, "us")
    _add(out, "codec.scan_frames.busy_s",
         sum(map(dur, outer("codec.scan_frames"))) / n_ops, "s")
    _add(out, "codec.bytes_per_feature",
         total(enc, "bytes") / nf_enc if nf_enc else 0.0, "B")

    # io (+ state/gob)
    meta = outer("io.read_metadata")
    _add(out, "io.read_metadata.calls", len(meta) / n_ops, "count")
    _add(out, "io.read_metadata.busy_s", sum(map(dur, meta)) / n_ops, "s")
    sub = outer("io.read_subfile")
    _add(out, "io.read_subfile.busy_s", sum(map(dur, sub)) / n_ops, "s")
    _add(out, "io.read_subfile.self_s", sum(map(self_s, sub)) / n_ops, "s")
    _add(out, "io.read_subfile.bytes", total(sub, "bytes") / n_ops, "B")
    _add(out, "io.gob_decode.busy_s",
         sum(map(dur, outer("io.gob_decode"))) / n_ops, "s")
    writes = outer("io.write_geobuf") + outer("pipelines.split_combine")
    _add(out, "io.write_geobuf.write_s", total(writes, "write_s") / n_ops, "s")
    _add(out, "io.geojson_parse.busy_s",
         sum(map(dur, outer("io.geojson_parse"))) / n_ops, "s")

    # stages: Dataset.stats() of each executed plan
    ops: dict[str, dict] = {}
    for s in prefix("stages.exec."):
        for o in s[6].get("ops", []):
            d = ops.setdefault(o["op"], {"rows_out": 0, "wall_s": 0.0,
                                         "tasks": 0})
            for k in d:
                d[k] += o[k]
    _add(out, "stages.tasks", sum(d["tasks"] for d in ops.values()) / n_ops,
         "count")
    _add(out, "stages.rows_out",
         sum(d["rows_out"] for d in ops.values()) / n_ops, "count")
    _add(out, "stages.wall_s", sum(d["wall_s"] for d in ops.values()) / n_ops,
         "s")
    _add(out, "stages.exec.self_s",
         sum(map(self_s, prefix("stages.exec."))) / n_ops, "s")
    for name, d in sorted(ops.items()):
        _add(out, f"stages.{name}.rows_out", d["rows_out"] / n_ops, "count")
        _add(out, f"stages.{name}.wall_s", d["wall_s"] / n_ops, "s")
        _add(out, f"stages.{name}.tasks", d["tasks"] / n_ops, "count")

    # exchange
    ex_all = prefix("exchange.")
    ex_calls = [s for s in ex_all if s[2] != "exchange.splits"]
    ex_ids = {(s[5], s[0]) for s in ex_calls}
    index = {(s[5], s[0]): s for s in spans}
    top = [s for s in ex_calls if not _has_ancestor(s, ex_ids, index)]
    splits = by.get("exchange.splits", [])
    skews = [_skew(s[6].get("block_rows")) for s in top]
    in_skews = [_skew(s[6].get("bucket_bytes")) for s in splits]
    _add(out, "exchange.calls", len(top) / n_ops, "count")
    _add(out, "exchange.call_s", sum(map(dur, top)) / n_ops, "s")
    _add(out, "exchange.self_s", sum(map(self_s, ex_all)) / n_ops, "s")
    _add(out, "exchange.nbuckets_total", total(splits, "nbuckets") / n_ops,
         "count")
    _add(out, "exchange.maps", total(splits, "maps") / n_ops, "count")
    _add(out, "exchange.fragments",
         sum((s[6].get("maps") or 0) * (s[6].get("nbuckets") or 0)
             for s in splits) / n_ops, "count")
    _add(out, "exchange.rows", total(top, "rows") / n_ops, "count")
    _add(out, "exchange.skew_max_over_median", max(skews, default=0.0),
         "ratio")
    _add(out, "exchange.input_skew_max_over_median",
         max(in_skews, default=0.0), "ratio")
    _add(out, "exchange.bytes", sum(sum(s[6].get("bucket_bytes") or [])
                                    for s in splits) / n_ops, "B")

    # collect
    col = outer("collect")
    _add(out, "collect.calls", len(col) / n_ops, "count")
    _add(out, "collect.rows", total(col, "rows") / n_ops, "count")
    _add(out, "collect.bytes", total(col, "bytes") / n_ops, "B")
    _add(out, "collect.busy_s", sum(map(dur, col)) / n_ops, "s")

    # spatial
    sp = prefix("spatial.")
    sp_ids = {(s[5], s[0]) for s in sp}
    sp_top = [s for s in sp if not (isinstance(s[1], int)
                                    and (s[5], s[1]) in sp_ids)]
    _add(out, "spatial.calls", len(sp) / n_ops, "count")
    _add(out, "spatial.busy_s", sum(map(dur, sp_top)) / n_ops, "s")
    _add(out, "spatial.self_s", sum(map(self_s, sp)) / n_ops, "s")

    # pipelines: the driver's operations and the flow's steps
    root_spans = {s[0]: s for s in spans
                  if s[5] == driver_pid and s[1] is None}
    for op in ("entry",) + tuple(f"query.{q}" for q in QUERY_MIX):
        rs = [s for s in root_spans.values() if s[2] == op]
        _add(out, f"{op}.s",
             statistics.median(map(dur, rs)) if rs else 0.0, "s")
        _add(out, f"{op}.self_s",
             statistics.median(map(self_s, rs)) if rs else 0.0, "s")
    for step, name in (("convert", "pipelines.geojson_to_geobuf"),
                       ("split_combine", "pipelines.split_combine")):
        _add(out, f"flow.{step}_s", sum(map(dur, outer(name))) / n_ops, "s")
    passes = [s for s in root_spans.values() if s[2] == "pass"]
    back = sum(dur(s) for p in passes for s in _children(p, spans)
               if s[2] == "collect")
    _add(out, "flow.readback_s", back / n_ops if passes else 0.0, "s")

    # tracing overhead: traced against untraced samples of each op name
    ratios = []
    for name in set(loop.names):
        t = [v for v, n, tr in zip(loop.latencies, loop.names, loop.traced)
             if n == name and tr]
        u = [v for v, n, tr in zip(loop.latencies, loop.names, loop.traced)
             if n == name and not tr]
        if t and u:
            ratios.append(statistics.median(t) / statistics.median(u))
    _add(out, "trace.overhead_pct",
         (statistics.median(ratios) - 1.0) * 100 if ratios else 0.0, "%")
    _add(out, "trace.traced_ops", len(traced_ops), "count")
    _add(out, "trace.spans", len(spans), "count")
    return out


def _skew(values) -> float:
    """max / median of per-bucket amounts (median floored at 1)."""
    if not values:
        return 0.0
    return max(values) / max(1.0, statistics.median(values))


def _children(parent, spans):
    return [s for s in spans if s[5] == parent[5] and s[1] == parent[0]]


def _has_ancestor(s, ids, index) -> bool:
    p = s[1]
    while isinstance(p, int):
        if (s[5], p) in ids:
            return True
        nxt = index.get((s[5], p))
        p = nxt[1] if nxt is not None else None
    return False
