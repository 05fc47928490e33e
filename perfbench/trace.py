"""Span tracing for the traced benchmark run.

Spans are recorded from outside the engine: :func:`install` replaces
engine functions (and Ray Data's Dataset execution methods) with
wrappers that time each call.  The driver installs them itself; Ray
workers install them through ``runtime_env={"worker_process_setup_hook":
"perfbench.trace.worker_setup"}``.  Spans are kept in memory.  The
driver hands its spans over when the run ends; a worker appends its
spans to a file each time its outermost span closes, because Ray ends
worker processes without running exit handlers.

A span is ``[id, parent, name, start_ns, end_ns, pid, attrs]``.  Times
come from ``time.monotonic_ns``, one clock for every process on the
host, so worker spans are matched to the driver operation whose
interval holds them (one closed-loop client: one operation at a time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ON_FLAG = "tracing-on"  # file in the trace dir; present = record spans


class _Off:
    """Stack token of a call made while tracing is off."""


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, flag_path: str | None = None, sink: str | None = None):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.enabled = flag_path is None
        self.flag_path = flag_path
        self.sink = sink  # JSON-lines file the spans go to (workers)
        self.op = None  # driver-side operation id
        self.op_root = None  # its span id: parent of spans in other threads
        self.seen_plans: set = set()  # Dataset stats already recorded
        self._ids = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def active(self) -> bool:
        """Workers follow the driver's on/off flag file, read at the
        outermost span only, so a call tree is traced whole or not."""
        st = self._stack()
        if st:
            return not isinstance(st[-1], _Off)
        if self.flag_path is None:
            return self.enabled
        return os.path.exists(self.flag_path)

    def begin(self, name: str):
        """Open a span; returns the token :meth:`end` takes."""
        st = self._stack()
        if not self.active():
            tok = _Off()
            st.append(tok)
            return tok
        with self._lock:
            self._ids += 1
            sid = self._ids
        parent = next((s[0] for s in reversed(st) if not isinstance(s, _Off)),
                      self.op_root)
        span = [sid, parent, name, time.monotonic_ns(), 0, self.pid,
                {"op": self.op} if self.op is not None else {}]
        st.append(span)
        return span

    def end(self, span, **attrs) -> None:
        st = self._stack()
        # by identity: a generator span can close out of order
        for i in range(len(st) - 1, -1, -1):
            if st[i] is span:
                del st[i]
                break
        if isinstance(span, _Off):
            return
        span[4] = time.monotonic_ns()
        span[6].update(attrs)
        with self._lock:
            self.spans.append(span)
            if self.sink is not None and not st:
                with open(self.sink, "a") as f:
                    f.writelines(json.dumps(x) + "\n" for x in self.spans)
                self.spans.clear()

    def in_span(self, prefix: str) -> bool:
        return any(not isinstance(s, _Off) and s[2].startswith(prefix)
                   for s in self._stack())


# ---------------------------------------------------------------------------
# what to wrap: (module, function, span name, counts(args, kwargs, result))
# ---------------------------------------------------------------------------


def _binary_bytes(arr) -> int:
    import pyarrow.compute as pc

    if arr is None or len(arr) == 0:
        return 0
    return int(pc.sum(pc.binary_length(arr)).as_py() or 0)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _c_encode(a, k, r):
    t = _arg(a, k, 0, "table")
    return {"features": t.num_rows, "bytes": _binary_bytes(r)}


def _c_decode(a, k, r):
    return {"features": r.num_rows}


def _c_scan(a, k, r):
    return {"bytes": len(_arg(a, k, 0, "buf")), "records": len(r)}


def _c_subfile(a, k, r):
    return {"bytes": _binary_bytes(r["geobuf"]), "records": r.num_rows}


def _c_rows(a, k, r):
    return {"rows": getattr(r, "num_rows", 0)}


def _c_collect(a, k, r):
    return {"rows": r.num_rows, "bytes": r.nbytes}


def _c_manifest(a, k, r):
    if "write_seconds" not in r.column_names:
        return {}
    return {"write_s": float(sum(v for v in r["write_seconds"].to_pylist()
                                 if v == v))}


def _c_splits(a, k, r):
    """Map and bucket counts, and the bytes each bucket receives (sizes
    of the finished fragments, from the object directory: no data
    moves, but the driver waits for the map tasks here)."""
    import ray

    nb = int(_arg(a, k, 2, "nbuckets"))
    out = {"maps": len(r), "nbuckets": nb}
    refs = [ref for m in r for ref in m]
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        loc = ray.experimental.get_object_locations(refs)
        per = [0] * nb
        for i, ref in enumerate(refs):
            per[i % nb] += (loc.get(ref) or {}).get("object_size") or 0
        out["bucket_bytes"] = per
    return out


def _c_exchange(a, k, r):
    rows = _block_rows(r)
    out = {"nbuckets": k.get("nbuckets")}
    if rows is not None:
        out["rows"] = int(sum(rows))
        out["block_rows"] = rows
    return out


def _block_rows(ds):
    """Output block row counts of an exchange result.  The result is a
    ``from_arrow_refs`` dataset whose block metadata is already on the
    driver, so this reads no data and runs no task."""
    dag = getattr(getattr(ds, "_logical_plan", None), "dag", None)
    bundles = getattr(dag, "_input_data", None)
    if bundles is None:
        return None
    return [m.num_rows or 0 for b in bundles for _, m in b.blocks]


ENGINE_WRAPS = (
    ("geobuf_ray.codec.feature", "encode_batch", "codec.encode", _c_encode),
    ("geobuf_ray.codec.feature", "scan_frames", "codec.scan_frames", _c_scan),
    ("geobuf_ray.codec.decode", "decode_batch", "codec.decode", _c_decode),
    ("geobuf_ray.io.geojson_io", "parse_features_batch", "io.geojson_parse",
     _c_rows),
    ("geobuf_ray.io.geobuf_file", "read_metadata", "io.read_metadata", None),
    ("geobuf_ray.io.geobuf_file", "read_subfile", "io.read_subfile",
     _c_subfile),
    ("geobuf_ray.io.geobuf_file", "write_geobuf", "io.write_geobuf",
     _c_manifest),
    ("geobuf_ray.io.geobuf_file", "write_indexed_geobuf",
     "io.write_indexed_geobuf", None),
    ("geobuf_ray.state.gob", "decode_metadata", "io.gob_decode", None),
    ("geobuf_ray.state.gob", "encode_metadata", "io.gob_encode", None),
    ("geobuf_ray.stages.codec_stages", "decode_geobuf_batch",
     "stages.decode_geobuf_batch", _c_rows),
    ("geobuf_ray.stages.codec_stages", "encode_geobuf_batch",
     "stages.encode_geobuf_batch", _c_rows),
    ("geobuf_ray.stages.codec_stages", "read_bbox_batch",
     "stages.read_bbox_batch", _c_rows),
    ("geobuf_ray.functions.exchange", "_drive_splits", "exchange.splits",
     _c_splits),
    ("geobuf_ray.functions.exchange", "hash_exchange", "exchange.hash_exchange",
     _c_exchange),
    ("geobuf_ray.functions.exchange", "hash_cogroup", "exchange.hash_cogroup",
     _c_exchange),
    ("geobuf_ray.functions.exchange", "cogroup_presplit",
     "exchange.cogroup_presplit", _c_exchange),
    ("geobuf_ray.functions.exchange", "grouped_exchange",
     "exchange.grouped_exchange", _c_exchange),
    ("geobuf_ray.collect", "collect_table", "collect", _c_collect),
    ("geobuf_ray.pipelines.convert", "geojson_to_geobuf",
     "pipelines.geojson_to_geobuf", None),
    ("geobuf_ray.pipelines.tiling", "split_combine", "pipelines.split_combine",
     _c_manifest),
    ("geobuf_ray.spatial.tiles", "bbox_cover_rows", "spatial.bbox_cover_rows",
     None),
    ("geobuf_ray.spatial.s2", "s2_cell_id", "spatial.s2_cell_id", None),
    ("geobuf_ray.spatial.s2", "cover_rects", "spatial.s2_cover_rects", None),
)
# every public join operator of spatial/join.py is wrapped as well
SPATIAL_JOIN_MODULE = "geobuf_ray.spatial.join"

# Dataset methods that execute a plan; the outermost one records the
# per-operator summary of Dataset.stats()
DATASET_EXEC = ("take_all", "take", "materialize", "to_pandas", "count",
                "aggregate", "to_arrow_refs", "write_parquet")
DATASET_EXEC_ITER = ("iter_internal_ref_bundles",)


def _wrap(rec: Recorder, fn, name: str, counts):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span = rec.begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                rec.end(span)
        gen_wrapper.__perfbench_orig__ = fn
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            attrs = {}
            if not isinstance(span, _Off) and counts is not None and result is not None:
                try:
                    attrs = counts(args, kwargs, result)
                except Exception as e:  # a count must never fail the call
                    attrs = {"count_error": type(e).__name__}
            rec.end(span, **attrs)
    wrapper.__perfbench_orig__ = fn
    return wrapper


def _op_summaries(ds, seen: set) -> list[dict]:
    """Per-operator numbers of ``ds.stats()`` for the plans just run:
    its own operators and those of parent plans not recorded before."""
    out = []
    todo = [ds._get_stats_summary()]
    while todo:
        summ = todo.pop()
        todo.extend(summ.parents or [])
        key = (summ.dataset_uuid, summ.number, summ.base_name)
        if key in seen:
            continue
        seen.add(key)
        for op in summ.operators_stats:
            m = re.search(r"(\d+) tasks executed",
                          op.block_execution_summary_str or "")
            out.append({
                "op": re.sub(r"[^A-Za-z0-9_.+]+", "_", op.operator_name
                             .replace("->", "+")).strip("_"),
                "rows_out": (op.output_num_rows or {}).get("sum", 0),
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "tasks": int(m.group(1)) if m else 0,
            })
    return out


def _wrap_dataset_exec(rec: Recorder, fn, name: str):
    span_name = "stages.exec." + name

    def record(span, ds, nested):
        if isinstance(span, _Off) or nested:
            return {}
        try:
            return {"ops": _op_summaries(ds, rec.seen_plans)}
        except Exception as e:
            return {"count_error": type(e).__name__}

    if name in DATASET_EXEC_ITER:
        @functools.wraps(fn)
        def gen_wrapper(self, *args, **kwargs):
            nested = rec.in_span("stages.exec.")
            span = rec.begin(span_name)
            attrs = {}
            try:
                yield from fn(self, *args, **kwargs)
                attrs = record(span, self, nested)
            finally:
                rec.end(span, **attrs)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        nested = rec.in_span("stages.exec.")
        span = rec.begin(span_name)
        attrs = {}
        try:
            out = fn(self, *args, **kwargs)
            attrs = record(span, out if name == "materialize" else self,
                           nested)
            return out
        finally:
            rec.end(span, **attrs)
    return wrapper


def install(rec: Recorder, *, datasets: bool) -> None:
    """Replace the traced engine functions by span wrappers, in their
    defining module and wherever another ``geobuf_ray`` module bound
    them by name at import time."""
    swaps: dict[int, object] = {}
    for mod_name, attr, name, counts in ENGINE_WRAPS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        if hasattr(fn, "__perfbench_orig__"):
            continue
        swaps[id(fn)] = (fn, _wrap(rec, fn, name, counts))
    join = importlib.import_module(SPATIAL_JOIN_MODULE)
    for attr, fn in vars(join).copy().items():
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == SPATIAL_JOIN_MODULE
                and not hasattr(fn, "__perfbench_orig__")):
            swaps[id(fn)] = (fn, _wrap(rec, fn, "spatial." + attr, None))
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "geobuf_ray" or mod_name.startswith("geobuf_ray.")
                or mod_name == "__ray_entry__"):
            continue
        for attr, val in list(vars(mod).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    if datasets:
        from ray.data import Dataset

        for m in DATASET_EXEC + DATASET_EXEC_ITER:
            fn = getattr(Dataset, m)
            if not hasattr(fn, "__perfbench_orig__"):
                w = _wrap_dataset_exec(rec, fn, m)
                w.__perfbench_orig__ = fn
                setattr(Dataset, m, w)


def worker_setup() -> None:
    """``worker_process_setup_hook`` of the traced run."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    import geobuf_ray.pipelines.queries  # noqa: F401  (binds names first)

    rec = Recorder(flag_path=os.path.join(trace_dir, ON_FLAG),
                   sink=os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))
    install(rec, datasets=False)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def load_spans(trace_dir: str, driver: Recorder) -> list[list]:
    spans = list(driver.spans)
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def attach_workers(spans: list[list], driver_pid: int,
                   roots: list[list]) -> None:
    """Give each outermost worker span the driver operation whose
    interval holds its start as parent, and every worker span the op id
    of its outermost span."""
    import bisect

    roots = sorted(roots, key=lambda s: s[3])
    starts = [r[3] for r in roots]
    index = {(s[5], s[0]): s for s in spans if s[5] != driver_pid}
    for s in spans:
        if s[5] == driver_pid or s[1] is not None:
            continue
        i = bisect.bisect_right(starts, s[3]) - 1
        if i >= 0 and s[3] <= roots[i][4]:
            s[1] = ("op", roots[i][0])
            s[6]["op"] = roots[i][6].get("op")
    for s in index.values():
        top = s
        while isinstance(top[1], int) and (s[5], top[1]) in index:
            top = index[(s[5], top[1])]
        s[6]["op"] = top[6].get("op")


def self_times(spans: list[list], driver_pid: int) -> dict[tuple, int]:
    """Span duration minus the part of it its child spans cover
    (children clipped to the parent's interval)."""
    def key(s):
        return (s[5], s[0])

    children: dict[tuple, list[tuple[int, int]]] = {}
    for s in spans:
        p = s[1]
        if p is None:
            continue
        pk = (driver_pid, p[1]) if isinstance(p, (list, tuple)) else (s[5], p)
        children.setdefault(pk, []).append((s[3], s[4]))
    out = {}
    for s in spans:
        kids = [(max(a, s[3]), min(b, s[4]))
                for a, b in children.get(key(s), []) if b > s[3] and a < s[4]]
        out[key(s)] = (s[4] - s[3]) - _union_ns(kids)
    return out
