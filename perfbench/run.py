"""Benchmark entry point.

    python3 perfbench/run.py --workload geobuf_flow --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One closed-loop client in this process
calls the engine's public functions; every output is checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics).  A fuller report, with the
workload's own metric names, the host stamp and the sample counts, is
printed on the line before it and written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

SETUP_ROUNDS = 3  # warm-ups; set-up time = init + their median
# set-up (Ray start, inputs, oracles, warm-ups) plus two slow passes of
# the longest workload (spatial_queries): a traced run makes two
RUN_BASE_S = 120.0


def run_limit_s(seconds: float) -> float:
    """Hard stop for the whole run, set-up included: the base budget plus
    twice the measured time (a run ends on a pass boundary after
    ``seconds``)."""
    return RUN_BASE_S + 2 * seconds


def _root() -> str:
    root = os.getcwd()
    missing = [p for p in ("geobuf_ray/__init__.py", "__ray_entry__.py",
                           "tools/check_oracles.py")
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("perfbench: run from the root of a checkout of the engine; "
              f"missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    return root


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = _root()
    sys.path.insert(0, root)
    from perfbench import harness, layers, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.arm_deadline(run_limit_s(args.seconds))
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = os.path.join(work, "trace") if args.trace else None
    rec = None
    if trace_dir:
        os.makedirs(trace_dir)
        rec = trace.Recorder()
        rec.enabled = False
    wl_cls = workloads.WORKLOADS[args.workload]
    session = harness.RaySession(root, trace_dir, wl_cls.vcpus)
    session.cleanup()
    try:
        t0 = time.perf_counter()
        if wl_cls.uses_ray:
            session.start()
        import __ray_entry__  # noqa: F401  (engine import is set-up)

        if rec is not None:
            trace.install(rec, datasets=True)
        init_s = time.perf_counter() - t0
        wl = wl_cls(work, args.seed)
        t = time.perf_counter()
        wl.prepare(os.path.join(work, "inputs"))
        prepare_s = time.perf_counter() - t
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t = time.perf_counter()
            wl.warmup()
            rounds.append(time.perf_counter() - t)
        setup_s = init_s + harness.median(rounds)

        loop = Loop(wl, session, rec, trace_dir)
        loop.run(args.seconds)
        rss = harness.peak_rss_mb()
    finally:
        session.stop()
        session.cleanup()

    if not loop.latencies:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    detail = {"setup_s": (setup_s, "s"), "init_s": (init_s, "s"),
              "warmup_s": (rounds, "s"), "prepare_s": (prepare_s, "s")}
    detail.update(wl.report(list(zip(loop.pass_of, loop.names,
                                     loop.latencies))))
    detail.update({
        "driver_peak_rss_mb": (rss, "MB"),
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "query_fail_count": (loop.failed, "count"),
        "samples": (len(loop.latencies), "count"),
    })
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": harness.host_stamp(
            root, harness.NUM_CPUS if wl_cls.uses_ray else 0),
        "attempted": loop.attempted, "failed": loop.failed,
        "failures": loop.failures[:20],
        "samples_s": list(zip(loop.pass_of, loop.names, loop.latencies)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
    }
    if args.trace:
        per_layer = layers.summarize(trace.load_spans(trace_dir, rec), rec.pid,
                                     loop)
        report["per_layer"] = per_layer
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    source = report["per_layer"] if args.trace else report["metrics"]
    metrics = {}
    for name, unit in wanted.items():
        v = source.get(name, {}).get("value", 0.0)
        metrics[name] = {"value": v, "unit": unit}
    out = os.path.join(root, ".perfbench_work", "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


class Loop:
    """The closed loop: one operation at a time, until ``seconds`` have
    passed, the current pass is complete and the workload has made its
    ``min_passes``.  A traced run alternates
    traced and untraced passes so it measures its own overhead."""

    def __init__(self, wl, session, rec, trace_dir):
        self.wl, self.session, self.rec = wl, session, rec
        self.flag = (os.path.join(trace_dir, "tracing-on")
                     if trace_dir else None)
        self.latencies: list[float] = []
        self.names: list[str] = []
        self.traced: list[bool] = []
        self.pass_of: list[int] = []
        self.roots: list[int] = []  # driver op span id per traced sample
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.passes = 0

    def _tracing(self, on: bool) -> None:
        if self.rec is None:
            return
        self.rec.enabled = on
        if on:
            open(self.flag, "w").close()
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def run(self, seconds: float) -> None:
        from perfbench import harness

        start = time.perf_counter()
        # a traced run alternates traced and untraced passes
        min_passes = max(self.wl.min_passes, 2 if self.rec is not None else 1)
        while True:
            traced = self.rec is not None and self.passes % 2 == 0
            self._tracing(traced)
            name, run, check = self.wl.next_op()
            self.attempted += 1
            span = None
            if traced:
                self.rec.op = self.attempted
                span = self.rec.begin(name)
                self.rec.op_root = span[0]
            t = time.perf_counter()
            try:
                result = harness.run_with_limit(run, self.wl.op_limit_s)
                dt = time.perf_counter() - t
            except harness.OpTimeout as e:
                self._fail(name, e)
                self.session.restart()  # a hang must not stall later ops
                result = None
            except Exception as e:
                self._fail(name, e)
                result = None
            finally:
                if span is not None:
                    self.rec.end(span)
                    self.rec.op = self.rec.op_root = None
            self._tracing(False)
            if result is not None:
                try:
                    check(result)
                except Exception as e:
                    self._fail(name, e)
                else:
                    self.latencies.append(dt)
                    self.names.append(name)
                    self.traced.append(traced)
                    self.pass_of.append(self.passes)
                    self.roots.append(span[0] if span is not None else None)
            if self.wl.pass_done():
                self.passes += 1
                if (time.perf_counter() - start >= seconds
                        and self.passes >= min_passes):
                    break

    def _fail(self, name: str, e: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {type(e).__name__}: {e}")
        traceback.print_exception(type(e), e, e.__traceback__,
                                  file=sys.stderr, limit=4)


if __name__ == "__main__":
    sys.exit(main())
