"""Run every workload on several seeds and summarise its end-to-end
metrics, those of ``BENCHMARK.json`` and the workload's own (``flow_s``,
``subfile_read_p50_ms``, ``entry_s``, ``error_rate``, ...): per metric
its unit, the median, the quartiles and their distance as a share of
the median (the run-to-run spread that ``bound`` in ``BENCHMARK.json``
must cover).

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Run from the root of a checkout; runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every "
                    "workload of perfbench, gating or not)")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    sys.path.insert(0, ".")
    from perfbench.workloads import WORKLOADS

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workload or list(WORKLOADS)
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs,
               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    for wl in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls, host = [], None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t = time.perf_counter()
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            walls.append(time.perf_counter() - t)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {p.returncode}\n"
                      f"{p.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])
            host = report["host"]
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed",
                      file=sys.stderr)
                return 1
            for k, m in report["metrics"].items():
                if isinstance(m["value"], (int, float)):
                    units[k] = m["unit"]
                    values.setdefault(k, []).append(m["value"])
            print(wl, seed, f"{walls[-1]:.1f}s",
                  {k: round(m["value"], 4)
                   for k, m in result["metrics"].items()}, flush=True)
        summary["workloads"][wl] = {
            "host": host,
            "run_wall_s": {"median": statistics.median(walls),
                           "max": max(walls)},
            "metrics": {k: {"unit": units[k], **_spread(v)}
                        for k, v in values.items() if len(v) == args.runs}}
        for k, s in summary["workloads"][wl]["metrics"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{wl} {k}: median {s['median']:.4g} {s['unit']} "
                  f"spread {spread}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


if __name__ == "__main__":
    sys.exit(main())
