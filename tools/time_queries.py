"""Per-query wall time, checked, for interleaving two checkouts.

Usage:
    python tools/time_queries.py --num-cpus N --sf DIR[,DIR...]
        [--rounds R] [--json] QUERY [QUERY ...]

Protocol:
- One Ray session per process, ``ray.init(address="local",
  num_cpus=N)``, so a CPU count is one process.  Compare two checkouts
  by running this file from each, alternately, as separate processes:
  e.g. the change in its tree and the parent in a ``git archive`` copy
  (copy this file into the copy if it has none).  The file imports the
  checkout it lives in, whatever the caller's cwd.
- In each process, for each scale-factor dir and then each query: one
  warm-up run, then ``R`` timed runs (default 1).  The query order
  rotates by one each round, so a slow host phase spreads over all the
  queries.
- A run is ``queries()[name](sf_dir)`` collected to pandas with
  ``check_oracles.to_pandas``; its time covers the call and the
  collection (a query returns a lazy Dataset).  Then ``canon`` and
  ``value_hash``, untimed: every timed run must give the row count and
  hash of its warm-up, or the tool says ``MISMATCH`` and exits 1.
- It prints one line per (scale factor, query): the median of the
  timed runs, every run, the row count and the hash.  ``--json``
  prints one JSON object per line instead, for a script that pairs
  the runs of two trees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--num-cpus", type=int, required=True)
    ap.add_argument("--sf", required=True,
                    help="comma-separated scale-factor dirs")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("queries", nargs="+")
    args = ap.parse_args()
    sf_dirs = [os.path.abspath(d) for d in args.sf.split(",")]
    # Ray workers put the driver's cwd on their sys.path
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "tools"))

    import ray

    from check_oracles import canon, to_pandas, value_hash

    import __ray_entry__ as entry

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    qs = entry.queries()

    def run(name: str, sf_dir: str):
        t0 = time.perf_counter()
        df = to_pandas(qs[name](sf_dir))
        dt = time.perf_counter() - t0
        return dt, len(df), value_hash(canon(df))

    ok = True
    for sf_dir in sf_dirs:
        want, times = {}, {q: [] for q in args.queries}
        for name in args.queries:
            _, rows, h = run(name, sf_dir)
            want[name] = (rows, h)
        order = list(args.queries)
        for _ in range(args.rounds):
            for name in order:
                dt, rows, h = run(name, sf_dir)
                times[name].append(dt)
                if (rows, h) != want[name]:
                    ok = False
                    want[name] = (rows, "MISMATCH")
            order = order[1:] + order[:1]
        for name in args.queries:
            rows, h = want[name]
            med = statistics.median(times[name])
            if args.json:
                print(json.dumps({
                    "sf": os.path.basename(sf_dir), "query": name,
                    "cpus": args.num_cpus, "median_s": med,
                    "runs_s": times[name], "rows": rows, "hash": h}),
                    flush=True)
            else:
                runs = " ".join(f"{t:.3f}" for t in times[name])
                print(f"{os.path.basename(sf_dir):8s} {name:40s} "
                      f"{med:8.3f}s  [{runs}]  rows={rows} hash={h}",
                      flush=True)
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
