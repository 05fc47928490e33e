"""Per-stage Ray Data stats for any registered query.

Usage: python tools/query_stats.py QUERY [SF_DIR]

Runs one `__ray_entry__.queries()` entry and prints `Dataset.stats()`
— per-operator wall time, blocks, rows, memory — the feedback loop the
optimization passes in BASELINE.md were driven by.  Queries returning
a materialized table (driver-side final combines) have no Dataset
stats; the tool says so instead of failing.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    if len(sys.argv) < 2:
        print(__doc__)
        raise SystemExit(2)
    name = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else \
        os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS",
                                             os.cpu_count() or 1)),
                 include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as entry

    qs = entry.queries()
    if name not in qs:
        print(f"unknown query {name!r}; choose from:")
        print("  " + "\n  ".join(sorted(qs)))
        raise SystemExit(2)
    t0 = time.perf_counter()
    out = qs[name](sf_dir)
    if hasattr(out, "materialize"):
        out = out.materialize()
        wall = time.perf_counter() - t0
        print(out.stats())
        print(f"\nwall: {wall:.2f}s  rows: {out.count()}")
    else:
        wall = time.perf_counter() - t0
        n = out.num_rows if hasattr(out, "num_rows") else len(out)
        print("(driver-materialized result — partial aggregates were "
              "combined driver-side; no Dataset stats)")
        print(f"wall: {wall:.2f}s  rows: {n}")
    ray.shutdown()


if __name__ == "__main__":
    main()
