"""Driver-style correctness harness: run every queries() entry and its
oracle_sql() side by side, compare row count, schema, and an
order-insensitive value hash (columns sorted by name, rows sorted).

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# the checkout this file lives in: the driver and the Ray workers both
# import geobuf_ray from here, whatever the caller's cwd
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray

        if isinstance(res, ray.data.Dataset):
            # collect_table, not Dataset.to_pandas(): the latter can
            # re-execute the plan behind a limit-1 schema fetch
            from geobuf_ray.collect import collect_table

            res = collect_table(res).to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    h = hashlib.sha256()
    for c in df.columns:
        col = df[c]
        if np.issubdtype(col.dtype, np.floating):
            h.update(np.round(col.to_numpy(), 9).tobytes())
        elif np.issubdtype(col.dtype, np.integer):
            h.update(col.to_numpy().astype(np.int64).tobytes())
        else:
            h.update("\x1f".join(col.astype(str)).encode())
    return h.hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # Ray workers put the driver's cwd on their sys.path
    sf_dir = os.path.abspath(sf_dir)
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"rows  {name}: {len(got)} rows, {len(got.columns)} cols "
                  f"hash={value_hash(got)} ({dt:.1f}s) [rows-only]")
            if len(got) == 0 and name not in ("docs_simhash_pairs",):
                print(f"      WARNING: zero rows")
            continue
        want = canon(con.execute(sqls[name]).fetchdf())
        ok_rows = len(got) == len(want)
        ok_schema = list(got.columns) == list(want.columns)
        ok_hash = ok_rows and ok_schema and value_hash(got) == value_hash(want)
        status = "OK   " if (ok_rows and ok_schema and ok_hash) else "FAIL "
        print(f"{status} {name}: rows {len(got)}/{len(want)} "
              f"schema={'=' if ok_schema else f'{list(got.columns)} vs {list(want.columns)}'} "
              f"hash={'=' if ok_hash else 'MISMATCH'} ({dt:.1f}s)")
        if not (ok_rows and ok_schema and ok_hash):
            failures += 1
            if ok_schema and ok_rows:
                merged = got.merge(want, how="outer", indicator=True)
                diff = merged[merged["_merge"] != "both"]
                print(diff.head(6).to_string())
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
