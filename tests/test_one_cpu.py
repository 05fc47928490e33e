"""One-CPU smoke: the engine must finish on a single-CPU cluster.

A subprocess runs ``ray.init(num_cpus=1)`` and consumes the flagship
``entry()`` plus one query per family that once ran an actor-pool
stage (spatial kNN, keyed lookup join, image, audio, ANN, raster).
An actor pool could hold the only CPU while the read task feeding it
waited for one, so a regression shows up as a hang: the subprocess
runs under a hard timeout and its whole process group (driver, raylet,
workers) is killed when the timeout fires.  Each row count must equal
the one the 4-CPU test session computes.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from test_functions import SF

TESTS = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 240
QUERIES = ("knn_suppliers", "lineitem_lookup_join", "images_decode_stats",
           "audio_features", "embeddings_pq_topk", "suppliers_voronoi_areas")

_CHILD = f"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
sys.path.insert(0, {TESTS!r})
from test_one_cpu import row_counts
print(json.dumps(row_counts()))
"""


def _nrows(out) -> int:
    import pyarrow as pa

    if isinstance(out, pa.Table):
        return out.num_rows
    return out.materialize().count()


def row_counts() -> dict:
    """Rows of ``entry()`` and of each of ``QUERIES`` on the sf0.001
    tier, every result consumed."""
    import __ray_entry__ as e

    qs = e.queries()
    counts = {"entry": _nrows(e.entry())}
    counts.update({name: _nrows(qs[name](SF)) for name in QUERIES})
    return counts


def _run_one_cpu() -> dict:
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD], cwd=os.path.dirname(TESTS),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"one-CPU run did not finish in {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-4000:]
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.skipif(not os.path.isdir(SF), reason="needs the sf0.001 tier")
def test_one_cpu_entry_and_former_actor_queries(ray_session):
    got = _run_one_cpu()
    want = row_counts()
    assert got == want
    assert all(n > 0 for n in want.values())
