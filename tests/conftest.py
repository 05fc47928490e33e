import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def no_ray_groupby(monkeypatch):
    """Keyed groupings run on ``functions/exchange.py``: fail the test
    if the code under it calls Ray Data's sort-based
    ``Dataset.groupby``."""
    import ray.data

    def refuse(self, *args, **kwargs):
        raise AssertionError("a keyed grouping called Dataset.groupby "
                             "instead of the hash exchange")

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)


@pytest.fixture
def many_buckets(monkeypatch):
    """``with many_buckets(nbytes):`` spreads a small test input over
    many exchange buckets, empty ones included.  A self-sized exchange
    gives each bucket ``_BUCKET_BYTES`` of input (1 MiB), so a test
    table of a few KB lands in one bucket; inside the block each bucket
    gets ``nbytes`` instead (the exchange's sizing reads the constant
    on the driver at call time), up to ``_MAX_BUCKETS``."""
    import contextlib

    from geobuf_ray.functions import exchange

    @contextlib.contextmanager
    def spread(nbytes: int = 256):
        with monkeypatch.context() as m:
            m.setattr(exchange, "_BUCKET_BYTES", nbytes)
            yield

    return spread


@pytest.fixture
def shuffle_joins(monkeypatch):
    """Pin ``hash_join``, ``asof_join`` and ``range_join`` to the
    co-group.  Each broadcasts a build side whose metadata bytes are
    at most ``_BROADCAST_BYTES``; at -1 no side qualifies, an empty
    one included, so a test's few-KB sides shuffle as a large join's
    do."""
    from geobuf_ray.functions import join

    monkeypatch.setattr(join, "_BROADCAST_BYTES", -1)
