import concurrent.futures

import pytest

from kljnsim import protocol


class PoolSpy(concurrent.futures.ProcessPoolExecutor):
    """A ProcessPoolExecutor that records the worker count of every pool opened."""

    opened: list = []

    def __init__(self, max_workers=None, *args, **kwargs):
        PoolSpy.opened.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    """The worker counts of the pools simulate_bits opens, in order.

    simulate_bits keeps its pool open between calls, so the pool is closed
    before the test, where one left open by an earlier test would hide from
    the spy, and after it.
    """
    protocol._close_pool()
    monkeypatch.setattr(PoolSpy, "opened", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    yield PoolSpy.opened
    protocol._close_pool()
