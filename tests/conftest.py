import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import ehl.evalue
import ehl.numeric
import ehl.recalibrate
import ehl.simulate

POOL_MODULES = (ehl.evalue, ehl.recalibrate, ehl.simulate)


@pytest.fixture
def recorded_pools(monkeypatch):
    """The max_workers of every thread pool the split, bagging and study
    loops start, in order."""
    started = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    for module in POOL_MODULES:
        monkeypatch.setattr(module, "ThreadPoolExecutor", RecordingExecutor)
    return started


@pytest.fixture
def pool_workers(recorded_pools, monkeypatch):
    """recorded_pools with the sample-size floor for threads lowered to 1,
    so that small test samples may use them."""
    monkeypatch.setattr(ehl.numeric, "_THREAD_MIN_N", 1)
    return recorded_pools


@pytest.fixture
def forced_pool(pool_workers, monkeypatch):
    """pool_workers on a host that reports four cores, so that a pool runs
    whatever the machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return pool_workers
