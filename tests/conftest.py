"""Shared fixtures: a process pool that starts no process."""

import os
from concurrent.futures import Future

import pytest

from snfcensus import census


class FakePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and
    runs each task inline, so that no process starts."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def fake_pool(monkeypatch):
    """``census.ProcessPoolExecutor`` replaced by FakePool; returns the
    list of pool sizes made."""
    made = []
    monkeypatch.setattr(census, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(made, max_workers))
    return made


@pytest.fixture
def fake_pool_on_3_cpus(fake_pool, monkeypatch):
    """``fake_pool`` in a process that may run on 3 CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    return fake_pool
