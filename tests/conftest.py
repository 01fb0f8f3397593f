"""Fixtures shared by the test modules."""

import os

import pytest

from spikebench import forked


@pytest.fixture
def fork_workers(monkeypatch):
    """Set the worker count of the build and of the STDP transpose through
    the CPU affinity they read; returns the list of forks they make."""
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(forked, "_MIN_WORKER_SYNAPSES", 1)  # fork for any work

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forks
    return use
