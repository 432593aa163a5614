import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sllab import dynamics

sys.path.insert(0, str(Path(__file__).resolve().parent))

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def assert_no_child():
    """A check that this process has no child, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes n CPUs usable, as `os.sched_getaffinity` reports them,
    and returns the list of pids that `os.fork` returns from then on."""
    forks = []
    fork = os.fork

    def recorded():
        forks.append(fork())
        return forks[-1]

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        monkeypatch.setattr(os, "fork", recorded)
        return forks
    return use


@pytest.fixture
def before_rows(monkeypatch):
    """before_rows(child, parent) calls child(lams) or parent(lams), when
    given, before each stack of `dynamics._evolve_rows` that runs in a
    forked child or in this process; lams are the stack's lambdas."""
    parent_pid = os.getpid()
    rows = dynamics._evolve_rows

    def patch(child=None, parent=None):
        def patched(psi0s, cfg, lams):
            action = parent if os.getpid() == parent_pid else child
            if action is not None:
                action(lams)
            return rows(psi0s, cfg, lams)
        monkeypatch.setattr(dynamics, "_evolve_rows", patched)
    return patch
