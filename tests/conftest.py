import os

import pytest

from drbsde_lab import lattice as lattice_module


@pytest.fixture
def force_split(monkeypatch):
    """``force_split(on)`` makes the CPU probe of ``lattice._in_two`` allow
    the two-process split or not, and returns a list that grows by one per
    ``os.fork`` call in this process."""

    def force(on: bool) -> list:
        monkeypatch.setattr(lattice_module, "_usable_cpus", lambda: 2 if on else 1)
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force
