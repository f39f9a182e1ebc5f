from functools import lru_cache

import numpy as np
import pytest

from mafrft import build_eigenbasis, foundation


@lru_cache(maxsize=None)
def cached_basis(n, variant):
    return build_eigenbasis(n, variant)


@pytest.fixture
def basis_of():
    return cached_basis


@pytest.fixture
def submitted(monkeypatch):
    """Two threads or more, however many CPUs the host allows, and a record
    of every task handed to the pool."""
    monkeypatch.setattr(foundation, "_THREADS", max(2, foundation._THREADS))
    tasks, pool = [], foundation._pool

    class Recorder:
        def submit(self, fn, *args):
            tasks.append(fn)
            return pool.submit(fn, *args)

    monkeypatch.setattr(foundation, "_pool", Recorder())
    return tasks


def random_signal(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def expected_multiplicities(n, variant):
    """Eigenvalue multiplicities (counts for 1, -j, -1, j) of the N-point DFT
    as functions of ``N = 4m + r`` (McClellan and Parks, 1972): an oracle for
    the exponents the library assigns, stated independently of them."""
    m, r = divmod(n, 4)
    if variant == "standard":
        table = {
            0: (m + 1, m, m, m - 1),
            1: (m + 1, m, m, m),
            2: (m + 1, m, m + 1, m),
            3: (m + 1, m + 1, m + 1, m),
        }
    else:
        table = {
            0: (m, m, m, m),
            1: (m + 1, m, m, m),
            2: (m + 1, m + 1, m, m),
            3: (m + 1, m + 1, m + 1, m),
        }
    return table[r]


def multiplicities(exponents):
    """Counts of the eigenvalues 1, -j, -1, j among ``(-1j)**exponents``."""
    return tuple(int(np.sum(exponents % 4 == q)) for q in range(4))
