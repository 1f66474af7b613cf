"""Shared fixtures."""

import collections
import sys

import numpy as np
import pytest


def _wrap_solvers(monkeypatch, record):
    """Call ``record(name, matrix)`` before every ``numpy.linalg`` ``svd`` and ``eigvalsh``.

    The ``svd`` that ``norm(., 2)`` calls inside numpy is wrapped too.
    """
    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapped(a, *args, _name=name, _original=original, **kwargs):
            record(_name, a)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setattr(impl, name, wrapped)


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts of ``numpy.linalg`` ``svd`` and ``eigvalsh`` calls, keyed by name."""
    counts = collections.Counter()
    _wrap_solvers(monkeypatch, lambda name, a: counts.update([name]))
    return counts


@pytest.fixture
def solve_inputs(monkeypatch):
    """``(name, matrix)`` of each ``svd`` and ``eigvalsh`` call, in order, the matrix as passed."""
    calls = []
    _wrap_solvers(monkeypatch, lambda name, a: calls.append((name, a)))
    return calls
