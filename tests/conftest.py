"""Shared fixtures."""

import collections
import sys

import numpy as np
import pytest


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts of ``numpy.linalg`` ``svd`` and ``eigvalsh`` calls, keyed by name.

    The ``svd`` that ``norm(., 2)`` calls inside numpy is counted too.
    """
    impl = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    counts = collections.Counter()
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(impl, name, counted)
    return counts
