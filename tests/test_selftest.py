"""The built-in checks can fail: each fault below breaks what its check
guards, and the check must then report ``ok`` False."""

import numpy as np
import pytest

from ringtat import selftest, wave


def _band_free_grids(monkeypatch):
    make_grid = selftest.make_grid
    monkeypatch.setattr(selftest, "make_grid", lambda L, n, pml_width=0.0: make_grid(L, n))


def _zero_damping(monkeypatch):
    monkeypatch.setattr(wave, "pml_profile", lambda grid: np.zeros(grid.n))


@pytest.mark.parametrize("fault", [_band_free_grids, _zero_damping])
def test_pml_reflection_fails_without_absorption(monkeypatch, fault):
    fault(monkeypatch)
    ok, detail = selftest.pml_reflection()
    assert not ok, detail
