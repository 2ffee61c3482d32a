"""The built-in checks can fail: each fault below breaks what its check
guards, and the check must then report ``ok`` False.

Every entry of ``selftest.CHECKS`` has at least one fault here.  The faults
are applied with ``monkeypatch`` to the code a check exercises; the
refinement-study checks run on the two-level default ``SweepSettings``
instead of the registry's three levels, which is enough to separate the
ratios and keeps the file cheap.
"""

import numpy as np
import pytest

from ringtat import _spline, detector, selftest, wave
from ringtat.detector import SweepSettings


def _band_free_grids(monkeypatch):
    make_grid = selftest.make_grid
    monkeypatch.setattr(selftest, "make_grid", lambda L, n, pml_width=0.0: make_grid(L, n))


def _zero_damping(monkeypatch):
    monkeypatch.setattr(wave, "pml_profile", lambda grid: np.zeros(grid.n))


def _scaled_apply_T(monkeypatch):
    # the transpose no longer matches the forward sampler by a relative 1e-6
    apply_T = _spline.BicubicSampler.apply_T
    monkeypatch.setattr(_spline.BicubicSampler, "apply_T",
                        lambda self, m: apply_T(self, m) * (1.0 + 1e-6))


def _fast_speed(monkeypatch):
    # the interpolated speed (and its gradient) 1 % too high
    point = _spline.SplineField._point
    monkeypatch.setattr(_spline.SplineField, "_point",
                        lambda self, x, y: tuple(1.01 * v for v in point(self, x, y)))


def _negated_gradient(monkeypatch):
    value_and_gradient = _spline.SplineField.value_and_gradient

    def flipped(self, pts):
        return [(v, -gx, -gy) for v, gx, gy in value_and_gradient(self, pts)]

    monkeypatch.setattr(_spline.SplineField, "value_and_gradient", flipped)


def _leaky_neighbour_sum(monkeypatch):
    neighbour_sum = wave._neighbour_sum
    monkeypatch.setattr(wave, "_neighbour_sum",
                        lambda u, out, n: neighbour_sum(u, out, n) + 1e-3 * u)


def _dropped_radial_term(monkeypatch):
    # the first-order P_r / r term of both cylinder stencils goes missing
    parts = detector._sweep_stencil_parts

    def without_p_r(sweep):
        P_tt, P_rr, P_r, rho = parts(sweep)
        return P_tt, P_rr, np.zeros_like(P_r), rho

    monkeypatch.setattr(detector, "_sweep_stencil_parts", without_p_r)


def _dropped_angular_term(monkeypatch):
    # the small-geometry stencil loses its angular term, which makes it the
    # large-geometry identity: the control then refines like the real one
    second_diff = detector._theta_second_diff

    def zero(sweep):
        P_aa, th_sl = second_diff(sweep)
        return np.zeros_like(P_aa), th_sl

    monkeypatch.setattr(detector, "_theta_second_diff", zero)


FAULTS = {
    "adjoint_small": [_scaled_apply_T],
    "adjoint_large": [_scaled_apply_T],
    "ray_straight_line": [_fast_speed],
    "ray_hamiltonian": [_negated_gradient],
    "energy_conservation": [_leaky_neighbour_sum],
    "pml_reflection": [_band_free_grids, _zero_damping],
    "residual_convergence_small": [_dropped_radial_term],
    "residual_convergence_large": [_dropped_radial_term],
    "residual_discrimination": [_dropped_angular_term],
}


def _run_check(monkeypatch, name):
    monkeypatch.setattr(selftest, "STUDY", SweepSettings())
    check = {entry: fn for entry, _, fn in selftest.CHECKS}[name]
    return check(selftest._Run("quick"))


def test_every_check_has_a_fault():
    assert set(FAULTS) == {name for name, _, _ in selftest.CHECKS}


@pytest.mark.parametrize("fault", FAULTS["pml_reflection"])
def test_pml_reflection_fails_without_absorption(monkeypatch, fault):
    fault(monkeypatch)
    ok, detail = selftest.pml_reflection()
    assert not ok, detail


@pytest.mark.parametrize("name, fault", [(name, fault) for name, faults in FAULTS.items()
                                         if name != "pml_reflection" for fault in faults])
def test_fault_fails_its_check(monkeypatch, name, fault):
    fault(monkeypatch)
    ok, detail = _run_check(monkeypatch, name)
    assert not ok, detail


@pytest.mark.parametrize("name", ["residual_convergence_small", "residual_convergence_large",
                                  "residual_discrimination"])
def test_study_checks_pass_on_two_levels(monkeypatch, name):
    # the control for the faults above: the cheaper study alone does not fail
    ok, detail = _run_check(monkeypatch, name)
    assert ok, detail
