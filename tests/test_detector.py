"""Tests for circle-averaged measurements, sweeps and residual oracles."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringtat import detector
from ringtat._spline import BicubicSampler
from ringtat.detector import (
    DetectorConfig,
    LargeMode,
    RadiusSweep,
    SmallMode,
    Sinogram,
    _build_sampler,
    adjoint_operator,
    cylinder_residual_large,
    cylinder_residual_small,
    forward_operator,
    measurement_map,
    sweep_large_radius,
    sweep_small_radius,
    theta_grid,
)
from ringtat.field import SpeedSpec, gaussian_phantom, make_grid, sample_speed
from ringtat.wave import WaveSolver, cfl_limit, choose_time_steps


def _speed(grid, kind="sinusoidal"):
    return sample_speed(SpeedSpec(kind=kind), grid)


def _detector_points(cfg, theta):
    """The n_alpha uniform quadrature nodes on the detector circle at angle theta."""
    mode = cfg.mode
    alphas = 2.0 * math.pi * np.arange(cfg.n_alpha) / cfg.n_alpha
    center = mode.center_radius * np.array([math.cos(theta), math.sin(theta)])
    return center + mode.r * np.stack([np.cos(alphas), np.sin(alphas)], axis=-1)


def _times(sino):
    return sino.dt * np.arange(sino.data.shape[0])


class TestModes:
    def test_small_mode_invariant(self):
        SmallMode(R=2.0, r=0.8)
        SmallMode(R=1.5, r=0.5)
        with pytest.raises(ValueError):
            SmallMode(R=2.0, r=1.5)
        with pytest.raises(ValueError):
            SmallMode(R=2.0, r=0.0)

    def test_large_mode_invariant(self):
        LargeMode(r=2.0)
        LargeMode(r=3.0)
        with pytest.raises(ValueError):
            LargeMode(r=1.5)

    def test_config_validation(self):
        mode = SmallMode(R=2.0, r=0.8)
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, n_alpha=32)
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, n_theta=0)
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, T=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, nt=1)
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, aperture=(1.0, 0.5))
        with pytest.raises(ValueError):
            DetectorConfig(mode=mode, aperture=(0.0, 7.0))


class TestThetaGrid:
    def test_full_circle(self):
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=8)
        th = theta_grid(cfg)
        assert th.shape == (8,)
        assert th[0] == 0.0
        assert np.allclose(np.diff(th), 2.0 * math.pi / 8)
        assert th[-1] < 2.0 * math.pi

    def test_sub_arc_midpoints_stay_inside(self):
        cfg = DetectorConfig(
            mode=SmallMode(R=2.0, r=0.8), n_theta=9, aperture=(-math.pi / 2, 0.0)
        )
        th = theta_grid(cfg)
        assert th.shape == (9,)
        assert np.all(th > -math.pi / 2) and np.all(th < 0.0)
        assert np.allclose(np.diff(th), (math.pi / 2) / 9)


class TestDetectorPoints:
    def test_small_example(self):
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_alpha=64)
        pts = _detector_points(cfg, 0.0)
        assert pts.shape == (64, 2)
        assert np.allclose(pts[0], [2.8, 0.0], atol=1e-15)

    def test_large_example(self):
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_alpha=64)
        pts = _detector_points(cfg, math.pi / 2)
        # center (0, 1), half a turn along the circle lands at (-2, 1)
        assert np.allclose(pts[32], [-2.0, 1.0], atol=1e-12)

    def test_points_clear_unit_disc(self):
        for mode in (SmallMode(R=2.0, r=0.8), SmallMode(R=1.7, r=0.7), LargeMode(r=2.0), LargeMode(r=2.5)):
            cfg = DetectorConfig(mode=mode, n_alpha=256)
            for theta in (0.0, 0.3, 2.0, 4.5):
                pts = _detector_points(cfg, theta)
                assert np.min(np.hypot(pts[:, 0], pts[:, 1])) >= 1.0 - 1e-12


class TestRingAverage:
    """The circle mean behind every reading: the uniform quadrature nodes of
    ``_detector_points`` and, on a sampled field, the first record level of
    the forward map."""

    def test_constant_field(self):
        grid = make_grid(L=3.2, n=65)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=5, n_alpha=64, T=0.02, nt=2)
        first = forward_operator(np.ones((65, 65)), _speed(grid), cfg).data[0]
        np.testing.assert_allclose(first, 1.0, rtol=0, atol=1e-14)

    def test_first_coordinate(self):
        # mean of x over a circle centered at (2, 0) is the center abscissa,
        # and the uniform cosine sum vanishes exactly in floating point too
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_alpha=128)
        avg = np.mean(_detector_points(cfg, 0.0)[:, 0])
        assert abs(avg - 2.0) < 1e-13

    def test_quadrature_spectral_accuracy(self):
        """Trapezoid on a periodic smooth integrand: refining n_alpha four-fold
        moves the answer by less than 1e-10."""
        def mean(n_alpha):
            cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_alpha=n_alpha)
            pts = _detector_points(cfg, 0.7)
            return np.mean(np.exp(-((pts[:, 0] - 1.6) ** 2 + pts[:, 1] ** 2)))

        assert abs(mean(64) - mean(256)) <= 1e-10

    def test_sampled_matches_callable(self):
        grid = make_grid(L=3.2, n=161)
        X, Y = grid.mesh()

        def u(x, y):
            return np.sin(0.9 * x) * np.cos(0.7 * y)

        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=7, n_alpha=128, T=0.02, nt=2)
        exact = [np.mean(u(*_detector_points(cfg, th).T)) for th in theta_grid(cfg)]
        sampled = forward_operator(u(X, Y), _speed(grid), cfg).data[0]
        np.testing.assert_allclose(sampled, exact, rtol=0, atol=1e-6)

    def test_rows_are_theta_major_ring_means(self):
        # u = x is reproduced exactly and its mean over circle i at angle j is
        # the center abscissa R_i cos(theta_j): this pins the row layout
        # j * n_radii + i and the equal-weight mean over each ring
        grid = make_grid(L=3.6, n=65, pml_width=0.3)
        X, _ = grid.mesh()
        Rs, thetas = np.array([2.0, 2.3]), np.array([0.0, 0.4, 2.1, 4.0])
        sampler = _build_sampler(grid, [SmallMode(R=R, r=0.8) for R in Rs], thetas, 64)
        got = sampler.apply(X).reshape(thetas.size, Rs.size)
        np.testing.assert_allclose(got, np.cos(thetas)[:, None] * Rs, rtol=0, atol=1e-12)

    def test_ring_points_equal_the_per_circle_loop(self, monkeypatch):
        # the reference: every circle built on its own, with the same float
        # operations; the broadcast must give the same bits
        import ringtat.detector as detector

        seen = []
        monkeypatch.setattr(detector, "BicubicSampler", lambda *args: seen.append(args[3]))
        grid = make_grid(L=3.9, n=33, pml_width=0.5)
        Rs, rs, thetas = np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.1, 2.2]), 0.3 + np.arange(5)
        _build_sampler(grid, [LargeMode(r=r) for r in rs], thetas, 64)
        alphas = 2.0 * math.pi * np.arange(64) / 64
        want = [np.stack([R * math.cos(th) + r * np.cos(alphas),
                          R * math.sin(th) + r * np.sin(alphas)], axis=-1)
                for th in thetas for R, r in zip(Rs, rs)]
        assert np.array_equal(seen[0], np.array(want))


class TestForwardOperator:
    def test_zero_phantom(self):
        grid = make_grid(L=3.0, n=65)
        speed = _speed(grid)
        f = np.zeros((65, 65))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=4, n_alpha=64, T=0.5)
        sino = forward_operator(f, speed, cfg)
        assert isinstance(sino, Sinogram)
        assert np.all(sino.data == 0.0)
        assert _times(sino)[0] == 0.0
        assert abs(_times(sino)[-1] - 0.5) < 1e-12

    def test_deterministic(self):
        grid = make_grid(L=3.0, n=97)
        speed = _speed(grid)
        f = gaussian_phantom(grid, center=(0.2, 0.0), sigma=0.1)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=8, n_alpha=64, T=1.0)
        a = forward_operator(f, speed, cfg)
        b = forward_operator(f, speed, cfg)
        assert np.array_equal(a.data, b.data)

    def test_linearity(self):
        grid = make_grid(L=3.0, n=65)
        speed = _speed(grid)
        f = gaussian_phantom(grid, center=(0.2, 0.1), sigma=0.1)
        g = gaussian_phantom(grid, center=(-0.3, 0.0), sigma=0.12)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=5, n_alpha=64, T=0.6)
        combo = forward_operator(0.7 * f - 1.3 * g, speed, cfg)
        apart = 0.7 * forward_operator(f, speed, cfg).data - 1.3 * forward_operator(g, speed, cfg).data
        scale = np.abs(combo.data).max()
        assert np.abs(combo.data - apart).max() <= 1e-12 * max(scale, 1.0)

    def test_small_mode_first_arrival(self):
        """With unit speed and a phantom at the origin the signal reaches the
        nearest detector point (distance 1.2) once the support edge arrives.
        The phantom is cut off at four sigma, so the earliest reading sits in
        [1.2 - 4 sigma - (h+dt), 1.2 - 3 sigma + (h+dt)] and is the same for
        every detector angle."""
        sigma = 0.05
        grid = make_grid(L=3.0, n=481)
        speed = _speed(grid, kind="constant")
        f = gaussian_phantom(grid, center=(0.0, 0.0), sigma=sigma)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=6, n_alpha=128, T=1.45)
        sino = forward_operator(f, speed, cfg)
        peak = np.abs(sino.data).max()
        firsts = np.array(
            [_times(sino)[np.argmax(np.abs(sino.data[:, j]) > 1e-3 * peak)] for j in range(6)]
        )
        slack = grid.h + sino.dt
        assert np.all(firsts >= 1.2 - 4 * sigma - slack)
        assert np.all(firsts <= 1.2 - 3 * sigma + slack)
        spread = (firsts.max() - firsts.min()) / firsts.mean()
        assert spread <= 0.05

    def test_large_mode_first_arrival(self):
        # nearest point of a radius-2 circle centered on the unit circle is at
        # distance 1 from the origin
        sigma = 0.05
        grid = make_grid(L=3.2, n=513)
        speed = _speed(grid, kind="constant")
        f = gaussian_phantom(grid, center=(0.0, 0.0), sigma=sigma)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=6, n_alpha=128, T=1.25)
        sino = forward_operator(f, speed, cfg)
        peak = np.abs(sino.data).max()
        firsts = np.array(
            [_times(sino)[np.argmax(np.abs(sino.data[:, j]) > 1e-3 * peak)] for j in range(6)]
        )
        slack = grid.h + sino.dt
        assert np.all(firsts >= 1.0 - 4 * sigma - slack)
        assert np.all(firsts <= 1.0 - 3 * sigma + slack)
        spread = (firsts.max() - firsts.min()) / firsts.mean()
        assert spread <= 0.05

    def test_causality(self):
        """No reading before the straight-line travel time from the phantom
        support to the detector circle, up to 1e-8 of the record peak."""
        grid = make_grid(L=3.4, n=257)
        speed = _speed(grid)
        sigma = 0.08
        center = np.array([0.3, 0.0])
        f = gaussian_phantom(grid, center=tuple(center), sigma=sigma)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=8, n_alpha=64, T=2.0)
        sino = forward_operator(f, speed, cfg)
        peak = np.abs(sino.data).max()
        for j, th in enumerate(theta_grid(cfg)):
            ctr = 2.0 * np.array([math.cos(th), math.sin(th)])
            dist = np.linalg.norm(ctr - center) - 0.8 - 4 * sigma
            t_min = dist / speed.max_c - (grid.h + sino.dt)
            before = np.abs(sino.data[_times(sino) < t_min, j])
            if before.size:
                assert before.max() <= 1e-8 * peak

    def test_rotational_equivariance(self):
        """Unit speed: rotating the phantom by a theta-lattice angle permutes
        the sinogram columns.  A quarter turn is an exact lattice symmetry;
        a generic angle agrees to the interpolation budget of 1e-3."""
        grid = make_grid(L=3.0, n=481)
        speed = _speed(grid, kind="constant")
        n_theta = 20
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=n_theta, n_alpha=128, T=1.6)
        c0 = np.array([0.1, 0.05])

        def rotated(angle):
            ca, sa = math.cos(angle), math.sin(angle)
            ctr = (ca * c0[0] - sa * c0[1], sa * c0[0] + ca * c0[1])
            return gaussian_phantom(grid, center=ctr, sigma=0.2)

        base = forward_operator(rotated(0.0), speed, cfg)
        peak = np.abs(base.data).max()
        quarter = forward_operator(rotated(math.pi / 2), speed, cfg)
        assert np.abs(quarter.data - np.roll(base.data, 5, axis=1)).max() <= 1e-12 * peak
        generic = forward_operator(rotated(2.0 * math.pi * 3 / n_theta), speed, cfg)
        assert np.abs(generic.data - np.roll(base.data, 3, axis=1)).max() <= 1e-3 * peak

    def test_record_scales_like_a_near_subnormal_phantom(self):
        """At amplitude 2**-1020 the phantom's values below a quarter of its
        peak, and much of the field it launches, are subnormal.  The record
        is 2**-1020 times the amplitude-1 record to within the solve's
        roundoff: measured 3.5e-15 relative, against 9.8e-14 when the solve
        ran on the unscaled phantom."""
        grid = make_grid(L=3.6, n=129, pml_width=0.5)
        speed = _speed(grid)
        f = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=60, n_alpha=256, T=5.0)
        one = forward_operator(f, speed, cfg).data
        tiny = np.ldexp(forward_operator(np.ldexp(f, -1020), speed, cfg).data, 1020)
        assert np.linalg.norm(tiny - one) <= 1e-14 * np.linalg.norm(one)

    def test_record_is_checked_after_scaling_back(self, monkeypatch):
        # the solve records the phantom scaled to a peak in [0.5, 1), so only
        # the record scaled back can overflow; a sampler gain of 2**20 lifts a
        # 2**1020 phantom's record past the largest float
        apply = BicubicSampler.apply
        monkeypatch.setattr(BicubicSampler, "apply", lambda self, u: np.ldexp(apply(self, u), 20))
        grid = make_grid(L=3.6, n=49, pml_width=0.5)
        f = np.ldexp(gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15), 1020)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        with pytest.raises(FloatingPointError, match="recorded data not finite from level"):
            forward_operator(f, _speed(grid), cfg)

    def test_non_finite_field_is_refused_before_the_solve(self, monkeypatch):
        # its scale exponent would read 0, and the solve would stop at its
        # periodic check blaming the time step
        monkeypatch.setattr(detector, "march", lambda *args, **kwargs: pytest.fail("solved"))
        grid = make_grid(L=3.6, n=49, pml_width=0.5)
        f = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
        f[24, 24] = math.inf
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        with pytest.raises(FloatingPointError, match="initial field not finite"):
            forward_operator(f, _speed(grid), cfg)

    def test_rejects_geometry_wider_than_interior(self):
        grid = make_grid(L=3.0, n=97, pml_width=0.5)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=4, T=0.5)
        with pytest.raises(ValueError, match="band"):
            forward_operator(np.zeros((97, 97)), speed, cfg)


class TestRecordLattice:
    @pytest.mark.parametrize("kind", ["sinusoidal", "constant"])
    def test_default_lattice_is_no_less_accurate_than_half_its_step(self, kind):
        """Leapfrog time and space dispersion errors have opposite signs, so
        the default lattice (0.9 of the CFL bound) records the sinogram at
        least as accurately as one with half its step (0.45 of the bound).
        Both are measured against a nested reference with half the grid
        spacing and an eighth of the default step, on the coarse times."""
        T = 3.0
        grid, fine = make_grid(L=3.6, n=49, pml_width=0.5), make_grid(L=3.6, n=97, pml_width=0.5)
        speed = _speed(grid, kind)
        nt, dt = choose_time_steps(speed, T)
        assert 0.85 * cfl_limit(speed) < dt <= 0.9 * cfl_limit(speed)

        def record(g, levels):
            cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=T, nt=levels)
            f = gaussian_phantom(g, center=(0.1, -0.1), sigma=0.2)
            return forward_operator(f, _speed(g, kind), cfg).data

        ref = record(fine, 8 * (nt - 1) + 1)

        def error(levels, stride):
            exact = ref[::stride]
            return np.linalg.norm(record(grid, levels) - exact) / np.linalg.norm(exact)

        assert error(nt, 8) <= error(2 * (nt - 1) + 1, 4)


class TestAdjoint:
    @pytest.mark.parametrize(
        "mode,L",
        [(SmallMode(R=2.0, r=0.8), 3.6), (LargeMode(r=2.0), 3.8)],
    )
    def test_adjoint_identity(self, mode, L):
        """<forward f, g> equals <f, adjoint g> in plain Euclidean inner
        products, to machine precision, with the absorbing band active."""
        grid = make_grid(L=L, n=64, pml_width=0.7)
        speed = _speed(grid)
        rng = np.random.default_rng(7)
        f = rng.standard_normal((64, 64))
        cfg = DetectorConfig(mode=mode, n_theta=6, n_alpha=64, T=0.8)
        sino = forward_operator(f, speed, cfg)
        g = rng.standard_normal(sino.data.shape)
        lhs = float(np.sum(sino.data * g))
        rhs = float(np.sum(f * adjoint_operator(g, speed, cfg)))
        denom = np.linalg.norm(sino.data) * np.linalg.norm(g)
        assert abs(lhs - rhs) / denom <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(
        large=st.booleans(),
        radius=st.floats(0.0, 1.0),
        arc=st.one_of(st.none(), st.tuples(st.floats(-math.pi, math.pi),
                                           st.floats(0.3, 2 * math.pi))),
        n_theta=st.integers(1, 6),
        n_alpha=st.integers(64, 160),
        extra_levels=st.integers(0, 12),
        plateau=st.one_of(st.none(), st.floats(0.2, 0.8)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_adjoint_identity_property(self, large, radius, arc, n_theta, n_alpha,
                                       extra_levels, plateau, seed):
        """<chi forward f, g> equals <f, adjoint(chi g)> over random modes,
        apertures, angular sampling, record lattices and cutoff weights."""
        grid = make_grid(L=3.9, n=49, pml_width=0.7)
        speed = _speed(grid)
        if large:
            mode = LargeMode(r=2.0 + 0.15 * radius)
        else:
            mode = SmallMode(R=2.0, r=0.6 + 0.4 * radius)
        T = 0.6
        nt = choose_time_steps(speed, T)[0] + extra_levels
        aperture = None if arc is None else (arc[0], arc[0] + arc[1])
        cfg = DetectorConfig(mode=mode, n_theta=n_theta, n_alpha=n_alpha, T=T, nt=nt,
                             aperture=aperture, plateau=None if plateau is None else plateau * T)
        chi = measurement_map(speed, cfg).weights
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((49, 49))
        g = rng.standard_normal((nt, n_theta))
        sino = chi * forward_operator(f, speed, cfg).data
        lhs = float(np.sum(sino * g))
        rhs = float(np.sum(f * adjoint_operator(chi * g, speed, cfg)))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(sino) * np.linalg.norm(g)

    def test_shape_mismatch(self):
        grid = make_grid(L=3.6, n=64, pml_width=0.7)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=6, n_alpha=64, T=0.8)
        with pytest.raises(ValueError, match="shape"):
            adjoint_operator(np.zeros((3, 6)), speed, cfg)


# Rotating the phantom by np.rot90 (f(x, y) -> f(y, -x), a quarter turn
# counter-clockwise on the [ix, iy] grid) turns its data by a quarter of the
# detector circle: the columns shift by +n_theta / 4.  The grid, the band,
# the rings and both speeds below are invariant under the turn, so the two
# sides differ only by rounding: on 129^2 with 60 detectors the largest
# difference is 4.8e-15 of the data's peak for the forward map and, for the
# adjoint on random data at seeds 0-4, 3.8e-14 of the image's peak.  The
# bounds allow about twice that.  A shift of -n_theta / 4, which a reflected
# angle convention or swapped ring coordinates (column iy n + ix) give,
# misses by more than 1.0 of the peak in every case.
ROTATION_DATA = 1e-14
ROTATION_IMAGE = 1e-13


class TestRotationSymmetry:
    """The forward map and its adjoint commute with a quarter turn: the
    turned phantom's data are the data shifted by +n_theta / 4, and the
    adjoint of shifted data is the turned adjoint."""

    @pytest.mark.parametrize("mode", [SmallMode(R=2.0, r=0.8), LargeMode(r=2.0)],
                             ids=["small", "large"])
    @pytest.mark.parametrize("kind", ["constant", "radial_bump"])
    def test_quarter_turn_shifts_the_data_columns(self, kind, mode):
        grid = make_grid(L=3.6, n=129, pml_width=0.5)
        speed = _speed(grid, kind)
        cfg = DetectorConfig(mode=mode, n_theta=60, n_alpha=256, T=5.0)
        f = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
        data = forward_operator(f, speed, cfg).data
        turned = forward_operator(np.rot90(f), speed, cfg).data
        peak = np.max(np.abs(data))
        assert np.max(np.abs(turned - np.roll(data, 15, axis=1))) <= ROTATION_DATA * peak
        assert np.max(np.abs(turned - np.roll(data, -15, axis=1))) > 0.5 * peak

        d = np.random.default_rng(0).normal(size=data.shape)
        image = adjoint_operator(d, speed, cfg)
        shifted = adjoint_operator(np.roll(d, 15, axis=1), speed, cfg)
        err = np.max(np.abs(shifted - np.rot90(image)))
        assert err <= ROTATION_IMAGE * np.max(np.abs(image))


class TestSweeps:
    def test_zero_family(self):
        grid = make_grid(L=3.2, n=65)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=4, n_alpha=64, T=0.4)
        sw = sweep_small_radius(np.zeros((65, 65)), speed, cfg, [2.0, 2.1, 2.2])
        assert sw.data.shape[1:] == (4, 3)
        assert np.all(sw.data == 0.0)

    def test_mode_mismatch(self):
        grid = make_grid(L=3.2, n=65)
        speed = _speed(grid)
        small_cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=4, T=0.4)
        large_cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=4, T=0.4)
        f = np.zeros((65, 65))
        with pytest.raises(ValueError):
            sweep_small_radius(f, speed, large_cfg, [2.0, 2.1])
        with pytest.raises(ValueError):
            sweep_large_radius(f, speed, small_cfg, [2.0, 2.1])

    def test_radius_validation(self):
        grid = make_grid(L=3.2, n=65)
        speed = _speed(grid)
        f = np.zeros((65, 65))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=4, T=0.4)
        for radii in ([1.7, 2.0], [math.nan, 2.0], [2.0, math.inf]):
            with pytest.raises(ValueError, match="R - r"):
                sweep_small_radius(f, speed, cfg, radii)
        cfg_l = DetectorConfig(mode=LargeMode(r=2.0), n_theta=4, T=0.4)
        with pytest.raises(ValueError, match="r >= 2"):
            sweep_large_radius(f, speed, cfg_l, [1.9, 2.0])

    @pytest.mark.parametrize("mode, sweep, L", [
        (SmallMode(R=2.1, r=0.8), sweep_small_radius, 3.2),
        (LargeMode(r=2.1), sweep_large_radius, 3.4),
    ], ids=["small", "large"])
    def test_sweep_column_matches_forward_bit_exactly(self, mode, sweep, L):
        """A sweep is the same wave solve probed on more circles; the column
        at the forward radius must reproduce the standalone sinogram bit for
        bit, not merely to rounding."""
        grid = make_grid(L=L, n=97)
        speed = _speed(grid)
        f = gaussian_phantom(grid, center=(0.2, -0.1), sigma=0.12)
        cfg = DetectorConfig(mode=mode, n_theta=6, n_alpha=64, T=0.8)
        sino = forward_operator(f, speed, cfg)
        sw = sweep(f, speed, cfg, [2.0, 2.1, 2.2])
        assert np.array_equal(sw.data[:, :, 1], sino.data)


def _read_threads(monkeypatch, cpus):
    """Make the solves see ``cpus`` usable CPUs; returns the set of thread
    names the sampler's reads run on."""
    monkeypatch.setattr(detector, "_usable_cpus", lambda: cpus)
    names = set()
    apply, apply_T = BicubicSampler.apply, BicubicSampler.apply_T

    def record(fn):
        def read(self, x):
            names.add(threading.current_thread().name)
            return fn(self, x)
        return read

    monkeypatch.setattr(BicubicSampler, "apply", record(apply))
    monkeypatch.setattr(BicubicSampler, "apply_T", record(apply_T))
    return names


class TestHelperThread:
    """The detector reads run on one helper thread beside the wave steps,
    or inline with one usable CPU; the two give the same bytes, and no
    helper outlives its solve."""

    @staticmethod
    def _problem():
        grid = make_grid(L=3.6, n=48, pml_width=0.4)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        f = gaussian_phantom(grid, center=(0.1, 0.2), sigma=0.15)
        return speed, cfg, f

    @staticmethod
    def _solves(speed, cfg, f):
        data = forward_operator(f, speed, cfg).data
        back = adjoint_operator(np.cos(np.arange(data.size)).reshape(data.shape), speed, cfg)
        sweep = sweep_large_radius(f, speed, cfg, [2.0, 2.05, 2.1]).data
        return data, back, sweep

    def test_threaded_and_inline_reads_give_the_same_bytes(self, monkeypatch):
        speed, cfg, f = self._problem()
        before = threading.active_count()
        names = _read_threads(monkeypatch, 2)
        threaded = self._solves(speed, cfg, f)
        assert names == {"ringtat-reads"}
        names = _read_threads(monkeypatch, 1)
        inline = self._solves(speed, cfg, f)
        assert names == {threading.main_thread().name}
        for a, b in zip(threaded, inline):
            assert a.tobytes() == b.tobytes()
        assert threading.active_count() == before

    def test_fast_thread_switching_keeps_the_bytes(self, monkeypatch):
        """Thread switches every microsecond interleave the reads with the
        steps at every point; a lost or reordered read would change bytes."""
        grid = make_grid(L=3.6, n=32, pml_width=0.3)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=4, n_alpha=64, T=2.0)
        f = gaussian_phantom(grid, center=(0.1, 0.2), sigma=0.15)
        _read_threads(monkeypatch, 1)
        want = self._solves(speed, cfg, f)
        names = _read_threads(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = self._solves(speed, cfg, f)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        finally:
            sys.setswitchinterval(interval)
        assert names == {"ringtat-reads"}

    def test_no_thread_to_be_had_reads_inline(self, monkeypatch):
        speed, cfg, f = self._problem()
        want = self._solves(speed, cfg, f)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        names = _read_threads(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = self._solves(speed, cfg, f)
        assert names == {threading.main_thread().name}
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_read_surfaces_with_its_own_type(self, monkeypatch, cpus):
        speed, cfg, f = self._problem()
        measurement_map(speed, cfg)  # built before the read starts failing
        before = threading.active_count()
        _read_threads(monkeypatch, cpus)
        apply, calls = BicubicSampler.apply, []

        def failing(self, u):
            calls.append(1)
            if len(calls) == 7:
                raise KeyError("read failed at level 6")
            return apply(self, u)

        monkeypatch.setattr(BicubicSampler, "apply", failing)
        with pytest.raises(KeyError, match="read failed at level 6"):
            forward_operator(f, speed, cfg)
        assert threading.active_count() == before
        assert len(calls) <= 7 + 2  # a helper runs at most two levels past the failure

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failing_step_with_reads_pending_surfaces_with_its_own_type(self, monkeypatch,
                                                                            cpus):
        """The caller's own loop body raises while the helper still holds
        reads: the adjoint's transposed step fails at its fourth level."""
        speed, cfg, f = self._problem()
        m = measurement_map(speed, cfg)
        data = np.cos(np.arange(m.nt * m.sampler.n_rows)).reshape(m.nt, -1)
        before = threading.active_count()
        names = _read_threads(monkeypatch, cpus)
        step_T, steps = WaveSolver.step_T, []

        def failing(self, s):
            steps.append(1)
            if len(steps) == 4:
                raise KeyError("step_T failed at level 4")
            return step_T(self, s)

        monkeypatch.setattr(WaveSolver, "step_T", failing)
        with pytest.raises(KeyError, match="step_T failed at level 4"):
            adjoint_operator(data, speed, cfg)
        assert threading.active_count() == before
        assert names == ({"ringtat-reads"} if cpus > 1 else {threading.main_thread().name})

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blow_up_with_reads_pending_raises_one_line(self, monkeypatch, cpus):
        """A band far thinner than a cell blows the field up; the error is
        the solve's own, whether or not reads are still in flight."""
        grid = make_grid(L=3.4, n=17, pml_width=1.884425739150716e-12)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=4, n_alpha=64, T=8.0)
        f = gaussian_phantom(grid, center=(0.1, -0.1), sigma=0.2)
        before = threading.active_count()
        monkeypatch.setattr(detector, "_usable_cpus", lambda: cpus)
        with pytest.raises(FloatingPointError) as err:
            forward_operator(f, speed, cfg)
        message = str(err.value)
        assert message.startswith("field blew up at step 34 (t = 8); check the CFL bound")
        assert "pml_width = 1.88443e-12" in message and "\n" not in message
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_reads_run_under_the_callers_error_state(self, monkeypatch, cpus):
        speed, cfg, f = self._problem()
        data = forward_operator(f, speed, cfg).data
        _read_threads(monkeypatch, cpus)

        def overflowing(fn):
            def read(self, x):
                np.multiply(np.float64(1e308), 10.0)  # warns unless overflow is handled
                return fn(self, x)
            return read

        monkeypatch.setattr(BicubicSampler, "apply", overflowing(BicubicSampler.apply))
        monkeypatch.setattr(BicubicSampler, "apply_T", overflowing(BicubicSampler.apply_T))
        # the forward solve ignores overflow, and so do its reads
        assert np.array_equal(forward_operator(f, speed, cfg).data, data)
        with np.errstate(over="ignore"):
            adjoint_operator(data, speed, cfg)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            adjoint_operator(data, speed, cfg)

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert detector._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert detector._usable_cpus() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert detector._usable_cpus() == 1


_TRACED_SOLVES = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, completeness
tracer = Tracer()
tracer.install()
from ringtat import detector, field
grid = field.make_grid(L=3.4, n=32, pml_width=0.3)
speed = field.sample_speed(field.SpeedSpec(kind="sinusoidal"), grid)
cfg = detector.DetectorConfig(mode=detector.LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
f = field.gaussian_phantom(grid, center=(0.1, 0.2), sigma=0.15)
data = detector.forward_operator(f, speed, cfg).data
detector.adjoint_operator(data, speed, cfg)
detector.sweep_large_radius(f, speed, cfg, [2.0, 2.02, 2.04])
snap = tracer.snapshot()
print(json.dumps({"mismatches": completeness(snap), "nt": len(data), "calls": snap["calls"]}))
"""


def test_benchmark_tracer_counts_match_their_closed_forms():
    """The benchmark's tracer pins one ``apply``/``apply_T`` and one
    ``step``/``step_T`` call per level; its rebinding never undoes itself,
    so it runs in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", _TRACED_SOLVES, str(root / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["mismatches"] == []
    nt, calls = out["nt"], out["calls"]
    assert calls["_spline.BicubicSampler.apply"] == 2 * nt
    assert calls["_spline.BicubicSampler.apply_T"] == nt
    assert calls["wave.WaveSolver.step"] == 2 * (nt - 1)
    assert calls["wave.WaveSolver.step_T"] == nt - 1


def _synthetic_sweep(data, dt, radii, large=False, n_theta=None, aperture=None):
    n_theta = data.shape[1] if n_theta is None else n_theta
    mode = LargeMode(r=2.0) if large else SmallMode(R=2.1, r=0.8)
    cfg = DetectorConfig(
        mode=mode, n_theta=n_theta, n_alpha=64, T=dt * (data.shape[0] - 1),
        nt=data.shape[0], aperture=aperture,
    )
    return RadiusSweep(
        data=data, dt=dt, thetas=theta_grid(cfg), radii=np.asarray(radii, dtype=float),
        config=cfg,
    )


class TestCylinderResiduals:
    dt = 0.01
    radii = 2.0 + 0.1 * np.arange(5)

    def test_zero_data(self):
        sw = _synthetic_sweep(np.zeros((9, 12, 5)), self.dt, self.radii)
        assert np.all(cylinder_residual_small(sw) == 0.0)
        sw_l = _synthetic_sweep(np.zeros((9, 12, 5)), self.dt, self.radii, large=True)
        assert np.all(cylinder_residual_large(sw_l) == 0.0)

    def test_quadratic_data_exact(self):
        """Centered differences are exact on data quadratic in t and in the
        radius, so the residual equals its continuum value to rounding."""
        t = self.dt * np.arange(9)
        data = (t[:, None, None] ** 2) * np.ones((1, 12, 1)) * (self.radii[None, None, :] ** 2)
        rho = self.radii[1:-1][None, None, :]
        t_in = t[1:-1][:, None, None]
        sw = _synthetic_sweep(data, self.dt, self.radii)
        res = cylinder_residual_small(sw)
        assert np.abs(res - (2 * rho**2 - 4 * t_in**2)).max() < 1e-10
        sw_l = _synthetic_sweep(data, self.dt, self.radii, large=True)
        res_l = cylinder_residual_large(sw_l)
        assert np.abs(res_l - (2 * rho**2 - 4 * t_in**2)).max() < 1e-10

    def test_single_entry_perturbation_spike(self):
        # stencil linearity: an epsilon bump at one node shows up as a spike
        # of size eps * |stencil center weight|, dominated by the 1/dt^2 term
        eps = 1e-5
        data = np.zeros((9, 12, 5))
        data[4, 3, 2] = eps
        sw = _synthetic_sweep(data, self.dt, self.radii)
        res = cylinder_residual_small(sw)
        dth = 2.0 * math.pi / 12
        rho = self.radii[2]
        center_weight = abs(-2 / self.dt**2 + 2 / 0.1**2 + 2 / (rho**2 * dth**2))
        assert np.isclose(np.abs(res).max(), eps * center_weight, rtol=1e-12)
        assert eps / self.dt**2 <= np.abs(res).max() <= 4 * eps / self.dt**2

    def test_lattice_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            cylinder_residual_small(_synthetic_sweep(np.zeros((2, 12, 5)), self.dt, self.radii))
        with pytest.raises(ValueError, match="at least 3"):
            cylinder_residual_small(_synthetic_sweep(np.zeros((9, 12, 2)), self.dt, self.radii[:2]))

    def test_nonuniform_radii(self):
        radii = np.array([2.0, 2.1, 2.25, 2.3, 2.4])
        with pytest.raises(ValueError, match="uniform"):
            cylinder_residual_small(_synthetic_sweep(np.zeros((9, 12, 5)), self.dt, radii))

    def test_sub_arc_drops_theta_boundary(self):
        data = np.zeros((9, 12, 5))
        sw = _synthetic_sweep(data, self.dt, self.radii, aperture=(0.0, math.pi / 2))
        res = cylinder_residual_small(sw)
        assert res.shape == (7, 10, 3)

    def test_full_circle_keeps_every_theta(self):
        data = np.zeros((9, 12, 5))
        res = cylinder_residual_small(_synthetic_sweep(data, self.dt, self.radii))
        assert res.shape == (7, 12, 3)

    def test_residual_decays_at_second_order(self):
        """The recorded family satisfies its cylinder identity: halving every
        lattice spacing at once divides the RMS residual by about four."""
        rms = []
        for lev in range(2):
            grid = make_grid(L=3.9, n=128 * 2**lev + 1, pml_width=0.5)
            speed = _speed(grid)
            f = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
            cfg = DetectorConfig(
                mode=SmallMode(R=2.1, r=0.8), n_theta=40 * 2**lev, n_alpha=256,
                T=3.0, nt=202 * 2**lev + 1,
            )
            dR = 0.1 / 2**lev
            sw = sweep_small_radius(f, speed, cfg, [2.1 - dR, 2.1, 2.1 + dR])
            res = cylinder_residual_small(sw)
            times = sw.dt * np.arange(1, sw.data.shape[0] - 1)
            window = (times >= 1.2) & (times <= 2.8)
            rms.append(float(np.sqrt(np.mean(res[window] ** 2))))
        ratio = rms[0] / rms[1]
        assert 3.0 <= ratio <= 5.0
