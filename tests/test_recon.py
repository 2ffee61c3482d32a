"""Tests for the time cutoff, norm estimation and iterative solvers."""

import math

import numpy as np
import pytest

from ringtat.detector import (
    DetectorConfig,
    LargeMode,
    SmallMode,
    adjoint_operator,
    forward_operator,
)
from ringtat.field import SpeedSpec, gaussian_phantom, make_grid, sample_speed
from ringtat.recon import (
    ReconResult,
    cg_normal,
    landweber,
    operator_norm_estimate,
    time_cutoff_chi,
)

from dense_matrix import assemble_forward_matrix


def _speed(grid, kind="sinusoidal"):
    return sample_speed(SpeedSpec(kind=kind), grid)


class TestTimeCutoff:
    def test_plateau_taper_support(self):
        chi = time_cutoff_chi(T=2.0, T1=3.0, nt=41, dt=0.1)
        t = 0.1 * np.arange(41)
        assert np.all(chi[t <= 2.0] == 1.0)
        assert np.all(chi[t >= 3.0] == 0.0)
        mid = chi[25]  # t = 2.5, middle of the taper
        assert abs(mid - 0.5) < 1e-14

    def test_monotone_taper(self):
        chi = time_cutoff_chi(T=1.0, T1=2.5, nt=101, dt=0.03)
        assert np.all(np.diff(chi) <= 0.0)
        assert np.all((chi >= 0.0) & (chi <= 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            time_cutoff_chi(T=2.0, T1=2.0, nt=41, dt=0.1)
        with pytest.raises(ValueError):
            time_cutoff_chi(T=-1.0, T1=2.0, nt=41, dt=0.1)
        with pytest.raises(ValueError, match="record window"):
            time_cutoff_chi(T=2.0, T1=9.0, nt=41, dt=0.1)
        # the last level sits at (nt - 1) * dt = 1.5, before T1 = 1.55
        with pytest.raises(ValueError, match="record window"):
            time_cutoff_chi(T=1.0, T1=1.55, nt=16, dt=0.1)
        chi = time_cutoff_chi(T=1.0, T1=1.5, nt=16, dt=0.1)
        assert chi[-1] == 0.0


class TestNormEstimate:
    def test_deterministic(self):
        grid = make_grid(L=3.4, n=32)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        a = operator_norm_estimate(speed, cfg)
        b = operator_norm_estimate(speed, cfg)
        assert a == b and a > 0.0

    def test_against_dense_singular_value(self):
        """Power iteration on the matrix-free normal operator lands within
        10% of the top singular value squared of the explicitly assembled
        measurement matrix."""
        grid = make_grid(L=3.4, n=32)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=32, n_alpha=64, T=5.0)
        A, _ = assemble_forward_matrix(speed, cfg, support_radius=1.0)
        top = float(np.linalg.svd(A, compute_uv=False)[0]) ** 2
        est = operator_norm_estimate(speed, cfg)
        assert abs(est - top) <= 0.10 * top


class TestDenseMatrix:
    def test_matches_operator_on_a_combination(self):
        # columns are forward images of unit pixels, so A @ coeffs must agree
        # with one forward solve of the assembled image
        grid = make_grid(L=3.4, n=32)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        A, mask = assemble_forward_matrix(speed, cfg, support_radius=0.9)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(A.shape[1])
        img = np.zeros((32, 32))
        img[mask] = coeffs
        direct = forward_operator(img, speed, cfg).data.ravel()
        assert np.abs(A @ coeffs - direct).max() <= 1e-10 * max(np.abs(direct).max(), 1.0)

    def test_restricted_singular_values_positive(self):
        grid = make_grid(L=3.4, n=32)
        speed = _speed(grid)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=32, n_alpha=64, T=5.0)
        A, _ = assemble_forward_matrix(speed, cfg, support_radius=0.9)
        sv = np.linalg.svd(A, compute_uv=False)
        assert sv[-1] > 0.0


class TestAdjointImage:
    def test_peak_at_source_location(self):
        """One adjoint application of data from a centered phantom peaks at
        the phantom center: backprojection preserves singularity locations."""
        grid = make_grid(L=3.0, n=97)
        speed = _speed(grid, kind="constant")
        f = gaussian_phantom(grid, center=(0.0, 0.0), sigma=0.15)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=24, n_alpha=64, T=3.2)
        sino = forward_operator(f, speed, cfg)
        img = adjoint_operator(sino.data, speed, cfg)
        ix, iy = np.unravel_index(np.argmax(np.abs(img)), img.shape)
        assert math.hypot(grid.axis[ix], grid.axis[iy]) <= 2.0 * grid.h


def _small_problem():
    grid = make_grid(L=3.6, n=65, pml_width=0.5)
    speed = _speed(grid)
    truth = gaussian_phantom(grid, center=(0.2, -0.1), sigma=0.18)
    cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=24, n_alpha=64, T=4.0)
    sino = forward_operator(truth, speed, cfg)
    return grid, speed, truth, cfg, sino


class TestLandweber:
    def test_zero_data(self):
        grid, speed, _, cfg, sino = _small_problem()
        res = landweber(np.zeros_like(sino.data), speed, cfg, iters=3, step=1.0)
        assert isinstance(res, ReconResult)
        assert np.all(res.estimate.f == 0.0)
        assert res.iterations == 0
        assert res.residual_history.tolist() == [0.0]

    def test_monotone_history_and_support(self):
        grid, speed, truth, cfg, sino = _small_problem()
        res = landweber(sino, speed, cfg, iters=8)
        assert np.all(np.diff(res.residual_history) <= 1e-12)
        assert np.all(res.estimate.f[grid.radius() >= 1.0] == 0.0)
        assert res.step_size is not None and res.step_size > 0.0
        assert res.iterations == 8

    def test_divergence_aborts(self):
        grid, speed, truth, cfg, sino = _small_problem()
        est = operator_norm_estimate(speed, cfg)
        with pytest.raises(RuntimeError, match="three iterations"):
            landweber(sino, speed, cfg, iters=20, step=50.0 / est)

    def test_accepts_raw_array(self):
        grid, speed, truth, cfg, sino = _small_problem()
        a = landweber(sino, speed, cfg, iters=2, step=4.0)
        b = landweber(sino.data, speed, cfg, iters=2, step=4.0)
        assert np.array_equal(a.estimate.f, b.estimate.f)

    def test_shape_mismatch(self):
        grid, speed, truth, cfg, sino = _small_problem()
        with pytest.raises(ValueError, match="shape"):
            landweber(np.zeros((7, 24)), speed, cfg, iters=1, step=1.0)

    def test_tikhonov_auto_step_monotone(self):
        grid, speed, truth, cfg, sino = _small_problem()
        res = landweber(sino, speed, cfg, iters=4, tikhonov=1e-3)
        assert np.all(np.diff(res.residual_history) <= 1e-12)


class TestConjugateGradients:
    def test_zero_data(self):
        grid, speed, _, cfg, sino = _small_problem()
        res = cg_normal(np.zeros_like(sino.data), speed, cfg, iters=3)
        assert np.all(res.estimate.f == 0.0)
        assert res.iterations == 0
        assert res.step_size is None

    def test_recovers_truth(self):
        grid, speed, truth, cfg, sino = _small_problem()
        res = cg_normal(sino, speed, cfg, iters=8)
        err = np.linalg.norm(res.estimate.f - truth.f) / np.linalg.norm(truth.f)
        assert err <= 0.15
        assert np.all(res.estimate.f[grid.radius() >= 1.0] == 0.0)

    def test_tracked_misfit_matches_direct_evaluation(self):
        """The algebraically tracked misfit must equal a from-scratch forward
        evaluation of the final iterate: the bookkeeping identity is exact."""
        grid, speed, truth, cfg, sino = _small_problem()
        res = cg_normal(sino, speed, cfg, iters=6)
        direct = float(
            np.linalg.norm(sino.data - forward_operator(res.estimate.f, speed, cfg).data)
        )
        assert abs(res.residual_history[-1] - direct) <= 1e-10 * direct

    def test_beats_landweber_at_equal_iteration_count(self):
        # CG minimizes the quadratic over the Krylov space containing the
        # gradient iterates, so its history sits below Landweber's pointwise
        grid, speed, truth, cfg, sino = _small_problem()
        cg = cg_normal(sino, speed, cfg, iters=8)
        lw = landweber(sino, speed, cfg, iters=8)
        m = min(cg.residual_history.size, lw.residual_history.size)
        assert np.all(cg.residual_history[:m] <= lw.residual_history[:m] + 1e-12)

    def test_cutoff_weighting_enters_history(self):
        from ringtat.recon import time_cutoff_chi

        grid, speed, truth, cfg, sino = _small_problem()
        chi = time_cutoff_chi(T=2.5, T1=3.5, nt=sino.data.shape[0], dt=sino.dt)
        res = cg_normal(sino, speed, cfg, iters=2, cutoff=chi)
        manual = float(np.sqrt(np.sum(chi[:, None] * sino.data**2)))
        assert abs(res.residual_history[0] - manual) <= 1e-12 * manual

    def test_cutoff_length_mismatch(self):
        from ringtat.recon import time_cutoff_chi

        grid, speed, truth, cfg, sino = _small_problem()
        chi = time_cutoff_chi(T=1.0, T1=1.5, nt=17, dt=0.1)
        with pytest.raises(ValueError, match="weights"):
            cg_normal(sino, speed, cfg, iters=2, cutoff=chi)


def _tiny_problem(pml_width=0.3):
    grid = make_grid(L=3.4, n=32, pml_width=pml_width)
    speed = _speed(grid)
    cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
    truth = gaussian_phantom(grid, center=(0.1, 0.2), sigma=0.15)
    return speed, cfg, forward_operator(truth, speed, cfg)


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("method", [cg_normal, landweber])
    def test_rejects_non_finite_data_before_any_solve(self, monkeypatch, method, bad):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()
        data = sino.data.copy()
        data[5, 3] = bad

        def no_solve(*args, **kwargs):
            raise AssertionError("a wave solve ran on non-finite data")

        monkeypatch.setattr(recon, "forward_operator", no_solve)
        monkeypatch.setattr(recon, "adjoint_operator", no_solve)
        with pytest.raises(FloatingPointError, match=r"\(5, 3\)"):
            method(data, speed, cfg, iters=2)

    def test_cg_non_finite_curvature(self, monkeypatch):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()
        monkeypatch.setattr(recon, "_normal_apply", lambda p, *a, **k: np.full_like(p, np.nan))
        with pytest.raises(FloatingPointError, match="curvature"):
            cg_normal(sino, speed, cfg, iters=2)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_landweber_rejects_useless_step_before_any_solve(self, monkeypatch, step):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()

        def no_solve(*args, **kwargs):
            raise AssertionError("a wave solve ran with an unusable step")

        monkeypatch.setattr(recon, "forward_operator", no_solve)
        monkeypatch.setattr(recon, "adjoint_operator", no_solve)
        with pytest.raises(ValueError, match="step"):
            landweber(sino, speed, cfg, iters=2, step=step)

    def test_landweber_non_finite_misfit(self):
        # a step this long overflows the residual in the first iteration,
        # long before three rises in a row could abort the loop
        speed, cfg, sino = _tiny_problem()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="misfit"):
                landweber(sino, speed, cfg, iters=5, step=1e300)


class TestWorkCounts:
    """Deterministic work counters, no timings."""

    def test_cg_makes_2k_plus_1_wave_solves(self, monkeypatch):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()
        counts = {"forward_operator": 0, "adjoint_operator": 0}
        _count_calls(monkeypatch, recon, "forward_operator", counts)
        _count_calls(monkeypatch, recon, "adjoint_operator", counts)
        k = 3
        res = cg_normal(sino, speed, cfg, iters=k, tol=0.0)
        assert res.iterations == k
        assert counts == {"forward_operator": k, "adjoint_operator": k + 1}

    @pytest.mark.parametrize("band", [False, True])
    def test_one_step_per_level(self, monkeypatch, band):
        from ringtat.wave import WaveSolver

        speed, cfg, sino = _tiny_problem(0.3 if band else 0.0)
        nt = sino.data.shape[0]
        counts = {"step": 0, "step_T": 0}
        _count_calls(monkeypatch, WaveSolver, "step", counts)
        _count_calls(monkeypatch, WaveSolver, "step_T", counts)
        forward_operator(np.zeros((32, 32)), speed, cfg)
        assert counts == {"step": nt - 1, "step_T": 0}
        adjoint_operator(sino.data, speed, cfg)
        assert counts == {"step": nt - 1, "step_T": nt - 1}

    @pytest.mark.parametrize("kind", ["small", "large"])
    def test_sweep_reads_every_level_once(self, monkeypatch, kind):
        from ringtat._spline import BicubicSampler
        from ringtat.detector import sweep_large_radius, sweep_small_radius
        from ringtat.wave import WaveSolver

        speed = _speed(make_grid(L=3.4, n=32, pml_width=0.3))
        if kind == "small":
            cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=8, n_alpha=64, T=2.0)
            sweep, radii = sweep_small_radius, [1.9, 2.0, 2.1]
        else:
            cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
            sweep, radii = sweep_large_radius, [2.0, 2.02, 2.04]
        counts = {"step": 0, "apply": 0}
        _count_calls(monkeypatch, WaveSolver, "step", counts)
        _count_calls(monkeypatch, BicubicSampler, "apply", counts)
        nt = sweep(np.zeros((32, 32)), speed, cfg, radii).data.shape[0]
        assert counts == {"step": nt - 1, "apply": nt}

    def test_one_sampler_per_grid_and_config(self, monkeypatch):
        import ringtat.detector as detector

        speed, cfg, sino = _tiny_problem()
        detector._detector_sampler.cache_clear()
        counts = {"BicubicSampler": 0}
        _count_calls(monkeypatch, detector, "BicubicSampler", counts)
        same = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        for c in (cfg, same):
            forward_operator(np.zeros((32, 32)), speed, c)
            adjoint_operator(sino.data, speed, c)
        cg_normal(sino, speed, cfg, iters=2)
        assert counts["BicubicSampler"] == 1
        other = DetectorConfig(mode=LargeMode(r=2.0), n_theta=9, n_alpha=64, T=2.0)
        forward_operator(np.zeros((32, 32)), speed, other)
        assert counts["BicubicSampler"] == 2
