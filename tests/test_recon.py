"""Tests for the time cutoff, norm estimation and iterative solvers."""

import dataclasses
import math

import numpy as np
import pytest

from ringtat.detector import (
    DetectorConfig,
    LargeMode,
    SmallMode,
    adjoint_operator,
    forward_operator,
    measurement_map,
)
from ringtat.field import SpeedSpec, gaussian_phantom, make_grid, sample_speed, transition
from ringtat.recon import (
    ReconResult,
    cg_normal,
    landweber,
    operator_norm_estimate,
    relative_error,
)

from dense_matrix import assemble_forward_matrix


def _speed(grid, kind="sinusoidal"):
    return sample_speed(SpeedSpec(kind=kind), grid)


def _weights(T, plateau, nt=None):
    """The misfit weights of a detector recording [0, T] on 32^2."""
    speed = _speed(make_grid(L=3.4, n=32))
    cfg = DetectorConfig(mode=LargeMode(r=2.0), n_theta=4, n_alpha=64, T=T, nt=nt,
                         plateau=plateau)
    return measurement_map(speed, cfg).weights[:, 0]


class TestTimeCutoff:
    def test_plateau_taper_support(self):
        chi = _weights(T=3.0, plateau=2.0, nt=31)  # dt = 0.1
        t = 0.1 * np.arange(31)
        assert np.all(chi[t <= 2.0] == 1.0)
        assert np.all(chi[t < 3.0] > 0.0) and chi[-1] == 0.0
        mid = chi[25]  # t = 2.5, middle of the taper
        assert abs(mid - 0.5) < 1e-14
        assert np.all(_weights(T=3.0, plateau=None, nt=31) == 1.0)

    def test_monotone_taper(self):
        chi = _weights(T=2.5, plateau=1.0)  # on the CFL lattice
        assert np.all(np.diff(chi) <= 0.0)
        assert np.all((chi >= 0.0) & (chi <= 1.0))
        assert chi[0] == 1.0 and chi[-1] == 0.0

    def test_validation(self):
        # the plateau must end inside the record [0, T]
        for plateau in (2.0, 9.0, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"plateau .* must lie in \(0, T\) = \(0, 2\)"):
                DetectorConfig(mode=LargeMode(r=2.0), T=2.0, plateau=plateau)


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
        assert np.all(res.estimate == 0.0)
        assert res.iterations == 0
        assert res.residual_history.tolist() == [0.0]

    def test_monotone_history_and_support(self):
        grid, speed, truth, cfg, sino = _small_problem()
        res = landweber(sino.data, speed, cfg, iters=8)
        assert np.all(np.diff(res.residual_history) <= 1e-12)
        assert np.all(res.estimate[grid.radius() >= 1.0] == 0.0)
        assert res.step_size is not None and res.step_size > 0.0
        assert res.iterations == 8

    def test_divergence_aborts(self):
        grid, speed, truth, cfg, sino = _small_problem()
        est = operator_norm_estimate(speed, cfg)
        with pytest.raises(RuntimeError, match="three iterations"):
            landweber(sino.data, speed, cfg, iters=20, step=50.0 / est)

    def test_shape_mismatch(self):
        grid, speed, truth, cfg, sino = _small_problem()
        with pytest.raises(ValueError, match="shape"):
            landweber(np.zeros((7, 24)), speed, cfg, iters=1, step=1.0)


class TestConjugateGradients:
    def test_zero_data(self):
        grid, speed, _, cfg, sino = _small_problem()
        res = cg_normal(np.zeros_like(sino.data), speed, cfg, iters=3)
        assert np.all(res.estimate == 0.0)
        assert res.iterations == 0
        assert res.step_size is None

    def test_recovers_truth(self):
        grid, speed, truth, cfg, sino = _small_problem()
        res = cg_normal(sino.data, speed, cfg, iters=8)
        err = np.linalg.norm(res.estimate - truth) / np.linalg.norm(truth)
        assert err <= 0.15
        assert np.all(res.estimate[grid.radius() >= 1.0] == 0.0)

    def test_tracked_misfit_matches_direct_evaluation(self):
        """The algebraically tracked misfit must equal a from-scratch forward
        evaluation of the final iterate: the bookkeeping identity is exact."""
        grid, speed, truth, cfg, sino = _small_problem()
        res = cg_normal(sino.data, speed, cfg, iters=6)
        direct = float(
            np.linalg.norm(sino.data - forward_operator(res.estimate, speed, cfg).data)
        )
        assert abs(res.residual_history[-1] - direct) <= 1e-10 * direct

    def test_beats_landweber_at_equal_iteration_count(self):
        # CG minimizes the quadratic over the Krylov space containing the
        # gradient iterates, so its history sits below Landweber's pointwise
        grid, speed, truth, cfg, sino = _small_problem()
        cg = cg_normal(sino.data, speed, cfg, iters=8)
        lw = landweber(sino.data, speed, cfg, iters=8)
        m = min(cg.residual_history.size, lw.residual_history.size)
        assert np.all(cg.residual_history[:m] <= lw.residual_history[:m] + 1e-12)

    def test_cutoff_weighting_enters_history(self):
        grid, speed, truth, cfg, sino = _small_problem()
        weighted = dataclasses.replace(cfg, plateau=2.5)
        res = cg_normal(sino.data, speed, weighted, iters=2)
        chi = transition((sino.dt * np.arange(sino.data.shape[0]) - 2.5) / (cfg.T - 2.5))
        manual = float(np.sqrt(np.sum(chi[:, None] * sino.data**2)))
        assert abs(res.residual_history[0] - manual) <= 1e-12 * manual
        assert manual < float(np.sqrt(np.sum(sino.data**2)))


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
            cg_normal(sino.data, speed, cfg, iters=2)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_landweber_rejects_useless_step_before_any_solve(self, monkeypatch, step):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()

        def no_solve(*args, **kwargs):
            raise AssertionError("a wave solve ran with an unusable step")

        monkeypatch.setattr(recon, "forward_operator", no_solve)
        monkeypatch.setattr(recon, "adjoint_operator", no_solve)
        with pytest.raises(ValueError, match="step"):
            landweber(sino.data, speed, cfg, iters=2, step=step)

    def test_landweber_non_finite_misfit(self):
        # a step this long overflows the residual in the first iteration,
        # long before three rises in a row could abort the loop
        speed, cfg, sino = _tiny_problem()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="misfit"):
                landweber(sino.data, speed, cfg, iters=5, step=1e300)


class TestDataScale:
    """Both solvers are linear in the data at any finite data scale: they
    solve on the data scaled by a power of two to a unit peak."""

    @pytest.mark.parametrize("method", [cg_normal, landweber])
    @pytest.mark.parametrize("k", [-900, -40, 7, 900])
    def test_power_of_two_scale_is_bitwise_equivariant(self, method, k):
        # every data entry and every result stays a normal float at 2**k
        speed, cfg, sino = _tiny_problem()
        base = method(sino.data, speed, cfg, iters=3)
        res = method(np.ldexp(sino.data, k), speed, cfg, iters=3)
        np.testing.assert_array_equal(res.estimate, np.ldexp(base.estimate, k))
        np.testing.assert_array_equal(res.residual_history, np.ldexp(base.residual_history, k))
        assert res.iterations == base.iterations and res.step_size == base.step_size

    @pytest.mark.parametrize("method", [cg_normal, landweber])
    @pytest.mark.parametrize("s", [1e-300, 1e155, 1e300])
    def test_extreme_scales_give_the_scaled_estimate(self, method, s):
        # unscaled, 1e-300 underflowed the misfit to a zero image and 1e155
        # overflowed it; a decimal factor rounds the data, hence the 1e-12
        speed, cfg, sino = _tiny_problem()
        base = method(sino.data, speed, cfg, iters=3).estimate
        got = method(sino.data * s, speed, cfg, iters=3).estimate
        assert np.max(np.abs(got / s - base)) <= 1e-12 * np.max(np.abs(base))

    @pytest.mark.parametrize("method", [cg_normal, landweber])
    def test_estimate_past_the_largest_float_raises(self, method):
        speed, cfg, sino = _tiny_problem()
        data = np.ldexp(sino.data, 1023 - math.frexp(np.max(np.abs(sino.data)))[1])
        with pytest.raises(FloatingPointError, match="overflows"):
            method(data, speed, cfg, iters=3)

    def test_relative_error(self):
        rng = np.random.default_rng(3)
        truth, est = rng.normal(size=(2, 9, 9))
        plain = float(np.sqrt(np.sum((est - truth) ** 2))) / float(np.sqrt(np.sum(truth**2)))
        assert relative_error(est, truth) == plain
        for k in (-1000, 1000):
            assert relative_error(np.ldexp(est, k), np.ldexp(truth, k)) == plain
        assert relative_error(est, np.zeros_like(truth)) is None
        with pytest.raises(FloatingPointError, match="overflows"):
            relative_error(np.ldexp(est, 1000), np.ldexp(truth, -1000))


class TestWorkCounts:
    """Deterministic work counters, no timings."""

    def test_cg_makes_2k_plus_1_wave_solves(self, monkeypatch):
        import ringtat.recon as recon

        speed, cfg, sino = _tiny_problem()
        counts = {"forward_operator": 0, "adjoint_operator": 0}
        _count_calls(monkeypatch, recon, "forward_operator", counts)
        _count_calls(monkeypatch, recon, "adjoint_operator", counts)
        k = 3
        res = cg_normal(sino.data, speed, cfg, iters=k)
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
        detector.measurement_map.cache_clear()
        counts = {"BicubicSampler": 0}
        _count_calls(monkeypatch, detector, "BicubicSampler", counts)
        same = DetectorConfig(mode=LargeMode(r=2.0), n_theta=8, n_alpha=64, T=2.0)
        for c in (cfg, same):
            forward_operator(np.zeros((32, 32)), speed, c)
            adjoint_operator(sino.data, speed, c)
        cg_normal(sino.data, speed, cfg, iters=2)
        assert counts["BicubicSampler"] == 1
        other = DetectorConfig(mode=LargeMode(r=2.0), n_theta=9, n_alpha=64, T=2.0)
        forward_operator(np.zeros((32, 32)), speed, other)
        assert counts["BicubicSampler"] == 2

    def test_one_wave_solver_per_speed_and_config(self, monkeypatch):
        import ringtat.detector as detector

        speed, cfg, sino = _tiny_problem()
        detector.measurement_map.cache_clear()
        counts = {"WaveSolver": 0}
        _count_calls(monkeypatch, detector, "WaveSolver", counts)
        # an equal field sampled anew, as each command of a run samples its own
        again = _speed(speed.grid)
        forward_operator(np.zeros((32, 32)), speed, cfg)
        adjoint_operator(sino.data, again, cfg)
        assert cg_normal(sino.data, speed, cfg, iters=3).iterations == 3
        operator_norm_estimate(again, cfg)
        assert counts["WaveSolver"] == 1
