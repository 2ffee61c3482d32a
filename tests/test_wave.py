import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from full_grid_step import FullGridStep, band_cells, to_band, to_full
from ringtat import wave
from ringtat.field import SpeedSpec, gaussian_phantom, make_grid, sample_speed
from ringtat.wave import (
    WaveSolver,
    WaveState,
    cfl_limit,
    choose_time_steps,
    default_sigma_max,
    energy,
    laplacian,
    march,
    pml_profile,
    solve_forward,
)


def _setup(n=64, L=1.5, kind="sinusoidal", pml_width=0.0):
    g = make_grid(L=L, n=n, pml_width=pml_width)
    sp = sample_speed(SpeedSpec(kind=kind), g)
    return g, sp


def _lattice(sp, T, fraction):
    """(nt, dt) covering [0, T] at ``fraction`` of the CFL bound."""
    nt = math.ceil(T / (fraction * cfl_limit(sp))) + 1
    return nt, T / (nt - 1)


def _lap_independent(u, h):
    p = np.pad(u, 1)
    return (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4 * u) / h**2


class TestTimeStepSelection:
    def test_cfl_limit_value(self):
        g, sp = _setup(n=129, L=2.0, kind="constant")
        assert cfl_limit(sp) == pytest.approx(g.h / math.sqrt(2.0), rel=1e-15)

    def test_choose_time_steps_frozen(self):
        _, sp = _setup(n=129, L=2.0, kind="constant")
        nt, dt = choose_time_steps(sp, 1.0)
        assert nt == 52
        assert dt == pytest.approx(1.0 / 51, rel=1e-15)
        assert dt <= 0.9 * cfl_limit(sp)

    def test_rejects_bad_inputs(self):
        _, sp = _setup()
        with pytest.raises(ValueError):
            choose_time_steps(sp, -1.0)

    def test_solver_rejects_unstable_dt(self):
        _, sp = _setup()
        with pytest.raises(ValueError, match="stability"):
            WaveSolver(sp, 2.0 * cfl_limit(sp))

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.01])
    def test_solver_rejects_dt_that_is_not_finite_and_positive(self, dt):
        _, sp = _setup()
        with pytest.raises(ValueError, match="must be finite and positive"):
            WaveSolver(sp, dt)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -1.0])
    def test_choose_time_steps_rejects_duration_that_is_not_finite_and_positive(self,
                                                                                duration):
        _, sp = _setup()
        with pytest.raises(ValueError, match="must be finite and positive"):
            choose_time_steps(sp, duration)


class TestPmlProfile:
    def test_profile_values(self):
        g = make_grid(L=1.6, n=321, pml_width=0.5)  # h = 0.01, 1.35 is a node
        sigma = pml_profile(g)
        top = default_sigma_max(0.5)
        ax = g.axis
        inner = np.abs(ax) <= 1.1 + 1e-12
        assert sigma.shape == (321,)
        assert np.all(sigma[inner] == 0.0)
        assert sigma[0] == pytest.approx(top, rel=1e-12)  # depth = width
        i_half = np.argmin(np.abs(ax - 1.35))  # depth = width/2
        assert sigma[i_half] == pytest.approx(top / 4.0, rel=1e-9)

    def test_default_sigma_max_frozen(self):
        assert default_sigma_max(0.5) == pytest.approx(
            27.631021115928553, rel=1e-13
        )

    def test_requires_band(self):
        g = make_grid(L=1.6, n=64)
        with pytest.raises(ValueError):
            pml_profile(g)

    def test_rejects_band_too_thin_for_finite_damping(self):
        g = make_grid(L=1.6, n=64, pml_width=5e-324)
        with pytest.raises(ValueError, match="pml_width = 4.94066e-324 is too thin"):
            pml_profile(g)


class TestInitialState:
    def test_zero_phantom_gives_zero_state(self):
        _, sp = _setup()
        s = WaveSolver(sp, 0.01).init_state(np.zeros((64, 64)))
        assert not np.any(s.u_curr) and not np.any(s.u_prev)

    def test_centered_initial_velocity_is_exactly_zero(self):
        # evenness in time: the level after one step equals the level before t=0
        g, sp = _setup(n=101)
        f = gaussian_phantom(g, sigma=0.15)
        solver = WaveSolver(sp, 0.4 * cfl_limit(sp))
        s0 = solver.init_state(f)
        s1 = solver.step(s0)
        assert np.abs(s1.u_curr - s0.u_prev).max() < 1e-13

    def test_current_level_is_a_copy_of_f(self):
        g, sp = _setup(n=101)
        f = gaussian_phantom(g, sigma=0.15)
        s = WaveSolver(sp, 0.4 * cfl_limit(sp)).init_state(f)
        assert np.array_equal(s.u_curr, f) and not np.shares_memory(s.u_curr, f)


class TestStepping:
    def test_zero_state_stays_zero(self):
        _, sp = _setup()
        solver = WaveSolver(sp, 0.01)
        s = solver.step(solver.init_state(np.zeros((64, 64))))
        assert not np.any(s.u_curr)

    def test_two_steps_match_closed_form(self):
        g, sp = _setup(n=64)
        f = gaussian_phantom(g, sigma=0.15)
        dt = 0.4 * cfl_limit(sp)
        solver = WaveSolver(sp, dt)
        s = solver.step(solver.step(solver.init_state(f)))
        L = lambda x: sp.c**2 * _lap_independent(x, g.h)
        u2 = f + 2 * dt**2 * L(f) + 0.5 * dt**4 * L(L(f))
        assert np.abs(s.u_curr - u2).max() < 1e-13

    def test_time_reversibility(self):
        g, sp = _setup(n=101)
        f = gaussian_phantom(g, sigma=0.12)
        solver = WaveSolver(sp, 0.45 * cfl_limit(sp))
        s = solver.init_state(f)
        n_steps = 60
        for _ in range(n_steps):
            s = solver.step(s)
        back = WaveState(s.u_prev, s.u_curr, s.p)
        for _ in range(n_steps - 1):
            back = solver.step(back)
        ref = np.linalg.norm(f)
        assert np.linalg.norm(back.u_curr - f) / ref < 1e-10

    def test_finite_speed_of_propagation(self):
        g = make_grid(L=2.2, n=221)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        f = gaussian_phantom(g, sigma=0.1)
        T = 0.6
        nt, dt = _lattice(sp, T, 0.5)
        s = solve_forward(f, WaveSolver(sp, dt), nt)
        rho = g.radius()
        outside = rho > 1.0 + T * sp.max_c + 3 * g.h
        assert np.sum(np.abs(s.u_curr[outside])) / np.sum(np.abs(s.u_curr)) < 1e-8

    def test_second_order_convergence(self):
        T = 0.4
        sols = {}
        for n in (41, 81, 321):
            g = make_grid(L=1.5, n=n)
            sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
            f = gaussian_phantom(g, center=(0.1, -0.05), sigma=0.12)
            nt, dt = _lattice(sp, T, 0.45)
            sols[n] = solve_forward(f, WaveSolver(sp, dt), nt).u_curr
        # compare on the common coarse node set so the norms are comparable
        ref = sols[321]
        e41 = np.linalg.norm(sols[41] - ref[::8, ::8])
        e81 = np.linalg.norm(sols[81][::2, ::2] - ref[::8, ::8])
        assert 3.2 < e41 / e81 < 4.8


class TestEnergy:
    def test_zero_state(self):
        _, sp = _setup()
        solver = WaveSolver(sp, 0.01)
        s = solver.init_state(np.zeros((64, 64)))
        assert energy(s.u_curr, s.u_prev, solver.dt, sp) == 0.0

    def test_initial_energy_is_gradient_energy(self):
        g, sp = _setup(n=101)
        f = gaussian_phantom(g, sigma=0.15)
        solver = WaveSolver(sp, 0.3 * cfl_limit(sp))
        s = solver.init_state(f)
        gx = np.diff(f, axis=0) / g.h
        gy = np.diff(f, axis=1) / g.h
        ref = 0.5 * g.h**2 * (np.sum(gx**2) + np.sum(gy**2))
        assert energy(s.u_curr, s.u_prev, solver.dt, sp) == pytest.approx(ref, rel=0.01)

    def test_exact_conservation_without_damping(self):
        g, sp = _setup(n=101)
        f = gaussian_phantom(g, sigma=0.1)
        nt, dt = _lattice(sp, 1.2, 0.5)
        solver = WaveSolver(sp, dt)
        s = solver.step(solver.init_state(f))
        e0 = energy(s.u_curr, s.u_prev, dt, sp)
        worst = 0.0
        for _ in range(nt - 2):
            s = solver.step(s)
            worst = max(worst, abs(energy(s.u_curr, s.u_prev, dt, sp) - e0))
        assert worst / e0 < 1e-12


def _ddx_oracle(u, h, axis):
    out = np.zeros_like(u)
    um = np.moveaxis(u, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[:-1] += um[1:]
    om[1:] -= um[:-1]
    out /= 2.0 * h
    return out


def _step_oracle(sp, dt, sigma, s):
    """The unfolded update: (coef_u u - coef_v u- + dt^2 body) / den."""
    h, c2 = sp.grid.h, sp.c**2
    body = c2 * laplacian(s.u_curr, h)
    if sigma is None:
        u_new = 2.0 * s.u_curr - s.u_prev + dt**2 * body
        return WaveState(u_new, s.u_curr, s.p)
    sx, sy = sigma[:, None], sigma[None, :]
    phi, psi = s.p
    den = 1.0 + 0.5 * dt * (sx + sy)
    coef_u = 2.0 - dt**2 * sx * sy
    coef_v = 1.0 - 0.5 * dt * (sx + sy)
    body = body + c2 * (_ddx_oracle(phi, h, 0) + _ddx_oracle(psi, h, 1))
    u_new = (coef_u * s.u_curr - coef_v * s.u_prev + dt**2 * body) / den
    phi_new = (1.0 - dt * sx) * phi + dt * (sy - sx) * _ddx_oracle(s.u_curr, h, 0)
    psi_new = (1.0 - dt * sy) * psi + dt * (sx - sy) * _ddx_oracle(s.u_curr, h, 1)
    return WaveState(u_new, s.u_curr, np.stack([phi_new, psi_new]))


def _step_T_oracle(sp, dt, sigma, s):
    """The unfolded transpose, term by term."""
    h, c2 = sp.grid.h, sp.c**2
    if sigma is None:
        a = 2.0 * s.u_curr + dt**2 * laplacian(c2 * s.u_curr, h) + s.u_prev
        return WaveState(a, -s.u_curr, s.p)
    sx, sy = sigma[:, None], sigma[None, :]
    phi, psi = s.p
    den = 1.0 + 0.5 * dt * (sx + sy)
    coef_u = 2.0 - dt**2 * sx * sy
    coef_v = 1.0 - 0.5 * dt * (sx + sy)
    w = s.u_curr / den
    c2w = c2 * w
    a = coef_u * w + dt**2 * laplacian(c2w, h) + s.u_prev
    a = a - dt * _ddx_oracle((sy - sx) * phi, h, 0)
    a = a - dt * _ddx_oracle((sx - sy) * psi, h, 1)
    b = -coef_v * w
    g = -(dt**2) * _ddx_oracle(c2w, h, 0) + (1.0 - dt * sx) * phi
    q = -(dt**2) * _ddx_oracle(c2w, h, 1) + (1.0 - dt * sy) * psi
    return WaveState(a, b, np.stack([g, q]))


def _random_state(rng, g):
    """Random fields, with the split field on the band cells only."""
    m = band_cells(g).size
    return WaveState(rng.normal(size=(g.n, g.n)), rng.normal(size=(g.n, g.n)),
                     rng.normal(size=2 * m))


def _kernel_case(n, band):
    g = make_grid(L=1.6, n=n, pml_width=0.5 if band else 0.0)
    sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
    sigma = pml_profile(g) if band else None
    solver = WaveSolver(sp, 0.5 * cfl_limit(sp))
    s = _random_state(np.random.default_rng(0), g)
    return sp, sigma, solver, s


def _fields(s):
    return (s.u_curr, s.u_prev, s.p)


def _dot(a, b):
    """Euclidean inner product of two states over all three fields."""
    return float(sum(np.sum(x * y) for x, y in zip(_fields(a), _fields(b))))


class TestFoldedKernel:
    """step/step_T against the unfolded formulas they were folded from."""

    @pytest.mark.parametrize("band", [False, True])
    @pytest.mark.parametrize("n", [32, 49])
    @pytest.mark.parametrize("which", ["step", "step_T"])
    def test_matches_unfolded_oracle(self, which, n, band):
        sp, sigma, solver, s = _kernel_case(n, band)
        oracle = _step_oracle if which == "step" else _step_T_oracle
        got = getattr(solver, which)(s)
        # the unfolded formulas act on a full-grid split field
        want = to_band(sp.grid, oracle(sp, solver.dt, sigma, to_full(sp.grid, s)))
        for a, b in zip(_fields(got), _fields(want)):
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("band", [False, True])
    @pytest.mark.parametrize("which", ["step", "step_T"])
    def test_inputs_unchanged(self, which, band):
        _, _, solver, s = _kernel_case(32, band)
        before = [x.copy() for x in _fields(s)]
        getattr(solver, which)(s)
        getattr(solver, which)(s)
        for x, y in zip(_fields(s), before):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("band", [False, True])
    @pytest.mark.parametrize("which", ["step", "step_T"])
    def test_memory_layout_does_not_matter(self, which, band):
        _, _, solver, s = _kernel_case(49, band)
        ref = getattr(solver, which)(s)
        fortran = WaveState(*(np.asfortranarray(x) for x in _fields(s)))
        big = [np.zeros((2 * x.shape[0],) + tuple(3 * d for d in x.shape[1:]))
               for x in _fields(s)]
        views = [b[::2, ::3] if b.ndim == 2 else b[::2] for b in big]
        for v, x in zip(views, _fields(s)):
            v[...] = x
        strided = WaveState(*views)
        for other in (fortran, strided):
            got = getattr(solver, which)(other)
            for a, b in zip(_fields(got), _fields(ref)):
                assert np.array_equal(a, b)


class TestAdjointness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_step_transpose(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(L=1.6, n=32, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        solver = WaveSolver(sp, 0.5 * cfl_limit(sp))

        def rand_state():
            return _random_state(rng, g)

        a, b = rand_state(), rand_state()
        lhs = _dot(solver.step(a), b)
        rhs = _dot(a, solver.step_T(b))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_init_transpose(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(L=1.6, n=32, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        solver = WaveSolver(sp, 0.5 * cfl_limit(sp))
        f = rng.normal(size=(32, 32))
        t = _random_state(rng, g)
        lhs = _dot(solver.init_state(f), t)
        rhs = np.sum(f * solver.init_state_T(t))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-12


class TestBandLayout:
    """The split field lives on the band cells only, and a step equals the
    full-grid folded step (tests/full_grid_step.py) bit for bit."""

    # the (n, n) arrays a solver may hold: speed, the folded u coefficients
    # and scratch for the full-grid part of a step
    _FULL_GRID = {"c2", "_k1", "_a0", "_q", "_neg_q", "_t", "_t2"}

    @pytest.mark.parametrize("n", [32, 49, 129])
    def test_state_holds_the_band_cells_only(self, n):
        g = make_grid(L=1.6, n=n, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        sigma = pml_profile(g)
        m = int(np.count_nonzero(sigma[:, None] + sigma[None, :] > 0.0))
        assert 0 < m < n * n
        solver = WaveSolver(sp, 0.5 * cfl_limit(sp))
        s = solver.init_state(gaussian_phantom(g, sigma=0.15))
        for state in (s, solver.zero_state(), solver.step(s), solver.step_T(s)):
            assert state.p.shape == (2 * m,)
        for name, value in vars(solver).items():
            if isinstance(value, np.ndarray) and name not in self._FULL_GRID:
                assert n * n not in value.shape and value.shape != (n, n), name

    def test_state_holds_only_the_advanced_fields(self):
        # the level time is k * solver.dt, and dt is the solver's
        assert [f.name for f in dataclasses.fields(WaveState)] == ["u_curr", "u_prev", "p"]

    def test_band_free_state_is_empty(self):
        _, sp = _setup(n=32)
        s = WaveSolver(sp, 0.01).init_state(np.zeros((32, 32)))
        assert s.p.shape == (0,)

    @pytest.mark.parametrize("n", [32, 49])
    def test_band_free_grid_steps_as_the_zero_damping_band(self, n, monkeypatch):
        # a band whose damping is zero (selftest's zero-damping fault) has no
        # band cells, so it steps as a grid built without one, bit for bit
        monkeypatch.setattr(wave, "pml_profile", lambda grid: np.zeros(grid.n))
        solvers = []
        for pml_width in (0.0, 0.5):
            g = make_grid(L=1.6, n=n, pml_width=pml_width)
            sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
            solvers.append(WaveSolver(sp, 0.5 * cfl_limit(sp)))
        rng = np.random.default_rng(n)
        start = WaveState(rng.normal(size=(n, n)), rng.normal(size=(n, n)), np.zeros(0))
        for which in ("step", "step_T"):
            states = [start, start]
            for _ in range(50):
                states = [getattr(solver, which)(s) for solver, s in zip(solvers, states)]
                assert all(np.array_equal(a, b) for a, b in zip(*map(_fields, states)))
            assert states[0].p.shape == states[1].p.shape == (0,)

    @pytest.mark.parametrize("start", ["phantom", "random"])
    @pytest.mark.parametrize("n", [32, 49])
    def test_forward_solve_equals_the_full_grid_step(self, n, start):
        g = make_grid(L=1.6, n=n, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        nt, dt = choose_time_steps(sp, 3.0)
        solver, ref = WaveSolver(sp, dt), FullGridStep(sp, dt)
        if start == "phantom":
            s = solver.init_state(gaussian_phantom(g, center=(0.3, -0.2), sigma=0.12))
        else:
            s = _random_state(np.random.default_rng(n), g)
        r = to_full(g, s)
        for _ in range(nt - 1):
            s, r = solver.step(s), ref.step(r)
            assert all(np.array_equal(a, b) for a, b in zip(_fields(s), _fields(to_band(g, r))))
        phi, psi = s.p.reshape(2, -1)
        assert np.abs(phi).max() > 0.0 and np.abs(psi).max() > 0.0

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("n", [32, 49])
    def test_adjoint_solve_equals_the_full_grid_step(self, n, start):
        g = make_grid(L=1.6, n=n, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        nt, dt = choose_time_steps(sp, 3.0)
        solver, ref = WaveSolver(sp, dt), FullGridStep(sp, dt)
        rng = np.random.default_rng(n + 1)
        s = solver.zero_state() if start == "zero" else _random_state(rng, g)
        r = to_full(g, s)
        for _ in range(nt - 1):
            # data enter the state between steps, as in the adjoint operator
            data = rng.normal(size=(n, n))
            s.u_curr = s.u_curr + data
            r.u_curr = r.u_curr + data
            s, r = solver.step_T(s), ref.step_T(r)
            assert all(np.array_equal(a, b) for a, b in zip(_fields(s), _fields(to_band(g, r))))
        assert np.array_equal(solver.init_state_T(s), solver.init_state_T(to_band(g, r)))


class TestBandProducts:
    """The band's two matrices are applied by SciPy's private sparse kernels
    (``wave._accumulating``); they must keep summing as the public products
    do, so a SciPy that renames or changes them fails here, not mid-solve."""

    def test_kernels_equal_the_public_products(self):
        g = make_grid(L=1.6, n=49, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        solver = WaveSolver(sp, 0.5 * cfl_limit(sp))
        m, rng = band_cells(g).size, np.random.default_rng(3)
        # D and F^T, one row per band entry of (phi, psi), on one pattern
        pairs = (solver._memory, solver._memory_T), (solver._flux_T, solver._flux)
        assert all(a is b for a, b in zip(pairs[0][0].args[:4], pairs[1][0].args[:4]))
        for product, product_T in pairs:
            rows, cols, *arrays = product.args
            assert (rows, cols) == (2 * m, 49 * 49)
            # the transpose reads the same arrays: no transposed copy is stored
            assert all(a is b for a, b in zip(arrays, product_T.args[2:]))
            a = scipy.sparse.csr_matrix(tuple(arrays[::-1]), shape=(rows, cols))
            assert a.nnz > 0 and a.has_sorted_indices
            x, y = rng.normal(size=cols), rng.normal(size=rows)
            got, got_T = np.zeros(rows), np.zeros(cols)
            product(x, got)
            product_T(y, got_T)
            assert np.array_equal(got, a @ x)
            assert np.array_equal(got_T, a.T @ y)


class TestSolveForward:
    def test_march_lattice_and_zero_field(self):
        _, sp = _setup()
        nt, dt = choose_time_steps(sp, 0.5)
        levels, times = [], []
        for k, s in enumerate(march(np.zeros((64, 64)), WaveSolver(sp, dt), nt)):
            levels.append(k)
            times.append((k * dt, np.abs(s.u_curr).max()))
        assert levels == list(range(nt))
        assert len(times) == nt
        assert times[0][0] == 0.0
        assert times[-1][0] == pytest.approx(0.5, abs=1e-12)
        assert all(v == 0.0 for _, v in times)

    def test_arrival_time_at_unit_distance(self):
        g = make_grid(L=1.8, n=241)
        sp = sample_speed(SpeedSpec(kind="constant"), g)
        f = gaussian_phantom(g, sigma=0.08)
        ij = (int(np.argmin(np.abs(g.axis - 1.0))), int(np.argmin(np.abs(g.axis))))
        nt, dt = choose_time_steps(sp, 1.5)
        rec = [(k * dt, s.u_curr[ij]) for k, s in enumerate(march(f, WaveSolver(sp, dt), nt))]
        ts = np.array([t for t, _ in rec])
        vs = np.array([v for _, v in rec])
        t_peak = ts[np.argmax(np.abs(vs))]
        # peak is pulled slightly early by the pulse width (sigma = 0.08)
        assert abs(t_peak - 1.0) < 0.06

    def test_deterministic(self):
        g, sp = _setup(n=64)
        f = gaussian_phantom(g, sigma=0.2)
        nt, dt = choose_time_steps(sp, 0.3)
        a = solve_forward(f, WaveSolver(sp, dt), nt).u_curr
        b = solve_forward(f, WaveSolver(sp, dt), nt).u_curr
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("pml_width", [0.0, 0.3])
    def test_a_shared_solver_gives_the_fields_of_fresh_ones(self, pml_width):
        # the measurement map runs every solve of a command on one solver,
        # whose scratch buffers must not carry anything from one solve over
        g = make_grid(L=1.5, n=64, pml_width=pml_width)
        sp = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        f = gaussian_phantom(g, sigma=0.2)
        nt, dt = choose_time_steps(sp, 0.3)
        shared = WaveSolver(sp, dt)
        solve_forward(2.0 * f, shared, nt)
        a = solve_forward(f, shared, nt)
        b = solve_forward(f, WaveSolver(sp, dt), nt)
        assert all(np.array_equal(x, y) for x, y in zip(_fields(a), _fields(b)))

    def test_pml_absorbs_reflected_energy(self):
        g = make_grid(L=1.6, n=161, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="constant"), g)
        f = gaussian_phantom(g, sigma=0.08)
        nt, dt = _lattice(sp, 2.4, 0.5)
        solver = WaveSolver(sp, dt)
        X, Y = g.mesh()
        interior = np.maximum(np.abs(X), np.abs(Y)) < g.interior_half_width

        def interior_energy(st):
            return energy(st.u_curr * interior, st.u_prev * interior, dt, sp)

        s = solver.step(solver.init_state(f))
        e0 = interior_energy(s)
        for _ in range(nt - 2):
            s = solver.step(s)
        assert interior_energy(s) / e0 < 1e-3

    def test_energy_guard_stops_a_growing_band_while_the_field_is_finite(self):
        # a band of 4.4 cells at dt*sigma_max = 1.97 grows from about t = 11
        # and overflows only after t = 20; the check at level 200 (t = 14.3)
        # finds about 6e8 times the energy of level 1
        g = make_grid(L=3.6, n=65, pml_width=0.5)
        sp = sample_speed(SpeedSpec(kind="constant"), g)
        f = gaussian_phantom(g, center=(0.2, -0.1), sigma=0.18)
        nt, dt = choose_time_steps(sp, 20.0)
        finite = []
        with pytest.raises(FloatingPointError, match=r"^field blew up at step 200 \(t = 14\.2857\); "
                                                     r".*pml_width = 0\.5: 4\.44 cells"):
            for s in march(f, WaveSolver(sp, dt), nt):
                finite.append(bool(np.isfinite(s.u_curr).all()))
        assert finite == [True] * 200

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal"])
    def test_energy_guard_passes_a_long_band_free_run(self, kind):
        # without a band the scheme conserves the energy the guard reads to
        # rounding, far below its factor of 2 over level 1
        g, sp = _setup(n=65, kind=kind)
        f = gaussian_phantom(g, sigma=0.2)
        nt, dt = choose_time_steps(sp, 12.0)
        assert nt > 300
        ratios = []
        for k, s in enumerate(march(f, WaveSolver(sp, dt), nt)):
            if k == 1:
                e1 = energy(s.u_curr, s.u_prev, dt, sp)
            elif k > 1:
                ratios.append(energy(s.u_curr, s.u_prev, dt, sp) / e1)
        assert len(ratios) == nt - 2 and max(abs(r - 1.0) for r in ratios) < 1e-12

    def test_nan_guard(self):
        _, sp = _setup()
        with pytest.raises(FloatingPointError):
            nt, dt = choose_time_steps(sp, 0.05)
            solve_forward(np.full((64, 64), np.nan), WaveSolver(sp, dt), nt)

    def test_overflow_raises_without_numpy_warnings(self):
        g, sp = _setup()
        f = 1e308 * gaussian_phantom(g, sigma=0.1)
        nt, dt = choose_time_steps(sp, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                solve_forward(f, WaveSolver(sp, dt), nt)
