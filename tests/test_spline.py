import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from one_shot_sampler import unfolded_matrix
from ringtat import _spline
from ringtat._spline import BicubicSampler, SplineField, spline_coeffs_1d


def _field(n, fun, lo=-1.0, hi=1.0):
    ax = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return SplineField(lo, ax[1] - ax[0], fun(X, Y))


def _einsum_oracle(sf, pts):
    """The vectorized einsum evaluation of the spline, the reference for the
    scalar kernel.  Cells are clamped in floating point before the cast, so
    every outside query takes an edge cell and NaN takes cell 0."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    h = sf.h

    def locate(q):
        t = (q - sf.x0) / h
        i = np.nan_to_num(np.clip(np.floor(t), 0, sf.n - 2)).astype(np.int64)
        return i, t - i

    def weights(t):
        a = 1.0 - t
        wg = np.stack([a, t], axis=-1)
        wm = (h * h / 6.0) * np.stack([a**3 - a, t**3 - t], axis=-1)
        return wg, wm

    def dweights(t):
        a = 1.0 - t
        one = np.ones_like(t)
        dwg = np.stack([-one / h, one / h], axis=-1)
        dwm = (h / 6.0) * np.stack([1.0 - 3.0 * a**2, 3.0 * t**2 - 1.0], axis=-1)
        return dwg, dwm

    ix, xi = locate(pts[:, 0])
    iy, yi = locate(pts[:, 1])
    corner = np.array([0, 1])
    IX = (ix[:, None] + corner)[:, :, None]
    IY = (iy[:, None] + corner)[:, None, :]
    G, MX, MY, MXY = (arr[IX, IY] for arr in (sf.g, sf.mx, sf.my, sf.mxy))
    wgx, wmx = weights(xi)
    wgy, wmy = weights(yi)
    dgx, dmx = dweights(xi)
    dgy, dmy = dweights(yi)

    def combine(ax, mx_, ay, my_):
        return (
            np.einsum("ka,kb,kab->k", ax, ay, G)
            + np.einsum("ka,kb,kab->k", mx_, ay, MX)
            + np.einsum("ka,kb,kab->k", ax, my_, MY)
            + np.einsum("ka,kb,kab->k", mx_, my_, MXY)
        )

    val = combine(wgx, wmx, wgy, wmy)
    return val, np.stack([combine(dgx, dmx, wgy, wmy), combine(wgx, wmx, dgy, dmy)], axis=-1)


def _mesh(n, x0, h):
    ax = x0 + h * np.arange(n)
    return np.meshgrid(ax, ax, indexing="ij")


def _quasi_interpolant_oracle(x0, h, g, pts):
    """Point-by-point cubic B-spline quasi-interpolant: prefilter
    (-1, 8, -1)/6 with identity end rows along each axis, then the 4x4
    B-spline sum over coefficients i-1 .. i+2 of the clamped cell, with
    ghost coefficients c[-1] = 2c[0] - c[1] and c[n] = 2c[n-1] - c[n-2]."""
    n = g.shape[0]

    def prefilter(v):
        c = v.copy()
        for i in range(1, n - 1):
            c[i] = (-v[i - 1] + 8.0 * v[i] - v[i + 1]) / 6.0
        return c

    c = prefilter(prefilter(g).T).T

    def coef(i, j):
        if i == -1:
            return 2.0 * coef(0, j) - coef(1, j)
        if i == n:
            return 2.0 * coef(n - 1, j) - coef(n - 2, j)
        if j == -1:
            return 2.0 * coef(i, 0) - coef(i, 1)
        if j == n:
            return 2.0 * coef(i, n - 1) - coef(i, n - 2)
        return c[i, j]

    def basis(t):
        return [(1 - t) ** 3 / 6, (3 * t**3 - 6 * t**2 + 4) / 6,
                (-3 * t**3 + 3 * t**2 + 3 * t + 1) / 6, t**3 / 6]

    out = []
    for x, y in pts:
        tx, ty = (x - x0) / h, (y - x0) / h
        i = min(max(math.floor(tx), 0), n - 2)
        j = min(max(math.floor(ty), 0), n - 2)
        bx, by = basis(tx - i), basis(ty - j)
        out.append(sum(bx[a] * by[b] * coef(i - 1 + a, j - 1 + b)
                       for a in range(4) for b in range(4)))
    return np.array(out)


# edge and corner cells on both sides of a 24-node grid from -1.1 at spacing
# 0.1, and clamped points just outside it
_EDGE_POINTS = np.array([
    [-1.07, 0.3], [0.3, -1.02], [1.17, 0.1], [0.1, 1.19], [-1.05, -1.08],
    [1.15, 1.16], [-1.08, 1.13], [-1.13, 0.4], [1.23, -1.14],
])


def _bits(*arrays):
    return np.concatenate([np.ravel(np.asarray(a, dtype=float)) for a in arrays]).view(np.int64)


def _vg(sf, pts):
    """Values (k,) and gradients (k, 2) from the float triples of
    ``value_and_gradient``."""
    out = np.array(sf.value_and_gradient(pts)).reshape(-1, 3)
    return out[:, 0], out[:, 1:]


class TestSplineField:
    def test_interpolates_nodes_exactly(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(16, 16))
        sf = SplineField(0.0, 0.25, g)
        nodes = np.array([(0.25 * i, 0.25 * j) for i in range(16) for j in range(16)])
        assert np.max(np.abs(sf.value(nodes) - g.ravel())) == 0.0

    def test_reproduces_linear_functions(self):
        lin = lambda x, y: 0.7 - 1.3 * x + 0.4 * y
        sf = _field(16, lin, 0.0, 3.75)
        rng = np.random.default_rng(5)
        q = rng.uniform(0.3, 3.4, size=(50, 2))
        v, g = _vg(sf, q)
        assert np.max(np.abs(v - lin(q[:, 0], q[:, 1]))) < 1e-13
        assert np.max(np.abs(g - np.array([-1.3, 0.4]))) < 1e-13

    def test_fourth_order_interior_convergence(self):
        fun = lambda x, y: np.sin(2 * x) * np.cos(3 * y)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        exact = fun(pts[:, 0], pts[:, 1])
        errs = [np.max(np.abs(_field(n, fun).value(pts) - exact)) for n in (65, 129)]
        assert errs[0] / errs[1] > 12.0
        assert errs[1] < 2e-8

    def test_gradient_matches_function_derivative(self):
        fun = lambda x, y: np.sin(2 * x) * np.cos(3 * y)
        sf = _field(129, fun)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.6, 0.6, size=(40, 2))
        _, g = _vg(sf, pts)
        gx = 2 * np.cos(2 * pts[:, 0]) * np.cos(3 * pts[:, 1])
        gy = -3 * np.sin(2 * pts[:, 0]) * np.sin(3 * pts[:, 1])
        assert np.max(np.abs(g[:, 0] - gx)) < 1e-5
        assert np.max(np.abs(g[:, 1] - gy)) < 1e-5

    def test_gradient_continuous_across_cell_edges(self):
        rng = np.random.default_rng(11)
        sf = SplineField(0.0, 0.25, rng.normal(size=(12, 12)))
        # straddle the interior node line x = 1.0
        eps = 1e-9
        _, gl = _vg(sf, [(1.0 - eps, 1.13)])
        _, gr = _vg(sf, [(1.0 + eps, 1.13)])
        assert np.max(np.abs(gl - gr)) < 1e-6

    def test_one_point_kernel_equals_einsum_oracle(self):
        rng = np.random.default_rng(20)
        n, x0, h = 41, -3.0, 0.15
        sf = SplineField(x0, h, 1.0 + 0.3 * rng.normal(size=(n, n)))
        hi = x0 + (n - 1) * h
        nodes = x0 + h * rng.integers(0, n, size=(600, 2))
        pts = np.concatenate([
            rng.uniform(x0, hi, size=(800, 2)),  # interior
            nodes,  # exact node coordinates, grid corners included
            np.nextafter(nodes, -np.inf),  # either side of a cell edge
            np.nextafter(nodes, np.inf),
            rng.uniform(-60.0, 60.0, size=(300, 2)),  # far outside, clamped
            [[1e19, 0.2], [-1e19, 0.2], [0.2, 5e300], [x0 - 1e-3, hi + 1e-3]],
        ])
        assert len(pts) >= 2000
        for q in pts:
            with np.errstate(all="ignore"):  # cubes out of range
                (got,) = sf.value_and_gradient(q[None, :])
                want = _einsum_oracle(sf, q)
                value = sf.value(q[None, :])
            assert value.shape == (1,)
            np.testing.assert_array_equal(_bits(value), _bits(got[0]), err_msg=str(q))
            # the kernel factors the sums that einsum adds term by term, so
            # the two agree to rounding, not bit for bit
            got, want = np.array(got), np.append(*want)
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=str(q))
            with np.errstate(invalid="ignore"):  # inf - inf
                err = np.abs(got - want)
            assert np.all((got == want) | (err <= 1e-13 * np.maximum(np.abs(want), 1.0))
                          | np.isnan(want)), (q, got, want)

    def test_many_points_loop_over_the_one_point_kernel(self):
        rng = np.random.default_rng(21)
        sf = SplineField(0.0, 0.25, rng.normal(size=(12, 12)))
        pts = rng.uniform(-0.5, 3.5, size=(30, 2))
        rows = sf.value_and_gradient(pts)
        assert len(rows) == 30
        assert rows == [t for q in pts for t in sf.value_and_gradient(q[None, :])]
        assert rows == sf.value_and_gradient([tuple(q) for q in pts.tolist()])
        assert np.array_equal(sf.value(pts), [v for v, _, _ in rows])
        assert sf.value_and_gradient(np.zeros((0, 2))) == []
        assert sf.value(np.zeros((0, 2))).shape == (0,)

    def test_one_point_query_returns_python_floats(self):
        sf = SplineField(0.0, 0.25, np.random.default_rng(23).normal(size=(12, 12)))
        for query in (((1.3, 0.7),), np.array([[1.3, 0.7]])):
            (triple,) = sf.value_and_gradient(query)
            assert len(triple) == 3 and all(type(v) is float for v in triple)

    def test_memoized_blocks_equal_a_fresh_field(self):
        # a fresh field has an empty memo, so its one query reads the cell
        # block straight from the coefficient array
        rng = np.random.default_rng(22)
        n, x0, h = 33, -2.0, 0.125
        g = rng.normal(size=(n, n))
        sf = SplineField(x0, h, g)
        hi = x0 + (n - 1) * h
        pts = np.concatenate([
            rng.uniform(x0, hi, size=(300, 2)),  # in the grid
            rng.uniform(-30.0, 30.0, size=(300, 2)),  # mostly off the grid
            [[x0 + 0.3 * h, x0 + 0.6 * h], [hi - 0.3 * h, hi - 0.6 * h],  # cells 0 and n-2
             [x0 + 0.5 * h, hi - 0.5 * h], [hi, x0], [x0, hi]],
            [[np.nan, 0.3], [0.3, np.nan], [np.inf, 0.3], [-np.inf, 0.3],
             [0.3, np.inf], [0.3, -np.inf], [np.nan, np.inf]],
        ])
        first = sf.value_and_gradient(pts)
        again = sf.value_and_gradient(pts[::-1])[::-1]  # every block from the memo
        fresh = [t for q in pts for t in SplineField(x0, h, g).value_and_gradient(q[None, :])]
        assert {0, n - 2} <= {i for i, _ in sf._blocks} and len(sf._blocks) < len(pts)
        np.testing.assert_array_equal(_bits(first), _bits(fresh))
        np.testing.assert_array_equal(_bits(again), _bits(fresh))

    @pytest.mark.parametrize(
        "q", [(np.inf, 0.3), (-np.inf, 0.3), (0.3, np.inf), (0.3, -np.inf), (np.nan, 0.3)]
    )
    def test_non_finite_query_gives_nan(self, q):
        sf = SplineField(0.0, 0.25, np.random.default_rng(4).normal(size=(12, 12)))
        (triple,) = sf.value_and_gradient(np.array([q]))
        assert all(math.isnan(v) for v in triple)
        assert np.isnan(sf.value(np.array([q]))[0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SplineField(0.0, 0.1, np.zeros((8, 9)))


class TestCoeffTranspose:
    def test_natural_end_conditions(self):
        rng = np.random.default_rng(2)
        m = spline_coeffs_1d(rng.normal(size=(20, 20)), 0.1, 0)
        assert np.all(m[0] == 0.0) and np.all(m[-1] == 0.0)

    @pytest.mark.parametrize("n", [4, 5, 129])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_sweep_equals_dense_solve(self, n, axis):
        # the oracle: the natural-spline matrix, identity end rows and
        # (1, 4, 1) inside, solved densely for the same right-hand side
        rng = np.random.default_rng(n + 7 * axis)
        g = rng.normal(size=(n, n))
        h = 2.0 / (n - 1)
        a = np.eye(n) * 4.0 + np.eye(n, k=1) + np.eye(n, k=-1)
        a[[0, -1]] = np.eye(n)[[0, -1]]
        gm = np.moveaxis(g, axis, 0)
        rhs = np.zeros_like(gm)
        rhs[1:-1] = 6.0 / (h * h) * (gm[2:] - 2.0 * gm[1:-1] + gm[:-2])
        want = np.moveaxis(np.linalg.solve(a, rhs), 0, axis)
        got = spline_coeffs_1d(g, h, axis)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestBicubicSampler:
    def _random_sampler(self, rng, n=24, n_rows=17, m=18):
        rings = rng.uniform(-1.0, 1.2, size=(n_rows, m, 2))
        return BicubicSampler(-1.1, 0.1, n, rings)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_apply_transpose_pair(self, seed):
        rng = np.random.default_rng(seed)
        samp = self._random_sampler(rng)
        u = rng.normal(size=(24, 24))
        m = rng.normal(size=17)
        lhs = np.dot(samp.apply(u), m)
        rhs = np.sum(u * samp.apply_T(m))
        # scaled by |Wu| |m|, not |<Wu, m>|, which can cancel
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(samp.apply(u)) * np.linalg.norm(m)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_apply_transpose_pair_smallest_grid(self, seed):
        # n = 4: every cell is an edge cell, so both ghost folds and both
        # identity end rows of the prefilter meet in one 4x4 block
        rng = np.random.default_rng(seed)
        samp = BicubicSampler(0.0, 1.0 / 3.0, 4, rng.uniform(-0.3, 1.3, size=(5, 12, 2)))
        u = rng.normal(size=(4, 4))
        m = rng.normal(size=5)
        lhs = np.dot(samp.apply(u), m)
        rhs = np.sum(u * samp.apply_T(m))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(samp.apply(u)) * np.linalg.norm(m)

    @pytest.mark.parametrize("n", [4, 9])
    def test_apply_T_is_the_transpose_of_apply(self, n):
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        samp = BicubicSampler(0.0, h, n, rng.uniform(-0.2, 1.2, size=(7, 7, 2)))
        dense = np.stack([samp.apply(e.reshape(n, n)) for e in np.eye(n * n)], axis=-1)
        for r, e in enumerate(np.eye(7)):
            np.testing.assert_array_equal(samp.apply_T(e).ravel(), dense[r])
        m = rng.normal(size=7)
        err = np.max(np.abs(samp.apply_T(m).ravel() - dense.T @ m))
        assert err <= 1e-15 * np.max(np.abs(dense.T) @ np.abs(m))

    def test_no_transpose_per_call(self, monkeypatch):
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(5)
        samp = self._random_sampler(rng)
        m = rng.normal(size=17)
        want = samp.apply_T(m)

        def refuse(*args, **kwargs):
            raise AssertionError("the matrix was transposed after construction")

        monkeypatch.setattr(csr_matrix, "transpose", refuse)
        np.testing.assert_array_equal(samp.apply_T(m), want)
        # the held view costs no memory: it shares the matrix's arrays
        w, w_T = samp._w, samp._w_T
        assert all(np.shares_memory(a, b) for a, b in
                   ((w.data, w_T.data), (w.indices, w_T.indices), (w.indptr, w_T.indptr)))

    def test_matches_quasi_interpolant_oracle(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(24, 24))
        pts = np.concatenate([rng.uniform(-1.0, 1.2, size=(15, 2)), _EDGE_POINTS])
        samp = BicubicSampler(-1.1, 0.1, 24, pts[:, None])
        want = _quasi_interpolant_oracle(-1.1, 0.1, g, pts)
        np.testing.assert_allclose(samp.apply(g), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [1, 7])
    def test_rows_are_ring_means(self, m):
        # 9 rings of m points; the first rings take the edge and corner points
        rng = np.random.default_rng(m)
        g = rng.normal(size=(24, 24))
        pts = np.concatenate([_EDGE_POINTS, rng.uniform(-1.0, 1.2, size=(9 * m - 9, 2))])
        rings = pts.reshape(9, m, 2)
        samp = BicubicSampler(-1.1, 0.1, 24, rings)
        want = _quasi_interpolant_oracle(-1.1, 0.1, g, pts).reshape(9, m).mean(axis=1)
        np.testing.assert_allclose(samp.apply(g), want, rtol=0, atol=1e-13)

    def test_reproduces_cubics_at_interior_points(self):
        # cells 2 .. n-4: the 4x4 coefficient block and its prefilter stencil
        # stay inside the grid
        n, x0, h = 24, -1.1, 0.1
        X, Y = _mesh(n, x0, h)

        def cubic(x, y):
            return 0.3 - x + 2 * y + x * x * y - 0.7 * y**3 + 0.4 * x**3 + 0.2 * (x * y) ** 3

        pts = np.random.default_rng(12).uniform(x0 + 2 * h, x0 + (n - 3) * h, size=(200, 2))
        samp = BicubicSampler(x0, h, n, pts[:, None])
        err = np.max(np.abs(samp.apply(cubic(X, Y)) - cubic(pts[:, 0], pts[:, 1])))
        assert err <= 1e-12

    def test_reproduces_linear_functions_on_edge_cells(self):
        n, x0, h = 12, 0.0, 0.25
        X, Y = _mesh(n, x0, h)
        lin = lambda x, y: 0.7 - 1.3 * x + 0.4 * y
        rng = np.random.default_rng(13)
        hi = x0 + (n - 1) * h
        lo_cell = rng.uniform(x0, x0 + h, size=40)
        hi_cell = rng.uniform(hi - h, hi, size=40)
        mid = rng.uniform(x0, hi, size=40)
        pts = np.concatenate([
            np.stack([lo_cell, mid], -1), np.stack([hi_cell, mid], -1),
            np.stack([mid, lo_cell], -1), np.stack([mid, hi_cell], -1),
            np.stack([lo_cell, hi_cell], -1), np.stack([hi_cell, lo_cell], -1),
            np.stack([lo_cell, lo_cell[::-1]], -1), np.stack([hi_cell, hi_cell[::-1]], -1),
        ])
        samp = BicubicSampler(x0, h, n, pts[:, None])
        err = np.max(np.abs(samp.apply(lin(X, Y)) - lin(pts[:, 0], pts[:, 1])))
        assert err <= 1e-13

    def test_fourth_order_convergence(self):
        fun = lambda x, y: np.sin(2 * x) * np.cos(3 * y)
        pts = np.random.default_rng(7).uniform(-0.6, 0.6, size=(40, 2))
        exact = fun(pts[:, 0], pts[:, 1])
        errs = []
        for n in (65, 129):
            h = 2.0 / (n - 1)
            samp = BicubicSampler(-1.0, h, n, pts[:, None])
            errs.append(np.max(np.abs(samp.apply(fun(*_mesh(n, -1.0, h))) - exact)))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] < 3e-7

    def test_shape_validation(self):
        for shape in [(4, 2), (2, 3, 3), (2, 0, 2), (1, 2, 2, 2)]:
            with pytest.raises(ValueError, match="rings"):
                BicubicSampler(0.0, 0.1, 8, np.zeros(shape))
        with pytest.raises(ValueError, match="n >= 4"):
            BicubicSampler(0.0, 0.1, 3, np.zeros((1, 1, 2)))


def _ring_set(n_theta, center_radius, radii, m=256):
    """Rings of m points with centers on the circle of ``center_radius`` at
    n_theta angles and each of ``radii`` at each (theta-major)."""
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    alphas = 2.0 * np.pi * np.arange(m) / m
    r = np.asarray(radii, dtype=float)[:, None]
    cx = center_radius * np.cos(thetas)[:, None, None] + r * np.cos(alphas)
    cy = center_radius * np.sin(thetas)[:, None, None] + r * np.sin(alphas)
    return np.stack([cx, cy], axis=-1).reshape(-1, m, 2)


def _sweep_sampler_args():
    """(x0, h, n, rings) of the radius sweep's 129^2 base level: rings of
    256 points with centers on the unit circle at 40 angles and radii 2.0,
    2.1 and 2.2 at each (theta-major), on a grid over [-3.9, 3.9]^2."""
    return -3.9, 7.8 / 128, 129, _ring_set(40, 1.0, [2.0, 2.1, 2.2])


def _sampler_cases():
    """(x0, h, n, rings) of the detector layouts the program samples: the
    recon and small-mode maps at 129^2 (60 rings), both levels of the large
    radius sweep (129^2 and 257^2), and random rings over the edge and
    corner cells of every grid from n = 4 to 33."""
    yield -3.6, 7.2 / 128, 129, _ring_set(60, 2.0, [2.0])
    yield -3.6, 7.2 / 128, 129, _ring_set(60, 2.0, [0.8])
    yield _sweep_sampler_args()
    yield -3.9, 7.8 / 256, 257, _ring_set(80, 1.0, [2.0, 2.1, 2.2])
    rng = np.random.default_rng(0)
    for n in range(4, 34):
        yield 0.0, 1.0 / (n - 1), n, rng.uniform(-0.3, 1.3, size=(7, 13, 2))


# The folded build sums each point's outer product of per-axis node weights;
# the unfolded oracle sums 4x4 coefficient weights and then multiplies by
# Q x Q.  Both round every entry, in a different order, so their values
# agree to rounding: over ``_sampler_cases`` the largest difference is
# 8.2e-16 max|W| (the small-mode map; 3.7 units of 2**-53), and the bound
# allows 9 units, a margin of 2.4.  A wrong tap weight, or one tap shifted
# by a node, moves entries by at least 1/36 of a point's weight over m.
UNFOLDED_VALUES = 9 * 2.0**-53


class TestBlockBuild:
    """The sampler's block build against ``_block_matrix`` on all rings at
    once: the same CSR arrays, bit for bit, and a transient peak near two
    copies of the matrix; against the unfolded build the same pattern and
    values to rounding."""

    @staticmethod
    def _assert_same_matrix(got, want):
        assert got.shape == want.shape
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("m", [64, 256])
    @pytest.mark.parametrize("k, d", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_equals_the_one_shot_build(self, m, k, d):
        # k B + d rings for B rings per block: 0, 1, B - 1, B, B + 1, 2B + 1
        n_rows = k * max(1, _spline._BLOCK_POINTS // m) + d
        rng = np.random.default_rng(m + n_rows)
        rings = rng.uniform(-1.0, 1.2, size=(n_rows, m, 2))
        samp = BicubicSampler(-1.1, 0.1, 24, rings)
        self._assert_same_matrix(samp._w, _spline._block_matrix(rings, -1.1, 0.1, 24))
        assert samp.n_rows == n_rows
        assert samp.apply(rng.normal(size=(24, 24))).shape == (n_rows,)
        assert samp.apply_T(np.zeros(n_rows)).shape == (24, 24)

    def test_sweep_shaped_rings_equal_the_one_shot_build(self):
        x0, h, n, rings = _sweep_sampler_args()
        self._assert_same_matrix(BicubicSampler(x0, h, n, rings)._w,
                                 _spline._block_matrix(rings, x0, h, n))

    def test_pattern_and_values_of_the_unfolded_build(self):
        for args in _sampler_cases():
            got, want = BicubicSampler(*args)._w, unfolded_matrix(*args)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            scale = np.max(np.abs(want.data))
            assert np.max(np.abs(got.data - want.data)) <= UNFOLDED_VALUES * scale, args[2]

    def test_one_product_and_one_sort_per_block(self, monkeypatch):
        """The build's sparse work, counted: per block one product, of
        operands with n or fewer rows per ring and no n^2 rows, and one
        index sort; no duplicate summing anywhere; none of it per call."""
        from scipy.sparse import _compressed

        calls = {"product": [], "sort": 0, "sum_duplicates": 0}
        product, sort = _compressed._cs_matrix._matmul_sparse, _compressed._cs_matrix.sort_indices

        def counted_product(a, b):
            calls["product"].append((a.shape, b.shape))
            return product(a, b)

        def counted_sort(a):
            calls["sort"] += 1
            return sort(a)

        def refuse(a):
            calls["sum_duplicates"] += 1

        monkeypatch.setattr(_compressed._cs_matrix, "_matmul_sparse", counted_product)
        monkeypatch.setattr(_compressed._cs_matrix, "sort_indices", counted_sort)
        monkeypatch.setattr(_compressed._cs_matrix, "sum_duplicates", refuse)
        n, m = 24, 64
        step = _spline._BLOCK_POINTS // m
        rng = np.random.default_rng(3)
        samp = BicubicSampler(-1.1, 0.1, n, rng.uniform(-1.0, 1.2, size=(2 * step + 1, m, 2)))
        sizes = [step, step, 1]
        assert calls["product"] == [((b * n, b * m), (b * m, n)) for b in sizes]
        assert calls["sort"] == len(sizes)
        assert calls["sum_duplicates"] == 0
        samp.apply(rng.normal(size=(n, n)))
        samp.apply_T(rng.normal(size=samp.n_rows))
        assert (len(calls["product"]), calls["sort"], calls["sum_duplicates"]) == (3, 3, 0)

    def test_transient_memory_is_about_two_matrices(self):
        # The block build holds, at most, the blocks and their stack (two
        # copies of the matrix) or, before stacking, the blocks so far and
        # one block's operands, product and column offsets.  On these 120
        # sweep rings at 129^2 its traced peak is 2.0 times the matrix
        # bytes; the unfolded one-shot build, holding all rings' unfolded
        # weights beside the prefilter and the product, peaked at 4.4.
        x0, h, n, rings = _sweep_sampler_args()
        BicubicSampler(x0, h, n, rings[:1])  # loads scipy.sparse untraced
        tracemalloc.start()
        try:
            w = BicubicSampler(x0, h, n, rings)._w
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * (w.data.nbytes + w.indices.nbytes + w.indptr.nbytes)
