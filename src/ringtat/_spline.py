"""Bicubic interpolation on a uniform grid, in two forms.

``SplineField`` is the natural bicubic spline of one fixed grid function,
for pointwise queries: it passes through every node exactly and has a
continuous gradient, which the ray tracer integrates.  Its coefficients are
second derivatives from one tridiagonal solve per axis, with natural end
conditions.

``BicubicSampler`` is a fixed linear map from grid functions to weighted
point sums, applied at every time level of the forward and adjoint wave
sweeps.  It evaluates the local C2 cubic B-spline quasi-interpolant
(Unser, "Splines: a perfect fit for signal and image processing", IEEE SPM
1999): the coefficients are the samples filtered by the 3-tap stencil
(-1, 8, -1)/6 along each axis, with identity end rows, and each point sums
the cubic B-spline weights of its 4x4 coefficient block.  Coefficients one
step past the grid follow the linear ghost rule c[-1] = 2c[0] - c[1] and
c[n] = 2c[n-1] - c[n-2], so constants and linear functions are reproduced
on every cell.  Cubic polynomials are reproduced on cells whose stencil
stays two nodes inside, and the error on smooth fields is fourth order.
No global solve is involved, and the whole map is fixed: the prefilter is
folded into the weight matrix once, at build time, so apply and apply_T are
one sparse product each with the same matrix and are exact matrix
transposes of each other.  A C2 interpolant keeps the sampling error
smooth in the geometry parameters (piecewise-linear interpolation has O(h)
derivative kinks at every cell edge, which pollutes grid-refinement
studies).

Conventions: grid functions are (n, n) arrays indexed [ix, iy] on a uniform
axis starting at x0 with spacing h; query points are (k, 2) arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix


def _bands(n: int) -> np.ndarray:
    """Banded form (solve_banded layout) of the natural-spline tridiagonal
    system."""
    ab = np.zeros((3, n))
    ab[1] = 4.0
    ab[1, 0] = ab[1, -1] = 1.0  # end rows pin the coefficient to zero
    ab[0, 2:] = 1.0
    ab[2, :-2] = 1.0
    return ab


def _second_diff(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Spline right-hand side: scaled interior second differences, zero in
    the first and last slot (natural end conditions)."""
    out = np.zeros_like(g)
    s = 6.0 / (h * h)
    gm = np.moveaxis(g, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[1:-1] = s * (gm[2:] - 2.0 * gm[1:-1] + gm[:-2])
    return out


def _solve(ab: np.ndarray, rhs: np.ndarray, axis: int) -> np.ndarray:
    r = np.moveaxis(rhs, axis, 0)
    shp = r.shape
    x = solve_banded((1, 1), ab, r.reshape(shp[0], -1), check_finite=False)
    return np.moveaxis(x.reshape(shp), 0, axis)


def spline_coeffs_1d(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Natural-spline second derivatives along one axis (zero at both ends)."""
    return _solve(_bands(g.shape[axis]), _second_diff(g, h, axis), axis)


# _point sends NaN, +-inf and anything past the int64 range to cell 0, as
# numpy's float -> int64 cast (INT64_MIN) followed by a clip to [0, n - 2]
# does in the vectorized cell search
_CAST_LIMIT = 2.0**63


class SplineField:
    """Bicubic interpolant of one fixed grid function, for pointwise queries.

    Every query runs through one scalar kernel, ``_point``, one point at a
    time: the ray tracer asks for a single point per Runge-Kutta stage, and
    at that size numpy call overhead is the whole cost.  The kernel locates
    the cell with Python floats and reads the 2x2 block of (g, mx, my, mxy)
    with one slice of a stacked (n, n, 4) array.  Its results are bit for
    bit those of the vectorized per-cell weights (values: ``(1-t, t)``,
    second derivatives: ``h^2/6 (a^3 - a)``) contracted with einsum on one
    point, because it keeps their rounding:

    * cubes go through numpy array power (on AVX-512 builds Python ``**``
      and ``math.pow`` differ from it in the last bit for some inputs);
    * squares are plain products, as numpy computes ``a**2``;
    * each 2x2 contraction sum_ab u_a v_b B_ab rounds as einsum
      ("ka,kb,kab->k") does at k = 1, ((00 + 01) + (10 + 11)) with each
      term (u_a v_b) B_ab, and the four coefficient terms add left to right
      (g, mx, my, mxy).  The kernel writes all twelve sums out inline.

    A query of exactly one point calls the kernel directly; more points run
    it in a loop.
    """

    def __init__(self, x0: float, h: float, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 4:
            raise ValueError("values must be square (n, n) with n >= 4")
        self.x0 = float(x0)
        self.h = float(h)
        self.n = v.shape[0]
        self.g = v
        self.mx = spline_coeffs_1d(v, self.h, 0)
        self.my = spline_coeffs_1d(v, self.h, 1)
        self.mxy = spline_coeffs_1d(self.mx, self.h, 1)
        self._coef = np.stack([self.g, self.mx, self.my, self.mxy], axis=-1)

    def _point(self, x: float, y: float) -> tuple[float, float, float]:
        """Value and gradient at one point (clamped to the edge cells
        outside the grid; NaN for non-finite input)."""
        h, last = self.h, self.n - 2
        tx = (x - self.x0) / h
        ty = (y - self.x0) / h
        i = min(int(tx), last) if 0.0 <= tx < _CAST_LIMIT else 0
        j = min(int(ty), last) if 0.0 <= ty < _CAST_LIMIT else 0
        xi = tx - i
        yi = ty - j
        ax = 1.0 - xi
        ay = 1.0 - yi
        ax3, xi3, ay3, yi3 = (np.array([ax, xi, ay, yi]) ** 3).tolist()
        # the corner-value weights are (ax, xi) and (ay, yi); m* weight the
        # second derivatives, dw and dm* are the derivatives of both pairs
        cm = h * h / 6.0
        cd = h / 6.0
        mx0, mx1 = cm * (ax3 - ax), cm * (xi3 - xi)
        my0, my1 = cm * (ay3 - ay), cm * (yi3 - yi)
        dw0, dw1 = -1.0 / h, 1.0 / h
        dmx0, dmx1 = cd * (1.0 - 3.0 * (ax * ax)), cd * (3.0 * (xi * xi) - 1.0)
        dmy0, dmy1 = cd * (1.0 - 3.0 * (ay * ay)), cd * (3.0 * (yi * yi) - 1.0)
        # corner ab is node (i + a, j + b), holding g and its second
        # derivatives sx = mx, sy = my and sxy = mxy
        lo, hi = self._coef[i : i + 2, j : j + 2].tolist()
        (g00, sx00, sy00, sxy00), (g01, sx01, sy01, sxy01) = lo
        (g10, sx10, sy10, sxy10), (g11, sx11, sy11, sxy11) = hi
        # keep the bracketing: it is einsum's rounding order (class docstring)
        value = (
            (((ax * ay) * g00 + (ax * yi) * g01) + ((xi * ay) * g10 + (xi * yi) * g11))
            + (((mx0 * ay) * sx00 + (mx0 * yi) * sx01) + ((mx1 * ay) * sx10 + (mx1 * yi) * sx11))
            + (((ax * my0) * sy00 + (ax * my1) * sy01) + ((xi * my0) * sy10 + (xi * my1) * sy11))
            + (((mx0 * my0) * sxy00 + (mx0 * my1) * sxy01)
               + ((mx1 * my0) * sxy10 + (mx1 * my1) * sxy11))
        )
        grad_x = (
            (((dw0 * ay) * g00 + (dw0 * yi) * g01) + ((dw1 * ay) * g10 + (dw1 * yi) * g11))
            + (((dmx0 * ay) * sx00 + (dmx0 * yi) * sx01)
               + ((dmx1 * ay) * sx10 + (dmx1 * yi) * sx11))
            + (((dw0 * my0) * sy00 + (dw0 * my1) * sy01)
               + ((dw1 * my0) * sy10 + (dw1 * my1) * sy11))
            + (((dmx0 * my0) * sxy00 + (dmx0 * my1) * sxy01)
               + ((dmx1 * my0) * sxy10 + (dmx1 * my1) * sxy11))
        )
        grad_y = (
            (((ax * dw0) * g00 + (ax * dw1) * g01) + ((xi * dw0) * g10 + (xi * dw1) * g11))
            + (((mx0 * dw0) * sx00 + (mx0 * dw1) * sx01)
               + ((mx1 * dw0) * sx10 + (mx1 * dw1) * sx11))
            + (((ax * dmy0) * sy00 + (ax * dmy1) * sy01)
               + ((xi * dmy0) * sy10 + (xi * dmy1) * sy11))
            + (((mx0 * dmy0) * sxy00 + (mx0 * dmy1) * sxy01)
               + ((mx1 * dmy0) * sxy10 + (mx1 * dmy1) * sxy11))
        )
        return value, grad_x, grad_y

    def _points(self, pts: np.ndarray) -> np.ndarray:
        rows = np.asarray(pts, dtype=float).reshape(-1, 2).tolist()
        return np.array([self._point(x, y) for x, y in rows]).reshape(-1, 3)

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Interpolated values at (k, 2) points, shape (k,)."""
        return self._points(pts)[:, 0]

    def value_and_gradient(self, pts: np.ndarray):
        """Values (k,) and gradients (k, 2) at (k, 2) points."""
        if len(pts) == 1:
            # the ray tracer's query: one point, no array round trip
            (x, y), = pts
            v, gx, gy = self._point(float(x), float(y))
            return np.array([v]), np.array([[gx, gy]])
        out = self._points(pts)
        return out[:, 0], out[:, 1:]


def _prefilter(n: int) -> csr_matrix:
    """Q x Q, the quasi-interpolant prefilter along both axes, as one
    (n^2, n^2) CSR matrix on C-order flat indices.

    Along one axis c[i] = (-u[i-1] + 8 u[i] - u[i+1]) / 6 inside and c = u in
    the end rows (the same stencil after extrapolating u[-1] = 2u[0] - u[1]).
    Built directly, 9 entries per row, because scipy's kron goes through COO
    arrays that would set the build's peak memory; end rows pad their three
    slots with zero weights on clipped, repeated columns.
    """
    cols = np.clip(np.arange(n, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32),
                   0, n - 1)
    vals = np.tile(np.array([-1.0, 8.0, -1.0]) / 6.0, (n, 1))
    vals[[0, -1]] = 0.0, 1.0, 0.0
    data = (vals[:, None, :, None] * vals[None, :, None, :]).ravel()
    indices = (cols[:, None, :, None] * n + cols[None, :, None, :]).ravel()
    indptr = np.arange(0, 9 * n * n + 1, 9, dtype=np.int32)
    return csr_matrix((data, indices, indptr), shape=(n * n, n * n))


# Ghost folding on the edge cells, as maps from the weights on c[i-1 .. i+2]
# (rows) to weights on a block shifted one index inward (columns): at i = 0
# the weight on c[-1] = 2c[0] - c[1] moves onto c[0] and c[1], and _FOLD_HI
# mirrors it for c[n] = 2c[n-1] - c[n-2] at i = n-2
_FOLD_LO = np.array([[2.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
_FOLD_HI = _FOLD_LO[::-1, ::-1]


def _axis_weights(q: np.ndarray, x0: float, h: float, n: int):
    """First coefficient index (k,) and weights (k, 4) on coefficients
    start .. start+3 for positions q along one axis.

    The cell index is clamped to [0, n-2] (points outside the grid use the
    edge cell's cubic), and the ghost coefficients are folded into the edge
    cells.  Needs n >= 4.
    """
    t = (q - x0) / h
    i = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
    s = t - i
    r = 1.0 - s
    # uniform cubic B-spline weights on coefficients i-1 .. i+2
    w = np.stack([
        r * r * r,
        3.0 * s * s * s - 6.0 * s * s + 4.0,
        3.0 * r * r * r - 6.0 * r * r + 4.0,
        s * s * s,
    ], axis=-1) / 6.0
    lo = i == 0
    hi = i == n - 2
    w[lo] = w[lo] @ _FOLD_LO
    w[hi] = w[hi] @ _FOLD_HI
    return np.clip(i - 1, 0, n - 4).astype(np.int32), w


def _point_weights(pts, rows, weights, x0: float, h: float, n: int, n_rows: int) -> csr_matrix:
    """W: each point's 4x4 block of B-spline weights on the coefficients,
    times its weight, summed into output row ``rows``.

    CSR straight from the points grouped by row (stable, so each row keeps
    its point order and equal rows of two samplers sum alike), 16 entries
    per point, then duplicates summed in place: no COO or transpose copies,
    so the transient memory is about W itself.
    """
    order = np.argsort(rows, kind="stable")
    jx, wx = _axis_weights(pts[order, 0], x0, h, n)
    jy, wy = _axis_weights(pts[order, 1], x0, h, n)
    wx *= weights[order, None]
    offsets = np.arange(4, dtype=np.int32)
    ix = (jx[:, None] + offsets) * n
    cols = ix[:, :, None] + (jy[:, None] + offsets)[:, None, :]
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(16 * np.bincount(rows, minlength=n_rows), out=indptr[1:])
    w = csr_matrix(
        ((wx[:, :, None] * wy[:, None, :]).ravel(), cols.ravel(), indptr),
        shape=(n_rows, n * n),
    )
    w.sum_duplicates()
    return w


class BicubicSampler:
    """Fixed linear map m = W (Q x Q) u from a grid function to weighted
    point sums through the cubic B-spline quasi-interpolant, with an exact
    transpose.

    ``Q`` is the prefilter along one axis (``_prefilter`` builds ``Q x Q``)
    and ``W`` holds each point's 4x4 block of B-spline weights times its ``weight``, summed
    into output row ``row`` (points sharing a row accumulate).  The sampler
    stores only the product ``W (Q x Q)``, one CSR matrix formed once in the
    constructor, so apply is one product with it and apply_T one product
    with its transpose view (plain Euclidean inner products, no grid
    weights).
    """

    def __init__(
        self,
        x0: float,
        h: float,
        n: int,
        points: np.ndarray,
        rows: np.ndarray,
        weights: np.ndarray,
        n_rows: int,
    ):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        k = pts.shape[0]
        rows = np.asarray(rows, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if rows.shape != (k,) or weights.shape != (k,):
            raise ValueError("rows and weights must be 1-d with one entry per point")
        if n < 4:
            raise ValueError("the sampler needs n >= 4 grid points per axis")
        self.x0 = float(x0)
        self.h = float(h)
        self.n = int(n)
        self.n_rows = int(n_rows)
        if k and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValueError(f"rows must lie in [0, {self.n_rows})")

        # W is built in a helper so that its transient arrays are freed
        # before the product; a sparse product has no duplicate entries
        w = _point_weights(pts, rows, weights, self.x0, self.h, self.n, self.n_rows)
        self._w = w @ _prefilter(self.n)
        self._w.sort_indices()
        # the CSC transpose view shares the CSR arrays; held so that apply_T
        # does not build and check a new view per call
        self._w_T = self._w.T

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._w @ u.ravel()

    def apply_T(self, m: np.ndarray) -> np.ndarray:
        return (self._w_T @ m).reshape(self.n, self.n)
