"""Bicubic interpolation on a uniform grid, in two forms.

``SplineField`` is the natural bicubic spline of one fixed grid function,
for pointwise queries: it passes through every node exactly and has a
continuous gradient, which the ray tracer integrates.  Its coefficients are
second derivatives from one tridiagonal sweep per axis, with natural end
conditions.

``BicubicSampler`` is a fixed linear map from grid functions to means over
rings of points (the detector circles), applied at every time level of the
forward and adjoint wave sweeps.  It evaluates the local C2 cubic B-spline
quasi-interpolant (Unser, "Splines: a perfect fit for signal and image
processing", IEEE SPM 1999): the coefficients are the samples filtered by
the 3-tap stencil (-1, 8, -1)/6 along each axis, with identity end rows,
each point sums the cubic B-spline weights of its 4x4 coefficient block,
and each ring averages its points.  Coefficients one step past the grid
follow the linear ghost rule c[-1] = 2c[0] - c[1] and c[n] = 2c[n-1] -
c[n-2], so constants and linear functions are reproduced on every cell.
Cubic polynomials are reproduced on cells whose stencil stays two nodes
inside, and the error on smooth fields is fourth order.  No global solve is
involved, and the whole map is fixed: the prefilter is folded into the
weight matrix once, at build time, so apply and apply_T are one sparse
product each with the same matrix and are exact matrix transposes of each
other.  A point's folded weights are the outer product of one 6-node vector
per axis, and the matrix is built from those one block of rings at a time.
A C2 interpolant keeps the sampling error smooth in the geometry
parameters (piecewise-linear interpolation has O(h) derivative kinks at
every cell edge, which pollutes grid-refinement studies).

Conventions: grid functions are (n, n) arrays indexed [ix, iy] on a uniform
axis starting at x0 with spacing h; the sampler's query points are (k, 2)
arrays, and rings of m points (n_rows, m, 2) arrays.
"""

from __future__ import annotations

import math

import numpy as np
# scipy.sparse is named only where a sampler is built: scipy's package
# __getattr__ imports it there on first use, so a process that builds no
# sampler (visibility) skips that import, about 0.1 s
import scipy


def _second_diff(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Spline right-hand side: scaled interior second differences, zero in
    the first and last slot (natural end conditions)."""
    out = np.zeros_like(g)
    s = 6.0 / (h * h)
    gm = np.moveaxis(g, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[1:-1] = s * (gm[2:] - 2.0 * gm[1:-1] + gm[:-2])
    return out


def _solve(rhs: np.ndarray, axis: int) -> np.ndarray:
    """Solve the natural-spline system (identity end rows, 1 4 1 inside)
    along ``axis`` in place, by a Thomas sweep over the rows vectorized over
    the other axis.  The pivots are Python floats.  The arithmetic is LAPACK
    gtsv's, which never pivots on this diagonally dominant matrix, so the
    result equals a gtsv solve bit for bit."""
    x = np.moveaxis(rhs, axis, 0)
    n = x.shape[0]
    pivots = [1.0] * n
    for i in range(1, n - 1):
        # row 0 has no upper entry, so row 1 keeps its diagonal 4
        fact = 1.0 / pivots[i - 1]
        pivots[i] = 4.0 - fact if i > 1 else 4.0
        x[i] -= fact * x[i - 1]
    for i in range(n - 2, 0, -1):
        x[i] -= x[i + 1]
        x[i] /= pivots[i]
    return rhs


def spline_coeffs_1d(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Natural-spline second derivatives along one axis (zero at both ends)."""
    return _solve(_second_diff(g, h, axis), axis)


class SplineField:
    """Bicubic interpolant of one fixed grid function, for pointwise queries.

    Every query runs through one scalar kernel, ``_point``, one point at a
    time: the ray tracer asks for a single point per Runge-Kutta stage, and
    at that size numpy call overhead is the whole cost.  The kernel locates
    the cell with Python floats, reads the 2x2 block of (g, mx, my, mxy)
    of a stacked (n, n, 4) array and contracts it with the per-cell weights
    (values: ``(1-t, t)``, second derivatives: ``h^2/6 (a^3 - a)``) in plain
    float arithmetic.  It agrees with the vectorized einsum contraction of
    the same weights to 1e-13 relative.  Each cell's block is read from the
    array once, as 16 floats memoized by cell: a ray visits few cells many
    times, and the memo holds at most one entry per grid cell.

    ``value_and_gradient`` returns the kernel's ``(c, dc/dx, dc/dy)`` float
    triples, one per point, so the tracer's one-point query builds no array.
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
        self._blocks: dict[tuple[int, int], tuple[float, ...]] = {}

    def _point(self, x: float, y: float) -> tuple[float, float, float]:
        """Value and gradient at one point (clamped to the edge cells
        outside the grid; NaN for non-finite input)."""
        h, top = self.h, self.n - 1
        tx = (x - self.x0) / h
        ty = (y - self.x0) / h
        # finite points past the far end take the last cell, top - 1, and
        # all others outside, NaN and +-inf among them, take cell 0, whose
        # edge row has zero second derivatives (natural ends): inf * 0 then
        # makes every sum NaN
        i = int(tx) if 0.0 <= tx < top else (top - 1 if top <= tx < math.inf else 0)
        j = int(ty) if 0.0 <= ty < top else (top - 1 if top <= ty < math.inf else 0)
        xi = tx - i
        yi = ty - j
        ax = 1.0 - xi
        ay = 1.0 - yi
        # the corner-value weights are (ax, xi) and (ay, yi); m* weight the
        # second derivatives, dw and dm* are the derivatives of both pairs
        cm = h * h / 6.0
        cd = h / 6.0
        mx0, mx1 = cm * (ax * ax * ax - ax), cm * (xi * xi * xi - xi)
        my0, my1 = cm * (ay * ay * ay - ay), cm * (yi * yi * yi - yi)
        dw0, dw1 = -1.0 / h, 1.0 / h
        dmx0, dmx1 = cd * (1.0 - 3.0 * ax * ax), cd * (3.0 * xi * xi - 1.0)
        dmy0, dmy1 = cd * (1.0 - 3.0 * ay * ay), cd * (3.0 * yi * yi - 1.0)
        # corner ab is node (i + a, j + b), holding g and its second
        # derivatives sx = mx, sy = my and sxy = mxy
        try:
            block = self._blocks[i, j]
        except KeyError:
            block = self._blocks[i, j] = tuple(self._coef[i : i + 2, j : j + 2].ravel().tolist())
        (g00, sx00, sy00, sxy00, g01, sx01, sy01, sxy01,
         g10, sx10, sy10, sxy10, g11, sx11, sy11, sxy11) = block
        # the y-sums of each x-corner: p (g, sy) and q (sx, sxy) with the
        # value weights in y, r and s the same with their derivatives
        p0 = ay * g00 + yi * g01 + my0 * sy00 + my1 * sy01
        p1 = ay * g10 + yi * g11 + my0 * sy10 + my1 * sy11
        q0 = ay * sx00 + yi * sx01 + my0 * sxy00 + my1 * sxy01
        q1 = ay * sx10 + yi * sx11 + my0 * sxy10 + my1 * sxy11
        r0 = dw0 * g00 + dw1 * g01 + dmy0 * sy00 + dmy1 * sy01
        r1 = dw0 * g10 + dw1 * g11 + dmy0 * sy10 + dmy1 * sy11
        s0 = dw0 * sx00 + dw1 * sx01 + dmy0 * sxy00 + dmy1 * sxy01
        s1 = dw0 * sx10 + dw1 * sx11 + dmy0 * sxy10 + dmy1 * sxy11
        value = ax * p0 + xi * p1 + mx0 * q0 + mx1 * q1
        grad_x = dw0 * p0 + dw1 * p1 + dmx0 * q0 + dmx1 * q1
        grad_y = ax * r0 + xi * r1 + mx0 * s0 + mx1 * s1
        return value, grad_x, grad_y

    def value(self, pts) -> np.ndarray:
        """Interpolated values at a sequence of k points (x, y), shape (k,)."""
        return np.array([self._point(float(x), float(y))[0] for x, y in pts], dtype=float)

    def value_and_gradient(self, pts) -> list[tuple[float, float, float]]:
        """(c, dc/dx, dc/dy) as Python floats at each of a sequence of k
        points (x, y), such as a (k, 2) array or ``((x, y),)``."""
        return [self._point(float(x), float(y)) for x, y in pts]


# Ghost folding on the edge cells, as maps from the weights on c[i-1 .. i+2]
# (columns) to weights on a block shifted one index inward (rows): at i = 0
# the weight on c[-1] = 2c[0] - c[1] moves onto c[0] and c[1], and _FOLD_HI
# mirrors it for c[n] = 2c[n-1] - c[n-2] at i = n-2
_FOLD_LO = np.array([[2.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
_FOLD_HI = _FOLD_LO[::-1, ::-1]


def _axis_weights(q: np.ndarray, x0: float, h: float, n: int):
    """First coefficient index s and weights on nodes s-1 .. s+4 (a new first
    axis of 6) for each position in the array q along one axis.

    The cell index is clamped to [0, n-2] (points outside the grid use the
    edge cell's cubic), and the ghost coefficients are folded into the edge
    cells.  The weights on coefficients s .. s+3 then go through the
    transposed prefilter: c[i] = (-u[i-1] + 8 u[i] - u[i+1]) / 6 spreads its
    weight over three nodes, and c[0] = u[0] (at s = 0) and c[n-1] = u[n-1]
    (at s = n-4) over one, so nodes -1 and n weigh zero.  Needs n >= 4.
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
    ]) / 6.0
    lo = i == 0
    hi = i == n - 2
    w[:, lo] = _FOLD_LO @ w[:, lo]
    w[:, hi] = _FOLD_HI @ w[:, hi]
    start = np.clip(i - 1, 0, n - 4).astype(np.int32)
    mid, side = w * (8.0 / 6.0), w * (-1.0 / 6.0)
    for end, a in ((start == 0, 0), (start == n - 4, 3)):
        mid[a, end] = w[a, end]
        side[a, end] = 0.0
    out = np.zeros((6,) + start.shape)
    out[1:5] = mid
    out[:4] += side
    out[2:] += side
    return start, out


def _block_matrix(rings: np.ndarray, x0: float, h: float, n: int) -> scipy.sparse.csr_matrix:
    """W (Q x Q) of a set of rings, as CSR with sorted indices.

    A point's weights are the outer product of its two axes' node weights,
    so the ring means are one product FX^T FY: FX^T (n_rows n, k) holds
    point p's x weights over m in column p, rows (ring, ix), and FY (k, n)
    its y weights in row p.  The product sums with an accumulator n wide;
    after one sort, its row (ring, ix) and column iy are the ring's column
    ix n + iy, in order.  A product row reads its own ring's points only,
    so any split into blocks gives the same arrays.  Taps off the grid, at
    zero weight, are clipped onto the edge node.
    """
    n_rows, m = rings.shape[:2]
    k = n_rows * m
    start, w = _axis_weights(rings.reshape(k, 2).T, x0, h, n)
    w[:, 0] *= 1.0 / m
    nodes = np.clip(start[:, :, None] + np.arange(-1, 5, dtype=np.int32), 0, n - 1)
    nodes[0] += np.repeat(np.arange(n_rows, dtype=np.int32) * n, m)[:, None]
    ptr = np.arange(0, 6 * k + 1, 6, dtype=np.int32)
    # a point's 6 weights lie k apart in w: .T.ravel() gathers them in order
    fx_t = scipy.sparse.csc_matrix((w[:, 0].T.ravel(), nodes[0].ravel(), ptr),
                                   shape=(n_rows * n, k))
    fy = scipy.sparse.csr_matrix((w[:, 1].T.ravel(), nodes[1].ravel(), ptr), shape=(k, n))
    prod = fx_t.tocsr() @ fy
    prod.sort_indices()
    prod.indices += np.repeat(np.arange(n_rows * n, dtype=np.int32) % n * n, np.diff(prod.indptr))
    return scipy.sparse.csr_matrix((prod.data, prod.indices, prod.indptr[::n].copy()),
                                   shape=(n_rows, n * n))


# circle points per block of the sampler build; a block takes as many whole
# rings as fit, and at least one
_BLOCK_POINTS = 2**12


class BicubicSampler:
    """Fixed linear map m = W (Q x Q) u from a grid function to ring means
    of the cubic B-spline quasi-interpolant, with an exact transpose.

    ``rings`` is an (n_rows, m, 2) array of points, and row i of the output
    is the mean of the quasi-interpolant over ring i's m points.  ``Q`` is
    the prefilter along one axis and ``W`` holds the ring means of each
    point's 4x4 block of B-spline weights.  The sampler stores only the
    product ``W (Q x Q)``, one CSR matrix formed once in the constructor, so
    apply is one product with it and apply_T one product with its transpose
    view (plain Euclidean inner products, no grid weights).

    The constructor forms the product one block of rings at a time
    (``_block_matrix``, which never forms Q x Q or the unfolded W) and
    stacks the blocks; the stack equals the one-shot build bit for bit.
    """

    def __init__(self, x0: float, h: float, n: int, rings: np.ndarray):
        rings = np.asarray(rings, dtype=float)
        if rings.ndim != 3 or rings.shape[1] < 1 or rings.shape[2] != 2:
            raise ValueError("rings must be an (n_rows, m, 2) array with m >= 1")
        if n < 4:
            raise ValueError("the sampler needs n >= 4 grid points per axis")
        self.x0 = float(x0)
        self.h = float(h)
        self.n = int(n)
        self.n_rows, m = rings.shape[:2]

        step = max(1, _BLOCK_POINTS // m)
        # an empty ring set still makes one, empty, block to stack
        blocks = [_block_matrix(rings[start : start + step], self.x0, self.h, self.n)
                  for start in range(0, max(self.n_rows, 1), step)]
        # the stack holds the blocks twice
        self._w = scipy.sparse.vstack(blocks, format="csr")
        # the CSC transpose view shares the CSR arrays; held so that apply_T
        # does not build and check a new view per call
        self._w_T = self._w.T

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._w @ u.ravel()

    def apply_T(self, m: np.ndarray) -> np.ndarray:
        return (self._w_T @ m).reshape(self.n, self.n)
