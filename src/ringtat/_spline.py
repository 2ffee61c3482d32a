"""Natural bicubic spline interpolation with an exact matrix transpose.

The measurement operator samples wave fields along curves that sweep across
grid cells as the geometry parameters vary.  A C2 interpolant keeps the
sampling error smooth in those parameters (piecewise-linear interpolation
has O(h) derivative kinks at every cell edge, which pollutes grid-refinement
studies), and since every operation here is a plain linear map with natural
end conditions, the transpose needed by the adjoint solver is exact to
machine precision.

Conventions: grid functions are (n, n) arrays indexed [ix, iy] on a uniform
axis starting at x0 with spacing h; query points are (k, 2) arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix

_CORNER = np.array([0, 1])


@lru_cache(maxsize=32)
def _bands(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded forms (solve_banded layout) of the natural-spline tridiagonal
    system and of its transpose.  Do not mutate the cached arrays."""
    ab = np.zeros((3, n))
    ab[1] = 4.0
    ab[1, 0] = ab[1, -1] = 1.0  # end rows pin the coefficient to zero
    ab[0, 2:] = 1.0
    ab[2, :-2] = 1.0
    abT = np.zeros((3, n))
    abT[1] = ab[1]
    abT[0, 1:] = ab[2, :-1]
    abT[2, :-1] = ab[0, 1:]
    return ab, abT


def _second_diff(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Spline right-hand side: scaled interior second differences, zero in
    the first and last slot (natural end conditions)."""
    out = np.zeros_like(g)
    s = 6.0 / (h * h)
    gm = np.moveaxis(g, axis, 0)
    om = np.moveaxis(out, axis, 0)
    om[1:-1] = s * (gm[2:] - 2.0 * gm[1:-1] + gm[:-2])
    return out


def _second_diff_T(w: np.ndarray, h: float, axis: int) -> np.ndarray:
    s = 6.0 / (h * h)
    wm = np.moveaxis(w, axis, 0).copy()
    wm[0] = 0.0
    wm[-1] = 0.0
    out = -2.0 * wm
    out[1:] += wm[:-1]
    out[:-1] += wm[1:]
    return np.moveaxis(s * out, 0, axis)


def _solve(ab: np.ndarray, rhs: np.ndarray, axis: int) -> np.ndarray:
    r = np.moveaxis(rhs, axis, 0)
    shp = r.shape
    x = solve_banded((1, 1), ab, r.reshape(shp[0], -1), check_finite=False)
    return np.moveaxis(x.reshape(shp), 0, axis)


def spline_coeffs_1d(g: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Natural-spline second derivatives along one axis (zero at both ends)."""
    ab, _ = _bands(g.shape[axis])
    return _solve(ab, _second_diff(g, h, axis), axis)


def spline_coeffs_1d_T(w: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Exact transpose of spline_coeffs_1d."""
    _, abT = _bands(w.shape[axis])
    return _second_diff_T(_solve(abT, w, axis), h, axis)


def _locate(q: np.ndarray, x0: float, h: float, n: int):
    """Cell index and local coordinate in [0, 1) for positions along one axis."""
    t = (np.asarray(q, dtype=float) - x0) / h
    i = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
    return i, t - i


def _weights(xi: np.ndarray, h: float):
    """Per-point weights on the two cell-corner values and on the two stored
    second derivatives; together they evaluate the cubic inside the cell."""
    a = 1.0 - xi
    wg = np.stack([a, xi], axis=-1)
    wm = (h * h / 6.0) * np.stack([a**3 - a, xi**3 - xi], axis=-1)
    return wg, wm


# numpy's float -> int64 cast, used by _locate, gives INT64_MIN for NaN,
# +-inf and anything past the int64 range; the clip then picks cell 0
_CAST_LIMIT = 2.0**63


def _contract(x0, x1, y0, y1, b00, b01, b10, b11) -> float:
    """sum_ab x_a y_b B_ab in the rounding order of
    einsum("ka,kb,kab->k") at k = 1 (k = 2 already rounds differently)."""
    return ((x0 * y0) * b00 + (x0 * y1) * b01) + ((x1 * y0) * b10 + (x1 * y1) * b11)


class SplineField:
    """Bicubic interpolant of one fixed grid function, for pointwise queries.

    Every query runs through one scalar kernel, ``_point``, one point at a
    time: the ray tracer asks for a single point per Runge-Kutta stage, and
    at that size numpy call overhead is the whole cost.  The kernel locates
    the cell with Python floats and reads the 2x2 block of (g, mx, my, mxy)
    with one slice of a stacked (n, n, 4) array.  Its results are bit for
    bit those of the vectorized weights of ``_locate``/``_weights`` contracted
    with einsum on one point, because it keeps their rounding:

    * cubes go through numpy array power (on AVX-512 builds Python ``**``
      and ``math.pow`` differ from it in the last bit for some inputs);
    * squares are plain products, as numpy computes ``a**2``;
    * each 2x2 contraction sums in the fixed order of ``_contract``, and the
      four coefficient terms add left to right (g, mx, my, mxy).
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
        # second derivatives as _weights builds them, dw and dm* are the
        # derivatives of both pairs
        cm = h * h / 6.0
        cd = h / 6.0
        mx0, mx1 = cm * (ax3 - ax), cm * (xi3 - xi)
        my0, my1 = cm * (ay3 - ay), cm * (yi3 - yi)
        dw0, dw1 = -1.0 / h, 1.0 / h
        dmx0, dmx1 = cd * (1.0 - 3.0 * (ax * ax)), cd * (3.0 * (xi * xi) - 1.0)
        dmy0, dmy1 = cd * (1.0 - 3.0 * (ay * ay)), cd * (3.0 * (yi * yi) - 1.0)
        (b00, b01), (b10, b11) = self._coef[i : i + 2, j : j + 2].tolist()

        def combine(px0, px1, qx0, qx1, py0, py1, qy0, qy1):
            # p: weights on g, q: weights on the second derivatives
            return (
                _contract(px0, px1, py0, py1, b00[0], b01[0], b10[0], b11[0])
                + _contract(qx0, qx1, py0, py1, b00[1], b01[1], b10[1], b11[1])
                + _contract(px0, px1, qy0, qy1, b00[2], b01[2], b10[2], b11[2])
                + _contract(qx0, qx1, qy0, qy1, b00[3], b01[3], b10[3], b11[3])
            )

        return (
            combine(ax, xi, mx0, mx1, ay, yi, my0, my1),
            combine(dw0, dw1, dmx0, dmx1, ay, yi, my0, my1),
            combine(ax, xi, mx0, mx1, dw0, dw1, dmy0, dmy1),
        )

    def _points(self, pts: np.ndarray) -> np.ndarray:
        rows = np.asarray(pts, dtype=float).reshape(-1, 2).tolist()
        return np.array([self._point(x, y) for x, y in rows]).reshape(-1, 3)

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Interpolated values at (k, 2) points, shape (k,)."""
        return self._points(pts)[:, 0]

    def value_and_gradient(self, pts: np.ndarray):
        """Values (k,) and gradients (k, 2) at (k, 2) points."""
        out = self._points(pts)
        return out[:, 0], out[:, 1:]


class BicubicSampler:
    """Fixed linear map m = A u from a grid function to weighted point sums,
    evaluated through the bicubic interpolant, with an exact transpose.

    Each sample point contributes ``weight`` to output row ``row``; points
    sharing a row accumulate.  apply/apply_T are exact matrix transposes of
    each other (plain Euclidean inner products, no grid weights).
    """

    def __init__(
        self,
        x0: float,
        h: float,
        n: int,
        points: np.ndarray,
        rows: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        n_rows: int | None = None,
    ):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        k = pts.shape[0]
        rows = np.zeros(k, dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
        weights = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
        if rows.shape != (k,) or weights.shape != (k,):
            raise ValueError("rows and weights must be 1-d with one entry per point")
        self.x0 = float(x0)
        self.h = float(h)
        self.n = int(n)
        self.n_rows = int(rows.max()) + 1 if n_rows is None else int(n_rows)

        ix, xi = _locate(pts[:, 0], self.x0, self.h, self.n)
        iy, yi = _locate(pts[:, 1], self.x0, self.h, self.n)
        wgx, wmx = _weights(xi, self.h)
        wgy, wmy = _weights(yi, self.h)
        cols = (ix[:, None, None] + _CORNER[None, :, None]) * n + (
            iy[:, None, None] + _CORNER[None, None, :]
        )
        rr = np.broadcast_to(rows[:, None, None], cols.shape)
        w = weights[:, None, None]

        def mat(wx, wy):
            vals = w * wx[:, :, None] * wy[:, None, :]
            return csr_matrix(
                (vals.ravel(), (rr.ravel(), cols.ravel())),
                shape=(self.n_rows, n * n),
            )

        self._e00 = mat(wgx, wgy)
        self._e10 = mat(wmx, wgy)
        self._e01 = mat(wgx, wmy)
        self._e11 = mat(wmx, wmy)

    def apply(self, u: np.ndarray) -> np.ndarray:
        mx = spline_coeffs_1d(u, self.h, 0)
        my = spline_coeffs_1d(u, self.h, 1)
        mxy = spline_coeffs_1d(mx, self.h, 1)
        return (
            self._e00 @ u.ravel()
            + self._e10 @ mx.ravel()
            + self._e01 @ my.ravel()
            + self._e11 @ mxy.ravel()
        )

    def apply_T(self, m: np.ndarray) -> np.ndarray:
        n = self.n
        out = (self._e00.T @ m).reshape(n, n).copy()
        out += spline_coeffs_1d_T((self._e10.T @ m).reshape(n, n), self.h, 0)
        out += spline_coeffs_1d_T((self._e01.T @ m).reshape(n, n), self.h, 1)
        cross = spline_coeffs_1d_T((self._e11.T @ m).reshape(n, n), self.h, 1)
        out += spline_coeffs_1d_T(cross, self.h, 0)
        return out
