"""The sampler matrix W (Q x Q) built in one shot from unfolded weights, a
self-contained reference for ``BicubicSampler``'s folded block build.

W holds each point's 16 B-spline weights on the coefficients, its duplicates
are summed, and it is multiplied by the (n^2, n^2) prefilter Q x Q.  This
shares no code with the package, so it checks the folded build's pattern
and, to rounding, its values.
"""

import numpy as np
import scipy.sparse


def _prefilter(n):
    """Q x Q on C-order flat indices, 9 entries per row: along one axis
    c[i] = (-u[i-1] + 8 u[i] - u[i+1]) / 6 inside and c = u in the end rows,
    whose three slots hold zero weights on clipped, repeated columns."""
    cols = np.clip(np.arange(n)[:, None] + np.arange(-1, 2), 0, n - 1)
    vals = np.tile(np.array([-1.0, 8.0, -1.0]) / 6.0, (n, 1))
    vals[[0, -1]] = 0.0, 1.0, 0.0
    data = (vals[:, None, :, None] * vals[None, :, None, :]).ravel()
    indices = (cols[:, None, :, None] * n + cols[None, :, None, :]).ravel()
    indptr = np.arange(0, 9 * n * n + 1, 9)
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n * n, n * n))


def _axis_weights(q, x0, h, n):
    """First coefficient index (k,) and cubic B-spline weights (k, 4) on
    coefficients start .. start+3, with the edge cells' ghost coefficients
    c[-1] = 2c[0] - c[1] and c[n] = 2c[n-1] - c[n-2] folded in."""
    t = (q - x0) / h
    i = np.clip(np.floor(t).astype(np.int64), 0, n - 2)
    s = t - i
    r = 1.0 - s
    w = np.stack([r * r * r, 3.0 * s * s * s - 6.0 * s * s + 4.0,
                  3.0 * r * r * r - 6.0 * r * r + 4.0, s * s * s], axis=-1) / 6.0
    lo, hi = i == 0, i == n - 2
    # at i = 0 the weight on c[-1] moves onto c[0] (x2) and c[1] (x-1), and
    # the block shifts one index inward; i = n-2 mirrors it
    w[lo] = np.stack([2 * w[lo, 0] + w[lo, 1], -w[lo, 0] + w[lo, 2], w[lo, 3],
                      np.zeros(lo.sum())], axis=-1)
    w[hi] = np.stack([np.zeros(hi.sum()), w[hi, 0], w[hi, 1] - w[hi, 3],
                      w[hi, 2] + 2 * w[hi, 3]], axis=-1)
    return np.clip(i - 1, 0, n - 4), w


def unfolded_matrix(x0, h, n, rings):
    """W (Q x Q) of all rings from the unfolded weights, indices sorted."""
    rings = np.asarray(rings, dtype=float)
    n_rows, m = rings.shape[:2]
    pts = rings.reshape(-1, 2)
    jx, wx = _axis_weights(pts[:, 0], x0, h, n)
    jy, wy = _axis_weights(pts[:, 1], x0, h, n)
    wx *= 1.0 / m
    offsets = np.arange(4)
    cols = ((jx[:, None] + offsets) * n)[:, :, None] + (jy[:, None] + offsets)[:, None, :]
    indptr = np.arange(0, 16 * m * n_rows + 1, 16 * m)
    w = scipy.sparse.csr_matrix(((wx[:, :, None] * wy[:, None, :]).ravel(), cols.ravel(), indptr),
                                shape=(n_rows, n * n))
    w.sum_duplicates()
    w = w @ _prefilter(n)
    w.sort_indices()
    return w
