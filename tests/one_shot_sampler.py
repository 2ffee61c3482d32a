"""The sampler matrix built in one shot, as a reference for
``BicubicSampler``, which builds it one block of rings at a time.

The unfolded weights of every ring are summed and multiplied by the
prefilter in one product, as the sampler did before its block build; the
block build must give the same CSR arrays bit for bit.
"""

from ringtat._spline import _prefilter, _ring_weights


def one_shot_matrix(x0, h, n, rings):
    """W (Q x Q) of all rings at once, indices sorted."""
    w = _ring_weights(rings, x0, h, n) @ _prefilter(n)
    w.sort_indices()
    return w
