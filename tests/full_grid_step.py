"""The folded leapfrog step with its split field on the full grid, as a
reference for ``WaveSolver``, which keeps that field on the band cells only.

Each cell's arithmetic here is the solver's, so states mapped between the
two layouts with ``to_full``/``to_band`` must agree bit for bit.  A
full-grid state's p is the (2, n, n) stack of phi and psi.  The
solver applies its band terms as sparse products, so the band terms here are
added one at a time in the order those kernels add them, which is the order
of the terms' source: phi at the -n then the +n neighbour, then psi at -1
then +1 when the product reads (phi, psi), and the -n then +n (or -1 then
+1) neighbour when it reads u.  A term missing from the solver's matrices
(a neighbour off the grid or off the band) adds an exact zero here.
"""

import numpy as np

from ringtat.wave import WaveState, pml_profile


def band_cells(grid):
    """Flat indices of the band cells (sigma_x + sigma_y > 0), in C order."""
    if grid.pml_width == 0.0:
        return np.zeros(0, dtype=int)
    sigma = pml_profile(grid)
    return np.flatnonzero(sigma[:, None] + sigma[None, :] > 0.0)


def to_full(grid, s):
    """The state with phi and psi scattered onto the grid (zero off the band)."""
    cells = band_cells(grid)
    full = np.zeros((2, grid.n * grid.n))
    full[:, cells] = s.p.reshape(2, -1)
    return WaveState(s.u_curr, s.u_prev, full.reshape(2, grid.n, grid.n))


def to_band(grid, s):
    """The state with phi and psi read on the band cells and stacked."""
    return WaveState(s.u_curr, s.u_prev, s.p.reshape(2, -1)[:, band_cells(grid)].reshape(-1))


def _neighbour_sum(u, n):
    out = np.zeros_like(u)
    out[1:-1] = u[:-2] + u[2:]
    o, v = out.reshape(n, n), u.reshape(n, n)
    o[:, 0] = v[:, 1]
    o[:, -1] = v[:, -2]
    out[n:] += u[:-n]
    out[:-n] += u[n:]
    return out


def _at(u, d, n):
    """u at each cell's neighbour d places on in flat C order (d is -n, n,
    -1 or 1), zero off the grid."""
    out = np.zeros_like(u)
    if d > 0:
        out[:-d] = u[d:]
    else:
        out[-d:] = u[:d]
    if abs(d) == 1:
        out.reshape(n, n)[:, -1 if d > 0 else 0] = 0.0
    return out


class FullGridStep:
    """``step``/``step_T`` of the banded solver on (n, n) phi and psi,
    stacked as a state's (2, n, n) p."""

    def __init__(self, speed, dt):
        grid = speed.grid
        n, h = grid.n, grid.h
        self.n = n
        sigma = pml_profile(grid)
        sx, sy = sigma[:, None], sigma[None, :]

        def flat(a):
            return np.ascontiguousarray(np.broadcast_to(a, (n, n))).reshape(-1)

        den = 1.0 + 0.5 * dt * (sx + sy)
        k = dt**2 * speed.c**2 / den
        k1 = k / (h * h)
        self.k1, self.k2 = flat(k1), flat(k / (2.0 * h))
        self.a0 = flat((2.0 - dt**2 * sx * sy) / den - 4.0 * k1)
        self.q = flat((1.0 - 0.5 * dt * (sx + sy)) / den)
        self.a_phi, self.a_psi = flat(1.0 - dt * sx), flat(1.0 - dt * sy)
        self.b_phi = flat(dt * (sy - sx) / (2.0 * h))
        self.b_psi = flat(dt * (sx - sy) / (2.0 * h))

    def step(self, s):
        n = self.n
        u, v, phi, psi = (x.reshape(-1) for x in (s.u_curr, s.u_prev, *s.p))
        out = self.a0 * u
        out -= self.q * v
        out += self.k1 * _neighbour_sum(u, n)
        # the -n and -1 neighbours enter with the negated weight
        for x, d in ((phi, -n), (phi, n), (psi, -1), (psi, 1)):
            out += np.copysign(self.k2, d) * _at(x, d, n)
        phi_new = self.a_phi * phi
        psi_new = self.a_psi * psi
        for new, b, d in ((phi_new, self.b_phi, -n), (phi_new, self.b_phi, n),
                          (psi_new, self.b_psi, -1), (psi_new, self.b_psi, 1)):
            new += np.copysign(1.0, d) * b * _at(u, d, n)
        return WaveState(out.reshape(n, n), s.u_curr,
                         np.stack([phi_new, psi_new]).reshape(2, n, n))

    def step_T(self, s):
        n = self.n
        U, V, F, G = (x.reshape(-1) for x in (s.u_curr, s.u_prev, *s.p))
        a = self.a0 * U
        a += _neighbour_sum(self.k1 * U, n)
        a += V
        # transposed sums: the cell at -d reaches this one through its +d
        # entry (+weight), the cell at +d through its -d entry (-weight)
        bf, bg = self.b_phi * F, self.b_psi * G
        for x, d in ((bf, -n), (bf, n), (bg, -1), (bg, 1)):
            a -= np.copysign(1.0, d) * _at(x, d, n)
        ku = self.k2 * U
        g = self.a_phi * F
        q = self.a_psi * G
        for new, d in ((g, -n), (g, n), (q, -1), (q, 1)):
            new -= np.copysign(1.0, d) * _at(ku, d, n)
        return WaveState(a.reshape(n, n), (-self.q * U).reshape(n, n),
                         np.stack([g, q]).reshape(2, n, n))
