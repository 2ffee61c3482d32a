"""The folded leapfrog step with its split field on the full grid, as a
reference for ``WaveSolver``, which keeps that field on the band cells only.

Each cell's arithmetic here is the solver's, so states mapped between the
two layouts with ``to_full``/``to_band`` must agree bit for bit.
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
    cells, full = band_cells(grid), []
    for x in (s.phi, s.psi):
        f = np.zeros(grid.n * grid.n)
        f[cells] = x
        full.append(f.reshape(grid.n, grid.n))
    return WaveState(s.u_curr, s.u_prev, *full)


def to_band(grid, s):
    """The state with phi and psi read on the band cells."""
    cells = band_cells(grid)
    return WaveState(s.u_curr, s.u_prev, s.phi.reshape(-1)[cells], s.psi.reshape(-1)[cells])


def _neighbour_sum(u, n):
    out = np.zeros_like(u)
    out[1:-1] = u[:-2] + u[2:]
    o, v = out.reshape(n, n), u.reshape(n, n)
    o[:, 0] = v[:, 1]
    o[:, -1] = v[:, -2]
    out[n:] += u[:-n]
    out[:-n] += u[n:]
    return out


def _diff0(u, n):
    out = np.empty_like(u)
    out[n:-n] = u[2 * n:] - u[: -2 * n]
    out[:n] = u[n : 2 * n]
    out[-n:] = -u[-2 * n : -n]
    return out


def _diff1(u, n):
    out = np.empty_like(u)
    out[1:-1] = u[2:] - u[:-2]
    o, v = out.reshape(n, n), u.reshape(n, n)
    o[:, 0] = v[:, 1]
    o[:, -1] = -v[:, -2]
    return out


class FullGridStep:
    """``step``/``step_T`` of the banded solver on (n, n) phi and psi."""

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
        u, v, phi, psi = (x.reshape(-1) for x in (s.u_curr, s.u_prev, s.phi, s.psi))
        out = self.a0 * u
        out -= self.q * v
        out += self.k1 * _neighbour_sum(u, n)
        flux = _diff0(phi, n)
        flux += _diff1(psi, n)
        out += self.k2 * flux
        phi_new = self.a_phi * phi
        phi_new += self.b_phi * _diff0(u, n)
        psi_new = self.a_psi * psi
        psi_new += self.b_psi * _diff1(u, n)
        return WaveState(out.reshape(n, n), s.u_curr, phi_new.reshape(n, n),
                         psi_new.reshape(n, n))

    def step_T(self, s):
        n = self.n
        U, V, F, G = (x.reshape(-1) for x in (s.u_curr, s.u_prev, s.phi, s.psi))
        a = self.a0 * U
        a += _neighbour_sum(self.k1 * U, n)
        a += V
        a -= _diff0(self.b_phi * F, n)
        a -= _diff1(self.b_psi * G, n)
        ku = self.k2 * U
        g = self.a_phi * F
        g -= _diff0(ku, n)
        q = self.a_psi * G
        q -= _diff1(ku, n)
        return WaveState(a.reshape(n, n), (-self.q * U).reshape(n, n), g.reshape(n, n),
                         q.reshape(n, n))
