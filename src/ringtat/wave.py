"""Time-domain acoustic propagation.

Solves u_tt = c(x)^2 Lap u with u(0) = f, u_t(0) = 0 by an explicit
second-order leapfrog scheme.  A split-field absorbing layer occupies the
grid's band of width pml_width inside each domain edge (none when that
width is 0); its damping enters semi-implicitly, so the scheme keeps the
standard stability bound.

Every map here (one time step, the initial-data embedding) is linear in
the field and has a hand-written exact transpose, with plain Euclidean
inner products (no h^2 or dt weights).  Downstream modules compose these
into an exact discrete adjoint of the full measurement map.

``solve_forward`` is the one forward time loop: it owns the level lattice
walk and the finiteness checks, and every forward reader (the measurement
map, the radius sweeps) sees the field through its per-level probe.  Only
the adjoint marches ``step_T`` itself, since it adds data into the state
between steps.

WaveSolver folds the scheme's per-cell coefficients (damping, speed, dt,
h and the semi-implicit denominator) once, so one step and its transpose
are a few contiguous multiply-adds and shifted sums over the flat field,
with no per-step division.  The transpose reads the same folded arrays,
so it stays exact; the folding reassociates floating-point arithmetic,
so fields equal the unfolded update to rounding, not bit for bit.

State convention: u_curr is the field at the current level, u_prev one
level back, phi/psi the split-field layer memory.  Since u_t(0) = 0 makes
the solution even in time, the initial state uses u(-dt) = u(+dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Grid2D, Phantom, SpeedField

_NAN_CHECK_EVERY = 100


def laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """Five-point Laplacian with zero padding outside; symmetric as a matrix."""
    out = -4.0 * u
    out[1:, :] += u[:-1, :]
    out[:-1, :] += u[1:, :]
    out[:, 1:] += u[:, :-1]
    out[:, :-1] += u[:, 1:]
    return out / (h * h)


def _flat(a) -> np.ndarray:
    """C-order flat view of a float field (a copy only when it must be)."""
    return np.asarray(a, dtype=float).reshape(-1)


# Stencils on the flat C-order view of an (n, n) field: axis-0 neighbours
# sit at +-n, axis-1 neighbours at +-1.  A flat +-1 shift wraps columns 0
# and n-1 onto the neighbouring rows, so those two columns are recomputed.


def _neighbour_sum(u: np.ndarray, out: np.ndarray, n: int) -> np.ndarray:
    """out = N(u), the zero-padded 4-neighbour sum; symmetric as a matrix."""
    np.add(u[:-2], u[2:], out=out[1:-1])
    o, v = out.reshape(n, n), u.reshape(n, n)
    o[:, 0] = v[:, 1]
    o[:, -1] = v[:, -2]
    out[n:] += u[:-n]
    out[:-n] += u[n:]
    return out


def _diff0(u: np.ndarray, out: np.ndarray, n: int) -> np.ndarray:
    """out = Dx u, the unscaled centred difference along axis 0 with zero
    padding; antisymmetric as a matrix."""
    np.subtract(u[2 * n:], u[: -2 * n], out=out[n:-n])
    out[:n] = u[n : 2 * n]
    np.negative(u[-2 * n : -n], out=out[-n:])
    return out


def _diff1(u: np.ndarray, out: np.ndarray, n: int) -> np.ndarray:
    """out = Dy u, the unscaled centred difference along axis 1 with zero
    padding; antisymmetric as a matrix."""
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    o, v = out.reshape(n, n), u.reshape(n, n)
    o[:, 0] = v[:, 1]
    np.negative(v[:, -2], out=o[:, -1])
    return out


def _edge_diff(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Forward differences across all n+1 cell edges (field zero outside).

    With this operator G the padded Laplacian factors as -G^T G, which is
    what makes the discrete energy below exactly conserved.
    """
    um = np.moveaxis(u, axis, 0)
    w = np.zeros((um.shape[0] + 1,) + um.shape[1:])
    w[1:-1] = um[1:] - um[:-1]
    w[0] = um[0]
    w[-1] = -um[-1]
    return w / h


def cfl_limit(speed: SpeedField) -> float:
    """Largest stable dt for the five-point leapfrog scheme."""
    return speed.grid.h / (math.sqrt(2.0) * speed.max_c)


# Fraction of the stability bound the default lattice steps at.  In the
# leapfrog scheme the time and space dispersion errors have opposite signs,
# so a larger Courant number makes the record more accurate, not less; at
# the bound itself the scheme is only marginally stable.
_CFL_FRACTION = 0.9


def choose_time_steps(speed: SpeedField, duration: float) -> tuple[int, float]:
    """Level count and dt covering [0, duration] at ``_CFL_FRACTION`` of the
    CFL bound.

    Returns (nt, dt) with dt = duration / (nt - 1): level k sits at k*dt and
    the last level at exactly ``duration``.  A level count past the int64
    range is rejected.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    steps = duration / (_CFL_FRACTION * cfl_limit(speed))
    if not steps < 2.0**63:
        raise ValueError(f"a record of length {duration:.3g} needs {steps:.3g} time levels; "
                         "the level count must stay below 2**63")
    nt = int(math.ceil(steps)) + 1
    return nt, duration / (nt - 1)


# ---------------------------------------------------------------------------
# absorbing layer


_PROFILE_ORDER = 2
_ROUND_TRIP_ATTENUATION = 1e-4


def default_sigma_max(width: float) -> float:
    """Damping amplitude making a unit-speed round trip through a band of
    this width attenuate to ``_ROUND_TRIP_ATTENUATION`` in the continuous
    model, for a profile of order ``_PROFILE_ORDER``."""
    return (_PROFILE_ORDER + 1) * math.log(1.0 / _ROUND_TRIP_ATTENUATION) / (2.0 * width)


def pml_profile(grid: Grid2D) -> np.ndarray:
    """Damping of the grid's absorbing band along one axis (both axes use it).

    sigma(d) = default_sigma_max(w) * (d / w)^m at depth d into the band of
    width w = grid.pml_width, m = _PROFILE_ORDER: zero in the interior,
    monotone up to the maximum at the outer boundary.  Detector-circle
    clearance is checked where detectors are configured, against
    grid.interior_half_width.
    """
    width = grid.pml_width
    if width <= 0.0:
        raise ValueError("grid was built without an absorbing band (pml_width = 0)")
    d = np.maximum(0.0, np.abs(grid.axis) - (grid.L - width))
    return default_sigma_max(width) * (d / width) ** _PROFILE_ORDER


# ---------------------------------------------------------------------------
# state and stepping engine


@dataclass
class WaveState:
    u_curr: np.ndarray
    u_prev: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    t: float
    dt: float


class WaveSolver:
    """Leapfrog stepper bound to one speed field and dt.

    The damping is the grid's: ``pml_profile(grid)`` on both axes when
    ``grid.pml_width > 0``, none otherwise.

    ``step`` advances a WaveState one level; ``step_T`` applies the exact
    matrix transpose of that map.  States are treated as immutable: returned
    states may share arrays with their input, and inputs are never written.

    The scheme's per-cell coefficients are folded once here, so a step is a
    few contiguous multiply-adds over the flat C-order field:

        u+   = A0 u - Q u- + K1 N(u) + K2 (Dx phi + Dy psi)
        phi+ = a_phi phi + B_phi Dx u,    psi+ = a_psi psi + B_psi Dy u

    with K = dt^2 c^2 / den, K1 = K / h^2, K2 = K / (2h),
    A0 = (2 - dt^2 sx sy) / den - 4 K1, Q = (1 - dt (sx + sy) / 2) / den,
    den = 1 + dt (sx + sy) / 2, a_phi = 1 - dt sx, B_phi = dt (sy - sx) / (2h)
    and a_psi, B_psi the same with sx and sy swapped.  N is the zero-padded
    4-neighbour sum (symmetric) and Dx, Dy the unscaled zero-padded centred
    differences along axes 0 and 1 (antisymmetric), so ``step_T`` reads its
    transpose off the same arrays; on a state (U, V, F, G) it returns

        u_curr = A0 U + N(K1 U) + V - Dx(B_phi F) - Dy(B_psi G),  u_prev = -Q U
        phi    = a_phi F - Dx(K2 U),    psi = a_psi G - Dy(K2 U)

    Without a band (pml_width = 0) den = 1, sx = sy = 0 and the phi/psi
    terms drop out.
    Folding reassociates the arithmetic of the unfolded update
    ``(coef_u u - coef_v u- + dt^2 c^2 (Lap u + ...)) / den``, so fields
    agree with it to rounding (about 2e-16 relative per step), not bitwise.
    """

    def __init__(self, speed: SpeedField, dt: float):
        grid = speed.grid
        limit = cfl_limit(speed)
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"dt = {dt:g} exceeds the stability bound {limit:g} "
                f"(h = {grid.h:g}, max c = {speed.max_c:g})"
            )
        self.grid = grid
        self.dt = float(dt)
        self.h = grid.h
        self.c2 = speed.c**2
        self._band = grid.pml_width > 0.0
        n, h = grid.n, grid.h

        def flat(a):
            return np.ascontiguousarray(np.broadcast_to(a, (n, n))).reshape(-1)

        if self._band:
            sigma = pml_profile(grid)
            sx, sy = sigma[:, None], sigma[None, :]
            den = 1.0 + 0.5 * dt * (sx + sy)
            coef_u = 2.0 - dt**2 * sx * sy
            q = flat((1.0 - 0.5 * dt * (sx + sy)) / den)
        else:
            den, coef_u, q = 1.0, 2.0, 1.0
        k = dt**2 * self.c2 / den
        k1 = k / (h * h)
        self._k1 = flat(k1)
        self._a0 = flat(coef_u / den - 4.0 * k1)
        self._q, self._neg_q = q, -q
        if self._band:
            self._k2 = flat(k / (2.0 * h))
            self._a_phi = flat(1.0 - dt * sx)
            self._b_phi = flat(dt * (sy - sx) / (2.0 * h))
            self._a_psi = flat(1.0 - dt * sy)
            self._b_psi = flat(dt * (sx - sy) / (2.0 * h))
        self._t = np.empty(n * n)
        self._t2 = np.empty(n * n)

    def zero_state(self) -> WaveState:
        z = np.zeros_like(self.c2)
        return WaveState(z, z.copy(), z.copy(), z.copy(), 0.0, self.dt)

    # -- initial data embedding and its transpose --------------------------

    def init_state(self, f) -> WaveState:
        """Leapfrog state for pressure ``f`` (an array or a Phantom) released
        from rest."""
        f = f.f if isinstance(f, Phantom) else np.asarray(f, dtype=float)
        v = f + 0.5 * self.dt**2 * self.c2 * laplacian(f, self.h)
        z = np.zeros_like(f)
        return WaveState(f.copy(), v, z, z.copy(), 0.0, self.dt)

    def init_state_T(self, s: WaveState) -> np.ndarray:
        return s.u_curr + s.u_prev + 0.5 * self.dt**2 * laplacian(self.c2 * s.u_prev, self.h)

    # -- one time level and its transpose -----------------------------------

    def step(self, s: WaveState) -> WaveState:
        n, dt, t = self.grid.n, self.dt, self._t
        u, v = _flat(s.u_curr), _flat(s.u_prev)
        out = np.multiply(self._a0, u)
        out -= np.multiply(self._q, v, out=t)
        out += np.multiply(self._k1, _neighbour_sum(u, t, n), out=t)
        if not self._band:
            return WaveState(out.reshape(n, n), s.u_curr, s.phi, s.psi, s.t + dt, dt)
        phi, psi = _flat(s.phi), _flat(s.psi)
        flux = _diff0(phi, t, n)
        flux += _diff1(psi, self._t2, n)
        out += np.multiply(self._k2, flux, out=t)
        phi_new = np.multiply(self._a_phi, phi)
        phi_new += np.multiply(self._b_phi, _diff0(u, t, n), out=t)
        psi_new = np.multiply(self._a_psi, psi)
        psi_new += np.multiply(self._b_psi, _diff1(u, t, n), out=t)
        return WaveState(
            out.reshape(n, n), s.u_curr, phi_new.reshape(n, n), psi_new.reshape(n, n),
            s.t + dt, dt,
        )

    def step_T(self, s: WaveState) -> WaveState:
        n, dt, t, t2 = self.grid.n, self.dt, self._t, self._t2
        U, V = _flat(s.u_curr), _flat(s.u_prev)
        a = np.multiply(self._a0, U)
        a += _neighbour_sum(np.multiply(self._k1, U, out=t2), t, n)
        a += V
        b = np.multiply(self._neg_q, U)
        if not self._band:
            return WaveState(a.reshape(n, n), b.reshape(n, n), s.phi, s.psi, s.t - dt, dt)
        F, G = _flat(s.phi), _flat(s.psi)
        a -= _diff0(np.multiply(self._b_phi, F, out=t2), t, n)
        a -= _diff1(np.multiply(self._b_psi, G, out=t2), t, n)
        ku = np.multiply(self._k2, U, out=t2)
        g = np.multiply(self._a_phi, F)
        g -= _diff0(ku, t, n)
        q = np.multiply(self._a_psi, G)
        q -= _diff1(ku, t, n)
        return WaveState(
            a.reshape(n, n), b.reshape(n, n), g.reshape(n, n), q.reshape(n, n), s.t - dt, dt
        )


# ---------------------------------------------------------------------------
# module-level operations


def energy(state: WaveState, speed: SpeedField) -> float:
    """Discrete wave energy of the leapfrog level pair.

    Uses the product of gradients at consecutive levels rather than a
    squared gradient; for the undamped scheme this quantity is conserved
    step to step up to roundoff.  Agrees with the kinetic-plus-potential
    energy to O(dt).
    """
    h, dt = speed.grid.h, state.dt
    kin = np.sum(((state.u_curr - state.u_prev) / dt) ** 2 / (speed.c**2))
    pot = 0.0
    for axis in (0, 1):
        pot += np.sum(
            _edge_diff(state.u_curr, h, axis) * _edge_diff(state.u_prev, h, axis)
        )
    return 0.5 * h * h * (kin + pot)


def _check_finite(state: WaveState, k: int) -> None:
    if not np.all(np.isfinite(state.u_curr)):
        raise FloatingPointError(
            f"field blew up at step {k} (t = {state.t:g}); check the CFL bound"
        )


def solve_forward(f, speed: SpeedField, nt: int, dt: float, probe=None) -> WaveState:
    """March the pressure field ``f`` from rest over the levels 0..nt-1 at
    spacing dt, damped by the grid's absorbing band when it has one.

    This is the one forward time loop: the measurement map and the radius
    sweeps read the field through ``probe(k, u)``, called with the level
    index and the field at every level in order, level 0 included.  A
    non-finite field raises FloatingPointError, checked every
    ``_NAN_CHECK_EVERY`` levels and at the end.  Returns the final state.
    """
    solver = WaveSolver(speed, dt)
    # an overflowing field is reported once, by _check_finite, instead of by
    # a numpy warning per operation
    with np.errstate(over="ignore", invalid="ignore"):
        s = solver.init_state(f)
        if probe is not None:
            probe(0, s.u_curr)
        for k in range(1, nt):
            s = solver.step(s)
            if k % _NAN_CHECK_EVERY == 0:
                _check_finite(s, k)
            if probe is not None:
                probe(k, s.u_curr)
    _check_finite(s, nt - 1)
    return s
