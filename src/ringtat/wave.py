"""Time-domain acoustic propagation.

Solves u_tt = c(x)^2 Lap u with u(0) = f, u_t(0) = 0 by an explicit
second-order leapfrog scheme.  A split-field absorbing layer occupies the
grid's band of width pml_width inside each domain edge (none when that
width is 0); its damping enters semi-implicitly.  That does not keep the
scheme's standard stability bound: a band too thin for the time step
grows without bound.  At the default lattice (0.9 of the CFL bound) the
band needs dt * sigma_max <= 1.4, about 6 cells at c = 1 (the measured
table under item 1 of ROADMAP.md).

Every map here (one time step, the initial-data embedding) is linear in
the field and has a hand-written exact transpose, with plain Euclidean
inner products (no h^2 or dt weights).  Downstream modules compose these
into an exact discrete adjoint of the full measurement map.

``march`` is the one forward time loop: it owns the level lattice walk
and the finiteness checks, and yields the state of every level, so every
forward reader (the measurement map, the radius sweeps, ``solve_forward``,
the energy self-check) iterates over it.  Only the adjoint marches
``step_T`` itself, since it adds data into the state between steps.  Both
take their WaveSolver from the caller: the detector's measurement map
builds one per (speed, detector config) and every solve of a command runs
on it; a radius sweep builds its own.

WaveSolver folds the scheme's per-cell coefficients (damping, speed, dt,
h and the semi-implicit denominator) once, so one step is a few contiguous
multiply-adds and shifted sums over the flat field, with no per-step
division, plus two sparse products built once that couple the field to the
split field on the band cells.  The transpose reads the same folded arrays
and the same two matrices as their transposes, so it stays exact; the
folding reassociates floating-point arithmetic, so fields equal the
unfolded update to rounding, not bit for bit.

State convention: u_curr is the field at the current level, u_prev one
level back, phi/psi the split-field layer memory on the band cells.
Since u_t(0) = 0 makes the solution even in time, the initial state uses
u(-dt) = u(+dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import Grid2D, SpeedField

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


def _accumulating(rows: int, cols: int, indptr, indices, data):
    """The products y += A x and y += A^T x of the (rows, cols) CSR matrix
    A = (data, indices, indptr), as two callables (x, y) that add into
    ``y`` in place.

    They are SciPy's kernels behind ``A @ x`` and ``A.T @ y``: a row of A
    sums its entries by ascending column, starting from y's value, and the
    transpose adds them to y by ascending row of A.  The public product
    instead fills a zeroed result and needs a second pass to add it.  This
    is the one place the package reaches a private name of numpy or SciPy
    (tests/test_imports.py checks that).
    """
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec

    return (functools.partial(csr_matvec, rows, cols, indptr, indices, data),
            functools.partial(csc_matvec, cols, rows, indptr, indices, data))


def cfl_limit(speed: SpeedField) -> float:
    """Largest stable dt for the five-point leapfrog scheme."""
    return speed.grid.h / (math.sqrt(2.0) * speed.max_c)


def check_time_step(speed: SpeedField, dt: float) -> None:
    """Reject a dt that is not finite and positive, or past the CFL bound."""
    # comparisons with NaN are false, so NaN fails the first check
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt = {dt} must be finite and positive")
    limit = cfl_limit(speed)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} exceeds the stability bound {limit:g} "
                         f"(h = {speed.grid.h:g}, max c = {speed.max_c:g})")


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
    # comparisons with NaN are false, so NaN fails this check
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration = {duration} must be finite and positive")
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
    top = default_sigma_max(width)
    if top == math.inf:
        raise ValueError(f"pml_width = {width:g} is too thin: its damping overflows")
    d = np.maximum(0.0, np.abs(grid.axis) - (grid.L - width))
    return top * (d / width) ** _PROFILE_ORDER


# ---------------------------------------------------------------------------
# state and stepping engine


@dataclass
class WaveState:
    """One leapfrog level pair and the split-field memory.

    u_curr and u_prev are (n, n) fields; phi and psi are 1-D, one entry per
    absorbing-band cell (sigma_x + sigma_y > 0) in C order, since the split
    field stays zero off the band.  Without a band they are empty.  The
    time step is the solver's dt, and level k sits at time k * dt.
    """

    u_curr: np.ndarray
    u_prev: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


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

    The split field is zero off the band, so it lives on the band cells
    only (WaveState.phi/psi, m entries each).  ``__init__`` folds its
    coupling into two sparse matrices between the flat field and the
    stacked P = (phi, psi): D (2m x n^2) gives (B_phi Dx u, B_psi Dy u)
    and F (n^2 x 2m) gives K2 (Dx phi + Dy psi).  D is stored by rows and
    F by columns, on one shared pattern: row i of D and column i of F hold
    the two Dx (or Dy) neighbours on the grid of entry i's band cell, so
    no product walks the n^2 cells.  ``step`` adds F P into u+ and D u
    into a P; ``step_T`` adds D^T P into u_curr and F^T U into a P, off
    the same arrays, through SciPy's kernels that accumulate into their
    output (``_accumulating``).  Each output cell adds its terms in the
    order of P: phi at the -n then +n neighbour, then psi at -1 then +1.
    tests/full_grid_step.py is the same step on full-grid phi and psi with
    its band terms added in that order, and fields equal it bit for bit.

    Without a band (pml_width = 0) den = 1, sx = sy = 0 and the phi/psi
    terms drop out, with no matrix built.
    Folding reassociates the arithmetic of the unfolded update
    ``(coef_u u - coef_v u- + dt^2 c^2 (Lap u + ...)) / den``, so fields
    agree with it to rounding (about 2e-16 relative per step), not bitwise.

    ``step`` and ``step_T`` work in scratch buffers the solver owns, so a
    shared solver (the measurement map shares one across the solves of a
    command) is serial: one solve at a time, never two threads at once.
    """

    def __init__(self, speed: SpeedField, dt: float):
        check_time_step(speed, dt)
        grid = speed.grid
        self.grid = grid
        self.dt = float(dt)
        self.h = grid.h
        self.c2 = speed.c**2
        n, h = grid.n, grid.h

        def flat(a):
            return np.ascontiguousarray(np.broadcast_to(a, (n, n))).reshape(-1)

        band = np.zeros((n, n), dtype=bool)
        if grid.pml_width > 0.0:
            sigma = pml_profile(grid)
            sx, sy = sigma[:, None], sigma[None, :]
            band = (sx + sy) > 0.0
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
        self._t = np.empty(n * n)
        self._t2 = np.empty(n * n)
        cells = np.flatnonzero(band)
        self._m = m = cells.size
        if not m:
            return
        # one row of D (column of F) per entry of P: Dx reads the -n, +n
        # neighbours, Dy the -1, +1 ones, and one off the grid has no entry
        nb = np.pad(np.arange(n * n).reshape(n, n), 1, constant_values=-1)
        nb = np.stack([nb[:-2, 1:-1], nb[2:, 1:-1], nb[1:-1, :-2], nb[1:-1, 2:]], axis=-1)[band]
        cols = np.concatenate([nb[:, :2], nb[:, 2:]])
        keep = cols >= 0
        indptr = np.zeros(2 * m + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        pattern = 2 * m, n * n, indptr, cols[keep].astype(np.int32)
        sx, sy = sigma[cells // n], sigma[cells % n]
        b = np.concatenate([dt * (sy - sx) / (2.0 * h), dt * (sx - sy) / (2.0 * h)])
        self._memory, self._memory_T = _accumulating(*pattern, (b[:, None] * [-1.0, 1.0])[keep])
        # the flux K2 (phi[+n] - phi[-n]) at a cell reads its +n neighbour's
        # phi with its own K2, so the column of band cell c holds +K2[c - n]
        # in row c - n and -K2[c + n] in row c + n (and psi alike at -+1)
        k2 = flat(k / (2.0 * h))
        self._flux_T, self._flux = _accumulating(*pattern, (k2[cols] * [1.0, -1.0])[keep])
        self._a = np.concatenate([1.0 - dt * sx, 1.0 - dt * sy])
        self._p = np.empty(2 * m)  # the stacked split field of a step's input

    def zero_state(self) -> WaveState:
        z = np.zeros_like(self.c2)
        return WaveState(z, z.copy(), np.zeros(self._m), np.zeros(self._m))

    # -- initial data embedding and its transpose --------------------------

    def init_state(self, f) -> WaveState:
        """Leapfrog state for the (n, n) pressure array ``f`` released from
        rest."""
        f = np.asarray(f, dtype=float)
        v = f + 0.5 * self.dt**2 * self.c2 * laplacian(f, self.h)
        return WaveState(f.copy(), v, np.zeros(self._m), np.zeros(self._m))

    def init_state_T(self, s: WaveState) -> np.ndarray:
        return s.u_curr + s.u_prev + 0.5 * self.dt**2 * laplacian(self.c2 * s.u_prev, self.h)

    # -- one time level and its transpose -----------------------------------

    def step(self, s: WaveState) -> WaveState:
        n, t = self.grid.n, self._t
        u, v = _flat(s.u_curr), _flat(s.u_prev)
        out = np.multiply(self._a0, u)
        out -= np.multiply(self._q, v, out=t)
        out += np.multiply(self._k1, _neighbour_sum(u, t, n), out=t)
        if not self._m:
            return WaveState(out.reshape(n, n), s.u_curr, s.phi, s.psi)
        p, m = self._p, self._m
        p[:m], p[m:] = s.phi, s.psi
        self._flux(p, out)
        new = np.multiply(self._a, p)
        self._memory(u, new)
        return WaveState(out.reshape(n, n), s.u_curr, new[:m], new[m:])

    def step_T(self, s: WaveState) -> WaveState:
        n, t = self.grid.n, self._t
        U, V = _flat(s.u_curr), _flat(s.u_prev)
        a = np.multiply(self._a0, U)
        a += _neighbour_sum(np.multiply(self._k1, U, out=self._t2), t, n)
        a += V
        b = np.multiply(self._neg_q, U)
        if not self._m:
            return WaveState(a.reshape(n, n), b.reshape(n, n), s.phi, s.psi)
        p, m = self._p, self._m
        p[:m], p[m:] = s.phi, s.psi
        self._memory_T(p, a)
        new = np.multiply(self._a, p)
        self._flux_T(U, new)
        return WaveState(a.reshape(n, n), b.reshape(n, n), new[:m], new[m:])


# ---------------------------------------------------------------------------
# module-level operations


def energy(u_curr: np.ndarray, u_prev: np.ndarray, dt: float, speed: SpeedField) -> float:
    """Discrete wave energy of the leapfrog level pair ``u_curr``, ``u_prev``
    (dt apart); the split field does not enter.

    Uses the product of gradients at consecutive levels rather than a
    squared gradient; for the undamped scheme this quantity is conserved
    step to step up to roundoff.  Agrees with the kinetic-plus-potential
    energy to O(dt).  The zero-padded Laplacian is -G^T G, with G the forward
    differences across every cell edge, so the gradient product is
    -u_curr . laplacian(u_prev).
    """
    h = speed.grid.h
    kin = np.sum(((u_curr - u_prev) / dt) ** 2 / (speed.c**2))
    pot = -np.sum(u_curr * laplacian(u_prev, h))
    return 0.5 * h * h * (kin + pot)


def _check_finite(state: WaveState, k: int, solver: WaveSolver) -> None:
    """Raise when level ``k`` (time k * dt) holds a non-finite value, naming
    both causes: the time step and a band too thin for it."""
    if np.all(np.isfinite(state.u_curr)):
        return
    grid, dt = solver.grid, solver.dt
    cause = "check the CFL bound"
    if grid.pml_width > 0.0:
        cause += (f" and the absorbing band ([grid] pml_width = {grid.pml_width:g}: "
                  f"{grid.pml_width / grid.h:.3g} cells, "
                  f"dt*sigma_max = {dt * default_sigma_max(grid.pml_width):.3g})")
    raise FloatingPointError(f"field blew up at step {k} (t = {k * dt:g}); {cause}")


def march(f, solver: WaveSolver, nt: int):
    """Yield the states of levels 0..nt-1 of the pressure field ``f``
    marched from rest on ``solver`` (its speed and dt, damped by the grid's
    absorbing band when it has one), in order.

    A non-finite field raises FloatingPointError, checked every
    ``_NAN_CHECK_EVERY`` levels and before the last level is yielded.  The
    steps run under the caller's numpy error state: a generator that held
    one across its yields would leak it into the caller between them.
    """
    s = solver.init_state(f)
    for k in range(1, nt):
        yield s
        s = solver.step(s)
        if k % _NAN_CHECK_EVERY == 0:
            _check_finite(s, k, solver)
    _check_finite(s, nt - 1, solver)
    yield s


def solve_forward(f, solver: WaveSolver, nt: int) -> WaveState:
    """The last state of ``march(f, solver, nt)``, level nt - 1."""
    # an overflowing field is reported once, by march's finite checks,
    # instead of by a numpy warning per operation
    with np.errstate(over="ignore", invalid="ignore"):
        for s in march(f, solver, nt):
            pass
    return s
