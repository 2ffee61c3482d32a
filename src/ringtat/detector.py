"""Circle-averaged measurements and their consistency oracles.

A detector is a circle of radius r centered at R*(cos theta, sin theta);
its reading is the mean of the pressure over the circle.  Two geometries
are supported: small detectors surrounding the imaging disc from outside
(center radius R, R - r >= 1) and large detectors enclosing it (centers on
the unit circle, r >= 2).  Either way every detector point keeps distance
at least 1 from the origin.

The forward map and the radius sweeps read the field at every level
through ``wave.solve_forward``'s probe; the exact adjoint marches the
solver's transposed steps.  Both damp the field in the grid's absorbing
band (its ``pml_width``; none when that is 0), and sampling goes through
the shared bicubic machinery so the adjoint identity holds to machine
precision.

The sweep data families satisfy cylinder wave equations in the sweep
variable; the residual operations evaluate those equations with centered
differences and serve as the package's physics self-check: residuals must
shrink at second order under simultaneous lattice refinement, which
``residual_refinement_study`` measures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._spline import BicubicSampler
from .field import SpeedField, SpeedSpec, gaussian_phantom, make_grid, sample_speed
from .wave import WaveSolver, choose_time_steps, solve_forward

_TWO_PI = 2.0 * math.pi
# the sampler holds 16 entries per circle point behind int32 offsets, so the
# n_theta * n_alpha points of a detector ring must stay below 2**31 / 16
_MAX_POINTS = (2**31 - 1) // 16


@dataclass(frozen=True)
class SmallMode:
    """Detector circles of radius r with centers on the circle of radius R;
    the imaging disc stays outside every detector disc (R - r >= 1)."""

    R: float
    r: float

    def __post_init__(self):
        # comparisons with NaN are false, so NaN fails these checks
        if not 0 < self.r < math.inf:
            raise ValueError(f"detector radius r must be finite and positive, got {self.r:g}")
        if not 1.0 - 1e-12 <= self.R - self.r < math.inf:
            raise ValueError(
                f"small-detector geometry needs finite R - r >= 1, got R - r = {self.R - self.r:g}"
            )

    @property
    def center_radius(self) -> float:
        return self.R


@dataclass(frozen=True)
class LargeMode:
    """Detector circles of radius r >= 2 with centers on the unit circle;
    the imaging disc lies inside every detector disc."""

    r: float

    def __post_init__(self):
        if not 2.0 - 1e-12 <= self.r < math.inf:
            raise ValueError(f"large-detector geometry needs finite r >= 2, got r = {self.r:g}")

    @property
    def center_radius(self) -> float:
        return 1.0


@dataclass(frozen=True)
class DetectorConfig:
    """Acquisition description: geometry, angular sampling, record window.

    ``aperture`` restricts the detector centers to the open arc (a, b);
    None means the full circle.  ``nt`` is the number of time samples on
    [0, T]; None lets the forward operator pick it from the CFL bound.
    """

    mode: SmallMode | LargeMode
    n_theta: int = 180
    n_alpha: int = 256
    T: float = 5.0
    nt: int | None = None
    aperture: tuple[float, float] | None = None

    def __post_init__(self):
        if self.n_alpha < 64:
            raise ValueError("n_alpha must be at least 64")
        if self.n_theta < 1:
            raise ValueError("n_theta must be positive")
        if self.n_theta * self.n_alpha > _MAX_POINTS:
            raise ValueError(f"n_theta x n_alpha = {self.n_theta} x {self.n_alpha} circle points "
                             f"exceed {_MAX_POINTS}, the most the sampler's int32 indices allow")
        if not 0 < self.T < math.inf:
            raise ValueError(f"record length T = {self.T} must be finite and positive")
        if self.nt is not None and self.nt < 2:
            raise ValueError("nt must be at least 2")
        if self.aperture is not None:
            a, b = self.aperture
            if not (b > a and b - a <= _TWO_PI + 1e-12):
                raise ValueError("aperture must be an increasing arc of at most one turn")

    @property
    def full_circle(self) -> bool:
        return self.aperture is None


def theta_grid(config: DetectorConfig) -> np.ndarray:
    """Detector-center angles: uniform on [0, 2pi) for the full circle,
    midpoints of a uniform partition (endpoints excluded) on a sub-arc."""
    n = config.n_theta
    if config.full_circle:
        return _TWO_PI * np.arange(n) / n
    a, b = config.aperture
    return a + (np.arange(n) + 0.5) * (b - a) / n


def _require_clear_of_band(points: np.ndarray, grid) -> None:
    reach = float(np.max(np.abs(points)))
    if reach >= grid.interior_half_width - 1e-12:
        raise ValueError(
            f"detector points reach |x| = {reach:g}, inside the absorbing band "
            f"(interior half width {grid.interior_half_width:g})"
        )


# ---------------------------------------------------------------------------
# data containers


@dataclass
class Sinogram:
    """Detector readings: data[i, j] = circle average at time i*dt, angle
    thetas[j]."""

    data: np.ndarray
    dt: float
    thetas: np.ndarray
    config: DetectorConfig


@dataclass
class RadiusSweep:
    """A family of sinograms over a swept radius.

    data[i, j, k] is the reading at time i*dt, angle thetas[j], radius
    radii[k]: the circle of detector centers in the small geometry, the
    detector radius itself in the large one.
    """

    data: np.ndarray
    dt: float
    thetas: np.ndarray
    radii: np.ndarray
    config: DetectorConfig


# ---------------------------------------------------------------------------
# sampling machinery shared by the forward map, the adjoint and the sweeps


def _build_sampler(grid, centers_radius: float | np.ndarray, circle_radius: float | np.ndarray,
                   thetas: np.ndarray, n_alpha: int) -> BicubicSampler:
    """Sampler whose row (j * n_radii + i) averages circle i at angle j.

    centers_radius/circle_radius may be scalars or per-radius arrays; rows
    are laid out theta-major so a single-radius sampler and the matching
    column of a sweep sampler are built from identical point sequences
    (this is what makes sweep columns bit-exact against forward runs).
    """
    Rs = np.atleast_1d(np.asarray(centers_radius, dtype=float))
    rs = np.atleast_1d(np.asarray(circle_radius, dtype=float))
    if Rs.size == 1:
        Rs = np.full(rs.size, Rs[0])
    if rs.size == 1:
        rs = np.full(Rs.size, rs[0])
    n_rad = Rs.size
    alphas = _TWO_PI * np.arange(n_alpha) / n_alpha
    ca, sa = np.cos(alphas), np.sin(alphas)
    pts = np.empty((thetas.size, n_rad, n_alpha, 2))
    for j, th in enumerate(thetas):
        for i in range(n_rad):
            pts[j, i, :, 0] = Rs[i] * math.cos(th) + rs[i] * ca
            pts[j, i, :, 1] = Rs[i] * math.sin(th) + rs[i] * sa
    flat = pts.reshape(-1, 2)
    _require_clear_of_band(flat, grid)
    rows = np.repeat(np.arange(thetas.size * n_rad), n_alpha)
    weights = np.full(flat.shape[0], 1.0 / n_alpha)
    return BicubicSampler(
        -grid.L, grid.h, grid.n, flat, rows=rows, weights=weights,
        n_rows=thetas.size * n_rad,
    )


@functools.lru_cache(maxsize=1)
def _detector_sampler(grid, config: DetectorConfig) -> BicubicSampler:
    """The forward map's sampler, built once and shared by every
    forward_operator/adjoint_operator call on the same (grid, config);
    both are frozen, so equal values give the same (read-only) sampler.
    The sweeps build their own, uncached."""
    mode = config.mode
    return _build_sampler(grid, mode.center_radius, mode.r, theta_grid(config), config.n_alpha)


def _time_lattice(speed: SpeedField, config: DetectorConfig) -> tuple[int, float]:
    if config.nt is None:
        return choose_time_steps(speed, config.T)
    nt = config.nt
    dt = config.T / (nt - 1)
    return nt, dt


def _record_forward(f, speed: SpeedField, sampler: BicubicSampler, nt: int,
                    dt: float) -> np.ndarray:
    """Row k of the record is the sampler read of the field at level k."""
    try:
        out = np.empty((nt, sampler.n_rows))
    except (MemoryError, ValueError):  # past memory, or past numpy's index range
        raise ValueError(f"a record of {nt} time levels x {sampler.n_rows} detectors "
                         "is too large to allocate") from None

    def read(k, u):
        out[k] = sampler.apply(u)
        # checked as written, so a short record that overflows is reported
        # here before the solver's own field checks fire
        if not np.all(np.isfinite(out[k])):
            raise FloatingPointError(f"recorded data not finite from level {k} (t = {k * dt:g})")

    solve_forward(f, speed, nt, dt, probe=read)
    return out


def forward_operator(f, speed: SpeedField, config: DetectorConfig) -> Sinogram:
    """The measurement map: one wave solve, every detector read at every level."""
    sampler = _detector_sampler(speed.grid, config)
    nt, dt = _time_lattice(speed, config)
    data = _record_forward(f, speed, sampler, nt, dt)
    return Sinogram(data=data, dt=dt, thetas=theta_grid(config), config=config)


def adjoint_operator(data: np.ndarray, speed: SpeedField, config: DetectorConfig) -> np.ndarray:
    """Exact transpose of forward_operator, mapping a sinogram-shaped array
    back to an image.

    Composes the transposes of the solver steps and of the sampling in
    reverse order; with forward_operator it passes the adjoint identity at
    machine precision (plain Euclidean inner products on both sides).
    """
    sampler = _detector_sampler(speed.grid, config)
    nt, dt = _time_lattice(speed, config)
    data = np.asarray(data, dtype=float)
    if data.shape != (nt, sampler.n_rows):
        raise ValueError(f"data shape {data.shape} does not match lattice {(nt, sampler.n_rows)}")
    solver = WaveSolver(speed, dt)
    w = solver.zero_state()
    for k in range(nt - 1, -1, -1):
        w.u_curr = w.u_curr + sampler.apply_T(data[k])
        if k > 0:
            w = solver.step_T(w)
    return solver.init_state_T(w)


def _record_sweep(f, speed: SpeedField, config: DetectorConfig, centers_radius, circle_radius,
                  radii: np.ndarray) -> RadiusSweep:
    thetas = theta_grid(config)
    sampler = _build_sampler(speed.grid, centers_radius, circle_radius, thetas, config.n_alpha)
    nt, dt = _time_lattice(speed, config)
    data = _record_forward(f, speed, sampler, nt, dt).reshape(nt, thetas.size, radii.size)
    return RadiusSweep(data=data, dt=dt, thetas=thetas, radii=radii, config=config)


def sweep_small_radius(f, speed: SpeedField, config: DetectorConfig, R_values) -> RadiusSweep:
    """Record the small-geometry family P(t, theta, R) over center radii.

    One wave solve serves every R: the detectors are passive probes of the
    same field.  Each R must satisfy the small-geometry invariant.
    """
    if not isinstance(config.mode, SmallMode):
        raise ValueError("center-radius sweep requires the small-detector mode")
    r = config.mode.r
    Rs = np.asarray(sorted(R_values), dtype=float)
    if np.any(Rs - r < 1.0 - 1e-12):
        raise ValueError("every swept center radius must keep R - r >= 1")
    return _record_sweep(f, speed, config, Rs, r, Rs)


def sweep_large_radius(f, speed: SpeedField, config: DetectorConfig, r_values) -> RadiusSweep:
    """Record the large-geometry family P(t, theta, r) over detector radii."""
    if not isinstance(config.mode, LargeMode):
        raise ValueError("detector-radius sweep requires the large-detector mode")
    rs = np.asarray(sorted(r_values), dtype=float)
    if np.any(rs < 2.0 - 1e-12):
        raise ValueError("every swept detector radius must satisfy r >= 2")
    return _record_sweep(f, speed, config, 1.0, rs, rs)


# ---------------------------------------------------------------------------
# cylinder-equation residual oracles


def _sweep_stencil_parts(sweep: RadiusSweep):
    P = sweep.data
    nt, n_th, n_rad = P.shape
    if nt < 3 or n_rad < 3:
        raise ValueError("need at least 3 time samples and 3 radii for centered stencils")
    dr = np.diff(sweep.radii)
    if not np.allclose(dr, dr[0], rtol=1e-10, atol=0):
        raise ValueError("swept radii must be uniformly spaced")
    dt, dR = sweep.dt, float(dr[0])
    mid = P[1:-1, :, 1:-1]
    P_tt = (P[2:, :, 1:-1] - 2.0 * mid + P[:-2, :, 1:-1]) / dt**2
    P_rr = (P[1:-1, :, 2:] - 2.0 * mid + P[1:-1, :, :-2]) / dR**2
    P_r = (P[1:-1, :, 2:] - P[1:-1, :, :-2]) / (2.0 * dR)
    rho = sweep.radii[1:-1][None, None, :]
    return P_tt, P_rr, P_r, rho


def _theta_second_diff(sweep: RadiusSweep):
    P = sweep.data
    dth = float(sweep.thetas[1] - sweep.thetas[0]) if sweep.thetas.size > 1 else None
    if dth is None:
        raise ValueError("need at least 2 angles for a theta stencil")
    if sweep.config.full_circle:
        P_aa = (np.roll(P, -1, axis=1) - 2.0 * P + np.roll(P, 1, axis=1)) / dth**2
        return P_aa[1:-1, :, 1:-1], slice(None)
    P_aa = (P[:, 2:, :] - 2.0 * P[:, 1:-1, :] + P[:, :-2, :]) / dth**2
    return P_aa[1:-1, :, 1:-1], slice(1, -1)


def cylinder_residual_small(sweep: RadiusSweep) -> np.ndarray:
    """Centered-difference residual of the center-radius wave identity
    P_tt - P_RR - P_R / R - P_thth / R^2 at interior lattice points.

    On data from sweep_small_radius this is a discretization of an exact
    identity of the continuum measurements, so its RMS must decay at
    second order under simultaneous lattice refinement.  Applied to a
    detector-radius sweep it is the wrong equation (the angular term does
    not belong) and the residual stalls: a geometry discriminator.
    """
    P_tt, P_rr, P_r, rho = _sweep_stencil_parts(sweep)
    P_aa, th_sl = _theta_second_diff(sweep)
    return P_tt[:, th_sl, :] - P_rr[:, th_sl, :] - P_r[:, th_sl, :] / rho - P_aa / rho**2


def cylinder_residual_large(sweep: RadiusSweep) -> np.ndarray:
    """Centered-difference residual of the detector-radius wave identity
    P_tt - P_rr - P_r / r at interior lattice points (no angular term)."""
    P_tt, P_rr, P_r, rho = _sweep_stencil_parts(sweep)
    return P_tt - P_rr - P_r / rho


# ---------------------------------------------------------------------------
# radius-sweep refinement study


# every level records over [0, _SWEEP_DURATION] and averages its residual
# over _SWEEP_WINDOW; level 0 sweeps the radius by +-_SWEEP_DELTA_R
_SWEEP_DELTA_R = 0.1
_SWEEP_DURATION = 3.0
_SWEEP_WINDOW = (1.2, 2.8)


@dataclass(frozen=True)
class SweepSettings:
    """Lattice of the refinement study: the ``[sweep]`` config section.

    Level 0 is the base lattice (``base_n`` nodes per axis, ``base_nt``
    time levels over ``_SWEEP_DURATION``, ``base_n_theta`` angles, radii
    ``base_radius`` and ``base_radius +- _SWEEP_DELTA_R``); each further
    level halves every spacing.  Residuals are averaged over the times in
    ``_SWEEP_WINDOW``.
    """

    levels: int = 2
    base_radius: float = 2.1
    base_n: int = 129
    base_nt: int = 203
    base_n_theta: int = 40


def residual_refinement_study(
    mode_kind: str,
    settings: SweepSettings = SweepSettings(),
    n_alpha: int = 256,
    small_r: float = 0.8,
    L: float = 3.9,
    pml_width: float = 0.5,
    speed_spec: SpeedSpec | None = None,
) -> dict:
    """RMS of the radius-sweep PDE residual under simultaneous refinement.

    Level ``l`` doubles the space, time, angle and radius resolution of the
    base lattice ``l`` times.  The residual of the matching second-order
    identity must shrink by about 4 per level.  A large-mode study also
    evaluates the small-geometry stencil on the same data (``rms_wrong``,
    ``ratios_wrong``), where it has no reason to decay.
    """
    s = settings
    if mode_kind == "small":
        mode, record, residual = (SmallMode(R=s.base_radius, r=small_r),
                                  sweep_small_radius, cylinder_residual_small)
    elif mode_kind == "large":
        mode, record, residual = (LargeMode(r=s.base_radius),
                                  sweep_large_radius, cylinder_residual_large)
    else:
        raise ValueError("mode_kind must be 'small' or 'large'")
    if speed_spec is None:
        speed_spec = SpeedSpec()
    hs, rms, rms_wrong = [], [], []
    for level in range(s.levels):
        scale = 2**level
        grid = make_grid(L=L, n=(s.base_n - 1) * scale + 1, pml_width=pml_width)
        speed = sample_speed(speed_spec, grid)
        phantom = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
        nt = (s.base_nt - 1) * scale + 1
        dr = _SWEEP_DELTA_R / scale
        radii = [s.base_radius - dr, s.base_radius, s.base_radius + dr]
        config = DetectorConfig(mode=mode, n_theta=s.base_n_theta * scale, n_alpha=n_alpha,
                                T=_SWEEP_DURATION, nt=nt)
        sweep = record(phantom.f, speed, config, radii)
        resid = residual(sweep)
        times = sweep.dt * np.arange(1, nt - 1)
        sel = (times >= _SWEEP_WINDOW[0]) & (times <= _SWEEP_WINDOW[1])
        hs.append(grid.h)
        rms.append(float(np.sqrt(np.mean(resid[sel] ** 2))))
        if mode_kind == "large":
            wrong = cylinder_residual_small(sweep)
            rms_wrong.append(float(np.sqrt(np.mean(wrong[sel] ** 2))))
    out = {"h": hs, "rms": rms, "ratios": [rms[i] / rms[i + 1] for i in range(len(rms) - 1)]}
    if mode_kind == "large":
        out["rms_wrong"] = rms_wrong
        out["ratios_wrong"] = [rms_wrong[i] / rms_wrong[i + 1]
                               for i in range(len(rms_wrong) - 1)]
    return out
