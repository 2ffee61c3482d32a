"""Circle-averaged measurements and their consistency oracles.

A detector is a circle of radius r centered at R*(cos theta, sin theta);
its reading is the mean of the pressure over the circle.  Two geometries
are supported: small detectors surrounding the imaging disc from outside
(center radius R, R - r >= 1) and large detectors enclosing it (centers on
the unit circle, r >= 2).  Either way every detector point keeps distance
at least 1 from the origin.

One ``MeasurementMap`` per (speed, config) holds the map's pieces: the
record lattice, the sampler, one WaveSolver, and the misfit weights and
unit-disc mask the solvers read.  ``measurement_map`` builds it once, and
every forward, adjoint, CG and power-iteration solve on it shares it; the
radius sweeps build their own, uncached.  The forward map and the sweeps
read the field of every level that ``wave.march`` yields; the exact
adjoint marches the solver's transposed steps.  Both damp the field in
the grid's absorbing band (its ``pml_width``; none when that is 0), and
sampling goes through the shared bicubic machinery so the adjoint
identity holds to machine precision.

Every solve reads its detectors through ``_read_ahead``, which runs the
reads in order on one helper thread beside the wave steps: a forward read
of level k needs only the field of level k, which the solver never writes
again, and an adjoint back-projection ``apply_T(data[k])`` needs no field
at all.  At most ``_AHEAD`` levels past the oldest unreceived read are in
flight.  Each level still makes one read and one step with unchanged
arithmetic, and the adjoint adds each back-projection into its state in
the same order, so the results are the same bytes as a plain loop's.  A
process that may use only one CPU makes each read inline instead.

The sweep data families satisfy cylinder wave equations in the sweep
variable; the residual operations evaluate those equations with centered
differences and serve as the package's physics self-check: residuals must
shrink at second order under simultaneous lattice refinement, which
``residual_refinement_study`` measures.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from ._spline import BicubicSampler
from .field import (
    SpeedField,
    SpeedSpec,
    gaussian_phantom,
    make_grid,
    sample_speed,
    transition,
    unit_exponent,
)
from .wave import WaveSolver, check_time_step, choose_time_steps, march

_TWO_PI = 2.0 * math.pi
# the sampler's block build holds at least one ring's 16 entries per circle
# point behind int32 offsets; capping all n_theta * n_alpha points of the
# detector below 2**31 / 16 caps every ring's
_MAX_POINTS = (2**31 - 1) // 16
# reads a solve's helper thread may run past the oldest one not yet received
_AHEAD = 2


@dataclass(frozen=True)
class SmallMode:
    """Detector circles of radius r with centers on the circle of radius R;
    the imaging disc stays outside every detector disc (R - r >= 1).  Its
    sweeps vary R."""

    kind = "small"
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

    def swept(self, R: float) -> SmallMode:
        return SmallMode(R=R, r=self.r)


@dataclass(frozen=True)
class LargeMode:
    """Detector circles of radius r >= 2 with centers on the unit circle;
    the imaging disc lies inside every detector disc.  Its sweeps vary r."""

    kind = "large"
    r: float

    def __post_init__(self):
        if not 2.0 - 1e-12 <= self.r < math.inf:
            raise ValueError(f"large-detector geometry needs finite r >= 2, got r = {self.r:g}")

    @property
    def center_radius(self) -> float:
        return 1.0

    def swept(self, r: float) -> LargeMode:
        return LargeMode(r=r)


@dataclass(frozen=True)
class DetectorConfig:
    """Acquisition description: geometry, angular sampling, record window.

    ``aperture`` restricts the detector centers to the open arc (a, b);
    None means the full circle.  ``nt`` is the number of time samples on
    [0, T]; None lets the forward operator pick it from the CFL bound.
    ``plateau`` weights the record in the reconstruction misfit: the weight
    is one on [0, plateau] and falls smoothly to zero at T.  None weights
    every level by one.
    """

    mode: SmallMode | LargeMode
    n_theta: int = 180
    n_alpha: int = 256
    T: float = 5.0
    nt: int | None = None
    aperture: tuple[float, float] | None = None
    plateau: float | None = None

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
        if self.plateau is not None and not 0 < self.plateau < self.T:
            raise ValueError(f"cutoff plateau {self.plateau:g} must lie in (0, T) = "
                             f"(0, {self.T:g}): t1 must exceed t, and t must be positive")

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


# ---------------------------------------------------------------------------
# data containers


@dataclass
class Sinogram:
    """Detector readings: data[i, j] = circle average at time i*dt, angle
    theta_grid(config)[j]."""

    data: np.ndarray
    dt: float


@dataclass
class RadiusSweep:
    """A family of sinograms over a swept radius.

    data[i, j, k] is the reading at time i*dt, angle thetas[j], on the
    detector ``config.mode.swept(radii[k])``: radii[k] is the circle of
    detector centers in the small geometry, the detector radius itself in
    the large one.
    """

    data: np.ndarray
    dt: float
    thetas: np.ndarray
    radii: np.ndarray
    config: DetectorConfig


# ---------------------------------------------------------------------------
# sampling machinery shared by the forward map, the adjoint and the sweeps


def _rings(grid, modes, thetas: np.ndarray, n_alpha: int) -> np.ndarray:
    """The (theta, mode, alpha, xy) points of the detector circles: n_alpha
    equally spaced points on the circle of each mode at each angle.  Points
    that reach the grid's absorbing band are rejected.

    A mode gives the same point sequence alone as among a sweep's modes
    (this is what makes sweep columns bit-exact against forward runs).
    """
    R = np.array([m.center_radius for m in modes])[:, None]
    r = np.array([m.r for m in modes])[:, None]
    alphas = _TWO_PI * np.arange(n_alpha) / n_alpha
    cos_t = np.array([math.cos(th) for th in thetas])[:, None, None]
    sin_t = np.array([math.sin(th) for th in thetas])[:, None, None]
    # each point is R cos(theta) + r cos(alpha), R sin(theta) + r sin(alpha)
    rings = np.stack([R * cos_t + r * np.cos(alphas), R * sin_t + r * np.sin(alphas)], axis=-1)
    reach = float(np.max(np.abs(rings)))
    if reach >= grid.interior_half_width - 1e-12:
        raise ValueError(
            f"detector points reach |x| = {reach:g}, inside the absorbing band "
            f"(interior half width {grid.interior_half_width:g})"
        )
    return rings


def require_rings_clear(grid, config: DetectorConfig) -> None:
    """Reject a detector whose circle points reach the grid's absorbing band,
    as building the forward map's sampler does, without building it."""
    _rings(grid, (config.mode,), theta_grid(config), config.n_alpha)


def _build_sampler(grid, modes, thetas: np.ndarray, n_alpha: int) -> BicubicSampler:
    """Sampler whose row (j * len(modes) + i) is the mean over the ring of
    mode i at angle j (see ``_rings``): theta-major rows."""
    rings = _rings(grid, modes, thetas, n_alpha)
    return BicubicSampler(-grid.L, grid.h, grid.n, rings.reshape(-1, n_alpha, 2))


@dataclass(frozen=True, eq=False)
class MeasurementMap:
    """One measurement map's pieces: the record lattice (level k at k*dt,
    the last at T), the sampler and the WaveSolver its solves run on; the
    misfit weights and unit-disc mask, derived on first use (by recon)."""

    config: DetectorConfig
    nt: int
    dt: float
    sampler: BicubicSampler
    solver: WaveSolver

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """(nt, 1), read-only: one on [0, plateau], a monotone C-infinity
        descent to zero at T; all ones without a plateau."""
        c = self.config
        if c.plateau is None:
            w = np.ones((self.nt, 1))
        else:
            w = transition((self.dt * np.arange(self.nt) - c.plateau) / (c.T - c.plateau))[:, None]
        w.flags.writeable = False
        return w

    @functools.cached_property
    def mask(self) -> np.ndarray:
        """The grid nodes in the open unit disc, where estimates live; read-only."""
        m = self.solver.grid.radius() < 1.0
        m.flags.writeable = False
        return m


def _map(speed: SpeedField, config: DetectorConfig, sampler: BicubicSampler) -> MeasurementMap:
    if config.nt is None:
        nt, dt = choose_time_steps(speed, config.T)
    else:
        nt, dt = config.nt, config.T / (config.nt - 1)
    return MeasurementMap(config, nt, dt, sampler, WaveSolver(speed, dt))


@functools.lru_cache(maxsize=1)
def measurement_map(speed: SpeedField, config: DetectorConfig) -> MeasurementMap:
    """The measurement map of (speed, config), built once and shared by
    every forward, adjoint, CG and power-iteration solve on it.  Both keys
    compare by value (a SpeedField by its grid and spec), so each command of
    a run that samples the same speed reads the same map.  Its solver makes
    those solves serial.  The sweeps build their own maps, uncached."""
    return _map(speed, config, _build_sampler(speed.grid, (config.mode,), theta_grid(config),
                                              config.n_alpha))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _read_ahead(fn, items):
    """Yield ``fn(x)`` for each of ``items``, in order.

    The calls run on one helper thread, each under the caller's context
    (numpy's error state included) at the moment its item is pulled, and
    at most ``_AHEAD`` items are pulled past the oldest value the caller
    has not yet received.  A call's exception is re-raised in the caller.
    When the process may use only one CPU, or no thread can be started,
    each call runs inline as its value is asked for.  The thread is joined
    when the generator ends or is closed, as it is when a caller's loop
    over it finishes or raises; calls still queued then run first.
    """
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        for call in iter(todo.get, None):
            try:
                done.put((call(), None))
            except BaseException as exc:  # re-raised in the caller
                done.put((None, exc))

    def take():
        value, exc = done.get()
        if exc is not None:
            raise exc
        return value

    thread = threading.Thread(target=serve, name="ringtat-reads")
    try:
        if _usable_cpus() > 1:
            thread.start()
    except RuntimeError:  # no thread to be had: read inline
        pass
    if not thread.is_alive():
        yield from map(fn, items)
        return
    pending = 0
    try:
        for x in items:
            todo.put(functools.partial(contextvars.copy_context().run, fn, x))
            pending += 1
            if pending > _AHEAD:
                pending -= 1
                yield take()
        for _ in range(pending):
            yield take()
    finally:
        todo.put(None)
        thread.join()


def _record_forward(f, m: MeasurementMap) -> np.ndarray:
    """Row k of the record is the sampler read of the field at level k.

    The solve runs on the field scaled by 2**-e to a peak in [0.5, 1) and
    the record is scaled back by 2**e: exact in binary floating point, and a
    field of subnormal amplitude neither loses bits nor slows the solve."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("initial field not finite")
    sampler = m.sampler
    try:
        out = np.empty((m.nt, sampler.n_rows))
    except (MemoryError, ValueError):  # past memory, or past numpy's index range
        raise ValueError(f"a record of {m.nt} time levels x {sampler.n_rows} detectors "
                         "is too large to allocate") from None

    e = unit_exponent(f)
    # an overflowing field is reported once, by march's finite checks or
    # below, instead of by a numpy warning per operation
    with np.errstate(over="ignore", invalid="ignore"):
        # pending reads hold only the fields they read, not whole states
        fields = (s.u_curr for s in march(np.ldexp(f, -e), m.solver, m.nt))
        for k, row in enumerate(_read_ahead(sampler.apply, fields)):
            out[k] = row
        np.ldexp(out, e, out=out)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise FloatingPointError(f"recorded data not finite from level {k} (t = {k * m.dt:g})")
    return out


def forward_operator(f, speed: SpeedField, config: DetectorConfig) -> Sinogram:
    """The measurement map: one wave solve, every detector read at every level."""
    m = measurement_map(speed, config)
    return Sinogram(data=_record_forward(f, m), dt=m.dt)


def adjoint_operator(data: np.ndarray, speed: SpeedField, config: DetectorConfig) -> np.ndarray:
    """Exact transpose of forward_operator, mapping a sinogram-shaped array
    back to an image.

    Composes the transposes of the solver steps and of the sampling in
    reverse order; with forward_operator it passes the adjoint identity at
    machine precision (plain Euclidean inner products on both sides).
    """
    m = measurement_map(speed, config)
    sampler, solver = m.sampler, m.solver
    data = np.asarray(data, dtype=float)
    if data.shape != (m.nt, sampler.n_rows):
        raise ValueError(f"data shape {data.shape} does not match lattice {(m.nt, sampler.n_rows)}")
    # the loop owns w.u_curr: the zero state's, then each fresh step_T result
    w = solver.zero_state()
    for k, back in zip(range(m.nt - 1, -1, -1), _read_ahead(sampler.apply_T, data[::-1])):
        w.u_curr += back
        if k > 0:
            w = solver.step_T(w)
    return solver.init_state_T(w)


def _record_sweep(f, speed: SpeedField, config: DetectorConfig, geometry: type,
                  values) -> RadiusSweep:
    """One wave solve serves every radius: the detectors are passive probes
    of the same field.  Each swept mode must be a valid ``geometry``."""
    if not isinstance(config.mode, geometry):
        raise ValueError(f"a {geometry.kind}-detector sweep requires the {geometry.kind}-detector "
                         f"mode, got {config.mode.kind}")
    radii = np.asarray(sorted(values), dtype=float)
    modes = [config.mode.swept(float(x)) for x in radii]
    thetas = theta_grid(config)
    m = _map(speed, config, _build_sampler(speed.grid, modes, thetas, config.n_alpha))
    data = _record_forward(f, m).reshape(m.nt, thetas.size, radii.size)
    return RadiusSweep(data=data, dt=m.dt, thetas=thetas, radii=radii, config=config)


def sweep_small_radius(f, speed: SpeedField, config: DetectorConfig, R_values) -> RadiusSweep:
    """Record the small-geometry family P(t, theta, R) over center radii."""
    return _record_sweep(f, speed, config, SmallMode, R_values)


def sweep_large_radius(f, speed: SpeedField, config: DetectorConfig, r_values) -> RadiusSweep:
    """Record the large-geometry family P(t, theta, r) over detector radii."""
    return _record_sweep(f, speed, config, LargeMode, r_values)


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

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be at least 2 for a refinement ratio, got {self.levels}")
        if self.base_n_theta < 2:
            raise ValueError(f"base_n_theta must be at least 2 for a theta stencil, "
                             f"got {self.base_n_theta}")
        if self.base_nt < 3:
            raise ValueError(f"base_nt must be at least 3 for a time stencil, got {self.base_nt}")


class SweepLatticeError(ValueError):
    """A ``SweepSettings`` value whose study lattice cannot work; the
    message names the field."""


def _sweep_lattice(mode: SmallMode | LargeMode, s: SweepSettings, n_alpha: int, L: float,
                   pml_width: float, speed_spec: SpeedSpec) -> list[tuple]:
    """The refinement study's levels as (grid, config, radii), checked
    before any solve: the swept modes of ``mode`` at each level's radii.  A
    lattice that cannot work raises SweepLatticeError naming the
    ``SweepSettings`` field at fault."""

    def blame(key, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise SweepLatticeError(f"{key} = {getattr(s, key)}: {exc}") from exc

    levels = []
    for level in range(s.levels):
        scale = 2**level
        grid = blame("base_n", make_grid, L=L, n=(s.base_n - 1) * scale + 1, pml_width=pml_width)
        dr = _SWEEP_DELTA_R / scale
        radii = [s.base_radius - dr, s.base_radius, s.base_radius + dr]
        modes = [blame("base_radius", mode.swept, x) for x in radii]
        config = blame("base_n_theta", DetectorConfig, mode=modes[1],
                       n_theta=s.base_n_theta * scale, n_alpha=n_alpha, T=_SWEEP_DURATION,
                       nt=(s.base_nt - 1) * scale + 1)
        levels.append((grid, config, radii))
    # Level 0 sweeps the widest radii on angles every level has, so its rings
    # reach farthest.  Every level steps at level 0's Courant number; a finer
    # grid's speed can only peak higher (its nodes include level 0's), so a
    # time step within that margin of the bound still stops at its level.
    grid, config, radii = levels[0]
    blame("base_radius", _rings, grid, [mode.swept(x) for x in radii], theta_grid(config), n_alpha)
    blame("base_nt", check_time_step, sample_speed(speed_spec, grid),
          _SWEEP_DURATION / (config.nt - 1))
    return levels


def residual_refinement_study(
    mode: SmallMode | LargeMode,
    settings: SweepSettings = SweepSettings(),
    n_alpha: int = 256,
    L: float = 3.9,
    pml_width: float = 0.5,
    speed_spec: SpeedSpec | None = None,
) -> dict:
    """RMS of the radius-sweep PDE residual under simultaneous refinement.

    The study sweeps ``mode``'s family about ``settings.base_radius``; the
    mode's other radius (r of a small mode) stays fixed.  Level ``l``
    doubles the space, time, angle and radius resolution of the base
    lattice ``l`` times.  The residual of the matching second-order
    identity must shrink by about 4 per level.  A large-mode study also
    evaluates the small-geometry stencil on the same data (``rms_wrong``,
    ``ratios_wrong``), where it has no reason to decay.
    """
    if speed_spec is None:
        speed_spec = SpeedSpec()
    large = isinstance(mode, LargeMode)
    # looked up at each call, so a wrapped sweep function is the one called
    record, residual = ((sweep_large_radius, cylinder_residual_large) if large
                        else (sweep_small_radius, cylinder_residual_small))
    hs, rms, rms_wrong = [], [], []
    for grid, config, radii in _sweep_lattice(mode, settings, n_alpha, L, pml_width, speed_spec):
        speed = sample_speed(speed_spec, grid)
        phantom = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
        sweep = record(phantom, speed, config, radii)
        times = sweep.dt * np.arange(1, config.nt - 1)
        sel = (times >= _SWEEP_WINDOW[0]) & (times <= _SWEEP_WINDOW[1])
        hs.append(grid.h)
        # a field that blew up without overflowing is reported below, in one error
        with np.errstate(over="ignore", invalid="ignore"):
            resid = residual(sweep)
            rms.append(float(np.sqrt(np.mean(resid[sel] ** 2))))
            if large:
                wrong = cylinder_residual_small(sweep)
                rms_wrong.append(float(np.sqrt(np.mean(wrong[sel] ** 2))))
        if not np.isfinite([rms[-1], *rms_wrong[-1:]]).all():
            raise FloatingPointError(f"sweep residual not finite at level {len(hs) - 1}: "
                                     "the field blew up")
    out = {"h": hs, "rms": rms, "ratios": [rms[i] / rms[i + 1] for i in range(len(rms) - 1)]}
    if large:
        out["rms_wrong"] = rms_wrong
        out["ratios_wrong"] = [rms_wrong[i] / rms_wrong[i + 1]
                               for i in range(len(rms_wrong) - 1)]
    return out
