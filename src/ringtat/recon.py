"""Iterative image recovery from circle-averaged measurements.

The data misfit is a plain sum-of-squares over the record lattice, optionally
weighted by a smooth time cutoff that is one on an initial window and falls
to zero smoothly before the record ends.  Two minimizers are provided for the
weighted normal equations: Landweber (projected gradient descent with a step
chosen from a power-iteration norm estimate) and conjugate gradients.  Both
keep every iterate supported in the open unit disc, where phantoms live by
construction.

The adjoint used throughout is the exact discrete transpose of the forward
map, so convergence statements about the discrete system hold verbatim.
Both maps damp the field in the grid's absorbing band (its ``pml_width``;
none when that is 0), so no solver here takes a damping argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .detector import (
    DetectorConfig,
    Sinogram,
    _time_lattice,
    adjoint_operator,
    forward_operator,
    theta_grid,
)
from .field import Phantom, SpeedField, transition
from .wave import laplacian

__all__ = [
    "ReconResult",
    "time_cutoff_chi",
    "adjoint_operator",
    "operator_norm_estimate",
    "landweber",
    "cg_normal",
]


def time_cutoff_chi(T: float, T1: float, nt: int, dt: float) -> np.ndarray:
    """The smooth record weighting sampled on the record lattice t_i = i*dt,
    i < nt: one on [0, T], a monotone C-infinity descent on [T, T1], zero
    from T1 on.  Returns the (nt,) weights."""
    if not 0.0 < T < T1:
        raise ValueError(f"cutoff needs 0 < T < T1, got T={T:g}, T1={T1:g}")
    if T1 > (nt - 1) * dt + 1e-12:
        raise ValueError("cutoff support must end inside the record window")
    t = dt * np.arange(nt)
    return transition((t - T) / (T1 - T))


@dataclass
class ReconResult:
    """Outcome of an iterative solve.

    ``residual_history[k]`` is the weighted data-misfit norm of the k-th
    iterate (index 0 is the zero initial guess); with a roughness penalty it
    is the full objective norm.  ``step_size`` is the Landweber step actually
    used, None for CG.
    """

    estimate: Phantom
    residual_history: np.ndarray
    step_size: float | None
    iterations: int


def _support_mask(grid) -> np.ndarray:
    return grid.radius() < 1.0


def _as_data(s, speed: SpeedField, config: DetectorConfig) -> np.ndarray:
    data = s.data if isinstance(s, Sinogram) else np.asarray(s, dtype=float)
    nt, _ = _time_lattice(speed, config)
    expected = (nt, theta_grid(config).size)
    if data.shape != expected:
        raise ValueError(f"data shape {data.shape} does not match lattice {expected}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise FloatingPointError(f"non-finite data value {data[idx]} at index {idx}")
    return data


def _require_finite(value: float, what: str, k: int) -> float:
    if not math.isfinite(value):
        raise FloatingPointError(f"{what} became non-finite ({value}) at iteration {k}")
    return value


def _chi_column(cutoff: np.ndarray | None, nt: int) -> np.ndarray:
    if cutoff is None:
        return np.ones((nt, 1))
    w = np.asarray(cutoff, dtype=float)
    if w.shape != (nt,):
        raise ValueError(f"cutoff has {w.shape[0]} weights, record lattice has {nt}")
    return w[:, None]


def _misfit(chi_w: np.ndarray, resid: np.ndarray) -> float:
    return float(np.sqrt(np.sum(chi_w * resid**2)))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    # pairwise-summed reduction: bit-reproducible across BLAS thread counts
    return float(np.sum(a * b))


def _normal_apply(
    x: np.ndarray,
    speed: SpeedField,
    config: DetectorConfig,
    chi_w: np.ndarray,
    mask: np.ndarray,
    tikhonov: float = 0.0,
) -> np.ndarray:
    """One application of the (masked, weighted) normal operator."""
    sino = forward_operator(x, speed, config)
    y = adjoint_operator(chi_w * sino.data, speed, config)
    if tikhonov:
        y = y - tikhonov * laplacian(x, speed.grid.h)
    y[~mask] = 0.0
    return y


# power iteration: the start vector is seeded, so the estimate and a
# Landweber step drawn from it are reproducible
_POWER_ITERS = 30
_POWER_TOL = 0.05
_POWER_SEED = 0


def operator_norm_estimate(
    speed: SpeedField,
    config: DetectorConfig,
    cutoff: np.ndarray | None = None,
    tikhonov: float = 0.0,
) -> float:
    """Largest eigenvalue of the weighted normal operator on the unit-disc
    subspace, by power iteration: the squared norm of the measurement map.
    A roughness penalty, when given, is part of the iterated operator so the
    estimate bounds the actual descent operator.

    Returns once the Rayleigh quotient moves by less than ``_POWER_TOL``
    relative, or after ``_POWER_ITERS`` applications.
    """
    grid = speed.grid
    mask = _support_mask(grid)
    nt, _ = _time_lattice(speed, config)
    chi_w = _chi_column(cutoff, nt)
    rng = np.random.default_rng(_POWER_SEED)
    x = rng.standard_normal((grid.n, grid.n))
    x[~mask] = 0.0
    x /= math.sqrt(_inner(x, x))
    lam = 0.0
    for k in range(_POWER_ITERS):
        y = _normal_apply(x, speed, config, chi_w, mask, tikhonov=tikhonov)
        lam_new = _inner(x, y)
        norm_y = math.sqrt(_inner(y, y))
        if norm_y == 0.0:
            return 0.0
        x = y / norm_y
        if k > 0 and abs(lam_new - lam) <= _POWER_TOL * abs(lam_new):
            return lam_new
        lam = lam_new
    return lam


def landweber(
    s,
    speed: SpeedField,
    config: DetectorConfig,
    iters: int = 50,
    step: float | None = None,
    cutoff: np.ndarray | None = None,
    tol: float = 1e-6,
    tikhonov: float = 0.0,
) -> ReconResult:
    """Projected gradient descent on the weighted least-squares misfit.

    f_{k+1} = f_k + step * adjoint(chi * (s - forward(f_k))), re-supported in
    the unit disc after every update.  With the automatic step (one over the
    power-iteration norm estimate) the recorded history is non-increasing;
    three consecutive increases abort with a diagnostic since they mean the
    step is too long for the operator at hand.  With a roughness penalty the
    history tracks the full objective, the quantity descent actually lowers.
    Non-finite data (checked before any wave solve) or a non-finite misfit
    raise FloatingPointError; a given step that is not finite and positive
    raises ValueError before any solve.
    """
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"landweber step must be finite and positive, got {step}")
    grid = speed.grid
    data = _as_data(s, speed, config)
    nt, _ = _time_lattice(speed, config)
    chi_w = _chi_column(cutoff, nt)
    mask = _support_mask(grid)

    history = [_require_finite(_misfit(chi_w, data), "misfit", 0)]
    if history[0] == 0.0:
        zero = Phantom(grid=grid, f=np.zeros((grid.n, grid.n)))
        return ReconResult(zero, np.array(history), step if step is not None else 0.0, 0)

    if step is None:
        est = operator_norm_estimate(speed, config, cutoff=cutoff, tikhonov=tikhonov)
        if est <= 0.0:
            raise RuntimeError("operator norm estimate vanished; cannot pick a step")
        step = 1.0 / est

    def objective(img, resid):
        m2 = float(np.sum(chi_w * resid**2))
        if tikhonov:
            m2 += tikhonov * _inner(img, -laplacian(img, grid.h))
        return float(np.sqrt(m2))

    f = np.zeros((grid.n, grid.n))
    resid = data
    rises = 0
    done = 0
    for k in range(iters):
        g = adjoint_operator(chi_w * resid, speed, config)
        if tikhonov:
            g = g + tikhonov * laplacian(f, grid.h)
        f = f + step * g
        f[~mask] = 0.0
        resid = data - forward_operator(f, speed, config).data
        history.append(_require_finite(objective(f, resid), "misfit", k + 1))
        done = k + 1
        if history[-1] > history[-2]:
            rises += 1
            if rises >= 3:
                raise RuntimeError(
                    "misfit increased three iterations in a row "
                    f"(last values {history[-4]:.3e} -> {history[-1]:.3e}); "
                    f"step {step:.3e} is too long"
                )
        else:
            rises = 0
        if history[-1] <= tol * history[0]:
            break
    return ReconResult(
        estimate=Phantom(grid=grid, f=f),
        residual_history=np.array(history),
        step_size=step,
        iterations=done,
    )


def cg_normal(
    s,
    speed: SpeedField,
    config: DetectorConfig,
    iters: int = 15,
    tol: float = 1e-6,
    cutoff: np.ndarray | None = None,
    tikhonov: float = 0.0,
) -> ReconResult:
    """Conjugate gradients on the weighted normal equations.

    Minimizes the same objective as ``landweber`` over the unit-disc
    subspace; each iteration costs one forward and one adjoint solve.  The
    misfit is recovered algebraically from tracked inner products, so the
    history costs no extra wave solves.  Non-finite data (checked before any
    wave solve), misfit or curvature raise FloatingPointError.
    """
    grid = speed.grid
    data = _as_data(s, speed, config)
    nt, _ = _time_lattice(speed, config)
    chi_w = _chi_column(cutoff, nt)
    mask = _support_mask(grid)

    c0 = _require_finite(float(np.sum(chi_w * data**2)), "misfit", 0)
    history = [float(np.sqrt(c0))]
    zero = np.zeros((grid.n, grid.n))
    if c0 == 0.0:
        return ReconResult(Phantom(grid=grid, f=zero), np.array(history), None, 0)

    b = adjoint_operator(chi_w * data, speed, config)
    b[~mask] = 0.0
    x = zero
    r = b.copy()
    p = r.copy()
    rs = _inner(r, r)
    done = 0
    for k in range(iters):
        np_ = _normal_apply(p, speed, config, chi_w, mask, tikhonov=tikhonov)
        curv = _require_finite(_inner(p, np_), "curvature", k + 1)
        if not curv > 1e-30 * _inner(p, p):
            raise RuntimeError("curvature vanished along the search direction")
        alpha = rs / curv
        x = x + alpha * p
        r = r - alpha * np_
        # misfit^2 = c0 - <b,x> - <x,r> on the exact quadratic; rounding can
        # push it a hair below zero near convergence
        m2 = _require_finite(c0 - _inner(b, x) - _inner(x, r), "misfit", k + 1)
        history.append(float(np.sqrt(max(m2, 0.0))))
        done = k + 1
        if history[-1] <= tol * history[0]:
            break
        rs_new = _inner(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return ReconResult(
        estimate=Phantom(grid=grid, f=x),
        residual_history=np.array(history),
        step_size=None,
        iterations=done,
    )
