"""Iterative image recovery from circle-averaged measurements.

The data misfit is a plain sum-of-squares over the record lattice, weighted
by a smooth time cutoff when the detector config has a ``plateau``: one on
[0, plateau], falling to zero at the record end T.  Two minimizers are
provided for the weighted normal equations: Landweber (projected gradient
descent with a step chosen from a power-iteration norm estimate) and
conjugate gradients.  Both keep every iterate supported in the open unit
disc, where phantoms live by construction.

The adjoint used throughout is the exact discrete transpose of the forward
map, so convergence statements about the discrete system hold verbatim.
Both maps damp the field in the grid's absorbing band (its ``pml_width``;
none when that is 0), so no solver here takes a damping argument.  Both
solvers work on the data scaled by a power of two to a peak in [0.5, 1) and
scale the result back: exact in binary floating point, and no sum of
squares overflows or underflows at any finite data scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .detector import DetectorConfig, adjoint_operator, forward_operator, measurement_map
from .field import SpeedField, unit_exponent


@dataclass
class ReconResult:
    """Outcome of an iterative solve.

    ``estimate`` is the recovered (n, n) initial pressure on the speed's
    grid.  ``residual_history[k]`` is the weighted data-misfit norm of the
    k-th iterate (index 0 is the zero initial guess).  ``step_size`` is the
    Landweber step actually used, None for CG.
    """

    estimate: np.ndarray
    residual_history: np.ndarray
    step_size: float | None
    iterations: int


def _set_up(data, speed: SpeedField, config: DetectorConfig):
    """What both solvers start from: the data, checked against the record
    lattice and scaled by 2**-e to a peak in [0.5, 1); e; the misfit
    weights; the unit-disc mask (the last two from the measurement map)."""
    data = np.asarray(data, dtype=float)
    m = measurement_map(speed, config)
    expected = (m.nt, m.sampler.n_rows)
    if data.shape != expected:
        raise ValueError(f"data shape {data.shape} does not match lattice {expected}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise FloatingPointError(f"non-finite data value {data[idx]} at index {idx}")
    e = unit_exponent(data)
    return np.ldexp(data, -e), e, m.weights, m.mask


def _scaled_back(estimate: np.ndarray, history: list[float], step: float | None,
                 iterations: int, e: int) -> ReconResult:
    """The result of a solve on data scaled by 2**-e, scaled by 2**e."""
    top = max(float(np.max(np.abs(estimate))), max(history))
    if not math.isfinite(top) or math.frexp(top)[1] + e > 1024:  # past the largest float
        raise FloatingPointError(f"the estimate overflows at this data scale (peak about 2**{e})")
    return ReconResult(
        estimate=np.ldexp(estimate, e),
        residual_history=np.ldexp(np.array(history), e),
        step_size=step,
        iterations=iterations,
    )


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float | None:
    """|estimate - truth| / |truth| in l2, None for a zero truth.  Each norm
    is taken on its array scaled by a power of two to a peak in [0.5, 1); a
    ratio past the largest float raises FloatingPointError."""
    if not truth.any():
        return None
    e_t = unit_exponent(truth)
    e_d = max(unit_exponent(estimate), e_t)
    d = np.ldexp(estimate, -e_d) - np.ldexp(truth, -e_d)
    t = np.ldexp(truth, -e_t)
    ratio = math.sqrt(_inner(d, d)) / math.sqrt(_inner(t, t))
    try:
        return math.ldexp(ratio, e_d - e_t)
    except OverflowError:
        raise FloatingPointError(
            f"the estimate is about 2**{e_d - e_t} times the configured phantom; "
            "its relative error overflows") from None


def _require_finite(value: float, what: str, k: int) -> float:
    if not math.isfinite(value):
        raise FloatingPointError(f"{what} became non-finite ({value}) at iteration {k}")
    return value


def _misfit(chi_w: np.ndarray, resid: np.ndarray) -> float:
    return float(np.sqrt(np.sum(chi_w * resid**2)))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    # pairwise-summed reduction: bit-reproducible across BLAS thread counts
    return float(np.sum(a * b))


def _normal_apply(x: np.ndarray, speed: SpeedField, config: DetectorConfig) -> np.ndarray:
    """One application of the (masked, weighted) normal operator; the misfit
    weights and the unit-disc mask are the measurement map's."""
    m = measurement_map(speed, config)
    sino = forward_operator(x, speed, config)
    y = adjoint_operator(m.weights * sino.data, speed, config)
    y[~m.mask] = 0.0
    return y


# power iteration: the start vector is seeded, so the estimate and a
# Landweber step drawn from it are reproducible
_POWER_ITERS = 30
_POWER_TOL = 0.05
_POWER_SEED = 0

# both solvers stop once the misfit falls to this fraction of its start
_TOL = 1e-6


def operator_norm_estimate(speed: SpeedField, config: DetectorConfig) -> float:
    """Largest eigenvalue of the weighted normal operator on the unit-disc
    subspace, by power iteration: the squared norm of the measurement map.

    Returns once the Rayleigh quotient moves by less than ``_POWER_TOL``
    relative, or after ``_POWER_ITERS`` applications.
    """
    m = measurement_map(speed, config)
    rng = np.random.default_rng(_POWER_SEED)
    x = rng.standard_normal(m.mask.shape)
    x[~m.mask] = 0.0
    x /= math.sqrt(_inner(x, x))
    lam = 0.0
    for k in range(_POWER_ITERS):
        y = _normal_apply(x, speed, config)
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
    data,
    speed: SpeedField,
    config: DetectorConfig,
    iters: int = 50,
    step: float | None = None,
) -> ReconResult:
    """Projected gradient descent on the weighted least-squares misfit.

    f_{k+1} = f_k + step * adjoint(chi * (data - forward(f_k))), re-supported in
    the unit disc after every update.  With the automatic step (one over the
    power-iteration norm estimate) the recorded history is non-increasing;
    three consecutive increases abort with a diagnostic since they mean the
    step is too long for the operator at hand.  Non-finite data (checked
    before any wave solve) or a non-finite misfit raise FloatingPointError;
    a given step that is not finite and positive raises ValueError before
    any solve.  Both solvers stop early once the misfit falls to ``_TOL``
    of its initial value.
    """
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"landweber step must be finite and positive, got {step}")
    grid = speed.grid
    data, e, chi_w, mask = _set_up(data, speed, config)

    history = [_require_finite(_misfit(chi_w, data), "misfit", 0)]
    if history[0] == 0.0:
        return ReconResult(np.zeros((grid.n, grid.n)), np.array(history),
                           step if step is not None else 0.0, 0)

    if step is None:
        est = operator_norm_estimate(speed, config)
        if est <= 0.0:
            raise RuntimeError("operator norm estimate vanished; cannot pick a step")
        step = 1.0 / est

    f = np.zeros((grid.n, grid.n))
    resid = data
    rises = 0
    done = 0
    for k in range(iters):
        # a step far too long overflows the iterate: the misfit check reports
        # that in one line, so numpy's warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            g = adjoint_operator(chi_w * resid, speed, config)
            f = f + step * g
            f[~mask] = 0.0
            resid = data - forward_operator(f, speed, config).data
            misfit = _misfit(chi_w, resid)
        history.append(_require_finite(misfit, "misfit", k + 1))
        done = k + 1
        if history[-1] > history[-2]:
            rises += 1
            if rises >= 3:
                raise RuntimeError(
                    "misfit increased three iterations in a row (from "
                    f"{history[-4] / history[0]:.3e} to {history[-1] / history[0]:.3e} "
                    f"of its start); step {step:.3e} is too long"
                )
        else:
            rises = 0
        if history[-1] <= _TOL * history[0]:
            break
    return _scaled_back(f, history, step, done, e)


def cg_normal(
    data,
    speed: SpeedField,
    config: DetectorConfig,
    iters: int = 15,
) -> ReconResult:
    """Conjugate gradients on the weighted normal equations.

    Minimizes the same objective as ``landweber`` over the unit-disc
    subspace; each iteration costs one forward and one adjoint solve.  The
    misfit is recovered algebraically from tracked inner products, so the
    history costs no extra wave solves.  Non-finite data (checked before any
    wave solve), misfit or curvature raise FloatingPointError.
    """
    grid = speed.grid
    data, e, chi_w, mask = _set_up(data, speed, config)

    c0 = _require_finite(float(np.sum(chi_w * data**2)), "misfit", 0)
    history = [float(np.sqrt(c0))]
    zero = np.zeros((grid.n, grid.n))
    if c0 == 0.0:
        return ReconResult(zero, np.array(history), None, 0)

    b = adjoint_operator(chi_w * data, speed, config)
    b[~mask] = 0.0
    x = zero
    r = b.copy()
    p = r.copy()
    rs = _inner(r, r)
    done = 0
    for k in range(iters):
        np_ = _normal_apply(p, speed, config)
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
        if history[-1] <= _TOL * history[0]:
            break
        rs_new = _inner(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return _scaled_back(x, history, None, done, e)
