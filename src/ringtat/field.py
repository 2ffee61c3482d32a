"""Computational domain, sound-speed fields, initial-pressure phantoms.

All physical objects live on a square cell-centered-free node grid over
[-L, L]^2.  Sound speed is identically 1 outside the unit disc; phantoms
(initial pressure) are compactly supported strictly inside the unit disc.
The detector geometry and the ray tracer depend on both.  The first holds by
construction: every speed model is multiplied by a fixed cutoff that is
exactly 0 for |x| >= 1.  The second is enforced when a phantom component
is made.  A phantom is a sequence of components; ``make_phantom`` samples
it to the plain (n, n) array f, indexed [ix, iy], that every solver takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._spline import SplineField


def unit_exponent(a: np.ndarray) -> int:
    """The e with max|a| in [2**(e-1), 2**e); 0 for a zero array.  Scaling
    by 2**-e brings a finite array to a peak in [0.5, 1), exactly in binary
    floating point."""
    return math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]


def _require_finite(**values) -> None:
    """Reject NaN and +-inf: a NaN passes every later comparison and would
    reach the solver."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} = {value} must be finite")


# every phantom component must end this far inside the unit circle
_SUPPORT_MARGIN = 0.05


def _require_inside_disc(center, support_radius: float) -> None:
    """Reject a component reaching |x| > 1 - _SUPPORT_MARGIN: the
    reconstruction theory and the masking predictor assume supp f is
    interior."""
    reach = float(np.hypot(*center)) + support_radius
    if reach > 1.0 - _SUPPORT_MARGIN + 1e-12:
        raise ValueError(
            f"phantom component reaches |x| = {reach:g} > {1 - _SUPPORT_MARGIN:g}; "
            "support must stay strictly inside the unit disc"
        )


def _require_width(**values) -> None:
    """Reject a Gaussian width that is not positive, or whose square
    underflows to 0 and would divide 0 by 0 at the center."""
    for name, value in values.items():
        if not (value > 0 and value * value > 0):
            raise ValueError(f"{name} = {value:g} must be positive with a nonzero square")


# the unit disc, where phantoms and speed variations live, must span at
# least this many cells across
_MIN_DISC_CELLS = 4
# the sampler's (n^2, n^2) prefilter holds 9 entries per row behind int32
# offsets, so 9 n^2 must stay below 2**31
_MAX_N = math.isqrt((2**31 - 1) // 9)


@dataclass(frozen=True)
class Grid2D:
    """Uniform node grid on [-L, L]^2 with n nodes per axis.

    h = 2L/(n-1).  ``pml_width`` is the thickness (in physical units) of
    the absorbing band attached inside each edge of the domain.
    """

    L: float
    n: int
    pml_width: float = 0.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"grid too coarse: n={self.n} < 16")
        if self.n > _MAX_N:
            raise ValueError(f"grid too fine: n={self.n} > {_MAX_N}, the most the sampler's "
                             "int32 indices allow")
        # comparisons with NaN are false, so NaN fails both checks
        if not (1.0 < self.L < np.inf):
            raise ValueError(
                f"domain half width L={self.L} must be finite and exceed 1 (unit disc "
                "must be strictly interior)"
            )
        if self.h > 2.0 / _MIN_DISC_CELLS:
            raise ValueError(
                f"spacing h = 2L/(n-1) = {self.h:g} (L = {self.L:g}, n = {self.n}) leaves "
                f"the unit disc under {_MIN_DISC_CELLS} cells across; lower L or raise n"
            )
        if not (0.0 <= self.pml_width < self.L - 1.0):
            raise ValueError("pml_width must be >= 0 and leave the unit disc clear")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays indexed [ix, iy]."""
        ax = self.axis
        return np.meshgrid(ax, ax, indexing="ij")

    def radius(self) -> np.ndarray:
        X, Y = self.mesh()
        return np.hypot(X, Y)

    @property
    def interior_half_width(self) -> float:
        """Half width of the region not covered by the absorbing bands."""
        return self.L - self.pml_width


def make_grid(L: float, n: int, pml_width: float = 0.0) -> Grid2D:
    return Grid2D(L=float(L), n=int(n), pml_width=float(pml_width))


# ---------------------------------------------------------------------------
# smooth cutoff


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) continued by 0 for t <= 0; core of every smooth transition."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def transition(s) -> np.ndarray:
    """C-infinity monotone step: 1 at s<=0 falling to 0 at s>=1.

    transition(1/2) = 1/2 by symmetry of the construction.
    """
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    a = _bump(1.0 - s)
    b = _bump(s)
    return a / (a + b)


# The three speed models have fixed parameters: a contrast of 0.3, the
# sinusoid's wave numbers, the bump's width, and a cutoff that is 1 on
# |x| <= 0.8 and 0 on |x| >= 1.
_AMP = 0.3
_KX, _KY = 8.0, 5.0
_SIGMA = 0.4
_ETA_RADIUS, _ETA_TAPER = 1.0, 0.2


def _eta(X, Y) -> np.ndarray:
    """Radial C-infinity cutoff: 1 for |x| <= 0.8, 0 for |x| >= 1."""
    rho = np.hypot(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
    return transition((rho - (_ETA_RADIUS - _ETA_TAPER)) / _ETA_TAPER)


# ---------------------------------------------------------------------------
# sound speed

_SPEED_KINDS = ("constant", "sinusoidal", "radial_bump")


@dataclass(frozen=True)
class SpeedSpec:
    """Recipe for a sound-speed field.

    kind:
      * "constant"    -- c == 1, the exterior speed everywhere
      * "sinusoidal"  -- 1 + 0.3 sin(8x) cos(5y) eta(x, y), the reference
                         variable-speed model
      * "radial_bump" -- 1 + 0.3 eta(x, y) exp(-|x|^2 / (2 * 0.4^2))

    eta is the cutoff ``_eta``, so 0.7 <= c <= 1.3, and c == 1 for |x| >= 1.
    """

    kind: str = "sinusoidal"

    def __post_init__(self):
        if self.kind not in _SPEED_KINDS:
            raise ValueError(f"unknown speed kind {self.kind!r}; expected one of "
                             + ", ".join(_SPEED_KINDS))


@dataclass(frozen=True)
class SpeedField:
    """A SpeedSpec sampled on a grid; only ``sample_speed`` builds one.

    Fields compare and hash by (grid, spec): ``c`` is a function of the two,
    so equal fields hold equal speeds, and a cache keyed on a field (the
    detector's measurement map) serves every field sampled alike."""

    grid: Grid2D
    spec: SpeedSpec
    c: np.ndarray = field(compare=False, repr=False)  # (n, n), indexed [ix, iy]

    @property
    def max_c(self) -> float:
        return float(np.max(self.c))

    @cached_property
    def spline(self) -> SplineField:
        """The natural bicubic spline of ``c``, which the ray tracer reads.
        Built on first use: wave solves and sampling never need it."""
        return SplineField(-self.grid.L, self.grid.h, self.c)


def sample_speed(spec: SpeedSpec, grid: Grid2D) -> SpeedField:
    """Sample a SpeedSpec on the grid."""
    X, Y = grid.mesh()
    if spec.kind == "constant":
        c = np.ones_like(X)
    elif spec.kind == "sinusoidal":
        c = 1.0 + _AMP * np.sin(_KX * X) * np.cos(_KY * Y) * _eta(X, Y)
    else:
        c = 1.0 + _AMP * _eta(X, Y) * np.exp(-(X * X + Y * Y) / (2.0 * _SIGMA * _SIGMA))
    return SpeedField(grid=grid, spec=spec, c=c)


# ---------------------------------------------------------------------------
# phantoms


@dataclass(frozen=True)
class GaussianComponent:
    """Gaussian bump, smoothly truncated so the support is exactly 4*sigma."""

    center: tuple[float, float]
    sigma: float
    amp: float = 1.0

    def __post_init__(self):
        _require_finite(center=self.center, sigma=self.sigma, amp=self.amp)
        _require_width(sigma=self.sigma)
        _require_inside_disc(self.center, self.support_radius)

    @property
    def support_radius(self) -> float:
        return 4.0 * self.sigma


@dataclass(frozen=True)
class DiscComponent:
    """Plateau of height amp on |x-center| <= radius, tapering to 0 at radius+taper."""

    center: tuple[float, float]
    radius: float
    taper: float
    amp: float = 1.0

    def __post_init__(self):
        _require_finite(center=self.center, radius=self.radius, taper=self.taper,
                        amp=self.amp)
        if not self.radius >= 0:
            raise ValueError(f"disc radius = {self.radius:g} must be >= 0")
        if not self.taper > 0:
            raise ValueError("disc taper must be positive")
        _require_inside_disc(self.center, self.support_radius)

    @property
    def support_radius(self) -> float:
        return self.radius + self.taper


PhantomComponent = GaussianComponent | DiscComponent


def _component_values(comp: PhantomComponent, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    cx, cy = comp.center
    rho = np.hypot(X - cx, Y - cy)
    # a width near the smallest float overflows the scaled distances to inf,
    # where the limits are exact: exp(-inf) = 0 and transition clips inf to 1
    with np.errstate(over="ignore"):
        if isinstance(comp, GaussianComponent):
            vals = comp.amp * np.exp(-(rho**2) / (2.0 * comp.sigma**2))
            # exact compact support: C-inf taper over [3 sigma, 4 sigma]
            cut = transition((rho - 3.0 * comp.sigma) / comp.sigma)
            return vals * cut
        if isinstance(comp, DiscComponent):
            return comp.amp * transition((rho - comp.radius) / comp.taper)
    raise TypeError(f"unknown phantom component {type(comp).__name__}")


def make_phantom(components: Sequence[PhantomComponent], grid: Grid2D) -> np.ndarray:
    """Sample a phantom on the grid: the (n, n) sum of its components, each
    of which sits strictly inside the unit disc by construction.  No
    components yield the zero phantom; a sum past the largest float is
    refused."""
    X, Y = grid.mesh()
    f = np.zeros_like(X)
    with np.errstate(over="ignore"):  # reported below, in one error
        for comp in components:
            f += _component_values(comp, X, Y)
    if not np.all(np.isfinite(f)):
        raise ValueError("the components sum past the largest float on the grid")
    return f


def gaussian_phantom(
    grid: Grid2D,
    center: tuple[float, float] = (0.0, 0.0),
    sigma: float = 0.1,
) -> np.ndarray:
    return make_phantom([GaussianComponent(center=center, sigma=sigma)], grid)


# ---------------------------------------------------------------------------
# covectors and edge extraction


@dataclass(frozen=True)
class Covector:
    """Phase-space sample (y, xi): position inside the unit disc plus direction.

    ``magnitude`` is the frequency-like scale |xi|; the stored ``xi`` is kept
    unit length.
    """

    y: tuple[float, float]
    xi: tuple[float, float]
    magnitude: float = 1.0

    def __post_init__(self):
        # comparisons with NaN are false, so NaN fails each check
        if not np.hypot(*self.y) < 1.0:
            raise ValueError("covector base point must lie inside the unit disc")
        nx = float(np.hypot(*self.xi))
        if not 0.0 < nx < np.inf:
            raise ValueError("covector direction must be nonzero and finite")
        if not 0.0 < self.magnitude < np.inf:
            raise ValueError("covector magnitude must be positive and finite")
        object.__setattr__(self, "xi", (self.xi[0] / nx, self.xi[1] / nx))


def gradient_magnitude(f: np.ndarray, grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference gradient (gx, gy) and its magnitude, of the
    phantom f on the grid scaled by 2**-e to a peak in [0.5, 1): the scaling
    is exact, so the directions and magnitude ratios that edge extraction
    reads do not depend on the amplitude, and no difference overflows.  An
    f that is not the grid's (n, n) is refused: its nodes are not the grid's."""
    if np.shape(f) != (grid.n, grid.n):
        raise ValueError(f"phantom shape {np.shape(f)} is not the grid's {(grid.n, grid.n)}")
    h = grid.h
    f = np.ldexp(f, -unit_exponent(f))
    gx = np.zeros_like(f)
    gy = np.zeros_like(f)
    gx[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2.0 * h)
    gy[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * h)
    return gx, gy, np.hypot(gx, gy)


def phantom_edges(
    f: np.ndarray,
    grid: Grid2D,
    threshold: float = 0.5,
    stride: int = 1,
    max_count: int | None = None,
) -> list[Covector]:
    """Extract edge covectors of the phantom f on the grid: nodes where
    |grad f| >= threshold * max |grad f|.

    Each retained node contributes two covectors, one along +grad and one
    along -grad.  ``stride`` subsamples the node lattice; ``max_count`` caps
    the number of node positions (uniform thinning, deterministic).
    """
    if not (0 < threshold < 1):
        raise ValueError("threshold must lie in (0, 1)")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if max_count is not None and max_count < 1:
        raise ValueError(f"max_count must be at least 1, got {max_count}")
    gx, gy, mag = gradient_magnitude(f, grid)
    peak = float(np.max(mag))
    if peak == 0.0:
        return []
    ax = grid.axis
    ii, jj = np.nonzero(mag >= threshold * peak)
    if stride > 1:
        keep = (ii % stride == 0) & (jj % stride == 0)
        ii, jj = ii[keep], jj[keep]
    if max_count is not None and len(ii) > max_count:
        sel = np.linspace(0, len(ii) - 1, max_count).astype(int)
        ii, jj = ii[sel], jj[sel]
    out: list[Covector] = []
    for i, j in zip(ii, jj):
        y = (float(ax[i]), float(ax[j]))
        if np.hypot(*y) >= 1.0:
            continue
        g = (float(gx[i, j]), float(gy[i, j]))
        out.append(Covector(y=y, xi=g))
        out.append(Covector(y=y, xi=(-g[0], -g[1])))
    return out
