"""Computational domain, sound-speed fields, initial-pressure phantoms.

All physical objects live on a square cell-centered-free node grid over
[-L, L]^2.  Sound speed is identically 1 outside the unit disc; phantoms
(initial pressure) are compactly supported strictly inside the unit disc.
Both constraints are enforced at construction time because the detector
geometry and the ray tracer depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._spline import SplineField


def _require_finite(**values) -> None:
    """Reject NaN and +-inf: a NaN passes every later comparison and would
    reach the solver."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} = {value} must be finite")


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


def smooth_cutoff_eta(radius: float = 1.0, taper: float = 0.2) -> Callable:
    """Radial C-infinity cutoff: 1 for |x| <= radius - taper, 0 for |x| >= radius.

    Returns a callable eta(X, Y) acting elementwise on coordinate arrays.
    """
    if not (0 < taper < radius <= 1.0):
        raise ValueError("need 0 < taper < radius <= 1")
    r_in = radius - taper

    def eta(X, Y):
        rho = np.hypot(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
        return transition((rho - r_in) / taper)

    return eta


# ---------------------------------------------------------------------------
# sound speed


@dataclass(frozen=True)
class SpeedSpec:
    """Recipe for a sound-speed field.

    kind:
      * "constant"    -- c == 1, the exterior speed everywhere; the other
                         fields do not apply
      * "sinusoidal"  -- 1 + amp * sin(kx*x) * cos(ky*y) * eta(x, y); the
                         defaults give the reference variable-speed model
      * "radial_bump" -- 1 + amp * eta(x, y) * exp(-|x|^2 / (2 sigma^2))
    """

    kind: str = "sinusoidal"
    amp: float = 0.3
    kx: float = 8.0
    ky: float = 5.0
    sigma: float = 0.4
    eta_radius: float = 1.0
    eta_taper: float = 0.2

    def __post_init__(self):
        _require_finite(amp=self.amp, kx=self.kx, ky=self.ky, sigma=self.sigma,
                        eta_radius=self.eta_radius, eta_taper=self.eta_taper)


@dataclass(frozen=True)
class SpeedField:
    grid: Grid2D
    c: np.ndarray  # (n, n), indexed [ix, iy]

    @property
    def max_c(self) -> float:
        return float(np.max(self.c))

    @cached_property
    def spline(self) -> SplineField:
        """The natural bicubic spline of ``c``, which the ray tracer reads.
        Built on first use: wave solves and sampling never need it."""
        return SplineField(-self.grid.L, self.grid.h, self.c)


# permissive bound used only to reject wildly rough fields
_SPEED_LAPLACIAN_BOUND = 1.0e3


def sample_speed(spec: SpeedSpec, grid: Grid2D) -> SpeedField:
    """Sample a SpeedSpec on the grid and validate the field invariants."""
    X, Y = grid.mesh()
    eta = smooth_cutoff_eta(spec.eta_radius, spec.eta_taper)
    if spec.kind == "constant":
        c = np.ones_like(X)
    elif spec.kind == "sinusoidal":
        c = 1.0 + spec.amp * np.sin(spec.kx * X) * np.cos(spec.ky * Y) * eta(X, Y)
    elif spec.kind == "radial_bump":
        rho2 = X * X + Y * Y
        c = 1.0 + spec.amp * eta(X, Y) * np.exp(-rho2 / (2.0 * spec.sigma**2))
    else:
        raise ValueError(f"unknown speed kind {spec.kind!r}")

    if np.min(c) <= 0:
        raise ValueError(f"speed spec produces min c = {np.min(c):g} <= 0")
    rho = np.hypot(X, Y)
    outside = rho >= 1.0
    dev = np.max(np.abs(c[outside] - 1.0)) if np.any(outside) else 0.0
    if dev > 1e-12:
        raise ValueError(f"speed deviates from 1 outside the unit disc by {dev:g}")
    h2 = grid.h**2
    lap = np.zeros_like(c)
    lap[1:-1, 1:-1] = (
        c[2:, 1:-1] + c[:-2, 1:-1] + c[1:-1, 2:] + c[1:-1, :-2] - 4.0 * c[1:-1, 1:-1]
    ) / h2
    if np.max(np.abs(lap)) > _SPEED_LAPLACIAN_BOUND:
        raise ValueError("speed field is too rough (discrete Laplacian bound exceeded)")
    return SpeedField(grid=grid, c=c)


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
        # a square that underflows to 0 would divide 0 by 0 at the center
        if not self.sigma * self.sigma > 0:
            raise ValueError(f"gaussian sigma must be positive with a nonzero square, "
                             f"got {self.sigma:g}")

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
        if not self.taper > 0:
            raise ValueError("disc taper must be positive")

    @property
    def support_radius(self) -> float:
        return self.radius + self.taper


PhantomComponent = GaussianComponent | DiscComponent


@dataclass(frozen=True)
class PhantomSpec:
    components: tuple[PhantomComponent, ...]

    def __init__(self, components: Sequence[PhantomComponent]):
        object.__setattr__(self, "components", tuple(components))


@dataclass(frozen=True)
class Phantom:
    grid: Grid2D
    f: np.ndarray  # (n, n), indexed [ix, iy]


# every phantom component must end this far inside the unit circle
_SUPPORT_MARGIN = 0.05


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


def make_phantom(spec: PhantomSpec, grid: Grid2D) -> Phantom:
    """Sample a phantom.  Every component must sit strictly inside the unit disc.

    A component reaching |x| > 1 - _SUPPORT_MARGIN is rejected: the reconstruction
    theory and the masking predictor assume supp f is interior.  An empty
    spec yields the zero phantom.
    """
    X, Y = grid.mesh()
    f = np.zeros_like(X)
    for comp in spec.components:
        cx, cy = comp.center
        reach = float(np.hypot(cx, cy)) + comp.support_radius
        if reach > 1.0 - _SUPPORT_MARGIN + 1e-12:
            raise ValueError(
                f"phantom component reaches |x| = {reach:g} > {1 - _SUPPORT_MARGIN:g}; "
                "support must stay strictly inside the unit disc"
            )
        f += _component_values(comp, X, Y)
    return Phantom(grid=grid, f=f)


def gaussian_phantom(
    grid: Grid2D,
    center: tuple[float, float] = (0.0, 0.0),
    sigma: float = 0.1,
) -> Phantom:
    return make_phantom(PhantomSpec([GaussianComponent(center=center, sigma=sigma)]), grid)


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
        yx, yy = self.y
        if np.hypot(yx, yy) >= 1.0:
            raise ValueError("covector base point must lie inside the unit disc")
        nx = float(np.hypot(*self.xi))
        if nx == 0.0:
            raise ValueError("covector direction must be nonzero")
        if self.magnitude <= 0:
            raise ValueError("covector magnitude must be positive")
        object.__setattr__(self, "xi", (self.xi[0] / nx, self.xi[1] / nx))

    @property
    def y_arr(self) -> np.ndarray:
        return np.array(self.y, dtype=float)

    @property
    def xi_arr(self) -> np.ndarray:
        return np.array(self.xi, dtype=float)


def gradient_magnitude(p: Phantom) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference gradient (gx, gy) and its magnitude."""
    h = p.grid.h
    gx = np.zeros_like(p.f)
    gy = np.zeros_like(p.f)
    gx[1:-1, :] = (p.f[2:, :] - p.f[:-2, :]) / (2.0 * h)
    gy[:, 1:-1] = (p.f[:, 2:] - p.f[:, :-2]) / (2.0 * h)
    return gx, gy, np.hypot(gx, gy)


def phantom_edges(
    p: Phantom,
    threshold: float = 0.5,
    stride: int = 1,
    max_count: int | None = None,
) -> list[Covector]:
    """Extract edge covectors: nodes where |grad f| >= threshold * max |grad f|.

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
    gx, gy, mag = gradient_magnitude(p)
    peak = float(np.max(mag))
    if peak == 0.0:
        return []
    ax = p.grid.axis
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
