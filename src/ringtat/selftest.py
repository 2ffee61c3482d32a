"""Built-in numerical checks, shared by ``ringtat selftest`` and the acceptance gate.

Each check returns ``(ok, detail)``: whether its bound holds, and one line
of measured values against that bound.  ``CHECKS`` is the ordered registry
of ``(name, level, check)`` entries that ``run_checks`` walks: ``quick``
entries run at every level, ``full`` entries only at the full level.  The
full level runs two refinement studies, one per geometry, and reads three
check lines off them: the large-geometry study serves both its own
convergence line and the wrong-stencil discrimination line.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .detector import (
    DetectorConfig,
    LargeMode,
    SmallMode,
    SweepSettings,
    adjoint_operator,
    forward_operator,
    measurement_map,
    residual_refinement_study,
)
from .field import Covector, SpeedSpec, gaussian_phantom, make_grid, sample_speed, transition
from .rays import trace_geodesic
from .wave import WaveSolver, cfl_limit, choose_time_steps, energy, solve_forward

# second order: the matching residual shrinks about 4x per halving; the
# wrong stencil must not come close
RATIO_RANGE = (3.2, 4.8)
WRONG_STENCIL_BELOW = 3.2
STUDY = SweepSettings(levels=3)


def adjoint_identity(*mode_kinds: str) -> tuple[bool, str]:
    """Worst relative mismatch of <M f, g> and <f, M^T g> over five seeded
    random pairs (f, g) on a 64^2 grid with 16 detectors, for each geometry
    in ``mode_kinds``."""
    n, n_theta = 64, 16
    worst = 0.0
    for kind in mode_kinds:
        small = kind == "small"
        grid = make_grid(L=3.6 if small else 3.8, n=n, pml_width=0.7)
        mode = SmallMode(R=2.0, r=0.8) if small else LargeMode(r=2.0)
        speed = sample_speed(SpeedSpec(), grid)
        config = DetectorConfig(mode=mode, n_theta=n_theta, n_alpha=64, T=0.8)
        nt = measurement_map(speed, config).nt
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = rng.standard_normal((n, n))
            g = rng.standard_normal((nt, n_theta))
            Mf = forward_operator(f, speed, config).data
            Mtg = adjoint_operator(g, speed, config)
            lhs = float(np.sum(Mf * g))
            rhs = float(np.sum(f * Mtg))
            denom = float(np.sqrt(np.sum(Mf**2)) * np.sqrt(np.sum(g**2)))
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst <= 1e-10, f"rel={worst:.3e} bound=1e-10"


def ray_straight_line() -> tuple[bool, str]:
    """At unit speed a ray from the origin along x stays on x = t, y = 0,
    and its straight exterior continuation ends at (4, 0) at t = 4."""
    grid = make_grid(L=3.0, n=65)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    path = trace_geodesic(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, t_max=4.0)
    worst = max(abs(s.x[1]) + abs(s.x[0] - s.t) for s in path.states)
    end = path.exterior_point(4.0)
    worst = max(worst, abs(end[0] - 4.0) + abs(end[1]))
    return worst <= 1e-8, f"deviation={worst:.3e} bound=1e-8"


def ray_hamiltonian() -> tuple[bool, str]:
    """The metric speed c(x)|p| stays 1 along a variable-speed ray inside
    the unit disc, traced at the default RK4 step: this bound is what
    limits that step (drift 9.6e-7 at 0.01, 2.3e-5 at 0.02)."""
    grid = make_grid(L=3.0, n=161)
    speed = sample_speed(SpeedSpec(), grid)
    path = trace_geodesic(Covector(y=(0.3, -0.2), xi=(0.6, 0.8)), speed, t_max=4.0)
    worst = 0.0
    for s in path.states:
        if math.hypot(*s.x) < 1.0:
            c = float(speed.spline.value(s.x[None, :])[0])
            worst = max(worst, abs(c * math.hypot(*s.p) - 1.0))
    return worst <= 1e-6, f"drift={worst:.3e} bound=1e-6"


def energy_conservation(steps: int) -> tuple[bool, str]:
    """Relative drift of the discrete energy over ``steps`` undamped steps."""
    grid = make_grid(L=1.5, n=129)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    f = gaussian_phantom(grid, sigma=0.15)
    solver = WaveSolver(speed, 0.5 * cfl_limit(speed))
    state = solver.init_state(f)
    e0 = energy(state.u_curr, state.u_prev, state.dt, speed)
    worst = 0.0
    for _ in range(steps):
        state = solver.step(state)
        worst = max(worst, abs(energy(state.u_curr, state.u_prev, state.dt, speed) - e0) / e0)
    return worst <= 1e-3, f"drift={worst:.3e} over {steps} steps, bound=1e-3"


def pml_reflection() -> tuple[bool, str]:
    """Energy the absorbing band reflects back into B_0.9, relative to the
    initial energy, against a closed domain twice as wide on the same
    lattice (where nothing has come back yet).

    The run lasts until T = 2.4: a front reflected off the outer wall at
    L = 1.6 re-enters B_1 from about t = 1.8 on, so without the band the
    ratio is of order 0.1, while the closed reference has no return
    before t = 5."""
    grid_a = make_grid(L=1.6, n=161, pml_width=0.5)
    grid_c = make_grid(L=3.2, n=321)
    speed_a = sample_speed(SpeedSpec(kind="constant"), grid_a)
    speed_c = sample_speed(SpeedSpec(kind="constant"), grid_c)
    f_a = gaussian_phantom(grid_a, sigma=0.1)
    f_c = gaussian_phantom(grid_c, sigma=0.1)
    T = 2.4
    nt, dt = choose_time_steps(speed_c, T)
    solver_a = WaveSolver(speed_a, dt)
    ref = solve_forward(f_c, WaveSolver(speed_c, dt), nt)
    absorbed = solve_forward(f_a, solver_a, nt)
    lo = (grid_c.n - grid_a.n) // 2
    sl = slice(lo, lo + grid_a.n)
    du = absorbed.u_curr - ref.u_curr[sl, sl]
    dp = absorbed.u_prev - ref.u_prev[sl, sl]
    w = transition((grid_a.radius() - 0.9) / 0.1)  # 1 inside B_0.9, 0 past B_1
    e_diff = energy(du * w, dp * w, dt, speed_a)
    start = solver_a.init_state(f_a)
    e0 = energy(start.u_curr, start.u_prev, dt, speed_a)
    ratio = e_diff / e0
    return ratio <= 1e-3, f"reflected energy ratio={ratio:.3e} bound=1e-3"


def residual_convergence(study: dict) -> tuple[bool, str]:
    """Every refinement ratio of the matching residual lies in RATIO_RANGE."""
    lo, hi = RATIO_RANGE
    ok = all(lo <= r <= hi for r in study["ratios"])
    return ok, "ratios=" + ",".join(f"{r:.2f}" for r in study["ratios"]) + f" want [{lo},{hi}]"


def residual_discrimination(study: dict) -> tuple[bool, str]:
    """Every refinement ratio of the wrong (small-geometry) stencil on
    large-geometry data stays below WRONG_STENCIL_BELOW."""
    ok = all(r < WRONG_STENCIL_BELOW for r in study["ratios_wrong"])
    return ok, ("wrong-stencil ratios=" + ",".join(f"{r:.2f}" for r in study["ratios_wrong"])
                + f" want < {WRONG_STENCIL_BELOW}")


class _Run:
    """What the checks of one ``run_checks`` call share: the level and the
    refinement studies, each run at most once."""

    def __init__(self, level: str):
        self.full = level == "full"
        self.study = functools.cache(lambda kind: residual_refinement_study(kind, STUDY))


CHECKS = (
    ("adjoint_small", "quick", lambda run: adjoint_identity("small")),
    ("adjoint_large", "quick", lambda run: adjoint_identity("large")),
    ("ray_straight_line", "quick", lambda run: ray_straight_line()),
    ("ray_hamiltonian", "quick", lambda run: ray_hamiltonian()),
    ("energy_conservation", "quick",
     lambda run: energy_conservation(1000 if run.full else 300)),
    ("pml_reflection", "quick", lambda run: pml_reflection()),
    ("residual_convergence_small", "full",
     lambda run: residual_convergence(run.study("small"))),
    ("residual_convergence_large", "full",
     lambda run: residual_convergence(run.study("large"))),
    ("residual_discrimination", "full",
     lambda run: residual_discrimination(run.study("large"))),
)


def run_checks(level: str = "quick"):
    """Run the registry in order up to ``level`` ("quick" or "full"),
    yielding ``(name, ok, detail)`` as each check finishes."""
    run = _Run(level)
    for name, check_level, check in CHECKS:
        if check_level == "quick" or run.full:
            ok, detail = check(run)
            yield name, ok, detail
