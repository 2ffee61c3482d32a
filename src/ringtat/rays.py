"""Geodesic tracing and the event geometry of circular detectors.

Singularities travel along unit-speed geodesics of the metric with line
element dx/c.  A traced ray leaves the unit disc, continues as an exact
straight line (the speed is one outside), and produces detector readings
exactly where it crosses a detector circle through that circle's center:
such crossings are perpendicular, which is what makes them visible in the
data.  One rule serves both geometries and yields two crossings per time
direction: the near and far side of the one center ahead in the small
geometry, and the far side of each of the two centers the ray's line meets
in the large geometry (the exit point and the center behind it).

The visibility classifier follows the masked-singularity rule: an event is
useless when another wavefront sample produces an event at the mirror point
of the same circle at the same time, because the two contributions cannot be
separated in circle-averaged data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectorConfig
from .field import Covector, SpeedField

_TWO_PI = 2.0 * math.pi

# the RK4 step of every trace that does not pass one; trace_geodesic says
# why it is 0.01
DEFAULT_RAY_STEP = 0.01


@dataclass
class RayPath:
    """Result of tracing one covector in one time direction.

    ``states`` samples the interior leg: a C-order float64 array of shape
    (steps + 1, 5), one row (x0, x1, p0, p1, t) of position, momentum
    covector and elapsed time per RK4 step, the start included.  The exact
    flow keeps c(x)|p| at one; at the default step the traced value stays
    within 1e-6 of one on ``selftest.ray_hamiltonian``'s ray and within
    about 2e-5 on random rays inside the disc, far below what the
    visibility verdicts need.  If the ray escaped the unit disc,
    (``x_exit``, ``t_exit``, ``v_exit``) give the exit point, exit time and
    unit direction of the straight exterior continuation
    gamma(t) = x_exit + (t - t_exit) * v_exit.
    """

    covector: Covector
    sigma: int
    c_start: float
    states: np.ndarray
    escaped: bool
    x_exit: np.ndarray | None = None
    t_exit: float | None = None
    v_exit: np.ndarray | None = None

    def exterior_point(self, t: float) -> np.ndarray:
        if not self.escaped:
            raise ValueError("ray never left the unit disc")
        return self.x_exit + (t - self.t_exit) * self.v_exit


@dataclass(frozen=True)
class DetectionEvent:
    """One perpendicular crossing of a detector circle with center z.

    ``branch`` is 1 for the crossing r before the center passage, which
    enters the detector disc (v.n = -1, v the ray's direction and n the
    circle's outward normal at ``point``), and 2 for the one r after it,
    which leaves the disc (v.n = +1); large-mode events are all branch 2.
    ``lam`` is the fiber variable of the circle-mean phase
    lam * (r^2 - |x - z|^2), read on the ray's exterior momentum
    c(y)|xi| v: its x-gradient -2 lam r n equals that momentum, so
    lam = -c(y)|xi| (v.n) / (2r), positive on branch 1 and negative on
    branch 2.  ``tau`` is the time frequency -sigma c(y)|xi|, which carries
    the time direction; ``omega`` is the angular frequency 2-vector, zero
    for radial crossings.  ``point`` is the crossing location.
    """

    sigma: int
    branch: int
    t_det: float
    theta: float
    lam: float
    tau: float
    omega: np.ndarray
    point: np.ndarray


def trace_geodesic(
    start: Covector,
    speed: SpeedField,
    sigma: int = 1,
    t_max: float = 6.0,
    h_ray: float = DEFAULT_RAY_STEP,
) -> RayPath:
    """Integrate the unit-speed geodesic issued from a covector.

    Fourth-order Runge-Kutta on xdot = c^2 p, pdot = -c |p|^2 grad c, with
    the speed and its gradient read from ``speed.spline``, the bicubic
    interpolant of the sampled field, which every trace on the same field
    shares.  Momentum starts at sigma * xi / c, so c|p| = 1 along the
    exact flow.  Integration stops at the first sample outside the closed
    unit disc; the exit point is then refined along the last segment and the
    exterior continuation is an exact straight line.  A ray still inside the
    disc at t_max is reported as non-escaping.  The interpolant is queried
    once per RK4 stage and once at the start, one point per query, and each
    query's (c, grad c) float triple is unpacked as it comes.

    The default step ``DEFAULT_RAY_STEP`` = 0.01 is the largest the checks
    allow.  Visibility matches events to within two grid steps (0.11 on
    129^2), while going from 0.005 to 0.01 moves its witness times by at
    most 6.4e-5 and changes no verdict.  The limit is the drift of c|p| on
    ``selftest.ray_hamiltonian``'s ray: 9.6e-7 against its bound of 1e-6
    (2.3e-7 at 0.005, 2.3e-5 at 0.02).

    The state is four Python floats, because on 2-vectors numpy call
    overhead is the whole cost of a stage; ``states`` becomes an array once.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if not (0.0 < t_max < math.inf and 0.0 < h_ray < math.inf):
        raise ValueError("t_max and h_ray must be finite and positive")
    query = speed.spline.value_and_gradient

    def deriv(x0, x1, p0, p1):
        (c, g0, g1), = query(((x0, x1),))
        cc = c * c
        s = -c * (p0 * p0 + p1 * p1)
        return cc * p0, cc * p1, s * g0, s * g1

    x0, x1 = map(float, start.y)
    (c0, _, _), = query(((x0, x1),))
    xi0, xi1 = map(float, start.xi)
    p0, p1 = sigma * xi0 / c0, sigma * xi1 / c0
    t = 0.0
    states = [(x0, x1, p0, p1, t)]
    half = 0.5 * h_ray
    sixth = h_ray / 6.0
    n_steps = int(math.ceil(t_max / h_ray))
    for _ in range(n_steps):
        # the four stages a .. d: (ax0, ax1) is a slope of x, (ap0, ap1) of p
        ax0, ax1, ap0, ap1 = deriv(x0, x1, p0, p1)
        bx0, bx1, bp0, bp1 = deriv(
            x0 + half * ax0, x1 + half * ax1, p0 + half * ap0, p1 + half * ap1)
        cx0, cx1, cp0, cp1 = deriv(
            x0 + half * bx0, x1 + half * bx1, p0 + half * bp0, p1 + half * bp1)
        dx0, dx1, dp0, dp1 = deriv(
            x0 + h_ray * cx0, x1 + h_ray * cx1, p0 + h_ray * cp0, p1 + h_ray * cp1)
        y0 = x0 + sixth * (ax0 + 2.0 * bx0 + 2.0 * cx0 + dx0)
        y1 = x1 + sixth * (ax1 + 2.0 * bx1 + 2.0 * cx1 + dx1)
        p0 = p0 + sixth * (ap0 + 2.0 * bp0 + 2.0 * cp0 + dp0)
        p1 = p1 + sixth * (ap1 + 2.0 * bp1 + 2.0 * cp1 + dp1)
        t_new = t + h_ray
        states.append((y0, y1, p0, p1, t_new))
        if y0 * y0 + y1 * y1 >= 1.0:
            # refine the unit-circle crossing on the segment from x to y;
            # the segment is straight to integrator accuracy
            d0, d1 = y0 - x0, y1 - x1
            a = d0 * d0 + d1 * d1
            b = x0 * d0 + x1 * d1
            cc = x0 * x0 + x1 * x1 - 1.0
            s = (-b + math.sqrt(max(b * b - a * cc, 0.0))) / a if a > 0 else 1.0
            e0, e1 = x0 + s * d0, x1 + s * d1
            nrm = math.hypot(e0, e1)
            if nrm > 0:
                e0, e1 = e0 / nrm, e1 / nrm
            return RayPath(
                covector=start, sigma=sigma, c_start=c0, states=np.array(states),
                escaped=True, x_exit=np.array((e0, e1)), t_exit=t + s * h_ray,
                v_exit=np.array((p0, p1)) / math.hypot(p0, p1),
            )
        x0, x1, t = y0, y1, t_new
    return RayPath(covector=start, sigma=sigma, c_start=c0, states=np.array(states), escaped=False)


def detect_events(path: RayPath, config: DetectorConfig) -> list[DetectionEvent]:
    """Perpendicular detector-circle crossings of an escaped ray.

    The exterior continuation is straight, so crossings are solved in closed
    form, by one rule for both geometries.  A circle is crossed along a
    radius where the line passes its center: at the two points z = q + s*v
    (q the exit point, v the exit direction) where the line meets the circle
    of centers |z| = ``mode.center_radius``.  The ray passes z at
    t_z = t_exit + s and crosses its circle at t_z - r (branch 1) and
    t_z + r (branch 2), where point - z = -/+ r v, so each crossing is
    perpendicular by construction.  Crossings before the exit (where the ray
    is not yet straight) or at non-positive times are discarded.  Small
    geometry: the center behind the exit lies more than R - 1 >= r back, so
    the two crossings of the one ahead remain.
    Large geometry: the centers are q and w = q - 2(q.v)v, so the crossings
    are t_exit + r and t_exit + r - 2q.v, both branch 2 (r >= 2 >= 2q.v).
    """
    if not path.escaped:
        return []
    mode = config.mode
    scale = path.c_start * path.covector.magnitude  # c(y)|xi|
    lam_mag = scale / (2.0 * mode.r)
    tau = -path.sigma * scale
    q, v, t_q = path.x_exit, path.v_exit, path.t_exit

    b = float(np.dot(q, v))
    # a large-mode ring passes through q, so a grazing exit may round below 0
    root = math.sqrt(max(b * b + mode.center_radius**2 - float(np.dot(q, q)), 0.0))
    events: list[DetectionEvent] = []
    for s in (-b + root, -b - root):
        center = q + s * v
        t_c = t_q + s
        theta = math.atan2(center[1], center[0]) % _TWO_PI
        theta_hat = np.array([math.cos(theta), math.sin(theta)])
        for branch, t_det in ((1, t_c - mode.r), (2, t_c + mode.r)):
            # a crossing at the exit itself (large r = 2 on a radial exit,
            # small R - r = 1) may round to either side of it
            if t_det <= 0.0 or t_det < t_q - 1e-9:
                continue
            point = path.exterior_point(t_det)
            events.append(DetectionEvent(
                sigma=path.sigma, branch=branch, t_det=float(t_det), theta=float(theta),
                lam=float(lam_mag if branch == 1 else -lam_mag), tau=float(tau),
                omega=scale * (point - float(np.dot(point, theta_hat)) * theta_hat),
                point=np.asarray(point, dtype=float)))
    return events


def canonical_image(
    cv: Covector,
    speed: SpeedField,
    config: DetectorConfig,
    t_max: float = 6.0,
    paths: dict | None = None,
) -> list[DetectionEvent]:
    """All detector events of one covector, both time directions, traced
    with the default RK4 step ``DEFAULT_RAY_STEP``, read at each call.
    Against a step four times finer, the witness events of the benchmark's
    small-arc case move by at most 6.4e-5 in time and 1.8e-4 in angle, far
    inside the two grid steps within which visibility matches events.

    Four events in both geometries, two per direction (``detect_events``).
    A shorter list means a non-escaping ray or a discarded degenerate
    crossing; callers compare against the expected count.

    ``paths`` maps a trace's start (y, sigma * xi), as Python floats, to its
    path until a partner reads it.  The start momentum is sigma * xi / c(y),
    so (y, xi) in direction sigma and (y, -xi) in direction -sigma are
    bitwise one ray: the second pops the first's path, relabelled with its
    own covector and sigma for ``detect_events``.  Each trace makes
    4 * rk4_steps + 1 speed queries.  ``visibility`` shares one dict per call
    (one ``speed`` and ``t_max``).
    """
    paths = {} if paths is None else paths
    events: list[DetectionEvent] = []
    for sigma in (1, -1):
        key = (float(cv.y[0]), float(cv.y[1]), sigma * float(cv.xi[0]), sigma * float(cv.xi[1]))
        path = paths.pop(key, None)
        if path is None:
            path = paths[key] = trace_geodesic(cv, speed, sigma=sigma, t_max=t_max,
                                               h_ray=DEFAULT_RAY_STEP)
        else:
            path = replace(path, covector=cv, sigma=sigma)
        events.extend(detect_events(path, config))
    return events


def mirror_point(x, theta: float, config: DetectorConfig) -> np.ndarray:
    """The partner point of a perpendicular crossing on the same detector
    circle: the antipode through the circle's center.  An involution."""
    mode = config.mode
    center = mode.center_radius * np.array([math.cos(theta), math.sin(theta)])
    x = np.asarray(x, dtype=float)
    if abs(float(np.hypot(*(x - center))) - mode.r) > 1e-9:
        raise ValueError("point is not on the detector circle at this angle")
    return 2.0 * center - x


@dataclass(frozen=True)
class CovectorVerdict:
    covector: Covector
    verdict: str  # "visible" | "masked" | "out_of_aperture"
    witness: DetectionEvent | None = None
    partner_index: int | None = None
    escaped: bool = True


def _in_arc(theta: float, arc: tuple[float, float] | None) -> bool:
    if arc is None:
        return True
    a, b = arc
    return (theta - a) % _TWO_PI < (b - a) % _TWO_PI or (b - a) >= _TWO_PI


def visibility(
    wf: list[Covector],
    speed: SpeedField,
    config: DetectorConfig,
) -> list[CovectorVerdict]:
    """Classify wavefront samples against the measured aperture: one verdict
    per sample, in the order of ``wf``.

    The aperture is ``config.aperture`` (the full circle when None) and the
    window is ``config.window`` = [t0, t1], the set the misfit weighs.  A
    covector is visible when one of its events lands inside the window and
    the arc and no other wavefront sample produces an event at the mirror
    point of the same circle at the same time, both matched to within two
    grid steps.  If every in-aperture event is mirrored the covector is
    masked; with no in-aperture event at all, or a trapped ray, it is out
    of aperture.  Verdicts do not depend on covector magnitudes.

    The in-aperture events are scanned by time, so a visible covector's
    witness is its earliest unmasked event: the record length from which
    that edge is visible.  A masked covector's witness and partner are
    those of its earliest event.

    An edge node's covectors (y, xi) and (y, -xi) share their two rays
    (``canonical_image``), so each ray is traced once, with 4 * rk4_steps + 1
    speed queries; nothing is kept from one call to the next.
    """
    tol = 2.0 * speed.grid.h  # in position and in time (unit exterior speed)
    t0, t1 = config.window
    paths: dict = {}
    all_events: list[list[DetectionEvent]] = [
        canonical_image(cv, speed, config, t_max=t1 + 1.0, paths=paths) for cv in wf
    ]

    verdicts: list[CovectorVerdict] = []
    for i, cv in enumerate(wf):
        events = all_events[i]
        if not events:
            verdicts.append(CovectorVerdict(cv, "out_of_aperture", escaped=False))
            continue
        # stable: events at one time keep their list order
        in_ap = sorted((e for e in events
                        if t0 <= e.t_det <= t1 and _in_arc(e.theta, config.aperture)),
                       key=lambda e: e.t_det)
        if not in_ap:
            verdicts.append(CovectorVerdict(cv, "out_of_aperture"))
            continue
        verdict, witness, partner = "masked", None, None
        for e in in_ap:
            mirror = mirror_point(e.point, e.theta, config)
            partner_here = None
            for j, others in enumerate(all_events):
                if j == i:
                    continue
                for o in others:
                    if (
                        abs(o.t_det - e.t_det) <= tol
                        and float(np.hypot(*(o.point - mirror))) <= tol
                    ):
                        partner_here = j
                        break
                if partner_here is not None:
                    break
            if partner_here is None:
                verdict, witness, partner = "visible", e, None
                break
            if witness is None:
                witness, partner = e, partner_here
        verdicts.append(CovectorVerdict(cv, verdict, witness=witness, partner_index=partner))
    return verdicts
