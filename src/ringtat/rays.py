"""Geodesic tracing and the event geometry of circular detectors.

Singularities travel along unit-speed geodesics of the metric with line
element dx/c.  A traced ray leaves the unit disc, continues as an exact
straight line (the speed is one outside), and produces detector readings
exactly where it crosses a detector circle through that circle's center:
such crossings are perpendicular, which is what makes them visible in the
data.  The small geometry yields two crossings per time direction (near and
far side of the center), the large geometry one outward crossing.

The visibility classifier follows the masked-singularity rule: an event is
useless when another wavefront sample produces an event at the mirror point
of the same circle at the same time, because the two contributions cannot be
separated in circle-averaged data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorConfig, SmallMode
from .field import Covector, SpeedField

_TWO_PI = 2.0 * math.pi

# the RK4 step of every trace that does not pass one; trace_geodesic says
# why it is 0.01
DEFAULT_RAY_STEP = 0.01


@dataclass(frozen=True)
class RayState:
    """A point on a traced ray: position, momentum covector, elapsed time.
    The exact flow keeps c(x)|p| at one; at the default step the traced
    value stays within 1e-6 of one on ``selftest.ray_hamiltonian``'s ray and
    within about 2e-5 on random rays inside the disc, far below what the
    visibility verdicts need."""

    x: np.ndarray
    p: np.ndarray
    t: float


@dataclass
class RayPath:
    """Result of tracing one covector in one time direction.

    ``states`` samples the interior leg.  If the ray escaped the unit disc,
    (``x_exit``, ``t_exit``, ``v_exit``) give the exit point, exit time and
    unit direction of the straight exterior continuation
    gamma(t) = x_exit + (t - t_exit) * v_exit.
    """

    covector: Covector
    sigma: int
    c_start: float
    states: list[RayState]
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
    """One perpendicular crossing of a detector circle.

    ``branch`` is 1 for the near-side crossing (before the center passage)
    and 2 for the far side; large-mode events are all branch 1.  ``lam`` is
    the fiber scale, positive on branch 1; ``tau`` is the time frequency,
    negative for sigma = +1; ``omega`` is the angular frequency 2-vector,
    zero for radial crossings.  ``point`` is the crossing location.
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
    overhead is the whole cost of a stage.
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
    states = [RayState(x=np.array((x0, x1)), p=np.array((p0, p1)), t=t)]
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
        states.append(RayState(x=np.array((y0, y1)), p=np.array((p0, p1)), t=t_new))
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
                covector=start, sigma=sigma, c_start=c0, states=states,
                escaped=True, x_exit=np.array((e0, e1)), t_exit=t + s * h_ray,
                v_exit=np.array((p0, p1)) / math.hypot(p0, p1),
            )
        x0, x1, t = y0, y1, t_new
    return RayPath(covector=start, sigma=sigma, c_start=c0, states=states, escaped=False)


def detect_events(path: RayPath, config: DetectorConfig) -> list[DetectionEvent]:
    """Perpendicular detector-circle crossings of an escaped ray.

    The exterior continuation is straight, so crossings are solved in closed
    form.  Small geometry: the line meets the circle of detector centers at
    one forward point R*theta_hat; the detector circle there is crossed at
    distance r on either side of that passage.  Large geometry: the exit
    point itself is the detector center and the single outward crossing lies
    r past it.  Crossings failing the perpendicularity check or occurring at
    non-positive times are discarded.
    """
    if not path.escaped:
        return []
    mode = config.mode
    scale = path.c_start * path.covector.magnitude  # c(y)|xi|
    lam_mag = scale / (2.0 * mode.r)
    tau = -path.sigma * scale
    q, v, t_q = path.x_exit, path.v_exit, path.t_exit

    events: list[DetectionEvent] = []
    if isinstance(mode, SmallMode):
        # forward crossing of the center ring |z| = R
        b = float(np.dot(q, v))
        disc = b * b + mode.R**2 - float(np.dot(q, q))
        if disc < 0.0:
            return []
        s = -b + math.sqrt(disc)
        center = q + s * v
        t_c = t_q + s
        theta = math.atan2(center[1], center[0]) % _TWO_PI
        for branch, t_det in ((1, t_c - mode.r), (2, t_c + mode.r)):
            if t_det <= 0.0:
                continue
            point = path.exterior_point(t_det)
            n_hat = (point - center) / mode.r
            if abs(float(np.dot(v, n_hat))) < 1.0 - 1e-6:
                continue
            events.append(_make_event(path.sigma, branch, t_det, theta, lam_mag, tau, scale, point))
        return events

    # large geometry: the exit point is on the ring of centers already
    theta = math.atan2(q[1], q[0]) % _TWO_PI
    t_det = t_q + mode.r
    point = path.exterior_point(t_det)
    n_hat = (point - q) / mode.r
    if t_det > 0.0 and abs(float(np.dot(v, n_hat))) >= 1.0 - 1e-6:
        events.append(_make_event(path.sigma, 1, t_det, theta, lam_mag, tau, scale, point))
    return events


def _make_event(sigma, branch, t_det, theta, lam_mag, tau, scale, point) -> DetectionEvent:
    theta_hat = np.array([math.cos(theta), math.sin(theta)])
    omega = scale * (point - float(np.dot(point, theta_hat)) * theta_hat)
    lam = lam_mag if branch == 1 else -lam_mag
    return DetectionEvent(
        sigma=sigma, branch=branch, t_det=float(t_det), theta=float(theta),
        lam=float(lam), tau=float(tau), omega=omega, point=np.asarray(point, dtype=float),
    )


def canonical_image(
    cv: Covector,
    speed: SpeedField,
    config: DetectorConfig,
    t_max: float = 6.0,
) -> list[DetectionEvent]:
    """All detector events of one covector, both time directions, traced
    with the default RK4 step ``DEFAULT_RAY_STEP``, read at each call.
    Against a step four times finer, the witness events of the benchmark's
    small-arc case move by at most 6.4e-5 in time and 1.8e-4 in angle, far
    inside the two grid steps within which visibility matches events.

    Four events for the small geometry (two branches per direction), two for
    the large one.  A shorter list means a non-escaping ray or a discarded
    degenerate crossing; callers compare against the expected count.
    """
    events: list[DetectionEvent] = []
    for sigma in (1, -1):
        path = trace_geodesic(cv, speed, sigma=sigma, t_max=t_max, h_ray=DEFAULT_RAY_STEP)
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
    time_window: tuple[float, float],
) -> list[CovectorVerdict]:
    """Classify wavefront samples against the measured aperture: one verdict
    per sample, in the order of ``wf``.

    The aperture is ``config.aperture`` (the full circle when None) and the
    window is ``time_window`` = (t0, t1].  A covector is visible when
    one of its events lands inside the window and the arc and no other
    wavefront sample produces an event at the mirror point of the same
    circle at the same time, both matched to within two grid steps.  If
    every in-aperture event is mirrored the covector is masked; with no
    in-aperture event at all, or a trapped ray, it is out of aperture.
    Verdicts do not depend on covector magnitudes.
    """
    if not wf:
        raise ValueError("need at least one wavefront sample")
    tol = 2.0 * speed.grid.h  # in position and in time (unit exterior speed)

    t_max = time_window[1] + 1.0
    all_events: list[list[DetectionEvent]] = [
        canonical_image(cv, speed, config, t_max=t_max) for cv in wf
    ]

    verdicts: list[CovectorVerdict] = []
    t0, t1 = time_window
    for i, cv in enumerate(wf):
        events = all_events[i]
        if not events:
            verdicts.append(CovectorVerdict(cv, "out_of_aperture", escaped=False))
            continue
        in_ap = [e for e in events if t0 < e.t_det <= t1 and _in_arc(e.theta, config.aperture)]
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
