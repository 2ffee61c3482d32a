"""Tests for geodesic tracing, detection events and visibility verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringtat.rays as rays
from ringtat._spline import SplineField
from ringtat.detector import DetectorConfig, LargeMode, SmallMode
from ringtat.field import (
    Covector,
    DiscComponent,
    SpeedSpec,
    gaussian_phantom,
    make_grid,
    make_phantom,
    phantom_edges,
    sample_speed,
)
from ringtat.rays import (
    CovectorVerdict,
    DetectionEvent,
    canonical_image,
    detect_events,
    mirror_point,
    trace_geodesic,
    visibility,
)


def _speed(n=161, kind="sinusoidal", L=3.0):
    grid = make_grid(L=L, n=n)
    return sample_speed(SpeedSpec(kind=kind), grid)


def _small_arc():
    """The benchmark's visibility-small-arc case at seed 0: the edges of a
    tapered disc at the origin, seen by small detectors on a quarter arc
    through the sinusoidal speed on 129^2."""
    grid = make_grid(L=3.6, n=129, pml_width=0.5)
    speed = sample_speed(SpeedSpec(kind="sinusoidal"), grid)
    disc = make_phantom([DiscComponent(center=(0.0, 0.0), radius=0.55, taper=0.15)], grid)
    wf = phantom_edges(disc, grid, threshold=0.5, stride=2, max_count=20)
    cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=45, n_alpha=256, T=5.0,
                         aperture=(-0.5 * math.pi, 0.0))
    return wf, speed, cfg


def _random_covectors(count, rng, max_radius=0.9):
    out = []
    for _ in range(count):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = math.sqrt(rng.uniform(0.0, max_radius**2))
        d = rng.uniform(0.0, 2.0 * math.pi)
        out.append(
            Covector(y=(rad * math.cos(ang), rad * math.sin(ang)), xi=(math.cos(d), math.sin(d)))
        )
    return out


def _vector_oracle(start, sp, sigma, t_max, h_ray):
    """The RK4 loop on 2-arrays that the float-state tracer replaced, with
    the spline's triples read as a (1, 3) array: states [(x, p, t)],
    c_start and (escaped, x_exit, t_exit, v_exit).  Dot products are plain
    two-term sums and norms ``math.hypot``, as in the tracer."""

    def dot(u, v):
        return float(u[0] * v[0] + u[1] * v[1])

    def deriv(x, p):
        out = np.array(sp.value_and_gradient(x[None, :]))
        c = float(out[0, 0])
        dx = (c * c) * p
        dp = -c * dot(p, p) * out[0, 1:]
        return dx, dp

    x = np.array(start.y)
    c0 = float(np.array(sp.value_and_gradient(x[None, :]))[0, 0])
    p = sigma * np.array(start.xi) / c0
    t = 0.0
    states = [(x.copy(), p.copy(), t)]
    for _ in range(int(math.ceil(t_max / h_ray))):
        k1x, k1p = deriv(x, p)
        k2x, k2p = deriv(x + 0.5 * h_ray * k1x, p + 0.5 * h_ray * k1p)
        k3x, k3p = deriv(x + 0.5 * h_ray * k2x, p + 0.5 * h_ray * k2p)
        k4x, k4p = deriv(x + h_ray * k3x, p + h_ray * k3p)
        x_new = x + (h_ray / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p_new = p + (h_ray / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        t_new = t + h_ray
        states.append((x_new.copy(), p_new.copy(), t_new))
        if dot(x_new, x_new) >= 1.0:
            d = x_new - x
            a = dot(d, d)
            b = dot(x, d)
            cc = dot(x, x) - 1.0
            s = (-b + math.sqrt(max(b * b - a * cc, 0.0))) / a if a > 0 else 1.0
            x_exit = x + s * d
            nrm = math.hypot(*x_exit)
            if nrm > 0:
                x_exit = x_exit / nrm
            v = p_new / math.hypot(*p_new)
            return states, c0, (True, x_exit, t + s * h_ray, v)
        x, p, t = x_new, p_new, t_new
    return states, c0, (False, None, None, None)


def _bits(*values):
    return np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in values]).view(np.int64)


@pytest.fixture(scope="module")
def sinusoidal_161():
    return _speed()


@pytest.fixture(scope="module")
def constant_161():
    return _speed(kind="constant")


class TestTrace:
    def _assert_matches_oracle(self, cv, speed, sigma, t_max):
        path = trace_geodesic(cv, speed, sigma=sigma, t_max=t_max)
        states, c0, (escaped, x_exit, t_exit, v_exit) = _vector_oracle(
            cv, speed.spline, sigma, t_max, rays.DEFAULT_RAY_STEP)
        assert path.escaped == escaped and len(path.states) == len(states)
        want = np.concatenate([_bits(*s) for s in states])
        np.testing.assert_array_equal(_bits(path.states), want)
        assert _bits(path.c_start) == _bits(c0)
        if escaped:
            np.testing.assert_array_equal(_bits(path.x_exit, path.t_exit, path.v_exit),
                                          _bits(x_exit, t_exit, v_exit))
        else:
            assert path.x_exit is None and path.t_exit is None and path.v_exit is None
        return path

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_float_state_bitwise_equals_vector_oracle(self, sigma):
        speed = _speed()
        for cv in _random_covectors(24, np.random.default_rng(30 + sigma)):
            assert self._assert_matches_oracle(cv, speed, sigma, t_max=3.0).escaped

    @pytest.mark.parametrize("t_max, sigma, escaped", [(3.0, 1, True), (0.05, -1, False)])
    def test_states_are_one_float_array(self, sinusoidal_161, t_max, sigma, escaped):
        """One (steps + 1, 5) row array (x0, x1, p0, p1, t); row 0 is the
        start (y, sigma * xi / c(y), 0) and only the last row of an escaping
        ray lies outside the unit disc."""
        y, xi = (0.3, -0.2), (0.6, 0.8)
        path = trace_geodesic(Covector(y=y, xi=xi), sinusoidal_161, sigma=sigma, t_max=t_max)
        assert path.escaped == escaped
        states = path.states
        assert isinstance(states, np.ndarray) and states.dtype == np.float64
        assert states.flags.c_contiguous and states.ndim == 2 and states.shape[1] == 5
        (c, _, _), = sinusoidal_161.spline.value_and_gradient((y,))
        assert _bits(states[0]).tolist() == _bits(
            y, sigma * xi[0] / c, sigma * xi[1] / c, 0.0).tolist()
        outside = np.hypot(states[:, 0], states[:, 1]) >= 1.0
        if escaped:
            assert outside[-1] and not outside[:-1].any()
            assert states[-2, 4] <= path.t_exit <= states[-1, 4]
        else:
            assert len(states) == math.ceil(t_max / rays.DEFAULT_RAY_STEP) + 1
            assert not outside.any()

    def test_non_escaping_ray_bitwise_equals_vector_oracle(self):
        cv = Covector(y=(0.1, -0.05), xi=(0.6, 0.8))
        assert not self._assert_matches_oracle(cv, _speed(), 1, t_max=0.05).escaped

    def test_straight_line_at_unit_speed(self):
        """Constant speed: the traced ray is the straight line x(t) = y + t*xi,
        exactly, and the exterior continuation extends it."""
        speed = _speed(kind="constant")
        path = trace_geodesic(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, t_max=4.0)
        assert path.escaped
        for x0, x1, _, _, t in path.states:
            assert abs(x1) <= 1e-8
            assert abs(x0 - t) <= 1e-8
        end = path.exterior_point(4.0)
        assert abs(end[0] - 4.0) + abs(end[1]) <= 1e-8

    def test_metric_speed_conserved(self):
        speed = _speed()
        path = trace_geodesic(Covector(y=(0.3, -0.2), xi=(0.6, 0.8)), speed, t_max=4.0)
        worst = 0.0
        for x0, x1, p0, p1, _ in path.states:
            if math.hypot(x0, x1) < 1.0:
                c = float(speed.spline.value(((x0, x1),))[0])
                worst = max(worst, abs(c * math.hypot(p0, p1) - 1.0))
        assert worst <= 1e-6

    def test_fourth_order_endpoint_convergence(self):
        """Halving the step divides the endpoint error by about 16 while the
        smooth truncation term dominates the interpolant's cell-edge kinks."""
        grid = make_grid(L=3.0, n=321)
        speed = sample_speed(SpeedSpec(kind="sinusoidal"), grid)
        rng = np.random.default_rng(2)
        cvs = _random_covectors(5, rng, max_radius=0.25)
        refs = []
        for cv in cvs:
            p = trace_geodesic(cv, speed, t_max=0.4, h_ray=0.000625)
            assert not p.escaped
            refs.append((p.states[-1, :2], p.states[-1, 2:4]))

        def mean_err(h):
            tot = 0.0
            for cv, (rx, rp) in zip(cvs, refs):
                s = trace_geodesic(cv, speed, t_max=0.4, h_ray=h).states[-1]
                tot += math.hypot(*(s[:2] - rx)) + math.hypot(*(s[2:4] - rp))
            return tot / len(cvs)

        coarse, fine = mean_err(0.04), mean_err(0.02)
        assert coarse / fine >= 12.0

    def test_all_random_starts_escape(self):
        speed = _speed()
        rng = np.random.default_rng(11)
        for cv in _random_covectors(30, rng):
            assert trace_geodesic(cv, speed, t_max=3.0).escaped

    def test_short_horizon_reports_non_escaping(self):
        speed = _speed()
        path = trace_geodesic(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, t_max=0.05)
        assert not path.escaped
        with pytest.raises(ValueError, match="unit disc"):
            path.exterior_point(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        rad=st.floats(0.0, 0.95),
        ang=st.floats(0.0, 2.0 * math.pi),
        xi=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
            lambda v: math.hypot(*v) > 1e-3),
        sigma=st.sampled_from([1, -1]),
    )
    def test_opposite_covector_backward_is_the_same_ray(self, sinusoidal_161, rad, ang, xi,
                                                        sigma):
        """(y, xi) in direction sigma and (y, -xi) in direction -sigma start
        from one momentum, sigma * xi / c(y), so they trace bitwise the same
        ray: visibility traces it once for both covectors."""
        y = (rad * math.cos(ang), rad * math.sin(ang))
        a = trace_geodesic(Covector(y=y, xi=xi), sinusoidal_161, sigma=sigma, t_max=3.0)
        b = trace_geodesic(Covector(y=y, xi=(-xi[0], -xi[1])), sinusoidal_161, sigma=-sigma,
                           t_max=3.0)
        assert a.escaped and b.escaped
        np.testing.assert_array_equal(_bits(a.states), _bits(b.states))
        np.testing.assert_array_equal(_bits(a.c_start, a.x_exit, a.t_exit, a.v_exit),
                                      _bits(b.c_start, b.x_exit, b.t_exit, b.v_exit))

    def test_parameter_validation(self):
        speed = _speed(n=65)
        cv = Covector(y=(0.0, 0.0), xi=(1.0, 0.0))
        with pytest.raises(ValueError):
            trace_geodesic(cv, speed, sigma=2)
        with pytest.raises(ValueError):
            trace_geodesic(cv, speed, t_max=-1.0)
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="finite and positive"):
                trace_geodesic(cv, speed, t_max=bad)
            with pytest.raises(ValueError, match="finite and positive"):
                trace_geodesic(cv, speed, h_ray=bad)


class TestEvents:
    def test_small_geometry_example(self):
        """Center covector pointing along x: center passage of the theta=0
        detector at t=2, crossings at 1.2 and 2.8, fiber value 1/(2r)."""
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        events = canonical_image(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, cfg)
        assert len(events) == 4
        plus = sorted([e for e in events if e.sigma == 1], key=lambda e: e.branch)
        assert abs(plus[0].t_det - 1.2) <= 1e-9 and plus[0].branch == 1
        assert abs(plus[1].t_det - 2.8) <= 1e-9 and plus[1].branch == 2
        assert abs(plus[0].theta) <= 1e-9
        assert abs(plus[0].lam - 0.625) <= 1e-9
        assert abs(plus[1].lam + 0.625) <= 1e-9
        assert all(abs(e.tau + e.sigma) <= 1e-9 for e in events)  # tau = -sigma c|xi|

    def test_time_symmetry_from_center(self):
        # even-in-time extension: the backward trace mirrors the forward one
        # through the origin
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        events = canonical_image(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, cfg)
        minus = sorted([e for e in events if e.sigma == -1], key=lambda e: e.branch)
        plus = sorted([e for e in events if e.sigma == 1], key=lambda e: e.branch)
        for a, b in zip(plus, minus):
            assert abs(a.t_det - b.t_det) <= 1e-9
            assert abs((a.theta - b.theta) % (2 * math.pi) - math.pi) <= 1e-9

    def test_large_geometry_example(self):
        """Center covector pointing along x, r = 2: the line meets the unit
        circle of centers at the exit (1, 0) and at (-1, 0).  The sigma = +1
        ray crosses the first circle at (3, 0) at t = 3 and the second at
        (1, 0) at t = 1; sigma = -1 mirrors it through the origin.  Both
        crossings leave their detector disc: branch 2, fiber value -1/(2r)."""
        speed = _speed(kind="constant", L=3.2)
        cfg = DetectorConfig(mode=LargeMode(r=2.0), T=5.0)
        events = canonical_image(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, cfg)
        assert len(events) == 4
        for sigma in (1, -1):
            # (t_det, theta_hat, point) of each event, earliest first
            got = sorted((e.t_det, math.cos(e.theta), math.sin(e.theta), *e.point)
                         for e in events if e.sigma == sigma)
            want = [(1.0, -sigma, 0.0, sigma, 0.0), (3.0, sigma, 0.0, 3.0 * sigma, 0.0)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        for e in events:
            assert e.branch == 2 and abs(e.lam + 0.25) <= 1e-9
            assert abs(e.tau + e.sigma) <= 1e-9 and float(np.hypot(*e.omega)) <= 1e-9

    def test_radial_crossing_has_zero_omega(self):
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        events = canonical_image(Covector(y=(0.0, 0.0), xi=(0.6, 0.8)), speed, cfg)
        assert all(float(np.hypot(*e.omega)) <= 1e-9 for e in events)

    def test_oblique_crossing_center_passage_and_omega(self):
        """Off-center ray: the straight continuation still passes through the
        detector center at t_det +/- r, and omega is perpendicular to the
        center direction."""
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        cv = Covector(y=(0.5, 0.0), xi=(0.0, 1.0))
        for sigma in (1, -1):
            path = trace_geodesic(cv, speed, sigma=sigma)
            events = detect_events(path, cfg)
            assert len(events) == 2
            for e in events:
                center_time = e.t_det + cfg.mode.r if e.branch == 1 else e.t_det - cfg.mode.r
                passage = path.exterior_point(center_time)
                target = 2.0 * np.array([math.cos(e.theta), math.sin(e.theta)])
                assert float(np.hypot(*(passage - target))) <= 1e-6
                theta_hat = np.array([math.cos(e.theta), math.sin(e.theta)])
                assert abs(float(np.dot(e.omega, theta_hat))) <= 1e-9
                assert float(np.hypot(*e.omega)) > 1e-3

    def test_event_counts_variable_speed(self):
        speed = _speed()
        cfg_s = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        cfg_l = DetectorConfig(mode=LargeMode(r=2.0), T=5.0)
        rng = np.random.default_rng(4)
        for cv in _random_covectors(5, rng, max_radius=0.8):
            assert len(canonical_image(cv, speed, cfg_s)) == 4
            assert len(canonical_image(cv, speed, cfg_l)) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        rad=st.floats(0.0, 0.9),
        ang=st.floats(0.0, 2.0 * math.pi),
        d=st.floats(0.0, 2.0 * math.pi),
        large=st.booleans(),
        r=st.floats(0.0, 1.0),
        gap=st.floats(1.0, 2.0),
    )
    # a crossing at the exit itself: large r = 2 and small R - r = 1 on a
    # radial ray
    @example(rad=0.0, ang=0.0, d=0.3, large=True, r=0.0, gap=1.0)
    @example(rad=0.0, ang=0.0, d=0.3, large=False, r=0.0, gap=1.0)
    def test_closed_form_at_unit_speed(self, constant_161, rad, ang, d, large, r, gap):
        """At c = 1 a ray is the line y + t * sigma * xi_hat.  Each event lies
        on its detector circle (center ``center_radius * theta_hat``) and on
        that line, a distance t_det from y, and each time direction has two
        events, in both geometries (small: r in [0.3, 1.3], R - r in [1, 2];
        large: r in [2, 3])."""
        mode = LargeMode(r=2.0 + r) if large else SmallMode(R=0.3 + r + gap, r=0.3 + r)
        cfg = DetectorConfig(mode=mode, T=5.0)
        y = np.array([rad * math.cos(ang), rad * math.sin(ang)])
        xi_hat = np.array([math.cos(d), math.sin(d)])
        events = canonical_image(Covector(y=tuple(y), xi=tuple(xi_hat)), constant_161, cfg)
        for sigma in (1, -1):
            assert sum(e.sigma == sigma for e in events) == 2
        for e in events:
            z = mode.center_radius * np.array([math.cos(e.theta), math.sin(e.theta)])
            assert abs(float(np.hypot(*(e.point - z))) - mode.r) <= 1e-9
            along = e.point - y
            direction = e.sigma * xi_hat
            assert abs(float(along[0] * direction[1] - along[1] * direction[0])) <= 1e-9
            assert float(np.dot(along, direction)) > 0.0
            assert abs(e.t_det - float(np.hypot(*along))) <= 1e-9
            # perpendicular: entering the detector disc on branch 1, leaving on 2
            n_hat = (e.point - z) / mode.r
            assert abs(float(np.dot(direction, n_hat)) - (-1.0 if e.branch == 1 else 1.0)) <= 1e-9

    def test_non_escaped_path_has_no_events(self):
        speed = _speed(n=65)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        path = trace_geodesic(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, t_max=0.05)
        assert detect_events(path, cfg) == []


class TestMirror:
    def test_small_antipode(self):
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8))
        assert np.allclose(mirror_point((1.2, 0.0), 0.0, cfg), [2.8, 0.0], atol=1e-12)

    def test_involution(self):
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8))
        x = np.array([2.0, 0.0]) + 0.8 * np.array([math.cos(1.1), math.sin(1.1)])
        assert np.allclose(mirror_point(mirror_point(x, 0.0, cfg), 0.0, cfg), x, atol=1e-12)

    def test_large_circle_membership(self):
        cfg = DetectorConfig(mode=LargeMode(r=2.0))
        m = mirror_point((3.0, 0.0), 0.0, cfg)
        assert abs(float(np.hypot(m[0] - 1.0, m[1])) - 2.0) <= 1e-9

    def test_rejects_point_off_circle(self):
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8))
        with pytest.raises(ValueError, match="detector circle"):
            mirror_point((1.5, 0.0), 0.0, cfg)


class TestSplineQueries:
    """The tracer asks the speed interpolant for one point per RK4 stage plus
    one at the start, 4 * rk4_steps + 1 per trace, and visibility asks it
    nothing else: per-layer call accounting rests on that closed form.
    Within one visibility call an edge node's covectors (y, xi) and (y, -xi)
    share their two rays, so each ray is traced, and queried, once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        vg = SplineField.value_and_gradient

        def counting(sf, pts):
            shapes.append(np.shape(pts))
            return vg(sf, pts)

        def value(sf, pts):
            raise AssertionError("SplineField.value called")

        monkeypatch.setattr(SplineField, "value_and_gradient", counting)
        monkeypatch.setattr(SplineField, "value", value)
        return shapes

    @pytest.mark.parametrize("sigma,t_max", [(1, 4.0), (-1, 4.0), (1, 0.3)])
    def test_trace_queries_one_point_per_stage(self, calls, sigma, t_max):
        path = trace_geodesic(
            Covector(y=(0.3, -0.2), xi=(0.6, 0.8)), _speed(), sigma=sigma, t_max=t_max
        )
        assert path.escaped == (t_max > 1.0)
        assert len(calls) == 4 * (len(path.states) - 1) + 1
        assert set(calls) == {(1, 2)}

    def test_visibility_queries_only_through_traces(self, calls, monkeypatch):
        paths = []
        trace = rays.trace_geodesic

        def recording(*args, **kwargs):
            paths.append(trace(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(rays, "trace_geodesic", recording)
        wf = _random_covectors(3, np.random.default_rng(8))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0, aperture=(0.0, 0.5 * math.pi))
        visibility(wf, _speed(), cfg)
        assert len(paths) == 2 * len(wf)
        assert len(calls) == sum(4 * (len(p.states) - 1) + 1 for p in paths)
        assert set(calls) == {(1, 2)}

    def test_small_arc_visibility_makes_half_the_queries_of_the_old_step(self, calls):
        wf, speed, cfg = _small_arc()
        visibility(wf, speed, cfg)
        assert len(wf) == 40
        # At a step of 0.005, tracing both directions of every covector, this
        # call made 67,904 queries: 4 x 16,956 RK4 stages plus one start for
        # each of 80 traces.  Twice the step halves the stages (34,064
        # queries), and tracing each of the 40 distinct rays once halves
        # them again.
        assert len(calls) == 17_032

    def test_small_arc_visibility_traces_each_ray_once(self, calls, monkeypatch):
        paths = []
        trace = rays.trace_geodesic

        def recording(*args, **kwargs):
            paths.append(trace(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(rays, "trace_geodesic", recording)
        wf, speed, cfg = _small_arc()
        for _ in range(2):  # nothing is kept from one call to the next
            paths.clear()
            calls.clear()
            visibility(wf, speed, cfg)
            assert len(paths) == 40
            starts = {(*p.covector.y, p.sigma * p.covector.xi[0], p.sigma * p.covector.xi[1])
                      for p in paths}
            assert len(starts) == 40
            assert sum(len(p.states) - 1 for p in paths) == 4_248
            assert len(calls) == sum(4 * (len(p.states) - 1) + 1 for p in paths) == 17_032


class TestSplineBuilds:
    """The speed interpolant is built once per ``SpeedField``, on first use,
    and every trace on that field reads the same one."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        init = SplineField.__init__

        def counting(sf, *args, **kwargs):
            built.append(sf)
            init(sf, *args, **kwargs)

        monkeypatch.setattr(SplineField, "__init__", counting)
        return built

    def test_visibility_builds_one_spline(self, builds):
        wf = _random_covectors(4, np.random.default_rng(9))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        visibility(wf, _speed(), cfg)
        assert len(builds) == 1

    def test_traces_share_the_field_spline(self, builds):
        speed = _speed()
        assert builds == []
        trace_geodesic(Covector(y=(0.3, -0.2), xi=(0.6, 0.8)), speed, t_max=1.0)
        trace_geodesic(Covector(y=(-0.1, 0.4), xi=(1.0, 0.0)), speed, sigma=-1, t_max=1.0)
        assert builds == [speed.spline]


class TestVisibility:
    def test_full_aperture_sees_everything(self):
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        rng = np.random.default_rng(5)
        wf = _random_covectors(12, rng, max_radius=0.85)
        verdicts = visibility(wf, speed, cfg)
        assert all(isinstance(v, CovectorVerdict) for v in verdicts)
        assert [v.verdict for v in verdicts] == ["visible"] * len(wf)

    def test_symmetric_pair_masks_in_restricted_aperture(self):
        """Two collinear covectors whose wavefronts hit one detector circle at
        antipodal points simultaneously: with only that reading available,
        neither can be told from the other."""
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        wf = [
            Covector(y=(0.8, 0.0), xi=(1.0, 0.0)),
            Covector(y=(-0.8, 0.0), xi=(1.0, 0.0)),
        ]
        verdicts = visibility(wf, speed,
                              dataclasses.replace(cfg, aperture=(-0.1, 0.1), t0=1.5, T=2.5))
        assert [v.verdict for v in verdicts] == ["masked", "masked"]
        assert verdicts[0].partner_index == 1
        assert verdicts[1].partner_index == 0

    def test_same_pair_visible_with_full_data(self):
        # the other three events of each covector are unmasked, so the full
        # aperture recovers both
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        wf = [
            Covector(y=(0.8, 0.0), xi=(1.0, 0.0)),
            Covector(y=(-0.8, 0.0), xi=(1.0, 0.0)),
        ]
        verdicts = visibility(wf, speed, cfg)
        assert [v.verdict for v in verdicts] == ["visible", "visible"]

    def test_out_of_aperture(self):
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        u = 1.0 / math.sqrt(2.0)
        wf = [
            Covector(y=(0.0, 0.0), xi=(u, u)),  # exits toward pi/4 and 5pi/4
            Covector(y=(0.0, 0.0), xi=(u, -u)),  # exits toward -pi/4, inside the arc
        ]
        verdicts = visibility(wf, speed, dataclasses.replace(cfg, aperture=(-math.pi / 2, 0.0)))
        assert verdicts[0].verdict == "out_of_aperture"
        assert verdicts[1].verdict == "visible"

    def test_non_escaping_reported_out_of_aperture(self):
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        wf = [Covector(y=(0.0, 0.0), xi=(1.0, 0.0))]
        verdicts = visibility(wf, speed, dataclasses.replace(cfg, T=0.1))
        assert verdicts[0].verdict == "out_of_aperture"

    def test_magnitude_invariance(self):
        speed = _speed(kind="constant")
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        base = [
            Covector(y=(0.8, 0.0), xi=(1.0, 0.0)),
            Covector(y=(-0.8, 0.0), xi=(1.0, 0.0)),
        ]
        scaled = [Covector(y=c.y, xi=c.xi, magnitude=7.5) for c in base]
        narrow = dataclasses.replace(cfg, aperture=(-0.1, 0.1), t0=1.5, T=2.5)
        a = visibility(base, speed, narrow)
        b = visibility(scaled, speed, narrow)
        assert [v.verdict for v in a] == [v.verdict for v in b]

    def test_empty_wavefront_gives_no_verdicts(self):
        speed = _speed(n=65)
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        assert visibility([], speed, cfg) == []

    def test_shared_rays_give_the_verdicts_of_lone_traces(self, monkeypatch):
        """Antipodal pairs in shuffled order, a duplicate and a pair of
        unequal magnitudes: the verdicts, witnesses and partners equal those
        of tracing every covector's two rays alone."""
        speed = sample_speed(SpeedSpec(kind="sinusoidal"),
                             make_grid(L=3.6, n=129, pml_width=0.5))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=2.5, aperture=(-0.1, 0.1), t0=1.5)
        a, b = (0.8, 0.0), (-0.8, 0.0)
        wf = [
            Covector(y=a, xi=(1.0, 0.0)),
            Covector(y=b, xi=(-1.0, 0.0)),
            Covector(y=(-0.5, 0.1), xi=(1.0, -0.05)),
            Covector(y=a, xi=(1.0, 0.0)),
            Covector(y=b, xi=(1.0, 0.0)),
            Covector(y=(-0.5, 0.1), xi=(-1.0, 0.05), magnitude=3.5),
            Covector(y=a, xi=(-1.0, 0.0)),
        ]

        def summary(verdicts):
            return [(v.verdict, v.partner_index, v.escaped, None if v.witness is None else (
                v.witness.sigma, v.witness.branch, v.witness.t_det, v.witness.theta,
                v.witness.lam, v.witness.tau, *v.witness.omega, *v.witness.point))
                for v in verdicts]

        traced = []
        trace = rays.trace_geodesic

        def recording(*args, **kwargs):
            traced.append(args[0])
            return trace(*args, **kwargs)

        monkeypatch.setattr(rays, "trace_geodesic", recording)
        shared = summary(visibility(wf, speed, cfg))
        n_shared = len(traced)
        image = rays.canonical_image
        monkeypatch.setattr(rays, "canonical_image",
                            lambda cv, speed, config, t_max, paths: image(cv, speed, config, t_max))
        alone = summary(visibility(wf, speed, cfg))
        assert shared == alone
        assert [v[:2] for v in shared] == [("masked", 1), ("masked", 0), ("visible", None)] * 2 \
            + [("masked", 1)]
        # the duplicate reads its pair's paths, so the last covector traces
        # its own two rays: 8 traces against 14
        assert (n_shared, len(traced) - n_shared) == (8, 2 * len(wf))

    @staticmethod
    def _unmasked_in_aperture(i, all_events, cfg, tol):
        """Covector i's events inside the window and the arc whose mirror
        point no other covector reaches at the same time: the masking rule,
        written out event by event."""
        t0, t1 = cfg.window
        out = []
        for e in all_events[i]:
            if not (t0 <= e.t_det <= t1 and rays._in_arc(e.theta, cfg.aperture)):
                continue
            mirror = mirror_point(e.point, e.theta, cfg)
            if not any(abs(o.t_det - e.t_det) <= tol and math.hypot(*(o.point - mirror)) <= tol
                       for j, others in enumerate(all_events) if j != i for o in others):
                out.append(e)
        return out

    @pytest.mark.parametrize("case", ["full", "small_arc"])
    def test_witness_is_the_earliest_unmasked_event(self, case):
        """A visible covector's witness is its unmasked in-aperture event of
        least time.  In the full-aperture case the covector at (-0.5, 0)
        lists its events at 1.7 and 3.3 (sigma = +1) before 0.7 and 2.3
        (sigma = -1), so neither list order nor reversed time order gives
        the earliest."""
        if case == "full":
            speed = _speed(kind="constant")
            cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
            wf = _random_covectors(10, np.random.default_rng(8)) + [
                Covector(y=(-0.5, 0.0), xi=(1.0, 0.0))]
        else:
            wf, speed, cfg = _small_arc()
        verdicts = visibility(wf, speed, cfg)
        all_events = [canonical_image(cv, speed, cfg, t_max=cfg.T + 1.0) for cv in wf]
        tol = 2.0 * speed.grid.h
        visible = [i for i, v in enumerate(verdicts) if v.verdict == "visible"]
        assert len(visible) >= (11 if case == "full" else 16)
        for i in visible:
            unmasked = self._unmasked_in_aperture(i, all_events, cfg, tol)
            assert verdicts[i].witness.t_det == min(e.t_det for e in unmasked)
        if case == "full":
            assert verdicts[-1].witness.t_det == pytest.approx(0.7)

    def test_phantom_edges_all_visible_full_aperture(self):
        grid = make_grid(L=3.0, n=161)
        speed = sample_speed(SpeedSpec(kind="constant"), grid)
        f = gaussian_phantom(grid, center=(0.2, -0.1), sigma=0.15)
        wf = phantom_edges(f, grid, threshold=0.5, stride=6, max_count=16)
        assert len(wf) >= 4
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=5.0)
        verdicts = visibility(wf, speed, cfg)
        assert [v.verdict for v in verdicts] == ["visible"] * len(wf)


# The largest shift of a witness time from DEFAULT_RAY_STEP = 0.01 to a
# finer step, over the small-arc case at the benchmark's seeds 0-7, is
# 6.4e-5 (9.3e-6 at seed 0); the bound leaves a margin of 1.5 on it.  It is
# 1,100 times below the verdicts' matching tolerance of two grid steps
# (0.11), and a default of 0.02 shifts seed 0's witness times by 1.4e-4.
WITNESS_SHIFT = 1e-4


class TestDefaultStep:
    """The default RK4 step gives the verdicts, partners and (to within
    ``WITNESS_SHIFT``) witness times of a step four times finer."""

    @staticmethod
    def _at_both_steps(monkeypatch, wf, speed, cfg):
        """The verdicts at the default step, checked against a quarter step."""
        coarse = visibility(wf, speed, cfg)
        monkeypatch.setattr(rays, "DEFAULT_RAY_STEP", rays.DEFAULT_RAY_STEP / 4)
        fine = visibility(wf, speed, cfg)
        pairs = list(zip(coarse, fine))
        assert [(a.verdict, a.partner_index) for a, _ in pairs] == \
            [(b.verdict, b.partner_index) for _, b in pairs]
        shift = max(abs(a.witness.t_det - b.witness.t_det) for a, b in pairs if a.witness)
        assert shift <= WITNESS_SHIFT, f"witness times shift by {shift:.2e}"
        return coarse

    def _check_against_a_quarter_step(self, monkeypatch):
        coarse = self._at_both_steps(monkeypatch, *_small_arc())
        assert [v.verdict for v in coarse].count("visible") == 16

    def test_default_step_keeps_the_verdicts_of_a_quarter_step(self, monkeypatch):
        self._check_against_a_quarter_step(monkeypatch)

    def test_default_step_keeps_a_masked_pair(self, monkeypatch):
        # the pair of test_symmetric_pair_masks_in_restricted_aperture through
        # the sinusoidal speed: no benchmark seed yields a masked verdict, so
        # this is the masking search's result at the default step.  On the
        # 161^2 grid of _speed() the pair reads visible instead, as its time
        # gap of 0.076 exceeds the two-grid-step tolerance 2h = 0.075
        speed = sample_speed(SpeedSpec(kind="sinusoidal"),
                             make_grid(L=3.6, n=129, pml_width=0.5))
        cfg = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=2.5, aperture=(-0.1, 0.1), t0=1.5)
        wf = [Covector(y=(0.8, 0.0), xi=(1.0, 0.0)), Covector(y=(-0.8, 0.0), xi=(1.0, 0.0))]
        coarse = self._at_both_steps(monkeypatch, wf, speed, cfg)
        assert [(v.verdict, v.partner_index) for v in coarse] == \
            [("masked", 1), ("masked", 0)]

    def test_a_default_of_0_02_is_rejected(self, monkeypatch):
        monkeypatch.setattr(rays, "DEFAULT_RAY_STEP", 0.02)
        with pytest.raises(AssertionError, match="witness times shift by"):
            self._check_against_a_quarter_step(monkeypatch)
