import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringtat.field import (
    Covector,
    DiscComponent,
    GaussianComponent,
    SpeedSpec,
    gaussian_phantom,
    make_grid,
    gradient_magnitude,
    make_phantom,
    phantom_edges,
    _eta,
    sample_speed,
    transition,
)


def _disc(grid, center=(0.0, 0.0), radius=0.3, taper=0.1, amp=1.0):
    return make_phantom([DiscComponent(center, radius, taper, amp)], grid)


class TestGrid:
    def test_spacing(self):
        g = make_grid(L=4.0, n=257)
        assert g.h == pytest.approx(0.03125, abs=0)
        assert g.axis[0] == -4.0 and g.axis[-1] == 4.0

    def test_rejects_domain_not_containing_unit_disc(self):
        with pytest.raises(ValueError):
            make_grid(L=1.0, n=64)

    def test_rejects_pml_overlapping_unit_disc(self):
        with pytest.raises(ValueError):
            make_grid(L=1.5, n=64, pml_width=0.6)

    @pytest.mark.parametrize("L, pml_width", [(math.nan, 0.5), (math.inf, 0.5), (3.6, math.nan)])
    def test_rejects_non_finite(self, L, pml_width):
        with pytest.raises(ValueError):
            make_grid(L=L, n=64, pml_width=pml_width)


class TestTransition:
    def test_midpoint_is_exactly_half(self):
        # the two bump terms coincide at s = 1/2
        assert transition(0.5) == 0.5

    def test_frozen_values(self):
        assert transition(0.25) == pytest.approx(0.935030830871336, rel=1e-13)
        assert transition(0.75) == pytest.approx(0.06496916912866406, rel=1e-13)

    def test_endpoints(self):
        assert transition(0.0) == 1.0
        assert transition(1.0) == 0.0
        assert transition(-3.0) == 1.0
        assert transition(7.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_and_bounded(self, s):
        v = float(transition(s))
        assert 0.0 <= v <= 1.0
        eps = 1e-6
        if s + eps <= 1.0:
            assert transition(s + eps) <= v + 1e-12

    def test_symmetry(self):
        s = np.linspace(0, 1, 101)
        assert np.allclose(transition(s) + transition(1.0 - s), 1.0, atol=1e-14)


class TestCutoff:
    def test_plateau_and_support(self):
        assert _eta(0.5, 0.0) == 1.0
        assert _eta(0.0, -0.79) == 1.0
        assert _eta(1.0, 0.0) == 0.0
        assert _eta(0.8, 0.6) == 0.0  # rho = 1.0
        assert float(_eta(0.85, 0.0)) == pytest.approx(0.935030830871336, rel=1e-13)


class TestSpeed:
    def test_sinusoidal_frozen_value(self):
        g = make_grid(L=4.0, n=161)
        sf = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        # node (0.3, 0.2) exists on this grid: h = 0.05
        i = np.argmin(np.abs(g.axis - 0.3))
        j = np.argmin(np.abs(g.axis - 0.2))
        assert g.axis[i] == pytest.approx(0.3, abs=1e-12)
        assert sf.c[i, j] == pytest.approx(1.1094862941942443, rel=1e-13)

    def test_unit_outside_disc(self):
        g = make_grid(L=2.0, n=201)
        sf = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        rho = g.radius()
        assert np.all(sf.c[rho >= 1.0] == 1.0)

    def test_constant_must_be_unit(self):
        g = make_grid(L=2.0, n=64)
        sf = sample_speed(SpeedSpec(kind="constant"), g)
        assert np.all(sf.c == 1.0)

    def test_radial_bump_positive_contrast(self):
        g = make_grid(L=2.0, n=101)
        sf = sample_speed(SpeedSpec(kind="radial_bump"), g)
        assert sf.max_c == 1.3  # the center node
        assert sf.c.min() >= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown speed kind 'quadratic'"):
            SpeedSpec(kind="quadratic")

    def test_bounds(self):
        g = make_grid(L=2.0, n=129)
        sf = sample_speed(SpeedSpec(kind="sinusoidal"), g)
        assert 0.7 - 1e-12 <= sf.c.min() and sf.max_c <= 1.3 + 1e-12

    def test_fields_compare_and_hash_by_grid_and_spec(self):
        # the detector's measurement map caches on the field, so two commands
        # that each sample the same spec on the same grid share one map
        g = make_grid(L=2.0, n=33)
        a, b = (sample_speed(SpeedSpec(kind="sinusoidal"), g) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert np.array_equal(a.c, b.c)
        bump = sample_speed(SpeedSpec(kind="radial_bump"), g)
        finer = sample_speed(SpeedSpec(kind="sinusoidal"), make_grid(L=2.0, n=65))
        assert bump != a and finer != a and len({a, b, bump, finer}) == 3

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal", "radial_bump"])
    @pytest.mark.parametrize("L, n", [(3.6, 16), (1.01, 129), (3.6, 129), (3.6, 1025)])
    def test_unit_outside_disc_and_bounded_on_every_grid(self, kind, L, n):
        g = make_grid(L=L, n=n)
        c = sample_speed(SpeedSpec(kind=kind), g).c
        assert np.all(c[g.radius() >= 1.0] == 1.0)
        assert 0.7 <= c.min() and c.max() <= 1.3


class TestPhantom:
    def test_gaussian_frozen_values(self):
        g = make_grid(L=2.0, n=321)  # h = 0.0125, nodes hit 0.2 and 0.35
        p = gaussian_phantom(g, center=(0.0, 0.0), sigma=0.1)
        i0 = g.n // 2
        di = round(0.2 / g.h)
        assert p[i0 + di, i0] == pytest.approx(0.13533528323661262, rel=1e-12)
        di = round(0.35 / g.h)
        assert p[i0 + di, i0] == pytest.approx(0.0010937455590914436, rel=1e-12)

    def test_gaussian_support_is_four_sigma(self):
        g = make_grid(L=2.0, n=161)
        p = gaussian_phantom(g, sigma=0.1)
        rho = g.radius()
        assert np.all(p[rho >= 0.4] == 0.0)
        assert np.any(p[rho <= 0.39] > 0.0)

    def test_disc_plateau(self):
        g = make_grid(L=2.0, n=201)
        p = _disc(g, center=(0.1, 0.0), radius=0.3, taper=0.1, amp=2.0)
        X, Y = g.mesh()
        rho = np.hypot(X - 0.1, Y)
        assert np.all(p[rho <= 0.3] == 2.0)
        assert np.all(p[rho >= 0.4] == 0.0)

    def test_support_violation_rejected(self):
        g = make_grid(L=2.0, n=101)
        with pytest.raises(ValueError, match="support"):
            _disc(g, center=(0.5, 0.0), radius=0.4, taper=0.1)
        with pytest.raises(ValueError, match="support"):
            gaussian_phantom(g, center=(0.8, 0.0), sigma=0.05)

    def test_support_margin_boundary(self):
        g = make_grid(L=2.0, n=101)
        # reach = 0.5 + 0.45 = 0.95 = 1 - the support margin: allowed
        _disc(g, center=(0.5, 0.0), radius=0.35, taper=0.1)
        with pytest.raises(ValueError):
            _disc(g, center=(0.51, 0.0), radius=0.35, taper=0.1)

    def test_multi_component_sum(self):
        g = make_grid(L=2.0, n=161)
        p = make_phantom(
            [
                GaussianComponent(center=(0.3, 0.0), sigma=0.08),
                DiscComponent(center=(-0.3, 0.1), radius=0.2, taper=0.08, amp=0.5),
            ],
            g,
        )
        p1 = gaussian_phantom(g, center=(0.3, 0.0), sigma=0.08)
        p2 = _disc(g, center=(-0.3, 0.1), radius=0.2, taper=0.08, amp=0.5)
        assert np.allclose(p, p1 + p2, atol=0)

    @pytest.mark.parametrize("kind,args", [
        (GaussianComponent, ((0.0, math.nan), 0.1)),
        (GaussianComponent, ((0.0, 0.0), math.nan)),
        (GaussianComponent, ((0.0, 0.0), 0.1, math.inf)),
        (DiscComponent, ((math.inf, 0.0), 0.3, 0.1)),
        (DiscComponent, ((0.0, 0.0), math.nan, 0.1)),
        (DiscComponent, ((0.0, 0.0), 0.3, math.nan)),
        (DiscComponent, ((0.0, 0.0), 0.3, 0.1, -math.inf)),
    ])
    def test_rejects_non_finite_parameters(self, kind, args):
        with pytest.raises(ValueError, match="finite"):
            kind(*args)

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValueError, match="sigma"):
            GaussianComponent((0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="nonzero square"):  # sigma**2 underflows to 0
            GaussianComponent((0.0, 0.0), 1e-170)
        with pytest.raises(ValueError, match="sigma = -0.3 must be positive"):
            GaussianComponent((0.5, 0.0), -0.3)  # its reach |c| + 4 sigma is negative
        with pytest.raises(ValueError, match="taper"):
            DiscComponent((0.0, 0.0), 0.3, -0.1)
        with pytest.raises(ValueError, match="radius = -5 must be >= 0"):
            DiscComponent((0.0, 0.0), -5.0, 0.1)

    @pytest.mark.parametrize("component", [
        DiscComponent((0.0, 0.0), 0.0, 1.1125369292536007e-308),
        GaussianComponent((0.0, 0.0), 1e-160),
    ])
    def test_widths_near_the_float_minimum_sample_without_warnings(self, component):
        # the scaled distances overflow to inf, whose limits are exact: the
        # center node is 1 and every other node 0
        g = make_grid(L=2.0, n=65)
        f = make_phantom([component], g)
        assert f[32, 32] == 1.0 and np.count_nonzero(f) == 1

    def test_empty_spec_is_zero_phantom(self):
        g = make_grid(L=2.0, n=64)
        p = make_phantom([], g)
        assert p.shape == (64, 64) and np.all(p == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        cx=st.floats(-0.4, 0.4),
        cy=st.floats(-0.4, 0.4),
        sigma=st.floats(0.02, 0.12),
    )
    def test_support_always_inside_disc(self, cx, cy, sigma):
        g = make_grid(L=1.5, n=129)
        try:
            p = gaussian_phantom(g, center=(cx, cy), sigma=sigma)
        except ValueError:
            reach = float(np.hypot(cx, cy)) + 4.0 * sigma
            assert reach > 0.95 - 1e-9
            return
        rho = g.radius()
        assert np.all(p[rho >= 1.0] == 0.0)


class TestCovector:
    def test_direction_normalized(self):
        cv = Covector(y=(0.2, -0.1), xi=(3.0, 4.0))
        assert np.hypot(*cv.xi) == pytest.approx(1.0, abs=1e-15)
        assert cv.xi[0] == pytest.approx(0.6)

    def test_base_point_inside(self):
        with pytest.raises(ValueError):
            Covector(y=(1.0, 0.0), xi=(1.0, 0.0))
        with pytest.raises(ValueError):
            Covector(y=(0.2, 0.0), xi=(0.0, 0.0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"y": (math.nan, 0.0)}, "base point"),
        ({"y": (math.inf, 0.0)}, "base point"),
        ({"xi": (math.inf, 0.0)}, "direction"),
        ({"xi": (math.nan, math.nan)}, "direction"),
        ({"xi": (math.nan, 1.0)}, "direction"),
        ({"magnitude": math.nan}, "magnitude"),
        ({"magnitude": math.inf}, "magnitude"),
        ({"magnitude": 0.0}, "magnitude"),
    ])
    def test_rejects_non_finite_or_degenerate(self, kwargs, message):
        # a NaN covector would be traced for the whole t_max and never escape
        with pytest.raises(ValueError, match=message):
            Covector(**{"y": (0.2, 0.0), "xi": (1.0, 0.0), **kwargs})

    def test_edges_come_in_opposite_pairs(self):
        g = make_grid(L=1.5, n=161)
        p = _disc(g, center=(0.2, 0.1), radius=0.25, taper=0.1)
        cvs = phantom_edges(p, g, threshold=0.9, max_count=20)
        assert cvs and len(cvs) % 2 == 0
        for a, b in zip(cvs[0::2], cvs[1::2]):
            assert a.y == b.y
            assert a.xi[0] == pytest.approx(-b.xi[0])
            assert a.xi[1] == pytest.approx(-b.xi[1])

    def test_edges_point_radially_for_disc(self):
        g = make_grid(L=1.5, n=201)
        p = _disc(g, center=(0.0, 0.0), radius=0.3, taper=0.1)
        cvs = phantom_edges(p, g, threshold=0.95, max_count=16)
        for cv in cvs[0::2]:
            y = np.array(cv.y)
            radial = y / np.linalg.norm(y)
            # gradient of a radial profile is parallel to the radius
            assert abs(np.dot(np.array(cv.xi), radial)) > 0.999

    @pytest.mark.parametrize("kwargs, key", [
        ({"threshold": 1.0}, "threshold"), ({"stride": 0}, "stride"),
        ({"stride": -2}, "stride"), ({"max_count": 0}, "max_count"),
        ({"max_count": -1}, "max_count"),
    ])
    def test_edge_knobs_out_of_range_rejected(self, kwargs, key):
        g = make_grid(L=1.5, n=64)
        p = _disc(g, radius=0.2, taper=0.1)
        with pytest.raises(ValueError, match=key):
            phantom_edges(p, g, **kwargs)

    def test_flat_phantom_has_no_edges(self):
        g = make_grid(L=1.5, n=64)
        p = _disc(g, radius=0.2, taper=0.1, amp=0.0)
        assert phantom_edges(p, g) == []

    def test_sign_flip_gives_same_covector_set(self):
        g = make_grid(L=1.5, n=101)
        p = _disc(g, center=(0.15, -0.1), radius=0.25, taper=0.1)
        set_pos = {(c.y, c.xi) for c in phantom_edges(p, g, threshold=0.8)}
        set_neg = {(c.y, c.xi) for c in phantom_edges(-p, g, threshold=0.8)}
        assert set_pos == set_neg

    def test_two_discs_give_two_rim_clusters(self):
        g = make_grid(L=1.5, n=161)
        p = make_phantom(
            [
                DiscComponent(center=(-0.4, 0.0), radius=0.15, taper=0.08),
                DiscComponent(center=(0.45, 0.1), radius=0.15, taper=0.08),
            ],
            g,
        )
        pts = np.array([c.y for c in phantom_edges(p, g, threshold=0.5)])
        d_left = np.hypot(pts[:, 0] + 0.4, pts[:, 1])
        d_right = np.hypot(pts[:, 0] - 0.45, pts[:, 1] - 0.1)
        near = np.minimum(d_left, d_right)
        # every edge point belongs to exactly one rim annulus
        assert np.all(near < 0.25)
        assert np.any(d_left < d_right) and np.any(d_right < d_left)

    @pytest.mark.parametrize("m", [63, 65])
    def test_array_off_the_grid_is_refused(self, m):
        # unchecked, a smaller array gives edges at wrong positions and a
        # larger one can index past the grid's axis
        g = make_grid(L=1.5, n=64)
        f = _disc(make_grid(L=1.5, n=m), radius=0.2, taper=0.1)
        with pytest.raises(ValueError, match=rf"phantom shape \({m}, {m}\) is not the grid's"):
            gradient_magnitude(f, g)
        with pytest.raises(ValueError, match=rf"phantom shape \({m}, {m}\) is not the grid's"):
            phantom_edges(f, g)
