"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
CRITERION lines inline).  Each test prints

    CRITERION nn PASS|FAIL: <measured values and bounds>

and then asserts, so a red test always carries its measurement.
"""

import math
import time

import numpy as np
import pytest

from ringtat.detector import (
    DetectorConfig,
    LargeMode,
    SmallMode,
    forward_operator,
    residual_refinement_study,
)
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
from ringtat.rays import detect_events, trace_geodesic, visibility
from ringtat.recon import cg_normal, landweber
from ringtat.selftest import (
    ADJOINT_LARGE,
    ADJOINT_SMALL,
    RATIO_RANGE,
    STUDY,
    STUDY_LARGE,
    STUDY_SMALL,
    WRONG_STENCIL_BELOW,
    adjoint_identity,
    energy_conservation,
    pml_reflection,
    ray_hamiltonian,
    ray_straight_line,
    residual_convergence,
    residual_discrimination,
)
from ringtat.wave import WaveSolver, choose_time_steps, solve_forward

from dense_matrix import assemble_forward_matrix


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_01_adjoint_identity():
    t0 = time.monotonic()
    ok, detail = adjoint_identity(ADJOINT_SMALL, ADJOINT_LARGE)
    elapsed = time.monotonic() - t0
    _line(1, ok and elapsed <= 60.0,
          f"adjoint identity worst {detail} over 5 seeded pairs x 2 modes, 64^2 grid, "
          f"{elapsed:.1f}s (budget 60s)")


def test_criterion_02_center_radius_sweep_refinement():
    study = residual_refinement_study(STUDY_SMALL, STUDY)
    ratios = study["ratios"]
    ok = len(ratios) == 2 and residual_convergence(study)[0]
    lo, hi = RATIO_RANGE
    _line(2, ok, "small-geometry sweep residual ratios "
                 + ", ".join(f"{r:.3f}" for r in ratios) + f" per halving (want [{lo}, {hi}])")


def test_criterion_03_detector_radius_sweep_and_discrimination():
    study = residual_refinement_study(STUDY_LARGE, STUDY)
    ratios = study["ratios"]
    wrong = study["ratios_wrong"]
    ok = len(ratios) == 2 and residual_convergence(study)[0] and residual_discrimination(study)[0]
    lo, hi = RATIO_RANGE
    _line(3, ok, "large-geometry ratios " + ", ".join(f"{r:.3f}" for r in ratios)
                 + f" (want [{lo}, {hi}]); angular-term stencil on the same data: "
                 + ", ".join(f"{r:.3f}" for r in wrong) + f" (must stay < {WRONG_STENCIL_BELOW})")


def test_criterion_04_full_data_reconstruction():
    t0 = time.monotonic()
    grid = make_grid(L=3.6, n=129, pml_width=0.5)
    speed = sample_speed(SpeedSpec(), grid)
    phantom = gaussian_phantom(grid, center=(0.25, -0.15), sigma=0.15)
    config = DetectorConfig(mode=LargeMode(r=2.0), n_theta=60, n_alpha=256, T=5.0)
    sino = forward_operator(phantom, speed, config)
    truth = float(np.sqrt(np.sum(phantom**2)))

    lw = landweber(sino.data, speed, config, iters=50)
    lw_err = float(np.sqrt(np.sum((lw.estimate - phantom) ** 2))) / truth
    hist = lw.residual_history
    monotone = bool(np.all(np.diff(hist) <= 1e-12 * max(hist[0], 1.0)))

    cg = cg_normal(sino.data, speed, config, iters=15)
    cg_err = float(np.sqrt(np.sum((cg.estimate - phantom) ** 2))) / truth
    elapsed = time.monotonic() - t0
    ok = monotone and (lw_err <= 0.15 or cg_err <= 0.15) and elapsed <= 600.0
    _line(4, ok, f"129^2 full-data: rel l2 error {lw_err:.4f} after 50 gradient "
                 f"iterations (history monotone: {monotone}), {cg_err:.4f} after "
                 f"15 CG iterations (bound 0.15 for either); {elapsed:.0f}s (budget 600s)")


def test_criterion_05_partial_aperture_edge_recovery():
    grid = make_grid(L=3.6, n=129, pml_width=0.5)
    speed = sample_speed(SpeedSpec(), grid)
    phantom = make_phantom([DiscComponent(center=(0.0, 0.0), radius=0.55, taper=0.15)], grid)
    config = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), n_theta=45, n_alpha=256,
                            T=5.0, aperture=(-math.pi / 2, 0.0))
    sino = forward_operator(phantom, speed, config)
    est = cg_normal(sino.data, speed, config, iters=15).estimate

    wf = phantom_edges(phantom, grid, threshold=0.5, stride=2, max_count=48)
    verdicts = visibility(wf, speed, config)

    gx_t, gy_t = np.gradient(phantom, grid.h)
    gx_e, gy_e = np.gradient(est, grid.h)
    energy_t = gx_t**2 + gy_t**2
    energy_e = gx_e**2 + gy_e**2
    X, Y = grid.mesh()
    recovered: dict[str, list[float]] = {"visible": [], "invisible": []}
    for v in verdicts:
        y = v.covector.y
        window = (X - y[0]) ** 2 + (Y - y[1]) ** 2 <= 0.08**2
        denom = float(energy_t[window].sum())
        if denom == 0.0:
            continue
        key = "visible" if v.verdict == "visible" else "invisible"
        recovered[key].append(float(energy_e[window].sum()) / denom)
    vis = float(np.mean(recovered["visible"]))
    inv = float(np.mean(recovered["invisible"]))
    ratio = vis / inv
    ok = len(recovered["visible"]) >= 8 and len(recovered["invisible"]) >= 8 and ratio >= 2.0
    _line(5, ok, f"quarter-aperture recon: gradient-energy recovery "
                 f"{vis:.3f} over {len(recovered['visible'])} visible edges vs "
                 f"{inv:.3f} over {len(recovered['invisible'])} invisible, "
                 f"ratio {ratio:.2f} (want >= 2)")


def test_criterion_06_canonical_relation_structure():
    grid = make_grid(L=3.0, n=129)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    cfg_small = DetectorConfig(mode=SmallMode(R=2.0, r=0.8), T=6.0)
    cfg_large = DetectorConfig(mode=LargeMode(r=2.0), T=6.0)
    rng = np.random.default_rng(42)
    bad_counts = 0
    worst_passage = 0.0
    worst_lam = 0.0
    for _ in range(100):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = math.sqrt(rng.uniform(0.0, 0.85**2))
        d = rng.uniform(0.0, 2.0 * math.pi)
        cv = Covector(y=(rad * math.cos(ang), rad * math.sin(ang)),
                      xi=(math.cos(d), math.sin(d)))
        small_events, large_events = [], []
        for sigma in (1, -1):
            path = trace_geodesic(cv, speed, sigma=sigma, t_max=3.0, h_ray=0.02)
            for cfg, events in ((cfg_small, small_events), (cfg_large, large_events)):
                mode = cfg.mode
                for e in detect_events(path, cfg):
                    # the straight continuation must thread the detector
                    # center, r after a branch-1 crossing and r before a branch-2
                    t_center = e.t_det + (mode.r if e.branch == 1 else -mode.r)
                    pt = path.exterior_point(t_center)
                    target = mode.center_radius * np.array([math.cos(e.theta), math.sin(e.theta)])
                    worst_passage = max(worst_passage, float(np.hypot(*(pt - target))))
                    events.append(e)
        if len(small_events) != 4 or len(large_events) != 4:
            bad_counts += 1
            continue
        for e in small_events:
            worst_lam = max(worst_lam, abs(abs(e.lam) - 1.0 / (2 * 0.8)))
        for e in large_events:
            worst_lam = max(worst_lam, abs(abs(e.lam) - 1.0 / (2 * 2.0)))
    ok = bad_counts == 0 and worst_passage <= 1e-6 and worst_lam <= 1e-6
    _line(6, ok, f"100 generic covectors at unit speed: event counts 4/4 with "
                 f"{bad_counts} exceptions; center passage worst {worst_passage:.2e} "
                 f"(bound 1e-6); fiber value worst dev {worst_lam:.2e} (bound 1e-6)")


def test_criterion_07_ray_integrator():
    straight_ok, straight = ray_straight_line()
    drift_ok, drift = ray_hamiltonian()

    # endpoint error drops ~16x per halving while truncation dominates
    grid_f = make_grid(L=3.0, n=321)
    fine = sample_speed(SpeedSpec(), grid_f)
    rng = np.random.default_rng(2)
    cvs = []
    for _ in range(5):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = math.sqrt(rng.uniform(0.0, 0.25**2))
        d = rng.uniform(0.0, 2.0 * math.pi)
        cvs.append(Covector(y=(rad * math.cos(ang), rad * math.sin(ang)),
                            xi=(math.cos(d), math.sin(d))))
    refs = []
    for cv in cvs:
        p = trace_geodesic(cv, fine, t_max=0.4, h_ray=0.000625)
        assert not p.escaped
        refs.append((p.states[-1, :2], p.states[-1, 2:4]))

    def mean_err(h):
        tot = 0.0
        for cv, (rx, rp) in zip(cvs, refs):
            s = trace_geodesic(cv, fine, t_max=0.4, h_ray=h).states[-1]
            tot += math.hypot(*(s[:2] - rx)) + math.hypot(*(s[2:4] - rp))
        return tot / len(cvs)

    factor = mean_err(0.04) / mean_err(0.02)
    ok = straight_ok and drift_ok and factor >= 12.0
    _line(7, ok, f"straight-line {straight}; metric-speed {drift}; endpoint error "
                 f"factor {factor:.1f} per half-step (want >= 12)")


def test_criterion_08_wave_solver_physics():
    # finite propagation speed: relative mass beyond B_{1 + T max c + 3h}
    grid = make_grid(L=2.0, n=257)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    f = gaussian_phantom(grid, center=(0.1, -0.05), sigma=0.15)
    T = 0.5
    nt, dt = choose_time_steps(speed, T)
    state = solve_forward(f, WaveSolver(speed, dt), nt)
    u = state.u_curr
    outside = grid.radius() > 1.0 + T * float(speed.c.max()) + 3 * grid.h
    mass = float(np.sqrt(np.sum(u[outside] ** 2)) / np.sqrt(np.sum(u**2)))

    energy_ok, energy_detail = energy_conservation(1000)
    pml_ok, pml_detail = pml_reflection()
    ok = mass <= 1e-8 and energy_ok and pml_ok
    _line(8, ok, f"support leak {mass:.2e} (bound 1e-8); energy {energy_detail}; "
                 f"pml {pml_detail}")


def test_criterion_09_injectivity_proxy():
    grid = make_grid(L=3.4, n=32)
    speed = sample_speed(SpeedSpec(), grid)
    config = DetectorConfig(mode=LargeMode(r=2.0), n_theta=32, n_alpha=64, T=5.0)
    A, mask = assemble_forward_matrix(speed, config, support_radius=0.9)
    sv = np.linalg.svd(A, compute_uv=False)
    sigma_min, cond = float(sv[-1]), float(sv[0] / sv[-1])
    ok = sigma_min > 0.0
    _line(9, ok, f"dense 32^2 forward matrix {A.shape} on supports in B_0.9: "
                 f"sigma_min {sigma_min:.4e} > 0, condition number {cond:.2f}")


def test_criterion_10_full_coverage_visibility():
    grid = make_grid(L=3.0, n=161)
    speed = sample_speed(SpeedSpec(), grid)
    phantom = gaussian_phantom(grid, center=(0.2, -0.1), sigma=0.15)
    wf = phantom_edges(phantom, grid, threshold=0.5, stride=4, max_count=24)
    assert len(wf) >= 8
    counts = []
    ok = True
    for mode in (SmallMode(R=2.0, r=0.8), LargeMode(r=2.0)):
        config = DetectorConfig(mode=mode, T=5.0)
        verdicts = visibility(wf, speed, config)
        escaped = [v for v in verdicts if v.escaped]
        seen = sum(1 for v in escaped if v.verdict == "visible")
        ok = ok and len(escaped) > 0 and seen == len(escaped)
        counts.append(f"{type(mode).__name__}: {seen}/{len(escaped)} escaping edges visible")
    _line(10, ok, "full circle, record window past the coverage time: "
                  + "; ".join(counts))
