"""Command line front end: experiment configs, artifact files, subcommands.

An experiment is described by a flat key-value config with sections::

    # comment
    [grid]
    l = 3.6
    n = 129
    pml_width = 0.5

    [speed]
    kind = sinusoidal

    [phantom]
    gaussian.1 = 0.25 -0.15 0.15        # cx cy sigma [amp]
    disc.1     = -0.3 0.2 0.15 0.05     # cx cy radius taper [amp]

    [detector]
    mode = large        # small needs center_radius and r, large needs r
    r = 2.0
    n_theta = 60
    n_alpha = 256

    [time]
    t = 5.0             # record / cutoff plateau length
    # t1 = 5.5          # optional taper end: record to t1, weight by a
    #                   # smooth cutoff that is 1 on [0, t] and 0 past t1
    # nt = 401          # optional; otherwise the CFL bound picks the lattice

    [aperture]          # optional section
    # arc = -1.5708 0.0
    # window = 0.0 5.0

    [recon]
    method = cg         # or landweber
    iters = 15

    [run]
    seed = 0
    out_dir = out

Unknown sections or keys are rejected.  Every value feeds the corresponding
module constructor, so module invariants are re-validated at load time.

Subcommands: ``forward`` (simulate a sinogram), ``reconstruct`` (iterative
inversion of a sinogram file), ``visibility`` (classify phantom edges),
``sweep`` (radius-sweep PDE residual refinement study), ``selftest``
(built-in checks).  Exit codes: 0 success, 1 check failure, 2 usage,
config or input-file error (a sinogram with a NaN or infinite entry is
rejected before any solve), 3 solver failure (divergence, breakdown,
non-finite values).

Array artifacts use a fixed binary format (magic ``TATARR1``, version byte,
dtype byte for little-endian float64, rank byte, uint64 dims, row-major
payload) plus a JSON sidecar carrying semantic metadata.  Quicklook images
are 16-bit binary PGM, min-max scaled, with the scale recorded in the
sidecar so the quantized view is recoverable exactly.

The optional ``[noise]`` section adds seeded Gaussian noise to simulated
sinograms; this is a robustness-experiment extension, not part of the
measurement model.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Bad experiment config: unknown key, missing file, violated invariant."""


class ArrayFormatError(ValueError):
    """Malformed array artifact."""


# ---------------------------------------------------------------------------
# array artifacts

MAGIC = b"TATARR1"
FORMAT_VERSION = 1
_DTYPE_F64_LE = 1
_HEADER_FIXED = len(MAGIC) + 3  # magic, version, dtype, rank


def write_array(path, arr, meta: dict | None = None) -> None:
    """Write ``arr`` and its JSON sidecar ``<path>.json``.

    The payload is row-major little-endian float64; the sidecar repeats the
    dims so either file alone is checkable.
    """
    import numpy as np

    path = Path(path)
    a = np.ascontiguousarray(arr, dtype="<f8")
    head = MAGIC + bytes([FORMAT_VERSION, _DTYPE_F64_LE, a.ndim])
    head += b"".join(struct.pack("<Q", d) for d in a.shape)
    path.write_bytes(head + a.tobytes())
    sidecar = dict(meta or {})
    sidecar["dims"] = list(a.shape)
    sidecar["format"] = MAGIC.decode()
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )


def read_array(path):
    """Read an array artifact, returning (array, sidecar dict).

    A missing sidecar yields an empty dict; a present one must agree with
    the header dims.
    """
    import numpy as np

    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER_FIXED or raw[: len(MAGIC)] != MAGIC:
        raise ArrayFormatError(f"{path}: not a {MAGIC.decode()} array file")
    version, dtype_code, rank = raw[7], raw[8], raw[9]
    if version != FORMAT_VERSION:
        raise ArrayFormatError(f"{path}: unsupported format version {version}")
    if dtype_code != _DTYPE_F64_LE:
        raise ArrayFormatError(f"{path}: unsupported dtype code {dtype_code}")
    if len(raw) < _HEADER_FIXED + 8 * rank:
        raise ArrayFormatError(f"{path}: header truncated")
    dims = struct.unpack("<" + "Q" * rank, raw[_HEADER_FIXED : _HEADER_FIXED + 8 * rank])
    count = 1
    for d in dims:
        count *= d
    expected = _HEADER_FIXED + 8 * rank + 8 * count
    if len(raw) != expected:
        raise ArrayFormatError(
            f"{path}: expected {expected} bytes for dims {list(dims)}, got {len(raw)}"
        )
    arr = np.frombuffer(raw[_HEADER_FIXED + 8 * rank :], dtype="<f8").reshape(dims).copy()
    sidecar_path = Path(str(path) + ".json")
    sidecar: dict = {}
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        if "dims" in sidecar and list(sidecar["dims"]) != list(dims):
            raise ArrayFormatError(
                f"{path}: sidecar dims {sidecar['dims']} do not match header dims {list(dims)}"
            )
    return arr, sidecar


def write_pgm(path, img, vmin: float | None = None, vmax: float | None = None):
    """16-bit binary PGM quicklook; returns the (vmin, vmax) scale used."""
    import numpy as np

    v = np.asarray(img, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM quicklook needs a 2-D array")
    lo = float(v.min()) if vmin is None else float(vmin)
    hi = float(v.max()) if vmax is None else float(vmax)
    if hi > lo:
        q = np.clip(np.round((v - lo) / (hi - lo) * 65535.0), 0, 65535).astype(">u2")
    else:
        q = np.zeros(v.shape, dtype=">u2")
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n65535\n".encode()
    Path(path).write_bytes(header + q.tobytes())
    return lo, hi


def _image_to_rows(f):
    # node array indexed [ix, iy] -> raster rows top to bottom (+y up)
    return f.T[::-1, :]


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Parse the sectioned key-value grammar into nested dicts (raw strings)."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
        elif "=" in line:
            if current is None:
                raise ConfigError(f"line {lineno}: key outside any section")
            key, value = line.split("=", 1)
            key = key.strip().lower()
            if not key:
                raise ConfigError(f"line {lineno}: empty key")
            if key in sections[current]:
                raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current}]")
            sections[current][key] = value.strip()
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value' or '[section]'")
    return sections


_KNOWN_KEYS = {
    "grid": {"l", "n", "pml_width"},
    "speed": {"kind", "c0", "amp", "kx", "ky", "sigma", "eta_radius", "eta_taper"},
    "phantom": None,  # gaussian.* / disc.* / margin, checked separately
    "detector": {"mode", "r", "n_theta", "n_alpha"},
    "time": {"t", "t1", "nt"},
    "aperture": {"arc", "window"},
    "recon": {"method", "iters", "step", "tol", "tikhonov"},
    "run": {"seed", "out_dir"},
    "noise": {"sigma_rel"},
    "visibility": {"threshold", "stride", "max_count"},
    "sweep": {"levels", "base_radius", "delta_r", "base_n", "base_nt", "base_n_theta",
              "duration", "window"},
}


def _check_keys(sections: dict[str, dict[str, str]]) -> None:
    for name, body in sections.items():
        if name == "detector":
            continue  # mode-dependent, validated in the builder
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        allowed = _KNOWN_KEYS[name]
        if allowed is None:
            continue
        for key in body:
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in [{name}]")


def _get(body: dict[str, str], key: str, conv, default=None, section: str = ""):
    if key not in body:
        return default
    try:
        return conv(body[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _require(body: dict[str, str], key: str, conv, section: str):
    if key not in body:
        raise ConfigError(f"[{section}] is missing required key '{key}'")
    try:
        return conv(body[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _floats(value: str) -> list[float]:
    parts = value.replace(",", " ").split()
    return [float(p) for p in parts]


@dataclass(frozen=True)
class SweepSettings:
    levels: int = 2
    base_radius: float = 2.1
    delta_r: float = 0.1
    base_n: int = 129
    base_nt: int = 203
    base_n_theta: int = 40
    duration: float = 3.0
    window: tuple[float, float] = (1.2, 2.8)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs, with module invariants already enforced."""

    grid: object
    speed_spec: object
    phantom_spec: object
    detector: object
    plateau: float  # cutoff plateau end (the [time] t key)
    cutoff_end: float | None  # t1, None for a hard window
    window: tuple[float, float] | None
    method: str
    iters: int
    step: float | None
    tol: float
    tikhonov: float
    seed: int
    out_dir: str
    noise_rel: float
    vis_threshold: float
    vis_stride: int
    vis_max_count: int
    sweep: SweepSettings


def build_experiment(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    from .detector import DetectorConfig, LargeMode, SmallMode
    from .field import (
        DiscComponent,
        GaussianComponent,
        PhantomSpec,
        SpeedSpec,
        make_grid,
        make_phantom,
    )

    _check_keys(sections)
    for required in ("grid", "detector"):
        if required not in sections:
            raise ConfigError(f"config is missing the [{required}] section")

    g = sections["grid"]
    for key in g:
        if key not in _KNOWN_KEYS["grid"]:
            raise ConfigError(f"unknown key '{key}' in [grid]")
    grid = make_grid(
        L=_require(g, "l", float, "grid"),
        n=_require(g, "n", int, "grid"),
        pml_width=_get(g, "pml_width", float, 0.5, "grid"),
    )

    sp = sections.get("speed", {})
    kwargs = {}
    for key, conv in (("kind", str), ("c0", float), ("amp", float), ("kx", float),
                      ("ky", float), ("sigma", float), ("eta_radius", float),
                      ("eta_taper", float)):
        if key in sp:
            kwargs[key] = conv(sp[key])
    speed_spec = SpeedSpec(**kwargs)

    ph = sections.get("phantom", {})
    components = []
    for key, value in ph.items():
        base = key.split(".", 1)[0]
        vals = _floats(value)
        if base == "gaussian":
            if len(vals) not in (3, 4):
                raise ConfigError(f"[phantom] {key}: expected 'cx cy sigma [amp]'")
            components.append(GaussianComponent(center=(vals[0], vals[1]), sigma=vals[2],
                                                amp=vals[3] if len(vals) == 4 else 1.0))
        elif base == "disc":
            if len(vals) not in (4, 5):
                raise ConfigError(f"[phantom] {key}: expected 'cx cy radius taper [amp]'")
            components.append(DiscComponent(center=(vals[0], vals[1]), radius=vals[2],
                                            taper=vals[3], amp=vals[4] if len(vals) == 5 else 1.0))
        else:
            raise ConfigError(f"unknown key '{key}' in [phantom]")
    phantom_spec = PhantomSpec(components)

    det = sections["detector"]
    mode_name = _require(det, "mode", str, "detector").lower()
    det_keys = {"mode", "r", "n_theta", "n_alpha"}
    if mode_name == "small":
        det_keys.add("center_radius")
        mode = SmallMode(R=_require(det, "center_radius", float, "detector"),
                         r=_require(det, "r", float, "detector"))
    elif mode_name == "large":
        if "center_radius" in det:
            raise ConfigError("[detector] large mode pins the centers to the unit "
                              "circle; it takes no center_radius key")
        mode = LargeMode(r=_require(det, "r", float, "detector"))
    else:
        raise ConfigError(f"[detector] mode must be 'small' or 'large', got '{mode_name}'")
    for key in det:
        if key not in det_keys:
            raise ConfigError(f"unknown key '{key}' in [detector]")

    tm = sections.get("time", {})
    plateau = _get(tm, "t", float, 5.0, "time")
    cutoff_end = _get(tm, "t1", float, None, "time")
    nt = _get(tm, "nt", int, None, "time")
    if cutoff_end is not None and cutoff_end <= plateau:
        raise ConfigError("[time] t1 must exceed t")
    record_T = cutoff_end if cutoff_end is not None else plateau

    ap = sections.get("aperture", {})
    arc = None
    if "arc" in ap:
        vals = _floats(ap["arc"])
        if len(vals) != 2:
            raise ConfigError("[aperture] arc: expected two angles")
        arc = (vals[0], vals[1])
    window = None
    if "window" in ap:
        vals = _floats(ap["window"])
        if len(vals) != 2 or vals[1] <= vals[0]:
            raise ConfigError("[aperture] window: expected an increasing time pair")
        window = (vals[0], vals[1])

    detector = DetectorConfig(
        mode=mode,
        n_theta=_get(det, "n_theta", int, 180, "detector"),
        n_alpha=_get(det, "n_alpha", int, 256, "detector"),
        T=record_T,
        nt=nt,
        aperture=arc,
    )

    rc = sections.get("recon", {})
    method = _get(rc, "method", str, "cg", "recon").lower()
    if method not in ("cg", "landweber"):
        raise ConfigError(f"[recon] method must be 'cg' or 'landweber', got '{method}'")

    rn = sections.get("run", {})
    nz = sections.get("noise", {})
    vis = sections.get("visibility", {})
    sw = sections.get("sweep", {})
    sweep_window = (1.2, 2.8)
    if "window" in sw:
        vals = _floats(sw["window"])
        if len(vals) != 2 or vals[1] <= vals[0]:
            raise ConfigError("[sweep] window: expected an increasing time pair")
        sweep_window = (vals[0], vals[1])
    sweep = SweepSettings(
        levels=_get(sw, "levels", int, 2, "sweep"),
        base_radius=_get(sw, "base_radius", float, 2.1, "sweep"),
        delta_r=_get(sw, "delta_r", float, 0.1, "sweep"),
        base_n=_get(sw, "base_n", int, 129, "sweep"),
        base_nt=_get(sw, "base_nt", int, 203, "sweep"),
        base_n_theta=_get(sw, "base_n_theta", int, 40, "sweep"),
        duration=_get(sw, "duration", float, 3.0, "sweep"),
        window=sweep_window,
    )

    cfg = ExperimentConfig(
        grid=grid,
        speed_spec=speed_spec,
        phantom_spec=phantom_spec,
        detector=detector,
        plateau=plateau,
        cutoff_end=cutoff_end,
        window=window,
        method=method,
        iters=_get(rc, "iters", int, 15, "recon"),
        step=_get(rc, "step", float, None, "recon"),
        tol=_get(rc, "tol", float, 1e-6, "recon"),
        tikhonov=_get(rc, "tikhonov", float, 0.0, "recon"),
        seed=_get(rn, "seed", int, 0, "run"),
        out_dir=rn.get("out_dir", "."),
        noise_rel=_get(nz, "sigma_rel", float, 0.0, "noise"),
        vis_threshold=_get(vis, "threshold", float, 0.5, "visibility"),
        vis_stride=_get(vis, "stride", int, 4, "visibility"),
        vis_max_count=_get(vis, "max_count", int, 64, "visibility"),
        sweep=sweep,
    )
    # fail fast: phantom support validates at load, not mid-run
    make_phantom(phantom_spec, grid)
    if cfg.noise_rel < 0:
        raise ConfigError("[noise] sigma_rel must be nonnegative")
    if cfg.iters < 1:
        raise ConfigError("[recon] iters must be positive")
    return cfg


def load_experiment(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config not found: {p}")
    return build_experiment(parse_config_text(p.read_text()))


# ---------------------------------------------------------------------------
# shared command plumbing


def _sample(cfg: ExperimentConfig):
    from .field import make_phantom, sample_speed

    speed = sample_speed(cfg.speed_spec, cfg.grid)
    phantom = make_phantom(cfg.phantom_spec, cfg.grid)
    return speed, phantom


def _pml(cfg: ExperimentConfig):
    from .wave import pml_profile

    if cfg.grid.pml_width == 0.0:
        return None
    return pml_profile(cfg.grid)


def _detector_meta(cfg: ExperimentConfig, speed) -> dict:
    from .detector import SmallMode, _time_lattice

    nt, dt = _time_lattice(speed, cfg.detector)
    mode = cfg.detector.mode
    if isinstance(mode, SmallMode):
        geom = {"kind": "small", "center_radius": mode.R, "r": mode.r}
    else:
        geom = {"kind": "large", "center_radius": 1.0, "r": mode.r}
    return {
        "mode": geom,
        "n_theta": cfg.detector.n_theta,
        "n_alpha": cfg.detector.n_alpha,
        "T": cfg.detector.T,
        "nt": nt,
        "dt": dt,
        "aperture": list(cfg.detector.aperture) if cfg.detector.aperture else None,
    }


def _grid_meta(grid) -> dict:
    return {"L": grid.L, "n": grid.n, "pml_width": grid.pml_width, "h": grid.h}


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(cfg: ExperimentConfig, args) -> int:
    return cfg.seed if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# forward


def cmd_forward(args) -> int:
    import numpy as np

    from .detector import forward_operator

    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    speed, phantom = _sample(cfg)
    sino = forward_operator(phantom.f, speed, cfg.detector, pml=_pml(cfg))
    data = sino.data.copy()
    seed = _seed(cfg, args)
    if cfg.noise_rel > 0.0:
        peak = float(np.abs(data).max())
        if peak > 0.0:
            rng = np.random.default_rng(seed)
            data += cfg.noise_rel * peak * rng.standard_normal(data.shape)

    pgm_path = out / "sinogram.pgm"
    lo, hi = write_pgm(pgm_path, data)
    meta = {
        "role": "sinogram",
        "detector": _detector_meta(cfg, speed),
        "grid": _grid_meta(cfg.grid),
        "speed_kind": cfg.speed_spec.kind,
        "seed": seed,
        "noise_sigma_rel": cfg.noise_rel,
        "quicklook": {"file": pgm_path.name, "vmin": lo, "vmax": hi},
        "axes": ["time", "theta"],
    }
    write_array(out / "sinogram.tat", data, meta)
    print(f"wrote {out / 'sinogram.tat'} ({data.shape[0]} x {data.shape[1]}), "
          f"dt={sino.dt:.6g}, peak={float(np.abs(data).max()):.6g}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def _geometry_mismatches(expect: dict, got: dict) -> list[str]:
    msgs = []
    keys = sorted(set(expect) | set(got))
    for k in keys:
        a, b = expect.get(k), got.get(k)
        if isinstance(a, dict) and isinstance(b, dict):
            msgs += [f"mode.{m}" for m in _geometry_mismatches(a, b)]
        elif a != b:
            msgs.append(f"{k}: config has {a!r}, data has {b!r}")
    return msgs


def cmd_reconstruct(args) -> int:
    import numpy as np

    from .detector import _time_lattice
    from .recon import cg_normal, landweber, time_cutoff_chi

    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    speed, phantom = _sample(cfg)

    data, sidecar = read_array(args.data)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise ArrayFormatError(
            f"{args.data}: non-finite value {data[idx]} at index {idx}; "
            "reconstruct needs finite data"
        )
    expect = _detector_meta(cfg, speed)
    got = sidecar.get("detector")
    if got is not None:
        problems = _geometry_mismatches(expect, got)
        if problems:
            detail = "; ".join(problems)
            raise ConfigError(
                f"sinogram {args.data} does not match config {args.config}: {detail}"
            )
    nt, dt = _time_lattice(speed, cfg.detector)
    if data.shape != (nt, cfg.detector.n_theta):
        raise ConfigError(
            f"sinogram {args.data} has shape {data.shape}, "
            f"config {args.config} implies {(nt, cfg.detector.n_theta)}"
        )

    cutoff = None
    if cfg.cutoff_end is not None:
        cutoff = time_cutoff_chi(cfg.plateau, cfg.cutoff_end, nt, dt)

    pml = _pml(cfg)
    if cfg.method == "landweber":
        result = landweber(data, speed, cfg.detector, pml=pml, iters=cfg.iters,
                           step=cfg.step, cutoff=cutoff, tol=cfg.tol,
                           tikhonov=cfg.tikhonov)
    else:
        result = cg_normal(data, speed, cfg.detector, pml=pml, iters=cfg.iters,
                           tol=cfg.tol, cutoff=cutoff, tikhonov=cfg.tikhonov)

    est = result.estimate.f
    pgm_path = out / "estimate.pgm"
    lo, hi = write_pgm(pgm_path, _image_to_rows(est))
    meta = {
        "role": "estimate",
        "grid": _grid_meta(cfg.grid),
        "detector": expect,
        "method": cfg.method,
        "iterations": result.iterations,
        "quicklook": {"file": pgm_path.name, "vmin": lo, "vmax": hi},
        "axes": ["x", "y"],
    }
    write_array(out / "estimate.tat", est, meta)

    with (out / "residual_history.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "residual"])
        for k, v in enumerate(result.residual_history):
            w.writerow([k, f"{v:.17g}"])

    report = {
        "method": cfg.method,
        "iterations": result.iterations,
        "step_size": result.step_size,
        "final_residual": float(result.residual_history[-1]),
    }
    truth_norm = float(np.sqrt(np.sum(phantom.f**2)))
    if truth_norm > 0.0:
        err = float(np.sqrt(np.sum((est - phantom.f) ** 2))) / truth_norm
        report["rel_l2_error"] = err
        print(f"relative l2 error vs configured phantom: {err:.6g}")
    (out / "recon_report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / 'estimate.tat'}; {result.iterations} iterations, "
          f"final residual {report['final_residual']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# visibility


def cmd_visibility(args) -> int:
    import numpy as np

    from .field import make_phantom, phantom_edges, sample_speed
    from .rays import visibility

    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    speed = sample_speed(cfg.speed_spec, cfg.grid)
    phantom = make_phantom(cfg.phantom_spec, cfg.grid)
    wf = []
    if cfg.phantom_spec.components:
        wf = phantom_edges(phantom, threshold=cfg.vis_threshold, stride=cfg.vis_stride,
                           max_count=cfg.vis_max_count)

    header = ["index", "y0", "y1", "xi0", "xi1", "magnitude", "verdict", "escaped",
              "partner_index", "witness_theta", "witness_t"]
    csv_path = out / "visibility.csv"
    if not wf:
        print("warning: phantom has no edges above threshold; empty report",
              file=sys.stderr)
        with csv_path.open("w", newline="") as fh:
            csv.writer(fh).writerow(header)
        return 0

    window = cfg.window if cfg.window is not None else (0.0, cfg.plateau)
    report = visibility(wf, speed, cfg.detector, time_window=window,
                        arc=cfg.detector.aperture)

    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, v in enumerate(report.verdicts):
            cv = v.covector
            row = [i, f"{cv.y[0]:.17g}", f"{cv.y[1]:.17g}", f"{cv.xi[0]:.17g}",
                   f"{cv.xi[1]:.17g}", f"{cv.magnitude:.17g}", v.verdict,
                   int(v.escaped),
                   "" if v.partner_index is None else v.partner_index,
                   "" if v.witness is None else f"{v.witness.theta:.17g}",
                   "" if v.witness is None else f"{v.witness.t_det:.17g}"]
            w.writerow(row)

    # overlay: phantom as a dim backdrop, edge nodes marked by verdict
    grid = cfg.grid
    f = phantom.f
    span = float(f.max() - f.min())
    base = (f - float(f.min())) / span * 0.45 if span > 0 else np.zeros_like(f)
    marks = {"visible": 1.0, "masked": 0.78, "out_of_aperture": 0.6}
    for v in report.verdicts:
        ix = int(round((v.covector.y[0] + grid.L) / grid.h))
        iy = int(round((v.covector.y[1] + grid.L) / grid.h))
        lo_x, hi_x = max(ix - 1, 0), min(ix + 2, grid.n)
        lo_y, hi_y = max(iy - 1, 0), min(iy + 2, grid.n)
        base[lo_x:hi_x, lo_y:hi_y] = marks[v.verdict]
    write_pgm(out / "overlay.pgm", _image_to_rows(base), vmin=0.0, vmax=1.0)

    counts = {k: report.count(k) for k in ("visible", "masked", "out_of_aperture")}
    print(f"wrote {csv_path}; " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


# ---------------------------------------------------------------------------
# radius-sweep refinement study


def residual_refinement_study(
    mode_kind: str,
    levels: int = 3,
    base_radius: float = 2.1,
    delta_r: float = 0.1,
    base_n: int = 129,
    base_nt: int = 203,
    base_n_theta: int = 40,
    n_alpha: int = 256,
    duration: float = 3.0,
    window: tuple[float, float] = (1.2, 2.8),
    small_r: float = 0.8,
    L: float = 3.9,
    pml_width: float = 0.5,
    speed_spec=None,
    phantom_center: tuple[float, float] = (0.25, -0.15),
    phantom_sigma: float = 0.15,
    include_wrong_stencil: bool = False,
) -> dict:
    """RMS of the radius-sweep PDE residual under simultaneous refinement.

    Level ``l`` doubles the space, time, angle and radius resolution of the
    base lattice.  The residual of the matching second-order identity must
    shrink by about 4 per level; with ``include_wrong_stencil`` (large mode
    only) the small-geometry stencil is also evaluated on the same data,
    where it has no reason to decay.
    """
    import numpy as np

    from .detector import (
        DetectorConfig,
        LargeMode,
        SmallMode,
        cylinder_residual_large,
        cylinder_residual_small,
        sweep_large_radius,
        sweep_small_radius,
    )
    from .field import SpeedSpec, gaussian_phantom, make_grid, sample_speed
    from .wave import pml_profile

    if mode_kind not in ("small", "large"):
        raise ValueError("mode_kind must be 'small' or 'large'")
    if speed_spec is None:
        speed_spec = SpeedSpec()
    hs, rms, rms_wrong = [], [], []
    for level in range(levels):
        scale = 2**level
        grid = make_grid(L=L, n=(base_n - 1) * scale + 1, pml_width=pml_width)
        speed = sample_speed(speed_spec, grid)
        phantom = gaussian_phantom(grid, center=phantom_center, sigma=phantom_sigma)
        nt = (base_nt - 1) * scale + 1
        dr = delta_r / scale
        radii = [base_radius - dr, base_radius, base_radius + dr]
        pml = pml_profile(grid)
        if mode_kind == "small":
            config = DetectorConfig(mode=SmallMode(R=base_radius, r=small_r),
                                    n_theta=base_n_theta * scale, n_alpha=n_alpha,
                                    T=duration, nt=nt)
            sweep = sweep_small_radius(phantom.f, speed, config, radii, pml=pml)
            resid = cylinder_residual_small(sweep)
        else:
            config = DetectorConfig(mode=LargeMode(r=base_radius),
                                    n_theta=base_n_theta * scale, n_alpha=n_alpha,
                                    T=duration, nt=nt)
            sweep = sweep_large_radius(phantom.f, speed, config, radii, pml=pml)
            resid = cylinder_residual_large(sweep)
        times = sweep.dt * np.arange(1, nt - 1)
        sel = (times >= window[0]) & (times <= window[1])
        hs.append(grid.h)
        rms.append(float(np.sqrt(np.mean(resid[sel] ** 2))))
        if include_wrong_stencil:
            if mode_kind != "large":
                raise ValueError("the wrong-stencil control needs a large-mode sweep")
            wrong = cylinder_residual_small(sweep)
            rms_wrong.append(float(np.sqrt(np.mean(wrong[sel] ** 2))))
    out = {
        "h": hs,
        "rms": rms,
        "ratios": [rms[i] / rms[i + 1] for i in range(len(rms) - 1)],
    }
    if include_wrong_stencil:
        out["rms_wrong"] = rms_wrong
        out["ratios_wrong"] = [rms_wrong[i] / rms_wrong[i + 1]
                               for i in range(len(rms_wrong) - 1)]
    return out


def cmd_sweep(args) -> int:
    from .detector import SmallMode

    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    sw = cfg.sweep
    mode = cfg.detector.mode
    is_small = isinstance(mode, SmallMode)
    study = residual_refinement_study(
        "small" if is_small else "large",
        levels=sw.levels,
        base_radius=sw.base_radius,
        delta_r=sw.delta_r,
        base_n=sw.base_n,
        base_nt=sw.base_nt,
        base_n_theta=sw.base_n_theta,
        n_alpha=cfg.detector.n_alpha,
        duration=sw.duration,
        window=sw.window,
        small_r=mode.r if is_small else 0.8,
        L=cfg.grid.L,
        pml_width=cfg.grid.pml_width,
        speed_spec=cfg.speed_spec,
        include_wrong_stencil=not is_small,
    )
    path = out / "sweep.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        cols = ["level", "h", "rms"] + (["rms_wrong_stencil"] if "rms_wrong" in study else [])
        w.writerow(cols)
        for i, (h, r) in enumerate(zip(study["h"], study["rms"])):
            row = [i, f"{h:.17g}", f"{r:.17g}"]
            if "rms_wrong" in study:
                row.append(f"{study['rms_wrong'][i]:.17g}")
            w.writerow(row)
    print(f"wrote {path}")
    for i, ratio in enumerate(study["ratios"]):
        print(f"refinement {i}->{i + 1}: residual ratio {ratio:.3f}")
    for i, ratio in enumerate(study.get("ratios_wrong", [])):
        print(f"refinement {i}->{i + 1}: wrong-stencil ratio {ratio:.3f}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def _selftest_adjoint(mode_kind: str, break_adjoint: bool = False):
    import numpy as np

    from .detector import DetectorConfig, LargeMode, SmallMode, _time_lattice, \
        adjoint_operator, forward_operator
    from .field import SpeedSpec, make_grid, sample_speed

    if mode_kind == "small":
        grid = make_grid(L=3.6, n=48, pml_width=0.7)
        mode = SmallMode(R=2.0, r=0.8)
    else:
        grid = make_grid(L=3.8, n=48, pml_width=0.7)
        mode = LargeMode(r=2.0)
    speed = sample_speed(SpeedSpec(), grid)
    config = DetectorConfig(mode=mode, n_theta=12, n_alpha=64, T=0.8)
    nt, _ = _time_lattice(speed, config)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((grid.n, grid.n))
    g = rng.standard_normal((nt, config.n_theta))
    Mf = forward_operator(f, speed, config).data
    if break_adjoint:
        Mf = Mf + 1e-6 * max(float(np.abs(Mf).max()), 1.0)
    Mtg = adjoint_operator(g, speed, config)
    lhs = float(np.sum(Mf * g))
    rhs = float(np.sum(f * Mtg))
    denom = float(np.sqrt(np.sum(Mf**2)) * np.sqrt(np.sum(g**2)))
    rel = abs(lhs - rhs) / denom
    return rel <= 1e-10, f"rel={rel:.3e} bound=1e-10"


def _selftest_ray_straight():
    from .field import Covector, SpeedSpec, make_grid, sample_speed
    from .rays import trace_geodesic

    grid = make_grid(L=3.0, n=65)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    path = trace_geodesic(Covector(y=(0.0, 0.0), xi=(1.0, 0.0)), speed, t_max=4.0)
    worst = max(abs(s.x[1]) + abs(s.x[0] - s.t) for s in path.states)
    end = path.exterior_point(4.0)
    worst = max(worst, abs(end[0] - 4.0) + abs(end[1]))
    return worst <= 1e-8, f"deviation={worst:.3e} bound=1e-8"


def _selftest_ray_hamiltonian():
    import math as m

    from .field import Covector, SpeedSpec, make_grid, sample_speed
    from .rays import _speed_spline, trace_geodesic

    grid = make_grid(L=3.0, n=161)
    speed = sample_speed(SpeedSpec(), grid)
    spline = _speed_spline(speed)
    path = trace_geodesic(Covector(y=(0.3, -0.2), xi=(0.6, 0.8)), speed, t_max=4.0)
    worst = 0.0
    for s in path.states:
        if m.hypot(*s.x) < 1.0:
            c = float(spline.value(s.x[None, :])[0])
            worst = max(worst, abs(c * m.hypot(*s.p) - 1.0))
    return worst <= 1e-6, f"drift={worst:.3e} bound=1e-6"


def _selftest_energy(steps: int):
    from .field import SpeedSpec, gaussian_phantom, make_grid, sample_speed
    from .wave import WaveSolver, cfl_limit, energy

    grid = make_grid(L=1.5, n=129)
    speed = sample_speed(SpeedSpec(kind="constant"), grid)
    phantom = gaussian_phantom(grid, sigma=0.15)
    solver = WaveSolver(speed, 0.5 * cfl_limit(speed))
    state = solver.init_state(phantom.f)
    e0 = energy(state, speed)
    worst = 0.0
    for _ in range(steps):
        state = solver.step(state)
        worst = max(worst, abs(energy(state, speed) - e0) / e0)
    return worst <= 1e-3, f"drift={worst:.3e} over {steps} steps, bound=1e-3"


def _selftest_pml_reflection():
    import numpy as np

    from .field import SpeedSpec, gaussian_phantom, make_grid, sample_speed, transition
    from .wave import WaveState, choose_time_steps, energy, init_state, pml_profile, \
        solve_forward

    # matched lattices: the absorbing domain is the middle of the big closed one
    grid_a = make_grid(L=1.6, n=161, pml_width=0.5)
    grid_c = make_grid(L=3.2, n=321)
    speed_a = sample_speed(SpeedSpec(kind="constant"), grid_a)
    speed_c = sample_speed(SpeedSpec(kind="constant"), grid_c)
    f_a = gaussian_phantom(grid_a, sigma=0.1).f
    f_c = gaussian_phantom(grid_c, sigma=0.1).f
    T = 1.6
    nt, dt = choose_time_steps(speed_c, T)
    ref = solve_forward(f_c, speed_c, T, dt=dt, nt=nt)
    absorbed = solve_forward(f_a, speed_a, T, pml=pml_profile(grid_a), dt=dt, nt=nt)
    lo = (grid_c.n - grid_a.n) // 2
    sl = slice(lo, lo + grid_a.n)
    du = absorbed.u_curr - ref.u_curr[sl, sl]
    dp = absorbed.u_prev - ref.u_prev[sl, sl]
    w = transition((grid_a.radius() - 0.9) / 0.1)  # 1 inside B_0.9, 0 past B_1
    z = np.zeros_like(du)
    diff_state = WaveState(du * w, dp * w, z, z.copy(), absorbed.t, dt)
    e_diff = energy(diff_state, speed_a)
    e0 = energy(init_state(f_a, speed_a, dt), speed_a)
    ratio = e_diff / e0
    return ratio <= 1e-3, f"reflected energy ratio={ratio:.3e} bound=1e-3"


def _selftest_residual(mode_kind: str):
    study = residual_refinement_study(mode_kind, levels=3)
    ok = all(3.2 <= r <= 4.8 for r in study["ratios"])
    detail = "ratios=" + ",".join(f"{r:.2f}" for r in study["ratios"]) + " want [3.2,4.8]"
    return ok, detail


def _selftest_residual_discrimination():
    study = residual_refinement_study("large", levels=3, include_wrong_stencil=True)
    ok = all(r < 3.2 for r in study["ratios_wrong"])
    detail = ("wrong-stencil ratios="
              + ",".join(f"{r:.2f}" for r in study["ratios_wrong"]) + " want < 3.2")
    return ok, detail


def cmd_selftest(args) -> int:
    checks = [
        ("adjoint_small", lambda: _selftest_adjoint("small", args.break_adjoint)),
        ("adjoint_large", lambda: _selftest_adjoint("large")),
        ("ray_straight_line", _selftest_ray_straight),
        ("ray_hamiltonian", _selftest_ray_hamiltonian),
        ("energy_conservation", lambda: _selftest_energy(1000 if args.level == "full" else 300)),
        ("pml_reflection", _selftest_pml_reflection),
    ]
    if args.level == "full":
        checks += [
            ("residual_convergence_small", lambda: _selftest_residual("small")),
            ("residual_convergence_large", lambda: _selftest_residual("large")),
            ("residual_discrimination", _selftest_residual_discrimination),
        ]
    failures = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtat",
        description="Circular-detector thermoacoustic tomography toolkit",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP threads (set before numpy loads)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="simulate a sinogram from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("reconstruct", help="invert a sinogram file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="sinogram array file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("visibility", help="classify phantom edges by ray escape")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_visibility)

    p = sub.add_parser("sweep", help="radius-sweep PDE residual refinement study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("selftest", help="built-in consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--break-adjoint", action="store_true",
                   help="fault injection: perturb one side of the adjoint check")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.fn(args)
    except (ConfigError, ArrayFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        # a solver diverged, broke down or produced non-finite values
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
