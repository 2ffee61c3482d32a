"""Command line front end: experiment configs, artifact files, subcommands.

An experiment is a flat key-value config with sections; README.md gives
its grammar (Quick start, Config grammar), and ``tests/test_readme.py``
checks that README names every section and key of ``_KNOWN_KEYS``.
Unknown sections or keys are rejected.  Every value feeds the corresponding
module constructor, so module invariants are re-validated at load time.

Subcommands: ``forward`` (simulate a sinogram), ``reconstruct`` (iterative
inversion of a sinogram file), ``visibility`` (classify phantom edges),
``sweep`` (``detector.residual_refinement_study`` on the ``[sweep]``
lattice), ``selftest`` (the check registry of ``ringtat.selftest``).  This
module only parses, dispatches and does artifact IO.  Exit codes: 0
success, 1 check failure, 2 usage, config or input-file error (a malformed
array file or sidecar, or a sinogram with a NaN or infinite entry, is
rejected before any solve; so is a path that names a directory where a file
belongs, as ``--data`` may, or a file where a directory belongs, as
``--out`` may), 3 solver failure (divergence, breakdown, non-finite
values).  A command creates ``--out`` only once its solve has succeeded,
so a run that fails leaves no directory behind.

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
import errno
import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .detector import (
    DetectorConfig,
    LargeMode,
    SmallMode,
    SweepLatticeError,
    SweepSettings,
    forward_operator,
    measurement_map,
    require_rings_clear,
    residual_refinement_study,
)
from .field import (
    DiscComponent,
    GaussianComponent,
    SpeedSpec,
    make_grid,
    make_phantom,
    phantom_edges,
    sample_speed,
    unit_exponent,
)
from .rays import visibility
from .recon import cg_normal, landweber, relative_error
from .selftest import run_checks


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
    try:
        arr = np.frombuffer(raw[_HEADER_FIXED + 8 * rank :], dtype="<f8").reshape(dims).copy()
    except (ValueError, OverflowError) as exc:  # rank or a dim numpy cannot hold
        raise ArrayFormatError(f"{path}: unsupported dims {list(dims)}: {exc}") from exc
    sidecar_path = Path(str(path) + ".json")
    sidecar: dict = {}
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_bytes())
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ArrayFormatError(f"{sidecar_path}: not a JSON sidecar: {exc}") from exc
        if not isinstance(sidecar, dict):
            raise ArrayFormatError(f"{sidecar_path}: sidecar must hold a JSON object")
        if "dims" in sidecar and sidecar["dims"] != list(dims):
            raise ArrayFormatError(
                f"{path}: sidecar dims {sidecar['dims']} do not match header dims {list(dims)}"
            )
    return arr, sidecar


def write_pgm(path, img, vmin: float | None = None, vmax: float | None = None):
    """16-bit binary PGM quicklook; returns the (vmin, vmax) scale used."""
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
    "phantom": None,  # gaussian.* / disc.*, checked separately
    "detector": {"mode", "center_radius", "r", "n_theta", "n_alpha"},  # center_radius: small
    "time": {"t", "t0", "t1", "nt"},
    "aperture": {"arc"},
    "recon": {"method", "iters", "step"},
    "run": {"seed", "out_dir"},
    "noise": {"sigma_rel"},
    "visibility": {"threshold", "stride", "max_count"},
    "speed": {f.name for f in fields(SpeedSpec)},
    "sweep": {f.name for f in fields(SweepSettings)},
}


def _check_keys(sections: dict[str, dict[str, str]]) -> None:
    for name, body in sections.items():
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
    return _get(body, key, conv, section=section)


@contextmanager
def _section(name: str, key: str | None = None):
    """Name the config section (and key) whose values a module check rejects."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{name}] {key + ': ' if key else ''}{exc}") from exc


def _floats(value: str) -> list[float]:
    parts = value.replace(",", " ").split()
    return [float(p) for p in parts]


def _positive(value: str) -> float:
    x = float(value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"expected a finite positive number, got {value}")
    return x


def _fraction(value: str) -> float:
    x = float(value)
    if not 0.0 < x < 1.0:
        raise ValueError(f"expected a number in (0, 1), got {value}")
    return x


def _count(value: str) -> int:
    x = int(value)
    if x < 1:
        raise ValueError(f"expected an integer of at least 1, got {value}")
    return x


def _stride(value: str) -> int:
    # edge extraction takes int64 node indices modulo the stride
    x = _count(value)
    if x >= 2**63:
        raise ValueError(f"expected an integer below 2**63, got {value}")
    return x


def _angle_pair(value: str) -> tuple[float, float]:
    vals = _floats(value)
    if len(vals) != 2:
        raise ValueError("expected two angles")
    return vals[0], vals[1]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a subcommand needs, with module invariants already enforced."""

    grid: object
    speed_spec: object
    phantom_spec: tuple  # of field.PhantomComponent
    detector: object
    method: str
    iters: int
    step: float | None
    seed: int
    out_dir: str
    noise_rel: float
    vis_threshold: float
    vis_stride: int
    vis_max_count: int
    sweep: object  # detector.SweepSettings


def build_experiment(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    _check_keys(sections)
    for required in ("grid", "detector"):
        if required not in sections:
            raise ConfigError(f"config is missing the [{required}] section")

    g = sections["grid"]
    L, n = _require(g, "l", float, "grid"), _require(g, "n", int, "grid")
    pml_width = _get(g, "pml_width", float, 0.5, "grid")
    with _section("grid"):
        grid = make_grid(L=L, n=n, pml_width=pml_width)
    with _section("speed"):
        speed_spec = SpeedSpec(**sections.get("speed", {}))

    ph = sections.get("phantom", {})
    components = []
    for key in ph:
        base = key.split(".", 1)[0]
        if base not in ("gaussian", "disc"):
            raise ConfigError(f"unknown key '{key}' in [phantom]")
        vals = _get(ph, key, _floats, section="phantom")
        if base == "gaussian":
            if len(vals) not in (3, 4):
                raise ConfigError(f"[phantom] {key}: expected 'cx cy sigma [amp]'")
            kind = GaussianComponent
        else:
            if len(vals) not in (4, 5):
                raise ConfigError(f"[phantom] {key}: expected 'cx cy radius taper [amp]'")
            kind = DiscComponent
        with _section("phantom", key):
            components.append(kind((vals[0], vals[1]), *vals[2:]))
    phantom_spec = tuple(components)

    det = sections["detector"]
    mode_name = _require(det, "mode", str, "detector").lower()
    if mode_name not in ("small", "large"):
        raise ConfigError(f"[detector] mode must be 'small' or 'large', got '{mode_name}'")
    if mode_name == "large" and "center_radius" in det:
        raise ConfigError("[detector] large mode pins the centers to the unit "
                          "circle; it takes no center_radius key")
    R = _require(det, "center_radius", float, "detector") if mode_name == "small" else None
    r = _require(det, "r", float, "detector")
    sampling = {key: _get(det, key, int, section="detector")
                for key in ("n_theta", "n_alpha") if key in det}
    with _section("detector"):
        mode = SmallMode(R=R, r=r) if mode_name == "small" else LargeMode(r=r)
        detector = DetectorConfig(mode=mode, **sampling)

    # with t1 the record runs to t1 and is weighted by a cutoff with plateau
    # t; without it the record runs to t, unweighted; t0 opens the window
    tm = sections.get("time", {})
    t = _get(tm, "t", float, 5.0, "time")
    t1 = _get(tm, "t1", float, None, "time")
    nt = _get(tm, "nt", int, None, "time")
    t0 = _get(tm, "t0", float, 0.0, "time")
    with _section("time"):
        detector = replace(detector, T=t if t1 is None else t1, nt=nt,
                           plateau=None if t1 is None else t, t0=t0)
    ap = sections.get("aperture", {})
    arc = _get(ap, "arc", _angle_pair, section="aperture")
    with _section("aperture"):
        detector = replace(detector, aperture=arc)

    rc = sections.get("recon", {})
    method = _get(rc, "method", str, "cg", "recon").lower()
    if method not in ("cg", "landweber"):
        raise ConfigError(f"[recon] method must be 'cg' or 'landweber', got '{method}'")
    if method == "cg" and "step" in rc:
        raise ConfigError("[recon] step is a Landweber step size; method 'cg' takes no step key")

    rn = sections.get("run", {})
    nz = sections.get("noise", {})
    vis = sections.get("visibility", {})
    sw = sections.get("sweep", {})
    sweep_keys = {f.name: _get(sw, f.name, type(f.default), section="sweep")
                  for f in fields(SweepSettings) if f.name in sw}
    with _section("sweep"):
        sweep = SweepSettings(**sweep_keys)

    cfg = ExperimentConfig(
        grid=grid,
        speed_spec=speed_spec,
        phantom_spec=phantom_spec,
        detector=detector,
        method=method,
        iters=_get(rc, "iters", int, 15, "recon"),
        step=_get(rc, "step", _positive, None, "recon"),
        seed=_get(rn, "seed", int, 0, "run"),
        out_dir=rn.get("out_dir", "."),
        noise_rel=_get(nz, "sigma_rel", float, 0.0, "noise"),
        vis_threshold=_get(vis, "threshold", _fraction, 0.5, "visibility"),
        vis_stride=_get(vis, "stride", _stride, 4, "visibility"),
        vis_max_count=_get(vis, "max_count", _count, 64, "visibility"),
        sweep=sweep,
    )
    if not 0.0 <= cfg.noise_rel < math.inf:
        raise ConfigError(f"[noise] sigma_rel: expected a finite number >= 0, got {cfg.noise_rel}")
    if cfg.seed < 0:
        raise ConfigError(f"[run] seed: expected an integer >= 0, got {cfg.seed}")
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
    # fail fast: a ring in the absorbing band is rejected before any solve
    # (sweep checks only the rings it sweeps, in its lattice)
    with _section("detector"):
        require_rings_clear(cfg.grid, cfg.detector)
    speed = sample_speed(cfg.speed_spec, cfg.grid)
    with _section("phantom"):
        phantom = make_phantom(cfg.phantom_spec, cfg.grid)
    return speed, phantom


def _detector_meta(cfg: ExperimentConfig, speed) -> dict:
    m = measurement_map(speed, cfg.detector)
    mode = cfg.detector.mode
    return {
        "mode": {"kind": mode.kind, "center_radius": mode.center_radius, "r": mode.r},
        "n_theta": cfg.detector.n_theta,
        "n_alpha": cfg.detector.n_alpha,
        "T": cfg.detector.T,
        "nt": m.nt,
        "dt": m.dt,
        "aperture": list(cfg.detector.aperture) if cfg.detector.aperture else None,
    }


def _grid_meta(grid) -> dict:
    return {"L": grid.L, "n": grid.n, "pml_width": grid.pml_width, "h": grid.h}


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    """The output directory, not yet created: a command makes it only once
    its solve has succeeded.  A file holding its name, or the name of the
    nearest ancestor that exists, is rejected now."""
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    existing = next(p for p in (out, *out.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    return out


# ---------------------------------------------------------------------------
# forward


def cmd_forward(args) -> int:
    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    speed, phantom = _sample(cfg)
    sino = forward_operator(phantom, speed, cfg.detector)
    data = sino.data.copy()
    if cfg.noise_rel > 0.0:
        peak = float(np.abs(data).max())
        if peak > 0.0:
            rng = np.random.default_rng(cfg.seed)
            # an overflow is reported below in one line
            with np.errstate(over="ignore", invalid="ignore"):
                data += cfg.noise_rel * peak * rng.standard_normal(data.shape)
            if not np.all(np.isfinite(data)):
                raise FloatingPointError(
                    f"the noisy record is not finite: [noise] sigma_rel = {cfg.noise_rel:g} "
                    f"times the record peak {peak:g} overflows")

    out.mkdir(parents=True, exist_ok=True)
    pgm_path = out / "sinogram.pgm"
    lo, hi = write_pgm(pgm_path, data)
    meta = {
        "role": "sinogram",
        "detector": _detector_meta(cfg, speed),
        "grid": _grid_meta(cfg.grid),
        "speed_kind": cfg.speed_spec.kind,
        "seed": cfg.seed,
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
    cfg = load_experiment(args.config)
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
        if not isinstance(got, dict):
            raise ArrayFormatError(f"{args.data}: sidecar 'detector' is not a JSON object")
        problems = _geometry_mismatches(expect, got)
        if problems:
            detail = "; ".join(problems)
            raise ConfigError(
                f"sinogram {args.data} does not match config {args.config}: {detail}"
            )
    # only valid input gets an output directory; recon checks the data shape
    out = _out_dir(cfg, args)

    if cfg.method == "landweber":
        result = landweber(data, speed, cfg.detector, iters=cfg.iters, step=cfg.step)
    else:
        result = cg_normal(data, speed, cfg.detector, iters=cfg.iters)
    est = result.estimate
    err = relative_error(est, phantom)

    out.mkdir(parents=True, exist_ok=True)
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
    if err is not None:
        report["rel_l2_error"] = err
        print(f"relative l2 error vs configured phantom: {err:.6g}")
    (out / "recon_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(f"wrote {out / 'estimate.tat'}; {result.iterations} iterations, "
          f"final residual {report['final_residual']:.6g}")
    return 0


# ---------------------------------------------------------------------------
# visibility


def cmd_visibility(args) -> int:
    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    speed, phantom = _sample(cfg)
    wf = phantom_edges(phantom, cfg.grid, threshold=cfg.vis_threshold, stride=cfg.vis_stride,
                       max_count=cfg.vis_max_count)
    if not wf:
        print("warning: phantom has no edges above threshold; empty report",
              file=sys.stderr)
    verdicts = visibility(wf, speed, cfg.detector)

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "visibility.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "y0", "y1", "xi0", "xi1", "magnitude", "verdict", "escaped",
                    "partner_index", "witness_theta", "witness_t"])
        for i, v in enumerate(verdicts):
            cv = v.covector
            row = [i, f"{cv.y[0]:.17g}", f"{cv.y[1]:.17g}", f"{cv.xi[0]:.17g}",
                   f"{cv.xi[1]:.17g}", f"{cv.magnitude:.17g}", v.verdict,
                   int(v.escaped),
                   "" if v.partner_index is None else v.partner_index,
                   "" if v.witness is None else f"{v.witness.theta:.17g}",
                   "" if v.witness is None else f"{v.witness.t_det:.17g}"]
            w.writerow(row)

    # overlay: phantom as a dim backdrop, edge nodes marked by verdict; the
    # phantom is scaled to a unit peak, exactly, so its range is finite
    grid = cfg.grid
    f = np.ldexp(phantom, -unit_exponent(phantom))
    span = float(f.max() - f.min())
    base = (f - float(f.min())) / span * 0.45 if span > 0 else np.zeros_like(f)
    marks = {"visible": 1.0, "masked": 0.78, "out_of_aperture": 0.6}
    for v in verdicts:
        ix = int(round((v.covector.y[0] + grid.L) / grid.h))
        iy = int(round((v.covector.y[1] + grid.L) / grid.h))
        lo_x, hi_x = max(ix - 1, 0), min(ix + 2, grid.n)
        lo_y, hi_y = max(iy - 1, 0), min(iy + 2, grid.n)
        base[lo_x:hi_x, lo_y:hi_y] = marks[v.verdict]
    write_pgm(out / "overlay.pgm", _image_to_rows(base), vmin=0.0, vmax=1.0)

    counts = {k: sum(v.verdict == k for v in verdicts)
              for k in ("visible", "masked", "out_of_aperture")}
    print(f"wrote {csv_path}; " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    cfg = load_experiment(args.config)
    out = _out_dir(cfg, args)
    try:  # the study checks its lattice before the first solve
        study = residual_refinement_study(
            cfg.detector.mode,
            cfg.sweep,
            n_alpha=cfg.detector.n_alpha,
            L=cfg.grid.L,
            pml_width=cfg.grid.pml_width,
            speed_spec=cfg.speed_spec,
        )
    except SweepLatticeError as exc:
        raise ConfigError(f"[sweep] {exc}") from exc
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    wrong = study.get("rms_wrong")  # large mode only
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "h", "rms"] + (["rms_wrong_stencil"] if wrong is not None else []))
        for i, (h, r) in enumerate(zip(study["h"], study["rms"])):
            w.writerow([i, f"{h:.17g}", f"{r:.17g}"]
                       + ([f"{wrong[i]:.17g}"] if wrong is not None else []))
    print(f"wrote {path}")
    for i, ratio in enumerate(study["ratios"]):
        print(f"refinement {i}->{i + 1}: residual ratio {ratio:.3f}")
    for i, ratio in enumerate(study.get("ratios_wrong", [])):
        print(f"refinement {i}->{i + 1}: wrong-stencil ratio {ratio:.3f}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    passed = failed = 0
    for name, ok, detail in run_checks(args.level):
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        passed += ok
        failed += not ok
    print(f"{passed}/{passed + failed} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtat",
        description="Circular-detector thermoacoustic tomography toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in (
        ("forward", cmd_forward, "simulate a sinogram from a config"),
        ("reconstruct", cmd_reconstruct, "invert a sinogram file"),
        ("visibility", cmd_visibility, "classify phantom edges by ray escape"),
        ("sweep", cmd_sweep, "radius-sweep PDE residual refinement study"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        if name == "reconstruct":
            p.add_argument("--data", required=True, help="sinogram array file")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("selftest", help="built-in consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        # a path that is missing, too long, or names the wrong kind of file
        known = exc.strerror and exc.filename is not None
        what = f"{exc.strerror.lower()}: {exc.filename}" if known else str(exc)
        print(f"error: {what}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, ArrayFormatError, a module invariant
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        # a solver diverged, broke down or produced non-finite values
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
