"""Pass/fail checks on the artifacts each CLI command writes.

The array reader here is independent of ``ringtat.cli.read_array``, so a
check never goes through the code it checks (nor through a traced span).
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

MAX_REL_L2_ERROR = 0.15  # acceptance bound of criterion 04
VERDICTS = ("visible", "masked", "out_of_aperture")


class CheckFailed(Exception):
    pass


def read_tat(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:7] != b"TATARR1" or len(raw) < 10 or raw[7] != 1 or raw[8] != 1:
        raise CheckFailed(f"{path.name}: not a version-1 float64 TATARR1 file")
    rank = raw[9]
    head = 10 + 8 * rank
    dims = struct.unpack(f"<{rank}Q", raw[10:head])
    if len(raw) != head + 8 * math.prod(dims):
        raise CheckFailed(f"{path.name}: payload does not match dims {list(dims)}")
    return np.frombuffer(raw, dtype="<f8", offset=head).reshape(dims)


def _finite(path: Path) -> np.ndarray:
    arr = read_tat(path)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path.name}: empty or non-finite values")
    return arr


def forward(out: Path, expect: dict) -> dict:
    sino = _finite(out / "sinogram.tat")
    return {"sinogram_shape": list(sino.shape)}


def reconstruct(out: Path, expect: dict) -> dict:
    _finite(out / "estimate.tat")
    report = json.loads((out / "recon_report.json").read_text())
    err, resid = report.get("rel_l2_error"), report.get("final_residual")
    if not (isinstance(err, float) and math.isfinite(err) and math.isfinite(resid)):
        raise CheckFailed(f"recon_report.json: non-finite error or residual {err!r} {resid!r}")
    if err > MAX_REL_L2_ERROR:
        raise CheckFailed(f"rel_l2_error {err:.4g} > {MAX_REL_L2_ERROR}")
    return {"rel_l2_error": err, "final_residual": resid}


def _in_arc(theta: float, arc) -> bool:
    a, b = arc
    return (theta - a) % (2 * math.pi) < (b - a) % (2 * math.pi) or (b - a) >= 2 * math.pi


def visibility(out: Path, expect: dict) -> dict:
    with (out / "visibility.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed("visibility.csv has no covectors")
    verdicts = [r["verdict"] for r in rows]
    unknown = set(verdicts) - set(VERDICTS)
    if unknown:
        raise CheckFailed(f"unknown verdicts {sorted(unknown)}")
    t0, t1 = expect["window"]
    for r in rows:
        if r["verdict"] != "visible":
            continue
        theta, t = float(r["witness_theta"]), float(r["witness_t"])
        if not (t0 < t <= t1 and _in_arc(theta, expect["arc"])):
            raise CheckFailed(f"covector {r['index']}: visible witness theta={theta:.6g} "
                              f"t={t:.6g} lies outside the arc or window")
    reference = expect.get("reference")
    if reference is not None:
        want = Path(reference).read_text().split()
        if verdicts != want:
            diff = sum(a != b for a, b in zip(verdicts, want)) + abs(len(verdicts) - len(want))
            raise CheckFailed(f"verdicts differ from {Path(reference).name} in {diff} rows")
    return {v: verdicts.count(v) for v in VERDICTS}


def sweep(out: Path, expect: dict) -> dict:
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rms = [float(r["rms"]) for r in rows]
    wrong = [float(r["rms_wrong_stencil"]) for r in rows]
    ratios = [rms[i] / rms[i + 1] for i in range(len(rms) - 1)]
    ratios_wrong = [wrong[i] / wrong[i + 1] for i in range(len(wrong) - 1)]
    lo, hi = expect["ratio_range"]
    if not ratios or not all(lo <= r <= hi for r in ratios):
        raise CheckFailed(f"refinement ratios {ratios} outside [{lo}, {hi}]")
    if not all(r < expect["wrong_below"] for r in ratios_wrong):
        raise CheckFailed(f"wrong-stencil ratios {ratios_wrong} not below {expect['wrong_below']}")
    return {"ratios": ratios, "ratios_wrong": ratios_wrong}


CHECKS = {
    "forward": forward,
    "reconstruct": reconstruct,
    "visibility": visibility,
    "sweep": sweep,
}
