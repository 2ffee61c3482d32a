"""Benchmark workloads: one generated experiment config and a CLI command list each.

Why each workload was chosen is recorded in BENCHMARK.json.  The workload
seed only jitters the generated inputs (phantom centre, the ``[run] seed``
key, and for the sweep the base detector radius); seed 0 is the unjittered
reference geometry.  The program sees nothing but the config file written
here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, smoke) -> (config text, expectations dict)
    commands: tuple  # subcommand names, run in order as one pass


def _jitter(seed: int, width: float, count: int) -> list[float]:
    if seed == 0:
        return [0.0] * count
    rng = random.Random(seed)
    return [rng.uniform(-width, width) for _ in range(count)]


def _recon(seed: int, smoke: bool):
    dx, dy = _jitter(seed, 0.03, 2)
    n, n_theta, n_alpha, iters = (49, 24, 64, 8) if smoke else (129, 60, 256, 15)
    text = f"""\
[grid]
l = 3.6
n = {n}
pml_width = 0.5

[speed]
kind = sinusoidal

[phantom]
gaussian.1 = {0.25 + dx!r} {-0.15 + dy!r} 0.15

[detector]
mode = large
r = 2.0
n_theta = {n_theta}
n_alpha = {n_alpha}

[time]
t = 5.0

[recon]
method = cg
iters = {iters}

[run]
seed = {seed}
out_dir = out
"""
    return text, {}


ARC = (-math.pi / 2, 0.0)
WINDOW = (0.0, 5.0)


def _visibility(seed: int, smoke: bool):
    dx, dy = _jitter(seed, 0.05, 2)
    # every centre within the jitter has at least 20 edge nodes at stride 2, so
    # the cap keeps the work at 40 covectors (the unjittered disc has exactly 20)
    n, max_count = (33, 4) if smoke else (129, 20)
    text = f"""\
[grid]
l = 3.6
n = {n}
pml_width = 0.5

[speed]
kind = sinusoidal

[phantom]
disc.1 = {dx!r} {dy!r} 0.55 0.15

[detector]
mode = small
center_radius = 2.0
r = 0.8
n_theta = 45
n_alpha = 256

[time]
t = {WINDOW[1]!r}

[aperture]
arc = {ARC[0]!r} {ARC[1]!r}

[visibility]
threshold = 0.5
stride = 2
max_count = {max_count}

[run]
seed = {seed}
out_dir = out
"""
    return text, {"arc": ARC, "window": WINDOW}


def _sweep(seed: int, smoke: bool):
    # radii below 2.1 would push the inner swept circle under r = 2
    (dr,) = _jitter(seed, 0.02, 1)
    base_radius = 2.12 + dr if seed else 2.1
    # the residual oracle is pre-asymptotic below about 97 points per axis
    base_n, base_nt, base_n_theta, n_alpha = (97, 153, 30, 128) if smoke else (129, 203, 40, 256)
    text = f"""\
[grid]
l = 3.9
n = 129
pml_width = 0.5

[speed]
kind = sinusoidal

[detector]
mode = large
r = 2.0
n_theta = 60
n_alpha = {n_alpha}

[sweep]
levels = 2
base_radius = {base_radius!r}
base_n = {base_n}
base_nt = {base_nt}
base_n_theta = {base_n_theta}

[run]
seed = {seed}
out_dir = out
"""
    return text, {"ratio_range": (3.2, 4.8), "wrong_below": 3.2}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recon-large-cg",
            _recon,
            ("forward", "reconstruct"),
        ),
        Workload(
            "visibility-small-arc",
            _visibility,
            ("visibility",),
        ),
        Workload(
            "sweep-large",
            _sweep,
            ("sweep",),
        ),
    )
}
