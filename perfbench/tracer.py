"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ringtat module, plus
the hot methods of ``WaveSolver``, ``BicubicSampler`` and ``SplineField`` on
their classes, and rebinds every module namespace that imported a wrapped
function by name (``recon`` binds ``forward_operator``; ``cli`` imports
lazily from the module attributes, which are wrapped).  Each call is a span
with a duration and a parent; spans are folded into per-name call counts,
inclusive time and self time as they close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("field", "wave", "_spline", "detector", "recon", "rays", "cli")
METHODS = {
    "wave": {"WaveSolver": ("init_state", "init_state_T", "step", "step_T")},
    "_spline": {
        "BicubicSampler": ("__init__", "apply", "apply_T"),
        "SplineField": ("__init__", "value", "value_and_gradient"),
    },
}
# private functions whose calls are named metrics
PRIVATE = {"recon": ("_normal_apply",)}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [child seconds] per open span
        self.active: Counter = Counter()  # open spans per layer
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.top: defaultdict = defaultdict(float)  # spans with no parent
        self.counts: Counter = Counter()  # work counters and closed-form expectations

    def _wrap(self, key: str, layer: str, fn):
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            self.active[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.active[layer] -= 1
                if self.stack:
                    self.stack[-1][0] += dt
                else:
                    self.top[key] += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_time[key] += dt - frame[0]
            if observe is not None:
                observe(self, args, result)
            return result

        return span

    def install(self) -> None:
        mods = {name: importlib.import_module(f"ringtat.{name}") for name in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                for other in mods.values():
                    for name, bound in list(vars(other).items()):
                        if bound is obj:
                            setattr(other, name, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    setattr(cls, m, self._wrap(f"{layer}.{cls_name}.{m}", layer, getattr(cls, m)))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "top": dict(self.top),
            "counts": dict(self.counts),
        }


# -- observers: counters read from arguments and results -------------------


def _forward(tr: Tracer, args, result) -> None:
    nt = result.data.shape[0]
    tr.counts["expect.wave.step"] += nt - 1
    tr.counts["expect.spline.apply"] += nt
    if tr.active["recon"]:
        tr.counts["recon.wave_solves"] += 1


def _adjoint(tr: Tracer, args, result) -> None:
    nt = len(args[0])
    tr.counts["expect.wave.step_T"] += nt - 1
    tr.counts["expect.spline.apply_T"] += nt
    if tr.active["recon"]:
        tr.counts["recon.wave_solves"] += 1


def _cg(tr: Tracer, args, result) -> None:
    k = result.iterations
    tr.counts["recon.cg_iters"] += k
    tr.counts["expect.recon.wave_solves"] += 2 * k + 1 if k else 0


def _trace(tr: Tracer, args, result) -> None:
    steps = len(result.states) - 1
    tr.counts["rays.rk4_steps"] += steps
    tr.counts["rays.escaped"] += int(result.escaped)
    tr.counts["expect.spline.vg"] += 4 * steps + 1


def _cells(tr: Tracer, args, result) -> None:
    tr.counts["wave.cells"] += args[1].u_curr.size


def _points(tr: Tracer, args, result) -> None:
    tr.counts["spline.vg.points"] += len(args[1])


_OBSERVERS = {
    "detector.forward_operator": _forward,
    "detector.sweep_small_radius": _forward,
    "detector.sweep_large_radius": _forward,
    "detector.adjoint_operator": _adjoint,
    "recon.cg_normal": _cg,
    "rays.trace_geodesic": _trace,
    "wave.WaveSolver.step": _cells,
    "wave.WaveSolver.step_T": _cells,
    "_spline.SplineField.value_and_gradient": _points,
}

STEP = "wave.WaveSolver.step"
STEP_T = "wave.WaveSolver.step_T"
BUILD = "_spline.BicubicSampler.__init__"
APPLY = "_spline.BicubicSampler.apply"
APPLY_T = "_spline.BicubicSampler.apply_T"
VG = "_spline.SplineField.value_and_gradient"


def completeness(snap: dict) -> list[str]:
    """Mismatches between wrapper call counts and their closed forms.

    A mismatch means some caller reached a layer through a binding the
    tracer did not wrap.
    """
    calls, counts = snap["calls"], snap["counts"]
    pairs = (
        ("wave.step.calls = sum(nt - 1) over forwards", calls.get(STEP, 0),
         counts.get("expect.wave.step", 0)),
        ("spline.apply.calls = sum(nt) over forwards", calls.get(APPLY, 0),
         counts.get("expect.spline.apply", 0)),
        ("wave.step_T.calls = sum(nt - 1) over adjoints", calls.get(STEP_T, 0),
         counts.get("expect.wave.step_T", 0)),
        ("spline.apply_T.calls = sum(nt) over adjoints", calls.get(APPLY_T, 0),
         counts.get("expect.spline.apply_T", 0)),
        ("recon.wave_solves = 2k + 1 per CG solve", counts.get("recon.wave_solves", 0),
         counts.get("expect.recon.wave_solves", 0)),
        ("spline.vg.calls = 4 * rk4_steps + 1 per ray", calls.get(VG, 0),
         counts.get("expect.spline.vg", 0)),
    )
    return [f"{what}: counted {got}, expected {want}" for what, got, want in pairs if got != want]


def pass_metrics(snap: dict, passes: int) -> dict:
    """Per-pass layer metrics of the workload passes (see BENCHMARK.json)."""
    calls, total, counts = snap["calls"], snap["total"], snap["counts"]

    def n(key):
        return calls.get(key, 0)

    def mean(key, scale):
        return total.get(key, 0.0) / n(key) * scale if n(key) else 0.0

    def self_s(layer):
        return sum(v for k, v in snap["self"].items() if k.startswith(layer + ".")) / passes

    step_busy = total.get(STEP, 0.0) + total.get(STEP_T, 0.0)
    traced = n("rays.trace_geodesic")
    io = sum(total.get(f"cli.{f}", 0.0) for f in ("write_array", "read_array", "write_pgm"))
    return {
        "wave.step.calls": n(STEP) / passes,
        "wave.step.ms": mean(STEP, 1e3),
        "wave.step_T.calls": n(STEP_T) / passes,
        "wave.step_T.ms": mean(STEP_T, 1e3),
        "wave.cell_updates_per_s": counts.get("wave.cells", 0) / step_busy if step_busy else 0.0,
        "wave.self_s": self_s("wave"),
        "spline.build.calls": n(BUILD) / passes,
        "spline.build_s": total.get(BUILD, 0.0) / passes,
        "spline.apply.calls": n(APPLY) / passes,
        "spline.apply.ms": mean(APPLY, 1e3),
        "spline.apply_T.calls": n(APPLY_T) / passes,
        "spline.apply_T.ms": mean(APPLY_T, 1e3),
        "spline.vg.calls": n(VG) / passes,
        "spline.vg.us": mean(VG, 1e6),
        "spline.vg.points_per_call": counts.get("spline.vg.points", 0) / n(VG) if n(VG) else 0.0,
        "spline.self_s": self_s("_spline"),
        "detector.forward.calls": n("detector.forward_operator") / passes,
        "detector.adjoint.calls": n("detector.adjoint_operator") / passes,
        "detector.self_s": self_s("detector"),
        "recon.wave_solves": counts.get("recon.wave_solves", 0) / passes,
        "recon.normal_applies": n("recon._normal_apply") / passes,
        "recon.cg_iters": counts.get("recon.cg_iters", 0) / passes,
        "recon.self_s": self_s("recon"),
        "rays.trace.calls": traced / passes,
        "rays.trace_s": total.get("rays.trace_geodesic", 0.0) / passes,
        "rays.rk4_steps": counts.get("rays.rk4_steps", 0) / passes,
        "rays.escaped_frac": counts.get("rays.escaped", 0) / traced if traced else 0.0,
        "rays.masking_s": (total.get("rays.visibility", 0.0)
                           - total.get("rays.canonical_image", 0.0)) / passes,
        "rays.self_s": self_s("rays"),
        "field.edges_s": total.get("field.phantom_edges", 0.0) / passes,
        "cli.io_s": io / passes,
    }


def setup_metrics(snap: dict) -> dict:
    """Layer split of one set-up: config load and field sampling."""
    top = snap["top"]
    return {
        "field.sample_s": sum(v for k, v in top.items() if k.startswith("field.")),
        "cli.config_s": top.get("cli.load_experiment", 0.0),
    }
