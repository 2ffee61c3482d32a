"""ringtat benchmark: end-to-end and per-layer timings of the public CLI.

    python3 perfbench/run.py --workload recon-large-cg --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both runs
    python3 perfbench/run.py --workload sweep-large --smoke --seconds 1 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
Each run generates its workload's experiment config from ``--seed`` under
``.perfbench/`` and then:

* times ``SETUP_REPS`` fresh child processes that import ringtat, load the
  config, sample speed and phantom and build the absorbing profile
  (``setup_s`` is their median, timed from the parent);
* starts one single-threaded child that calls ``ringtat.cli.main`` for the
  workload's commands, pass after pass, until the next pass would overrun
  ``--seconds`` (at least one pass).  Each call is timed around the call
  and its artifacts are checked after the clock stops.  ``pass_s`` is the
  median pass time and ``peak_rss_mb`` the child's peak RSS.

``--trace 1`` makes the same untraced run and then a traced one (every
public function of each ringtat module wrapped, see ``tracer.py``); it
reports the per-layer metrics of the traced run, the tracing overhead
(traced minus untraced median of each end-to-end metric), and checks the
traced call counts against their closed forms.  ``--smoke`` shrinks every
workload to toy sizes so the harness itself can be checked in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
set-up process or one CLI call; it fails when it raises, exits non-zero or
fails its output check, and a failure never aborts the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference"
SETUP_REPS = 7
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """Book-keeping of one benchmark invocation: deadline and operation counts."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def child(self, args: list[str], cap: float):
        """Run a child to completion (killed and reaped on timeout)."""
        timeout = max(1.0, min(cap, self.deadline - perf_counter()))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.update({var: "1" for var in THREAD_VARS})
        try:
            return subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None


def summary(samples: list[float]) -> str:
    """Median, extremes and the highest percentile with ten samples beyond it."""
    n = len(samples)
    if not n:
        return "n=0"
    text = (f"n={n} median={statistics.median(samples):.6g} "
            f"min={min(samples):.6g} max={max(samples):.6g}")
    if n >= 11:
        p = int(100 * (1 - 10 / n))
        text += f" p{p}={statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    else:
        text += " (under 11 samples: no upper percentile)"
    return text


def phase(run: Run, name: str, seed: int, smoke: bool, traced: bool) -> dict:
    """One set of set-ups plus one child running timed passes."""
    workload = WORKLOADS[name]
    work = WORK / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    text, expect = workload.build(seed, smoke)
    config = work / "experiment.cfg"
    config.write_text(text)
    if name == "visibility-small-arc" and seed == 0 and not smoke:
        expect["reference"] = str(REFERENCE / "visibility-small-arc.seed0.txt")

    setup_args = ["setup", str(config)] + (["--trace"] if traced else [])
    setups, setup_layers = [], []
    for rep in range(SETUP_REPS + 1):  # rep 0 warms the file cache and bytecode
        t0 = perf_counter()
        proc = run.child(setup_args, cap=60.0)
        seconds = perf_counter() - t0
        ok = proc is not None and proc.returncode == 0
        run.op(ok, f"setup: {'timeout' if proc is None else proc.stderr.strip()[-500:]}")
        if ok and rep:
            setups.append(seconds)
            if traced:
                setup_layers.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    spec = {"config": str(config), "out": str(work / "out"), "commands": workload.commands,
            "expect": expect, "seconds": run.seconds, "trace": traced,
            "result": str(work / "result.json")}
    (work / "spec.json").write_text(json.dumps(spec))
    proc = run.child(["passes", str(work / "spec.json")], cap=run.seconds + 120.0)
    result_path = Path(spec["result"])
    if proc is None or proc.returncode != 0 or not result_path.exists():
        reason = "timeout" if proc is None else proc.stderr.strip()[-2000:]
        run.op(False, f"passes child: {reason}")
        return {"setup_s": setups, "setup_layers": setup_layers, "pass_s": [], "ops": []}
    result = json.loads(result_path.read_text())
    for op in result["ops"]:
        run.op(op["ok"], f"{op['command']}: {op.get('detail', '')}")
    result.update(setup_s=setups, setup_layers=setup_layers)
    return result


def e2e_metrics(result: dict) -> dict:
    # a phase whose child failed reports 0, with the run marked incorrect
    def med(xs):
        return statistics.median(xs) if xs else 0.0

    return {"pass_s": med(result["pass_s"]), "setup_s": med(result["setup_s"]),
            "peak_rss_mb": result.get("peak_rss_mb", 0.0)}


def report(label: str, result: dict) -> None:
    print(f"[{label}]")
    print(f"  setup_s      {summary(result['setup_s'])}")
    print(f"  pass_s       {summary(result['pass_s'])}")
    print(f"  peak_rss_mb  {result.get('peak_rss_mb', 0.0):.1f}")
    by_command: dict[str, list] = {}
    for op in result["ops"]:
        by_command.setdefault(op["command"], []).append(op)
    for command, ops in by_command.items():
        print(f"  {command + '_s':<12} {summary([op['seconds'] for op in ops])}")
        info = ops[-1]["info"]
        if info:
            print(f"  {'':12} last check: {json.dumps(info)}")


def environment(args, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_pinned": 1,
        "machine": platform.machine(),
        **versions,
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "smoke": args.smoke,
    }


def git_rev() -> str:
    """Commit of the checkout, read from its own .git (absent in an export)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args, name: str) -> dict:
    run = Run(args.seconds)
    plain = phase(run, name, args.seed, args.smoke, traced=False)
    report(f"{name} seed={args.seed} untraced", plain)
    e2e = e2e_metrics(plain)
    out = {"run": run, "e2e": e2e, "versions": plain.get("versions", {}), "phases": [plain]}
    if args.trace:
        traced = phase(run, name, args.seed, args.smoke, traced=True)
        out["phases"].append(traced)
        report(f"{name} seed={args.seed} traced", traced)
        out["layers"] = layer_metrics(run, traced, e2e)
    fail_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  fail_frac    {fail_frac:.6g} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    return out


def layer_metrics(run: Run, traced: dict, e2e: dict) -> dict:
    from tracer import completeness, pass_metrics

    if "trace" not in traced:
        return dict.fromkeys(LAYER_UNITS, 0.0)
    passes = len(traced["pass_s"])
    layers = pass_metrics(traced["trace"], passes)
    for key in ("field.sample_s", "cli.config_s"):
        values = [s[key] for s in traced["setup_layers"]]
        layers[key] = statistics.median(values) if values else 0.0
    for key, value in e2e_metrics(traced).items():
        layers[f"overhead.{key}"] = value - e2e[key]
    mismatches = completeness(traced["trace"])
    run.op(not mismatches, "trace completeness: " + "; ".join(mismatches))
    print(f"  trace        {passes} passes; closed-form counts "
          + ("match" if not mismatches else "MISMATCH"))
    for key in sorted(layers):
        print(f"  {key:<28} {layers[key]:.6g} {LAYER_UNITS[key]}")
    return layers


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, seconds per run")
    args = parser.parse_args()
    if not (ROOT / "src" / "ringtat" / "cli.py").is_file():
        print(f"error: no ringtat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        args.trace = 1
    outcomes = {name: run_workload(args, name) for name in names}
    attempted = sum(o["run"].attempted for o in outcomes.values())
    failed = sum(o["run"].failed for o in outcomes.values())
    env = environment(args, next(iter(outcomes.values()))["versions"])
    print("environment: " + json.dumps(env, sort_keys=True))

    def metrics(o):
        return _metrics(o["layers"], LAYER_UNITS) if args.trace else _metrics(o["e2e"], E2E_UNITS)

    if args.workload == "all":
        final_metrics = {name: {**_metrics(o["e2e"], E2E_UNITS), **metrics(o)}
                         for name, o in outcomes.items()}
    else:
        final_metrics = metrics(outcomes[args.workload])
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": final_metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (results / f"{tag}.json").write_text(json.dumps(
        {"environment": env, **final,
         "samples": {name: [{k: p[k] for k in ("setup_s", "pass_s", "ops") if k in p}
                            for p in o["phases"]] for name, o in outcomes.items()}},
        indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
