"""Child process of the benchmark: one set-up, or the timed passes of a run.

    python3 perfbench/child.py setup <config> [--trace]
    python3 perfbench/child.py passes <spec.json>

The parent starts it with the BLAS/OpenMP thread pools pinned to one thread
in the environment (before numpy loads) and ``PYTHONPATH`` set to the
checkout's ``src``.  ``setup`` is timed from the parent, from process start
to exit.  ``passes`` times each ``ringtat.cli.main`` call around the call,
checks its artifacts after the clock stops, and writes a JSON result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _import_ringtat():
    from ringtat import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: ringtat was imported from {cli.__file__}, not from {src}")
    return cli


def setup(config: str, trace: bool) -> None:
    cli = _import_ringtat()
    tracer = None
    if trace:
        from tracer import Tracer, setup_metrics

        tracer = Tracer()
        tracer.install()
    from ringtat import field, wave

    cfg = cli.load_experiment(config)
    field.sample_speed(cfg.speed_spec, cfg.grid)
    field.make_phantom(cfg.phantom_spec, cfg.grid)
    wave.pml_profile(cfg.grid)
    if tracer is not None:
        print(json.dumps(setup_metrics(tracer.snapshot())))


def _argv(command: str, config: str, out: str) -> list[str]:
    argv = [command, "--config", config, "--out", out]
    if command == "reconstruct":
        argv += ["--data", str(Path(out) / "sinogram.tat")]
    return argv


def _call(cli, argv: list[str]) -> tuple[int | None, str]:
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return (exc.code if isinstance(exc.code, int) else 2), log.getvalue()
    except Exception:  # a raising command is a failed operation, not the end of the run
        return None, log.getvalue() + traceback.format_exc()
    return rc, log.getvalue()


def passes(spec_path: str) -> None:
    import numpy
    import scipy

    import checks

    spec = json.loads(Path(spec_path).read_text())
    cli = _import_ringtat()
    # import every layer now so no pass pays a lazy import the others skip
    from ringtat import detector, field, rays, recon, wave  # noqa: F401

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    expect = spec["expect"]
    out = Path(spec["out"])
    ops, pass_times = [], []
    start = perf_counter()
    while True:
        spent = 0.0
        pass_start = perf_counter()
        for command in spec["commands"]:
            t0 = perf_counter()
            rc, log = _call(cli, _argv(command, spec["config"], str(out)))
            seconds = perf_counter() - t0
            spent += seconds
            op = {"command": command, "seconds": seconds, "ok": rc == 0, "info": {}}
            if rc != 0:
                op["detail"] = f"exit {rc}: {log.strip()[-2000:]}"
            else:
                try:
                    op["info"] = checks.CHECKS[command](out, expect)
                except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                    op["ok"], op["detail"] = False, f"{type(exc).__name__}: {exc}"
            ops.append(op)
        pass_times.append(spent)
        # stop before a pass that would run past the budget
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - pass_start) > spec["seconds"]:
            break

    result = {
        "ops": ops,
        "pass_s": pass_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        setup(sys.argv[2], "--trace" in sys.argv[3:])
    elif len(sys.argv) == 3 and sys.argv[1] == "passes":
        passes(sys.argv[2])
    else:
        sys.exit(__doc__)
