"""Tests for the command line front end and artifact formats."""

import contextlib
import csv
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringtat
from ringtat import detector, selftest
from ringtat.cli import (
    ArrayFormatError,
    ConfigError,
    build_experiment,
    load_experiment,
    main,
    parse_config_text,
    read_array,
    write_array,
    write_pgm,
)
from ringtat.detector import LargeMode, SmallMode, SweepSettings, measurement_map
from ringtat.field import sample_speed, transition
from ringtat.wave import cfl_limit

BASE_CFG = """
[grid]
l = 3.6
n = 65
pml_width = 0.5

[speed]
kind = sinusoidal

[phantom]
gaussian.1 = 0.2 -0.1 0.18

[detector]
mode = large
r = 2.0
n_theta = 24
n_alpha = 64

[time]
t = 4.0

[recon]
method = cg
iters = 3

[run]
seed = 3
"""


SMALL_CFG = BASE_CFG.replace("n = 65", "n = 49")

HUGE_RECORD_CFG = """
[grid]
l = 3.9
n = 33
pml_width = 0.5

[phantom]
gaussian.1 = 0.2 -0.1 0.18

[detector]
mode = large
r = 2.0
n_theta = 4
n_alpha = 64

[time]
t = 1.0

[sweep]
levels = 2
base_n = 33
base_n_theta = 4
"""


def _run_python(*argv, **env_vars):
    """Run ``python *argv`` in a fresh process on this source tree, with
    ``env_vars`` added to its environment."""
    src = Path(ringtat.__file__).resolve().parent.parent
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def _run_cli(*argv, **env_vars):
    """Run ``python -m ringtat.cli`` in a fresh process on this source tree."""
    return _run_python("-m", "ringtat.cli", *argv, **env_vars)


# ``python -c _CLI_ON_CPUS <cpus> <argv...>``: the CLI with the detector
# reads inline (cpus 1: the process is held to one CPU where the platform
# allows it) or on their helper thread (cpus 2)
_CLI_ON_CPUS = """
import os, sys
from ringtat import cli, detector
cpus = int(sys.argv[1])
if cpus == 1 and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:
    detector._usable_cpus = lambda: cpus
assert detector._usable_cpus() == cpus
sys.exit(cli.main(sys.argv[2:]))
"""


def _one_error_line(proc, code):
    """The process exited with ``code`` after one ``error:`` line; returns it."""
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One forward solve shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.cfg"
    cfg.write_text(BASE_CFG)
    out = root / "out"
    rc = main(["forward", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return {"root": root, "cfg": cfg, "out": out, "sino": out / "sinogram.tat"}


@st.composite
def _array_files(draw):
    """Array files near the format: a valid header and payload, with any
    field (version, dtype, rank, dims, payload length) possibly wrong.
    Payloads stay below 65 x 65 doubles."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=48))
    dims = draw(st.one_of(
        st.lists(st.integers(0, 65), max_size=3),
        st.lists(st.sampled_from([0, 1, 2**64 - 1]), max_size=70),
    ))
    rank = draw(st.one_of(st.just(len(dims)), st.integers(0, 255)))
    count = math.prod(dims) if dims else 1
    size = 8 * count if count <= 65 * 65 else 0
    size = max(0, size + draw(st.sampled_from([0, 0, 0, -1, 1, -8, 8])))
    head = (b"TATARR1" + bytes([draw(st.sampled_from([1, 1, 1, 0, 2])),
                                draw(st.sampled_from([1, 1, 1, 0, 9])), rank % 256])
            + b"".join(d.to_bytes(8, "little") for d in dims))
    return head + bytes(size)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids,
                                                              max_size=3),
    max_leaves=8,
)
_SIDECARS = st.one_of(
    st.none(),
    st.binary(max_size=48),
    _JSON.map(lambda v: json.dumps(v).encode()),
    _JSON.map(lambda v: json.dumps({"dims": v}).encode()),
)


class TestArrayFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4, 5))
        p = tmp_path / "a.tat"
        write_array(p, a, {"role": "test"})
        b, meta = read_array(p)
        assert b.dtype == np.float64
        assert np.array_equal(a, b)
        assert meta["role"] == "test" and meta["dims"] == [3, 4, 5]
        # writing the same payload again produces the same bytes
        p2 = tmp_path / "b.tat"
        write_array(p2, a, {"role": "test"})
        assert p.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "a.tat"
        write_array(p, np.zeros((4, 4)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ArrayFormatError, match=r"expected \d+ bytes"):
            read_array(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.tat"
        p.write_bytes(b"NOTANARRAYFILE")
        with pytest.raises(ArrayFormatError, match="TATARR1"):
            read_array(p)

    def test_sidecar_dims_mismatch(self, tmp_path):
        p = tmp_path / "a.tat"
        write_array(p, np.zeros((4, 4)))
        side = Path(str(p) + ".json")
        meta = json.loads(side.read_text())
        meta["dims"] = [2, 8]
        side.write_text(json.dumps(meta))
        with pytest.raises(ArrayFormatError, match="sidecar dims"):
            read_array(p)

    @pytest.mark.parametrize("sidecar", [b"[1, 2]", b'{"dims": 5', b'{"role": "\xff"}',
                                         b'{"dims": null}',
                                         pytest.param(b"[" * 100_000, id="deep-nesting")])
    def test_malformed_sidecar_names_it(self, tmp_path, sidecar):
        p = tmp_path / "a.tat"
        write_array(p, np.zeros((4, 4)))
        Path(str(p) + ".json").write_bytes(sidecar)
        with pytest.raises(ArrayFormatError, match=r"a\.tat"):
            read_array(p)

    @settings(max_examples=300, deadline=None)
    @given(raw=_array_files(), sidecar=_SIDECARS)
    def test_fuzz_raises_only_format_errors(self, raw, sidecar):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "a.tat"
            p.write_bytes(raw)
            if sidecar is not None:
                Path(str(p) + ".json").write_bytes(sidecar)
            try:
                read_array(p)
            except ArrayFormatError:
                pass


class TestPgm:
    def test_header_payload_and_scale(self, tmp_path):
        p = tmp_path / "q.pgm"
        lo, hi = write_pgm(p, np.array([[0.0, 0.5], [1.0, 0.25]]))
        assert (lo, hi) == (0.0, 1.0)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n65535\n")
        vals = np.frombuffer(raw[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert vals.tolist() == [0, 32768, 65535, 16384]

    def test_constant_image(self, tmp_path):
        p = tmp_path / "q.pgm"
        write_pgm(p, np.full((3, 3), 7.0))
        vals = np.frombuffer(p.read_bytes().split(b"\n65535\n", 1)[1], dtype=">u2")
        assert not vals.any()


class TestConfigGrammar:
    def test_sections_keys_comments(self):
        got = parse_config_text("# top\n[a]\nx = 1  # inline\n\n[b]\ny = two words\n")
        assert got == {"a": {"x": "1"}, "b": {"y": "two words"}}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("[a]\nx = 1\nx = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config_text("[a]\n[a]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config_text("x = 1\n")

    def test_junk_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("[a]\nwhat is this\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet="[]=#.\n\r\t abkl019", max_size=60)))
    def test_fuzz_raises_only_config_errors(self, text):
        try:
            parse_config_text(text)
        except ConfigError:
            pass


def _cfg_text(sections):
    return "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for sec, body in sections.items())


def _cfg_dict(**edits):
    sections = parse_config_text(BASE_CFG)
    for dotted, value in edits.items():
        sec, key = dotted.split(".", 1)
        body = sections.setdefault(sec, {})
        if value is None:
            body.pop(key, None)
        else:
            body[key] = value
    return sections


class TestBuildExperiment:
    def test_base_config(self):
        cfg = build_experiment(_cfg_dict())
        assert isinstance(cfg.detector.mode, LargeMode)
        assert cfg.detector.T == 4.0 and cfg.detector.plateau is None
        assert cfg.grid.n == 65 and cfg.seed == 3
        assert cfg.method == "cg" and cfg.iters == 3

    def test_small_mode_and_aperture(self):
        cfg = build_experiment(_cfg_dict(**{
            "detector.mode": "small",
            "detector.center_radius": "2.0",
            "detector.r": "0.8",
            "aperture.arc": "-1.5708 0.0",
            "time.t0": "1.5",
        }))
        assert isinstance(cfg.detector.mode, SmallMode)
        assert cfg.detector.aperture == (-1.5708, 0.0)
        assert cfg.detector.window == (1.5, 4.0)
        assert not hasattr(cfg, "window")

    def test_cutoff_extends_record(self):
        cfg = build_experiment(_cfg_dict(**{"time.t1": "4.5"}))
        assert cfg.detector.T == 4.5 and cfg.detector.plateau == 4.0

    def test_cutoff_must_exceed_plateau(self):
        # DetectorConfig checks 0 < plateau < T, with T = t1 and plateau = t
        for t, t1 in (("4.0", "3.0"), ("4.0", "4.0"), ("-1.0", "3.0")):
            with pytest.raises(ConfigError,
                               match=r"^\[time\] cutoff plateau .*: t1 must exceed t, and t must be"):
                build_experiment(_cfg_dict(**{"time.t": t, "time.t1": t1}))

    @pytest.mark.parametrize("edits, section", [
        ({"detector.n_alpha": "16"}, "detector"),
        ({"time.t": "-1"}, "time"),
        ({"detector.r": "1.5"}, "detector"),
        ({"aperture.arc": "1 0.5"}, "aperture"),
        ({"time.nt": "1"}, "time"),
    ])
    def test_module_check_names_the_section(self, tmp_path, capsys, edits, section):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(_cfg_text(_cfg_dict(**edits)))
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: [{section}] "), err
        assert not out.exists()

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            build_experiment(_cfg_dict(**{"plotting.dpi": "100"}))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            build_experiment(_cfg_dict(**{"grid.colour": "red"}))

    def test_missing_required_section(self):
        sections = _cfg_dict()
        del sections["grid"]
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            build_experiment(sections)

    def test_small_mode_needs_center_radius(self):
        with pytest.raises(ConfigError, match="center_radius"):
            build_experiment(_cfg_dict(**{"detector.mode": "small"}))

    def test_large_mode_rejects_center_radius(self):
        with pytest.raises(ConfigError, match="unit circle"):
            build_experiment(_cfg_dict(**{"detector.center_radius": "2.5"}))

    def test_cg_rejects_step(self):
        with pytest.raises(ConfigError, match=r"^\[recon\] step .* 'cg' takes no step"):
            build_experiment(_cfg_dict(**{"recon.step": "2.0"}))
        cfg = build_experiment(_cfg_dict(**{"recon.method": "landweber", "recon.step": "2.0"}))
        assert cfg.step == 2.0

    def test_module_invariants_revalidated(self):
        # phantom support outside the unit disc is caught at load time
        with pytest.raises(ConfigError, match=r"^\[phantom\] gaussian.1: .* unit disc"):
            build_experiment(_cfg_dict(**{"phantom.gaussian.1": "0.8 0.0 0.2"}))
        with pytest.raises(ValueError, match="n_alpha"):
            build_experiment(_cfg_dict(**{"detector.n_alpha": "16"}))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config not found"):
            load_experiment(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("edit, message", [
        ({"speed.kind": "bogus"}, r"^\[speed\] unknown speed kind 'bogus'"),
        ({"phantom.gaussian.1": "0.2 x 0.18"}, r"^\[phantom\] gaussian\.1: could not convert"),
        ({"aperture.arc": "a 0"}, r"^\[aperture\] arc: could not convert"),
        ({"time.t0": "nan"}, r"^\[time\] t0 = nan must lie in \[0, 4\)$"),
        ({"sweep.base_nt": "abc"}, r"^\[sweep\] base_nt: invalid literal"),
        ({"visibility.threshold": "2"}, r"^\[visibility\] threshold: expected a number in \(0, 1\)"),
        ({"visibility.threshold": "0"}, r"^\[visibility\] threshold: expected a number in \(0, 1\)"),
        ({"visibility.stride": "0"}, r"^\[visibility\] stride: expected an integer of at least 1"),
        ({"visibility.stride": "-2"}, r"^\[visibility\] stride: expected an integer of at least 1"),
        ({"visibility.max_count": "-1"},
         r"^\[visibility\] max_count: expected an integer of at least 1"),
        ({"visibility.max_count": "0"},
         r"^\[visibility\] max_count: expected an integer of at least 1"),
        ({"time.t0": "inf"}, r"^\[time\] t0 = inf must lie in \[0, 4\)$"),
        ({"time.t0": "-1"}, r"^\[time\] t0 = -1 must lie in \[0, 4\)$"),
        ({"noise.sigma_rel": "inf"}, r"^\[noise\] sigma_rel: expected a finite number >= 0"),
        ({"noise.sigma_rel": "nan"}, r"^\[noise\] sigma_rel: expected a finite number >= 0"),
        ({"noise.sigma_rel": "-0.1"}, r"^\[noise\] sigma_rel: expected a finite number >= 0"),
        ({"run.seed": "-1"}, r"^\[run\] seed: expected an integer >= 0"),
        ({"detector.n_theta": "abc"}, r"^\[detector\] n_theta: invalid literal"),
        ({"detector.n_alpha": "1.5"}, r"^\[detector\] n_alpha: invalid literal"),
        ({"grid.n": "abc"}, r"^\[grid\] n: invalid literal"),
        ({"phantom.gaussian.1": "0.5 0 -0.3"}, r"^\[phantom\] gaussian\.1: sigma = -0\.3"),
        ({"phantom.disc.1": "0 0 -5 0.1"}, r"^\[phantom\] disc\.1: disc radius = -5"),
        ({"time.t0": "4"}, r"^\[time\] t0 = 4 must lie in \[0, 4\)$"),
        ({"time.t0": "-inf"}, r"^\[time\] t0 = -inf must lie in \[0, 4\)$"),
        # with t1 the window ends at the plateau t, not at the record's end
        ({"time.t0": "4", "time.t1": "4.5"}, r"^\[time\] t0 = 4 must lie in \[0, 4\)$"),
        ({"aperture.window": "0 3"}, r"^unknown key 'window' in \[aperture\]$"),
    ])
    def test_bad_values_name_their_key(self, edit, message):
        with pytest.raises(ConfigError, match=message):
            build_experiment(_cfg_dict(**edit))

    @pytest.mark.parametrize("key", ["tol", "tikhonov"])
    def test_recon_takes_method_iters_and_step_only(self, key):
        with pytest.raises(ConfigError, match=rf"^unknown key '{key}' in \[recon\]$"):
            build_experiment(_cfg_dict(**{f"recon.{key}": "0.001"}))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid_rejected_at_load(self, value):
        with pytest.raises(ValueError, match="finite"):
            build_experiment(_cfg_dict(**{"grid.l": value}))
        with pytest.raises(ValueError, match="pml_width"):
            build_experiment(_cfg_dict(**{"grid.pml_width": value}))

    def test_sweep_settings(self):
        assert build_experiment(_cfg_dict()).sweep == SweepSettings()
        cfg = build_experiment(_cfg_dict(**{"sweep.levels": "3", "sweep.base_nt": "101"}))
        assert cfg.sweep == SweepSettings(levels=3, base_nt=101)
        for key in ("include_wrong_stencil", "window", "duration", "delta_r"):
            with pytest.raises(ConfigError, match=rf"^unknown key '{key}' in \[sweep\]$"):
                build_experiment(_cfg_dict(**{f"sweep.{key}": "1"}))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), key=st.sampled_from([
        "grid.l", "grid.n", "grid.pml_width", "speed.kind",
        "phantom.gaussian.1", "phantom.disc.2", "detector.mode", "detector.r",
        "detector.center_radius", "detector.n_theta", "detector.n_alpha", "time.t",
        "time.t1", "time.nt", "aperture.arc", "time.t0", "recon.method",
        "recon.iters", "noise.sigma_rel", "sweep.levels", "sweep.base_nt", "sweep.base_n",
    ]))
    def test_fuzz_values_raise_only_value_errors(self, data, key):
        # grid sizes stay at n <= 65: the phantom is sampled at load time
        if key == "grid.n":
            value = str(data.draw(st.integers(-5, 65)))
        else:
            value = data.draw(st.one_of(
                st.text(max_size=12),
                st.floats().map(repr),
                st.integers(-5, 300).map(str),
                st.lists(st.floats(-2, 6).map(repr), max_size=5).map(" ".join),
            ))
        try:
            build_experiment(_cfg_dict(**{key: value}))
        except ValueError:  # ConfigError or a module invariant: exit 2 in the CLI
            pass


class TestForwardCommand:
    def test_artifacts_and_sidecar(self, workspace):
        sino, meta = read_array(workspace["sino"])
        assert meta["role"] == "sinogram"
        assert meta["detector"]["mode"] == {"kind": "large", "center_radius": 1.0, "r": 2.0}
        assert meta["dims"] == [meta["detector"]["nt"], 24]
        assert sino.shape[0] == meta["detector"]["nt"]
        assert np.abs(sino).max() > 0
        assert (workspace["out"] / "sinogram.pgm").exists()
        ql = meta["quicklook"]
        assert ql["vmin"] < ql["vmax"]

    def test_deterministic_bytes(self, workspace, tmp_path):
        rc = main(["forward", "--config", str(workspace["cfg"]), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sinogram.tat").read_bytes() == workspace["sino"].read_bytes()

    def test_zero_phantom_gives_zero_file(self, workspace, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(BASE_CFG.replace("gaussian.1 = 0.2 -0.1 0.18", ""))
        rc = main(["forward", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        sino, _ = read_array(tmp_path / "sinogram.tat")
        assert not sino.any()

    def test_noise_that_overflows_exits_3_before_writing(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("gaussian.1 = 0.2 -0.1 0.18",
                                         "gaussian.1 = 0.25 -0.15 0.15 1e6")
                       + "\n[noise]\nsigma_rel = 1e308\n")
        proc = _run_cli("forward", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert "[noise] sigma_rel = 1e+308" in _one_error_line(proc, 3)
        assert not (tmp_path / "out").exists()

    def test_noise_is_seeded(self, workspace, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(BASE_CFG + "\n[noise]\nsigma_rel = 0.01\n")
        reseeded = tmp_path / "reseeded.cfg"
        reseeded.write_text(cfg.read_text().replace("seed = 3", "seed = 9"))
        a_dir, b_dir, c_dir = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["forward", "--config", str(cfg), "--out", str(a_dir)]) == 0
        assert main(["forward", "--config", str(cfg), "--out", str(b_dir)]) == 0
        assert main(["forward", "--config", str(reseeded), "--out", str(c_dir)]) == 0
        a = (a_dir / "sinogram.tat").read_bytes()
        assert a == (b_dir / "sinogram.tat").read_bytes()
        assert a != (c_dir / "sinogram.tat").read_bytes()
        clean = workspace["sino"].read_bytes()
        assert a != clean

    def test_growing_band_exits_3_before_the_field_overflows(self, tmp_path, capsys):
        # pml_width = 0.5 on 65^2 at constant speed is a band of 4.4 cells
        # at dt*sigma_max = 1.97, past the stable bound.  Without the energy
        # check this run exits 0 with a record peak near 2,000 (the true
        # peak is about 0.025): the field first overflows after t = 20.  At
        # level 200 its energy is about 6e8 times that of level 1.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(BASE_CFG.replace("kind = sinusoidal", "kind = constant")
                       .replace("t = 4.0", "t = 20"))
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: field blew up at step 200 (t = 14.2857); check the CFL bound and "
                       "the absorbing band ([grid] pml_width = 0.5: 4.44 cells, "
                       "dt*sigma_max = 1.97)\n")
        assert not (tmp_path / "out").exists()

    def test_band_thinner_than_a_cell_blow_up_names_the_band(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CFG.replace("pml_width = 0.3", "pml_width = 1.884425739150716e-12")
                       .replace("t = 1.0", "t = 8"))
        proc = _run_cli("forward", "--config", str(cfg), "--out", str(tmp_path / "out"))
        err = _one_error_line(proc, 3)
        assert err.startswith("error: field blew up at step 34 (t = 8); check the CFL bound")
        assert "[grid] pml_width = 1.88443e-12: 4.43e-12 cells, dt*sigma_max = 1.73e+12" in err
        assert not (tmp_path / "out").exists()

    def test_bytes_independent_of_thread_count(self, tmp_path):
        """One thread per pool with the process held to one CPU (detector
        reads inline), against two per pool with the reads on their helper
        thread."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            pools = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                                  threads)
            proc = _run_python("-c", _CLI_ON_CPUS, threads, "forward", "--config", str(cfg),
                               "--out", str(out), **pools)
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "sinogram.tat").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_is_no_option(self, capsys):
        # the thread pools are set through their environment variables
        with pytest.raises(SystemExit) as exit_:
            main(["--threads", "2", "forward", "--config", "exp.cfg"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ringtat ")

    @pytest.mark.parametrize("line", ["disc.1 = 0 0 nan 0.1", "gaussian.1 = 0.2 inf 0.18",
                                      "gaussian.1 = 0.2 -0.1 0.18 nan"])
    def test_non_finite_phantom_exits_2_naming_the_key(self, tmp_path, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("gaussian.1 = 0.2 -0.1 0.18", line)
                       .replace("t = 4.0", "t = 2.0"))
        proc = _run_cli("forward", "--config", str(cfg), "--out", str(tmp_path / "out"))
        err = _one_error_line(proc, 2)
        assert f"[phantom] {line.split()[0]}:" in err and "finite" in err
        assert not (tmp_path / "out" / "sinogram.tat").exists()

    @pytest.mark.parametrize("command", ["forward", "visibility", "reconstruct"])
    def test_phantom_summing_past_the_largest_float_exits_2(self, tmp_path, command):
        # each component is finite; their sum at the center is not
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("gaussian.1 = 0.2 -0.1 0.18",
                                         "gaussian.1 = 0 0 0.1 1e308\ngaussian.2 = 0 0 0.1 1e308"))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "reconstruct":
            argv += ["--data", str(tmp_path / "sinogram.tat")]
        err = _one_error_line(_run_cli(*argv), 2)
        assert err.startswith("error: [phantom] ") and "largest float" in err
        assert not out.exists()

    def test_phantom_near_the_largest_float_records_its_scaled_data(self, tmp_path, capsys):
        # the solve runs on the phantom scaled to a peak in [0.5, 1), so an
        # amplitude of 1e308 records 1e308 times the amplitude-1 data (peak
        # about 1.3e306) instead of overflowing inside the solve
        base = SMALL_CFG.replace("t = 4.0", "t = 2.0")
        sinos = []
        for name, amp in (("one", ""), ("big", " 1e308")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(base.replace("gaussian.1 = 0.2 -0.1 0.18", f"gaussian.1 = 0 0 0.1{amp}"))
            assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            sinos.append(read_array(tmp_path / name / "sinogram.tat")[0])
        assert capsys.readouterr().err == ""
        one, big = sinos
        # measured 1.9e-15: the solve's roundoff on a phantom rounded at 1e308
        assert np.linalg.norm(big / 1e308 - one) <= 1e-14 * np.linalg.norm(one)

    def test_out_naming_a_file_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = _run_cli("forward", "--config", str(cfg), "--out", str(taken))
        assert str(taken) in _one_error_line(proc, 2)

    def test_out_below_a_file_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        def solver(*args):
            raise AssertionError("solver reached")

        monkeypatch.setattr("ringtat.cli.forward_operator", solver)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: not a directory: {out}\n"
        assert sorted(tmp_path.iterdir()) == [cfg, taken] and taken.read_text() == ""

    def test_absurd_grid_spacing_exits_2_naming_it(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("l = 3.6", "l = 1e300").replace("n = 49", "n = 33"))
        proc = _run_cli("forward", "--config", str(cfg), "--out", str(tmp_path / "out"))
        err = _one_error_line(proc, 2)
        assert err.startswith("error: [grid] ") and "L = 1e+300, n = 33" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, edit", [
        ("forward", ("t = 1.0", "t = 1e15")),
        # just under 2**63 levels; 1.2e18 is past them
        ("forward", ("t = 1.0", "t = 1.1e18")),
        ("forward", ("t = 1.0", f"t = 1.0\nnt = {10**16}")),
        ("sweep", ("[sweep]", f"[sweep]\nbase_nt = {10**16}")),
    ])
    def test_record_too_long_to_allocate_exits_2_naming_it(self, tmp_path, capsys, command, edit):
        # 256 PiB and up: past any address space, so nothing is allocated
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(HUGE_RECORD_CFG.replace(*edit))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        if command == "sweep":
            nt, n_rows = 10**16, 4 * 3  # level 0: base_n_theta angles x 3 radii
        else:
            exp = load_experiment(cfg)
            nt = measurement_map(sample_speed(exp.speed_spec, exp.grid), exp.detector).nt
            n_rows = 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"record of {nt} time levels x {n_rows} detectors" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, names", [
        ("forward", ("t = 1.0", "t = 1e308"), "time levels"),
        ("forward", ("t = 1.0", "t = 1e300"), "time levels"),
        ("forward", ("t = 1.0", "t = 1.2e18"), "time levels"),
        ("forward", ("\nn = 33", f"\nn = {10**7}"), "[grid] grid too fine"),
        ("forward", ("\nn_theta = 4", f"\nn_theta = {10**13}"), "n_theta x n_alpha"),
        ("forward", ("n_alpha = 64", f"n_alpha = {10**13}"), "n_theta x n_alpha"),
        ("sweep", ("base_n = 33", f"base_n = {10**7}"), "grid too fine"),
        ("sweep", ("base_n_theta = 4", f"base_n_theta = {10**13}"), "n_theta x n_alpha"),
    ])
    def test_oversized_sizes_exit_2_before_allocating(self, tmp_path, capsys, command, edit,
                                                       names):
        # each size is past an index range, so it is rejected before any
        # array of that size is asked for
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(HUGE_RECORD_CFG.replace(*edit))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200, err
        assert names in err
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, names", [
        ("forward", ("gaussian.1 = 0.2 -0.1 0.18", "disc.1 = 0 0 -5 0.1"), "[phantom] disc.1:"),
        ("forward", ("gaussian.1 = 0.2 -0.1 0.18", "gaussian.1 = 0.5 0 -0.3"),
         "[phantom] gaussian.1:"),
        ("forward", ("[run]", "[noise]\nsigma_rel = inf\n[run]"), "[noise] sigma_rel:"),
        ("forward", ("[run]", "[noise]\nsigma_rel = nan\n[run]"), "[noise] sigma_rel:"),
        ("forward", ("seed = 3", "seed = -1\n[noise]\nsigma_rel = 0.1"), "[run] seed:"),
        ("visibility", ("t = 4.0", "t = 4.0\nt0 = inf"), "[time] t0 = inf"),
    ])
    def test_bad_width_noise_seed_or_window_exits_2_naming_it(self, tmp_path, capsys, command,
                                                              edit, names):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace(*edit))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200, err
        assert names in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        *((f"kind = sinusoidal\n{key} = 0.3", f"unknown key '{key}' in [speed]")
          for key in ("amp", "kx", "ky", "sigma", "eta_radius", "eta_taper")),
        ("kind = bogus", "[speed] unknown speed kind 'bogus'"),
    ])
    def test_speed_takes_only_a_known_kind(self, tmp_path, capsys, edit, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("kind = sinusoidal", edit))
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}"), err
        assert not out.exists()

    def test_missing_config_exits_2(self, capsys):
        rc = main(["forward", "--config", "/definitely/not/here.cfg"])
        assert rc == 2
        assert "config not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_overlong_path_exits_2(self, tmp_path, capsys, flag):
        # a name past the file system's limit raises a plain OSError
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        paths = {"--config": str(cfg), "--out": str(tmp_path / "out")}
        paths[flag] = str(tmp_path / ("a" * 300))
        argv = ["forward", "--config", paths["--config"], "--out", paths["--out"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: file name too long: {paths[flag]}\n"
        assert not (tmp_path / "out").exists()


class TestReconstructCommand:
    def test_happy_path(self, workspace, tmp_path):
        rc = main(["reconstruct", "--config", str(workspace["cfg"]),
                   "--data", str(workspace["sino"]), "--out", str(tmp_path)])
        assert rc == 0
        est, meta = read_array(tmp_path / "estimate.tat")
        assert est.shape == (65, 65) and meta["role"] == "estimate"
        report = json.loads((tmp_path / "recon_report.json").read_text())
        assert report["iterations"] == 3
        assert 0.0 < report["rel_l2_error"] < 1.0
        rows = (tmp_path / "residual_history.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,residual"
        assert len(rows) == 2 + 3  # header + initial point + 3 iterations

    def test_window_start_ignores_the_data_before_it(self, tmp_path):
        """``[time] t0`` opens the window: a sinogram changed only before it
        gives the same estimate bytes, and its sidecar still matches, as
        t0 is no part of the record lattice."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CFG.replace("t = 1.0", "t = 1.0\nt0 = 0.5"))
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        data, meta = read_array(tmp_path / "a" / "sinogram.tat")
        before = meta["detector"]["dt"] * np.arange(data.shape[0]) < 0.5
        assert 0 < before.sum() < data.shape[0] and "t0" not in meta["detector"]
        data[before] = np.random.default_rng(1).standard_normal(data[before].shape) * 1e300
        (tmp_path / "b").mkdir()
        write_array(tmp_path / "b" / "sinogram.tat", data, meta)
        for run in ("a", "b"):
            assert main(["reconstruct", "--config", str(cfg), "--data",
                         str(tmp_path / run / "sinogram.tat"), "--out",
                         str(tmp_path / run / "recon")]) == 0
        assert ((tmp_path / "a" / "recon" / "estimate.tat").read_bytes()
                == (tmp_path / "b" / "recon" / "estimate.tat").read_bytes())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "1", "1.5"])
    def test_bad_window_start_exits_2_naming_it(self, tmp_path, capsys, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CFG.replace("t = 1.0", f"t = 1.0\nt0 = {value}"))
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [time] t0 = {float(value):g} must lie in [0, 1)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["cg", "landweber"])
    def test_time_cutoff_weights_the_misfit(self, tmp_path, method):
        """With ``[time] t1`` the record runs to t1, and the first misfit is
        the data norm weighted by the cutoff with plateau t."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("t = 4.0", "t = 2.0\nt1 = 2.6")
                       .replace("method = cg", f"method = {method}"))
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        data, meta = read_array(tmp_path / "sinogram.tat")
        nt, dt = meta["detector"]["nt"], meta["detector"]["dt"]
        assert meta["detector"]["T"] == 2.6 and abs((nt - 1) * dt - 2.6) < 1e-12
        assert main(["reconstruct", "--config", str(cfg), "--data", str(tmp_path / "sinogram.tat"),
                     "--out", str(tmp_path)]) == 0
        with (tmp_path / "residual_history.csv").open(newline="") as fh:
            history = [float(row["residual"]) for row in csv.DictReader(fh)]
        chi = transition((dt * np.arange(nt) - 2.0) / (2.6 - 2.0))
        assert chi[0] == 1.0 and chi[-1] == 0.0
        expected = math.sqrt(float(np.sum(chi[:, None] * data**2)))
        assert abs(history[0] - expected) <= 1e-13 * expected
        assert expected < math.sqrt(float(np.sum(data**2)))

    def test_landweber_with_explicit_step(self, workspace, tmp_path):
        cfg = tmp_path / "lw.cfg"
        cfg.write_text(BASE_CFG.replace("method = cg", "method = landweber")
                       + "\n[noise]\n")
        text = cfg.read_text().replace("iters = 3", "iters = 3\nstep = 2.0")
        cfg.write_text(text)
        rc = main(["reconstruct", "--config", str(cfg),
                   "--data", str(workspace["sino"]), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "recon_report.json").read_text())
        assert report["step_size"] == 2.0
        hist = [float(r.split(",")[1]) for r in
                (tmp_path / "residual_history.csv").read_text().strip().splitlines()[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_zero_data_reports_unit_error(self, workspace, tmp_path):
        zero_cfg = tmp_path / "zero.cfg"
        zero_cfg.write_text(BASE_CFG.replace("gaussian.1 = 0.2 -0.1 0.18", ""))
        zdir = tmp_path / "zdata"
        assert main(["forward", "--config", str(zero_cfg), "--out", str(zdir)]) == 0
        rc = main(["reconstruct", "--config", str(workspace["cfg"]),
                   "--data", str(zdir / "sinogram.tat"), "--out", str(tmp_path)])
        assert rc == 0
        est, _ = read_array(tmp_path / "estimate.tat")
        assert not est.any()
        report = json.loads((tmp_path / "recon_report.json").read_text())
        assert report["rel_l2_error"] == 1.0

    def test_geometry_mismatch_names_both_files(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "other.cfg"
        # r = 2.05 keeps the ring (reach 3.05) clear of the band (from 3.1)
        cfg.write_text(BASE_CFG.replace("r = 2.0", "r = 2.05"))
        rc = main(["reconstruct", "--config", str(cfg),
                   "--data", str(workspace["sino"]), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(workspace["sino"]) in err and str(cfg) in err
        assert "mode.r" in err

    def test_sinogram_on_an_older_lattice_exits_2_naming_it(self, workspace, tmp_path):
        """A sinogram recorded at half the CFL bound, as older builds chose
        when ``[time] nt`` is unset, is refused before any solve."""
        exp = load_experiment(workspace["cfg"])
        T = exp.detector.T
        nt = math.ceil(T / (0.5 * cfl_limit(sample_speed(exp.speed_spec, exp.grid)))) + 1
        _, meta = read_array(workspace["sino"])
        current = meta["detector"]["nt"]
        assert current < nt
        meta["detector"].update(nt=nt, dt=T / (nt - 1))
        old = tmp_path / "old.tat"
        write_array(old, np.zeros((nt, exp.detector.n_theta)), meta)
        proc = _run_cli("reconstruct", "--config", str(workspace["cfg"]), "--data", str(old),
                        "--out", str(tmp_path / "rec"))
        err = _one_error_line(proc, 2)
        assert f"nt: config has {current}, data has {nt}" in err and "dt: config has" in err
        assert not (tmp_path / "rec").exists()

    def test_shape_check_without_sidecar(self, workspace, tmp_path, capsys):
        bare = tmp_path / "bare.tat"
        sino, _ = read_array(workspace["sino"])
        write_array(bare, sino)  # sidecar carries no detector block
        Path(str(bare) + ".json").unlink()
        cfg = tmp_path / "wrong_lattice.cfg"
        cfg.write_text(BASE_CFG.replace("n_theta = 24", "n_theta = 30"))
        rc = main(["reconstruct", "--config", str(cfg), "--data", str(bare),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "shape" in capsys.readouterr().err

    def test_diverging_landweber_exits_3_with_one_line(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(SMALL_CFG.replace("method = cg", "method = landweber")
                       .replace("iters = 3", "iters = 6\nstep = 1e6"))
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        proc = _run_cli("reconstruct", "--config", str(cfg),
                        "--data", str(tmp_path / "sinogram.tat"), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 3
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("step", ["0", "nan"])
    def test_useless_landweber_step_exits_2_naming_it(self, workspace, tmp_path, step):
        cfg = tmp_path / "lw.cfg"
        cfg.write_text(BASE_CFG.replace("method = cg", "method = landweber")
                       .replace("iters = 3", f"iters = 3\nstep = {step}"))
        proc = _run_cli("reconstruct", "--config", str(cfg), "--data", str(workspace["sino"]),
                        "--out", str(tmp_path / "rec"))
        assert "[recon] step" in _one_error_line(proc, 2)
        assert not (tmp_path / "rec").exists()

    def test_cg_step_exits_2_naming_it(self, workspace, tmp_path):
        cfg = tmp_path / "cg.cfg"
        cfg.write_text(BASE_CFG.replace("iters = 3", "iters = 3\nstep = 2.0"))
        proc = _run_cli("reconstruct", "--config", str(cfg), "--data", str(workspace["sino"]),
                        "--out", str(tmp_path / "rec"))
        assert "[recon] step" in _one_error_line(proc, 2)
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_exits_2_before_solving(self, tmp_path, bad):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        sino, meta = read_array(tmp_path / "sinogram.tat")
        sino[7, 3] = bad
        sino[9, 0] = bad
        poisoned = tmp_path / "poisoned.tat"
        write_array(poisoned, sino, meta)
        proc = _run_cli("reconstruct", "--config", str(cfg), "--data", str(poisoned),
                        "--out", str(tmp_path / "rec"))
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(poisoned) in lines[0] and "(7, 3)" in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "rec").exists()


    def test_data_naming_a_directory_exits_2(self, workspace, tmp_path):
        proc = _run_cli("reconstruct", "--config", str(workspace["cfg"]), "--data", str(tmp_path),
                        "--out", str(tmp_path / "rec"))
        assert str(tmp_path) in _one_error_line(proc, 2)
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("sidecar", [b"[1, 2]", b"{not json", b'{"role": "\xff"}',
                                         b'{"detector": 5}'])
    def test_malformed_sidecar_exits_2_with_one_line(self, workspace, tmp_path, sidecar):
        data = tmp_path / "sino.tat"
        data.write_bytes(workspace["sino"].read_bytes())
        Path(str(data) + ".json").write_bytes(sidecar)
        proc = _run_cli("reconstruct", "--config", str(workspace["cfg"]), "--data", str(data),
                        "--out", str(tmp_path / "rec"))
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(data) in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "rec").exists()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestVisibilityCommand:
    def test_ring_in_the_band_is_rejected_at_load_like_forward(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG.replace("mode = large", "mode = small\ncenter_radius = 2.5")
                       .replace("r = 2.0", "r = 1.5"))
        errors = []
        for command in ("forward", "visibility"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            "error: [detector] detector points reach |x| = 4, inside the absorbing band "
            "(interior half width 3.1)\n")
        assert not (tmp_path / "out").exists()

    def test_small_arc_verdicts_equal_the_benchmark_reference(self, tmp_path):
        """The visibility-small-arc benchmark config at seed 0 gives the
        verdicts its reference file records."""
        # perfbench is a directory of scripts, not a package; run_path
        # writes no bytecode next to them
        workload = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"][
            "visibility-small-arc"]
        text, _ = workload.build(0, False)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["visibility", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "visibility.csv").open(newline="") as fh:
            verdicts = [row["verdict"] for row in csv.DictReader(fh)]
        reference = PERFBENCH / "reference" / "visibility-small-arc.seed0.txt"
        assert verdicts == reference.read_text().split()

    @pytest.mark.parametrize("kind", ["constant", "sinusoidal"])
    def test_large_mode_short_window_sees_every_edge(self, tmp_path, capsys, kind):
        # each edge's line, extended back, passes a second detector center
        # less than 2 from the edge, and the ray crosses that detector's
        # circle along a radius before t = 2.  The witness is the earliest
        # unmasked event, so the largest witness time is the record the
        # disc needs: 0.556 at constant speed and 0.912 at the sinusoidal
        # one, in either window, so a record to t = 1 sees every edge.
        # Taking the first event in list order instead reads 1.71 and 1.96
        # in the window to t = 2.
        for t in ("2", "1"):
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"""
[grid]
l = 3.6
n = 129

[speed]
kind = {kind}

[phantom]
disc.1 = 0.1 -0.05 0.5 0.15

[detector]
mode = large
r = 2.0
n_theta = 60
n_alpha = 256

[time]
t = {t}
""")
            out = tmp_path / f"t{t}"
            assert main(["visibility", "--config", str(cfg), "--out", str(out)]) == 0
            assert capsys.readouterr().out.endswith("masked=0, out_of_aperture=0, visible=16\n")
            with (out / "visibility.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 16
            assert all(row["verdict"] == "visible" and 0.0 < float(row["witness_t"]) <= 1.0
                       for row in rows)

    def test_full_aperture_report(self, workspace, tmp_path):
        rc = main(["visibility", "--config", str(workspace["cfg"]), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "visibility.csv").read_text().strip().splitlines()
        assert rows[0].startswith("index,y0,y1,xi0,xi1")
        assert len(rows) > 1
        verdicts = {r.split(",")[6] for r in rows[1:]}
        assert verdicts == {"visible"}
        assert (tmp_path / "overlay.pgm").exists()

    @pytest.mark.parametrize("line", ["threshold = 2", "stride = 0", "stride = -2",
                                      "max_count = -1"])
    def test_bad_edge_knob_exits_2_naming_it(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG + f"\n[visibility]\n{line}\n")
        out = tmp_path / "out"
        assert main(["visibility", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: [visibility] {line.split()[0]}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["stride", "max_count"])
    def test_edge_knob_past_int64_exits_cleanly(self, tmp_path, key):
        # edge extraction takes int64 node indices modulo the stride, so a
        # stride of 2**63 or more is refused at load; a max_count past the
        # node count caps nothing
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG + f"\n[visibility]\n{key} = {10**23}\n")
        out = tmp_path / "out"
        proc = _run_cli("visibility", "--config", str(cfg), "--out", str(out))
        if key == "stride":
            err = _one_error_line(proc, 2)
            assert err == f"error: [visibility] stride: expected an integer below 2**63, got {10**23}"
            assert not out.exists()
        else:
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            assert len((out / "visibility.csv").read_text().splitlines()) > 1

    @pytest.mark.parametrize("lines", [
        ("gaussian.1 = 0 0 0.2 {a}",),
        ("disc.1 = 0.3 0 0.2 0.1 {a}", "gaussian.1 = -0.45 0.15 0.1 -{a}"),
    ])
    def test_edges_do_not_depend_on_the_amplitude(self, tmp_path, capsys, lines):
        # scaling by a power of two is exact, so a phantom at 2**1023 has
        # the edges, verdicts and overlay of the same phantom at 1; the
        # second case spans twice the largest float
        outs = []
        for name, a in (("one", "1"), ("big", repr(2.0**1023))):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(SMALL_CFG.replace("gaussian.1 = 0.2 -0.1 0.18",
                                             "\n".join(line.format(a=a) for line in lines))
                           + "\n[visibility]\nstride = 1\n")
            out = tmp_path / name
            assert main(["visibility", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        assert capsys.readouterr().err == ""
        one, big = outs
        for name in ("visibility.csv", "overlay.pgm"):
            assert (one / name).read_bytes() == (big / name).read_bytes()
        assert len((one / "visibility.csv").read_text().splitlines()) > 1

    def test_zero_phantom_warns_and_writes_empty(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(BASE_CFG.replace("gaussian.1 = 0.2 -0.1 0.18", ""))
        rc = main(["visibility", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no edges" in captured.err
        assert "masked=0, out_of_aperture=0, visible=0" in captured.out
        rows = (tmp_path / "visibility.csv").read_text().strip().splitlines()
        assert len(rows) == 1
        assert (tmp_path / "overlay.pgm").is_file()


TINY_CFG = """
[grid]
l = 3.4
n = 17
pml_width = 0.3

[speed]
kind = sinusoidal

[phantom]
gaussian.1 = 0.1 -0.1 0.2

[detector]
mode = large
r = 2.0
n_theta = 4
n_alpha = 64

[time]
t = 1.0

[visibility]
stride = 1
max_count = 2
"""

TINY_SWEEP_CFG = TINY_CFG.replace("l = 3.4", "l = 3.9").replace("pml_width = 0.3",
                                                                "pml_width = 0.5") + """
[sweep]
levels = 2
base_n = 33
base_nt = 33
base_n_theta = 4
"""

_FUZZ_NUMBERS = st.one_of(
    st.sampled_from(["1e300", "-1e300", "1e-300", "inf", "-inf", "nan", "0", "-1"]),
    st.floats(-4.0, 40.0).map(repr),
    st.integers(-3, 40).map(str),
    st.text(alphabet="0123456789.-e nai", max_size=6),
)
_FUZZ_KEYS = (
    "grid.l", "grid.n", "grid.pml_width", "speed.kind",
    "phantom.gaussian.1", "phantom.disc.1", "detector.mode", "detector.r",
    "detector.center_radius", "detector.n_theta", "time.t", "time.nt", "aperture.arc",
    "time.t0", "noise.sigma_rel", "run.seed",
)
_FUZZ_SWEEP_KEYS = (
    "grid.l", "grid.pml_width", "speed.kind", "detector.mode", "detector.r",
    "detector.center_radius", "sweep.levels", "sweep.base_radius", "sweep.base_n",
    "sweep.base_nt", "sweep.base_n_theta",
)


def _small_or_rejected(values):
    """``values``, or text that each size key rejects or reads as a small value."""
    return st.one_of(st.sampled_from(["1e300", "-1e300", "inf", "nan", "2.5", ""]), values,
                     st.text(alphabet=".-e nai", max_size=6))


# Keys that set an array size or a level count draw only small valid values:
# a valid size in the thousands, or a record length in the millions, would
# make one example allocate gigabytes or step for minutes.  Sizes past an
# index range have their own cases (test_oversized_sizes_exit_2_before_allocating).
_FUZZ_SIZES = {
    **{key: _small_or_rejected(st.integers(-3, 65).map(str))
       for key in ("grid.n", "detector.n_theta", "time.nt", "sweep.base_nt")},
    "time.t": _small_or_rejected(st.floats(-4.0, 40.0).map(repr)),
    "sweep.levels": _small_or_rejected(st.integers(-3, 2).map(str)),
    "sweep.base_n": _small_or_rejected(st.integers(-3, 33).map(str)),
    "sweep.base_n_theta": _small_or_rejected(st.integers(-3, 16).map(str)),
    "phantom.disc.1": st.lists(_FUZZ_NUMBERS, min_size=4, max_size=5).map(" ".join),
    "speed.kind": st.sampled_from(["constant", "sinusoidal", "radial_bump"]),
}


# data factors and entries for reconstruct: overflowing and underflowing
# squares, subnormals, zero and the largest floats
_FUZZ_SCALES = st.one_of(
    st.sampled_from([1e300, 1e160, 1e155, 1e-300, 1e-310, 5e-324, 0.0, -1.0]),
    st.floats(-1e300, 1e300),
)
_FUZZ_ENTRIES = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 1e155, 1e-300, 5e-324, 0.0, math.nan, math.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_FUZZ_RECON = {
    "method": st.sampled_from(["cg", "landweber", "LANDWEBER", "sgd", ""]),
    "iters": _small_or_rejected(st.integers(-3, 6).map(str)),
    "step": _FUZZ_NUMBERS,
}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def tiny_sinogram(tmp_path_factory):
    """``forward`` on TINY_CFG: the sinogram and its sidecar."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "exp.cfg"
    cfg.write_text(TINY_CFG)
    assert main(["forward", "--config", str(cfg), "--out", str(root)]) == 0
    return read_array(root / "sinogram.tat")


class TestCommandFuzz:
    @staticmethod
    def _exits_cleanly(command, sections, data=None):
        """Run ``command`` on the config ``sections`` (and on ``data``, an
        array and its sidecar, as ``--data``) with warnings as errors: it
        ends in exit 0, 2 or 3 with at most one stderr line, only exit 0
        writes ``--out``, and the JSON files there are strict JSON."""
        text = _cfg_text(sections)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = Path(root) / "exp.cfg"
            cfg.write_text(text)
            out = Path(root) / "out"
            argv = [command, "--config", str(cfg), "--out", str(out)]
            if data is not None:
                write_array(Path(root) / "data.tat", *data)
                argv += ["--data", str(Path(root) / "data.tat")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == 0 or not out.exists()
            for sidecar in out.glob("*.json"):
                json.loads(sidecar.read_text(), parse_constant=_no_constant)
        assert rc in (0, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["forward", "visibility", "sweep"]), data=st.data())
    def test_tiny_configs_exit_cleanly(self, command, data):
        """Any config ends in exit 0, 2 or 3 with at most one stderr line and
        no Python warning; only exit 0 writes ``--out``, and its sidecars
        are strict JSON."""
        sweep = command == "sweep"
        sections = parse_config_text(TINY_SWEEP_CFG if sweep else TINY_CFG)
        keys = _FUZZ_SWEEP_KEYS if sweep else _FUZZ_KEYS
        for dotted in data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=2)):
            value = data.draw(_FUZZ_SIZES.get(dotted, _FUZZ_NUMBERS), label=dotted)
            sec, key = dotted.split(".", 1)
            sections.setdefault(sec, {})[key] = value
        self._exits_cleanly(command, sections)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reconstruct_on_scaled_or_perturbed_data_exits_cleanly(self, tiny_sinogram, data):
        """``reconstruct`` on a ``forward`` sinogram times any finite factor,
        with a few entries overwritten and ``[recon]`` keys drawn, exits as
        ``_exits_cleanly`` requires; ``recon_report.json`` is strict JSON."""
        sino, meta = tiny_sinogram
        values = sino * data.draw(_FUZZ_SCALES, label="scale")
        for index, value in data.draw(st.lists(st.tuples(st.integers(0, values.size - 1),
                                                         _FUZZ_ENTRIES), max_size=3),
                                      label="entries"):
            values.flat[index] = value
        sections = parse_config_text(TINY_CFG)
        recon = sections.setdefault("recon", {})
        for key in data.draw(st.lists(st.sampled_from(sorted(_FUZZ_RECON)), unique=True)):
            recon[key] = data.draw(_FUZZ_RECON[key], label=f"recon.{key}")
        self._exits_cleanly("reconstruct", sections, (values, meta))


SWEEP_CFG = """
[grid]
l = 3.9
n = 65
pml_width = 0.5

[detector]
mode = large
r = 2.1
n_alpha = 64

[sweep]
levels = 2
base_n = 65
base_nt = 103
base_n_theta = 20
"""


class TestSweepCommand:
    def test_two_level_study(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "level,h,rms,rms_wrong_stencil"
        assert len(rows) == 3
        rms = [float(r.split(",")[2]) for r in rows[1:]]
        assert rms[1] < rms[0]  # matching stencil improves under refinement

    def test_small_mode_study_sweeps_the_configured_detector(self, tmp_path):
        # r = 0.7 is not the study's example r = 0.8, so a config radius the
        # command dropped would show in the residuals
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("mode = large\nr = 2.1",
                                         "mode = small\ncenter_radius = 2.1\nr = 0.7"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with (tmp_path / "sweep.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["level", "h", "rms"]
        loaded = load_experiment(cfg)

        def study(mode):
            return detector.residual_refinement_study(
                mode, loaded.sweep, n_alpha=64, L=3.9, pml_width=0.5,
                speed_spec=loaded.speed_spec)["rms"]

        direct = study(SmallMode(R=2.1, r=0.7))
        assert [float(row[2]) for row in rows[1:]] == direct
        assert direct != study(SmallMode(R=2.1, r=0.8))

    def test_detector_ring_in_the_band_does_not_stop_a_sweep(self, tmp_path, monkeypatch):
        # [detector] center_radius 2.8 and r 0.7 reach 3.5, past the band's
        # 3.4, but the study sweeps [sweep] base_radius 2.1 +- 0.1 (reach 2.9)
        seen = []

        def study(mode, settings, **kwargs):
            seen.append(mode)
            return {"h": [0.1, 0.05], "rms": [4.0, 1.0], "ratios": [4.0]}

        monkeypatch.setattr("ringtat.cli.residual_refinement_study", study)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("mode = large\nr = 2.1",
                                         "mode = small\ncenter_radius = 2.8\nr = 0.7"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert seen == [SmallMode(R=2.8, r=0.7)]
        assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[0] == "level,h,rms"

    def test_blown_up_field_exits_3_in_one_line(self, tmp_path, capsys):
        # a band far thinner than a cell damps so hard that the field grows
        # to about 1e207 without overflowing; its energy overflows, so the
        # last level's check stops the solve and names the band
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY_SWEEP_CFG.replace("pml_width = 0.5",
                                              "pml_width = 1.884425739150716e-12"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: field blew up at step 32 (t = 3); check the CFL bound")
        assert "[grid] pml_width = 1.88443e-12" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, says", [
        ("base_n = 4", "base_n = 4: grid too coarse"),
        ("base_n_theta = 1", "base_n_theta must be at least 2"),
        ("base_nt = 2", "base_nt must be at least 3"),
        ("base_nt = 5", "base_nt = 5: dt = 0.75 exceeds the stability bound"),
        ("base_radius = nan", "base_radius = nan: large-detector geometry needs finite r >= 2"),
        ("base_radius = 2.05", "base_radius = 2.05: large-detector geometry needs finite r >= 2"),
        ("base_radius = 3.0", "base_radius = 3.0: detector points reach"),
    ])
    def test_bad_lattice_exits_2_naming_the_key_before_any_solve(self, tmp_path, capsys,
                                                                monkeypatch, line, says):
        monkeypatch.setattr(detector, "_record_forward",
                            lambda *args: pytest.fail("the study solved"))
        key = line.split(" = ")[0]
        cfg = tmp_path / "sweep.cfg"
        # [sweep] is the last section, so the edited key goes at the end
        cfg.write_text("\n".join(row for row in SWEEP_CFG.splitlines()
                                 if not row.startswith(key + " ")) + f"\n{line}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: [sweep] {says}"), err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [0, 1])
    def test_fewer_than_two_levels_exits_2(self, tmp_path, capsys, levels):
        # a refinement ratio needs two lattices, so the study is refused at load
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(HUGE_RECORD_CFG.replace("levels = 2", f"levels = {levels}"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: [sweep] levels "), err
        assert not out.exists()


class TestSelftestCommand:
    def test_quick_passes(self, capsys):
        rc = main(["selftest", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_fault_injection_fails_adjoint(self, monkeypatch, capsys):
        forward_operator = selftest.forward_operator

        def shifted(f, speed, config):
            sino = forward_operator(f, speed, config)
            sino.data += 1e-6 * max(float(np.abs(sino.data).max()), 1.0)
            return sino

        monkeypatch.setattr(selftest, "forward_operator", shifted)
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL adjoint_small" in out

    def test_fault_injection_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["selftest", "--break-adjoint"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --break-adjoint" in capsys.readouterr().err

    def test_registry(self):
        names = [name for name, _, _ in selftest.CHECKS]
        assert len(set(names)) == len(names)
        assert [name for name, level, _ in selftest.CHECKS if level == "quick"] == [
            "adjoint_small", "adjoint_large", "ray_straight_line", "ray_hamiltonian",
            "energy_conservation", "pml_reflection"]
        assert {level for _, level, _ in selftest.CHECKS} == {"quick", "full"}

    def test_full_level_runs_each_study_once(self, monkeypatch, capsys):
        calls = []

        def study(mode, settings):
            calls.append((mode, settings))
            out = {"ratios": [4.0, 4.0]}
            if isinstance(mode, LargeMode):
                out["ratios_wrong"] = [1.0, 1.0]
            return out

        monkeypatch.setattr(selftest, "residual_refinement_study", study)
        assert main(["selftest", "--level", "full"]) == 0
        assert calls == [(SmallMode(R=2.1, r=0.8), SweepSettings(levels=3)),
                         (LargeMode(r=2.1), SweepSettings(levels=3))]
        out = capsys.readouterr().out
        assert "PASS residual_discrimination" in out and "9/9 checks passed" in out


_SCIPY_AFTER_EACH_STEP = """
import json
import sys

from ringtat import cli


def loaded():
    return [name for name in ("scipy.linalg", "scipy.sparse") if name in sys.modules]


cfg, out = sys.argv[1:]
steps = {"import": loaded()}
for command in ("visibility", "forward"):
    assert cli.main([command, "--config", cfg, "--out", f"{out}/{command}"]) == 0
    steps[command] = loaded()
print(json.dumps(steps))
"""


class TestColdStart:
    def test_scipy_submodules_load_only_with_a_sampler(self, tmp_path):
        """A fresh process that imports ``ringtat.cli`` and runs
        ``visibility`` loads neither scipy.linalg nor scipy.sparse; the
        first sampler build (``forward``) loads scipy.sparse alone."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CFG)
        proc = _run_python("-c", _SCIPY_AFTER_EACH_STEP, str(cfg), str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        assert steps == {"import": [], "visibility": [], "forward": ["scipy.sparse"]}
