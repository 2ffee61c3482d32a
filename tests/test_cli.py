"""Tests for the command line front end and artifact formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringtat
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
from ringtat.detector import LargeMode, SmallMode

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


def _run_cli(*argv):
    """Run ``python -m ringtat.cli`` in a fresh process on this source tree."""
    src = Path(ringtat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-m", "ringtat.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


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
        assert cfg.detector.T == 4.0 and cfg.cutoff_end is None
        assert cfg.grid.n == 65 and cfg.seed == 3
        assert cfg.method == "cg" and cfg.iters == 3

    def test_small_mode_and_aperture(self):
        cfg = build_experiment(_cfg_dict(**{
            "detector.mode": "small",
            "detector.center_radius": "2.0",
            "detector.r": "0.8",
            "aperture.arc": "-1.5708 0.0",
            "aperture.window": "0.0 3.0",
        }))
        assert isinstance(cfg.detector.mode, SmallMode)
        assert cfg.detector.aperture == (-1.5708, 0.0)
        assert cfg.window == (0.0, 3.0)

    def test_cutoff_extends_record(self):
        cfg = build_experiment(_cfg_dict(**{"time.t1": "4.5"}))
        assert cfg.detector.T == 4.5 and cfg.plateau == 4.0

    def test_cutoff_must_exceed_plateau(self):
        with pytest.raises(ConfigError, match="t1 must exceed t"):
            build_experiment(_cfg_dict(**{"time.t1": "3.0"}))

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

    def test_module_invariants_revalidated(self):
        # phantom support outside the unit disc is caught at load time
        with pytest.raises(ValueError, match="unit disc"):
            build_experiment(_cfg_dict(**{"phantom.gaussian.1": "0.8 0.0 0.2"}))
        with pytest.raises(ValueError, match="n_alpha"):
            build_experiment(_cfg_dict(**{"detector.n_alpha": "16"}))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config not found"):
            load_experiment(tmp_path / "nope.cfg")


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

    def test_noise_is_seeded(self, workspace, tmp_path):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text(BASE_CFG + "\n[noise]\nsigma_rel = 0.01\n")
        a_dir, b_dir, c_dir = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["forward", "--config", str(cfg), "--out", str(a_dir)]) == 0
        assert main(["forward", "--config", str(cfg), "--out", str(b_dir)]) == 0
        assert main(["forward", "--config", str(cfg), "--out", str(c_dir),
                     "--seed", "9"]) == 0
        a = (a_dir / "sinogram.tat").read_bytes()
        assert a == (b_dir / "sinogram.tat").read_bytes()
        assert a != (c_dir / "sinogram.tat").read_bytes()
        clean = workspace["sino"].read_bytes()
        assert a != clean

    def test_bytes_independent_of_thread_count(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CFG)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = _run_cli("--threads", threads, "forward", "--config", str(cfg),
                            "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "sinogram.tat").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_exits_2(self, capsys):
        rc = main(["forward", "--config", "/definitely/not/here.cfg"])
        assert rc == 2
        assert "config not found" in capsys.readouterr().err


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
        cfg.write_text(BASE_CFG.replace("r = 2.0", "r = 2.2"))
        rc = main(["reconstruct", "--config", str(cfg),
                   "--data", str(workspace["sino"]), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(workspace["sino"]) in err and str(cfg) in err
        assert "mode.r" in err

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
        assert not (tmp_path / "rec" / "estimate.tat").exists()


class TestVisibilityCommand:
    def test_full_aperture_report(self, workspace, tmp_path):
        rc = main(["visibility", "--config", str(workspace["cfg"]), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "visibility.csv").read_text().strip().splitlines()
        assert rows[0].startswith("index,y0,y1,xi0,xi1")
        assert len(rows) > 1
        verdicts = {r.split(",")[6] for r in rows[1:]}
        assert verdicts == {"visible"}
        assert (tmp_path / "overlay.pgm").exists()

    def test_zero_phantom_warns_and_writes_empty(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(BASE_CFG.replace("gaussian.1 = 0.2 -0.1 0.18", ""))
        rc = main(["visibility", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert "no edges" in capsys.readouterr().err
        rows = (tmp_path / "visibility.csv").read_text().strip().splitlines()
        assert len(rows) == 1


class TestSweepCommand:
    def test_two_level_study(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("""
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
""")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "level,h,rms,rms_wrong_stencil"
        assert len(rows) == 3
        rms = [float(r.split(",")[2]) for r in rows[1:]]
        assert rms[1] < rms[0]  # matching stencil improves under refinement


class TestSelftestCommand:
    def test_quick_passes(self, capsys):
        rc = main(["selftest", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6

    def test_fault_injection_fails_adjoint(self, capsys):
        rc = main(["selftest", "--break-adjoint"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL adjoint_small" in out
