"""The README's Quick-start config loads and its Python API example runs as
written."""

import re
from pathlib import Path

from ringtat.cli import build_experiment, parse_config_text
from ringtat.detector import record_lattice
from ringtat.field import sample_speed

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_recovers_the_phantom():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["err"] <= 0.15  # the criterion-04 bound


def test_quick_start_config_loads_with_the_stated_record():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    cfg = build_experiment(parse_config_text(blocks[0]))
    nt, _ = record_lattice(sample_speed(cfg.speed_spec, cfg.grid), cfg.detector)
    # "here 182 time levels x 60 detectors"
    assert (nt, cfg.detector.n_theta) == (182, 60)
