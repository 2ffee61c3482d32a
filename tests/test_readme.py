"""The README's Quick-start config loads, its Python API example runs as
written, and it names every config section and key."""

import re
from pathlib import Path

from ringtat.cli import _KNOWN_KEYS, build_experiment, parse_config_text
from ringtat.detector import measurement_map
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
    nt = measurement_map(sample_speed(cfg.speed_spec, cfg.grid), cfg.detector).nt
    # "here 182 time levels x 60 detectors"
    assert (nt, cfg.detector.n_theta) == (182, 60)


def test_readme_names_every_config_section_and_key():
    # the CLI's module docstring leaves the config grammar to README
    text = README.read_text()
    for section, keys in _KNOWN_KEYS.items():
        assert f"[{section}]" in text, section
        for key in keys or ("gaussian.N", "disc.N"):  # [phantom] keys are numbered
            assert re.search(rf"`{re.escape(key)}[` ]|^{re.escape(key)} *=", text, re.M), key
