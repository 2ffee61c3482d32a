"""The README's Quick-start config loads, its Python API example runs as
written, it names every config section and key, and every module-qualified
name it quotes exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import ringtat
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


def _qualified_names(text):
    """The dotted names that open a backticked span outside the fenced
    blocks and start with ``ringtat.`` or ``<module>.`` for a ringtat
    module, as (name, module, attribute path)."""
    modules = {m.name for m in pkgutil.iter_modules(ringtat.__path__)}
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", text):
        name = re.match(r"(ringtat\.)?([A-Za-z_]\w*)((?:\.\w+)*)", span)
        if name and name.group(2) in modules and (name.group(1) or name.group(3)):
            yield name.group(), name.group(2), name.group(3).split(".")[1:]


def test_readme_quotes_no_stale_module_name():
    checked = set()
    for name, module, path in _qualified_names(README.read_text()):
        obj = importlib.import_module(f"ringtat.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"README quotes `{name}`, which does not exist"
            obj = getattr(obj, attr)
        checked.add(name)
    # the module table quotes every module but the spline helper
    assert {f"ringtat.{m}" for m in ("field", "wave", "detector", "recon", "rays",
                                      "selftest", "cli")} <= checked
