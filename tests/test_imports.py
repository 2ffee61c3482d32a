"""Each module's private names stay inside it: no ``src`` module imports
an underscore name from another.  Each module uses every name it imports,
so a removal leaves no stale import behind."""

import ast
from pathlib import Path

import ringtat

SRC = Path(ringtat.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}:{node.lineno} from .{node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found, found


def _unused_imports(source: str, filename: str) -> list[str]:
    """The names an import binds in ``source`` that no other expression reads
    (annotations count: they are parsed even when not evaluated)."""
    tree = ast.parse(source, filename=filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                # "import a.b" binds "a"
                bound[a.asname or a.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{filename}:{line} {name}" for name, line in bound.items() if name not in used]


def test_every_imported_name_is_used():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _unused_imports(path.read_text(), path.name)
    assert not found, found


def test_unused_import_check_sees_a_stale_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .field import Grid2D, Phantom, SpeedField\n"
              "def f(g: Grid2D) -> SpeedField:\n"
              "    return np.asarray(os.path.sep)\n")
    assert _unused_imports(source, "m.py") == ["m.py:4 Phantom"]


def _mode_branches(source: str, filename: str) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each ``isinstance`` call in
    ``source`` that tests for ``SmallMode`` or ``LargeMode``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child.args[1])}
                if names & {"SmallMode", "LargeMode"}:
                    found.append((filename, func, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source, filename=filename), None)
    return found


def test_only_detector_branches_on_the_detector_geometry():
    # a mode carries its kind and its sweep, so no other module needs to ask
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "detector.py":
            found += _mode_branches(path.read_text(), path.name)
    assert not found, found


def test_mode_branch_check_sees_a_branch():
    source = ("from . import detector\n"
              "def meta(mode):\n"
              "    return 'small' if isinstance(mode, (detector.SmallMode, int)) else 'large'\n")
    assert _mode_branches(source, "m.py") == [("m.py", "meta", 3)]
