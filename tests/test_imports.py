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
