"""Each module's private names stay inside it: no ``src`` module imports
an underscore name from another."""

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
