"""Each module's private names stay inside it: no ``src`` module imports
an underscore name from another.  Each module uses every name it imports,
so a removal leaves no stale import behind.  Only detector branches on the
detector geometry, only the two time loops step the wave solver, and only
one wave.py helper reaches a private name of numpy or SciPy."""

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


def _nodes(source: str, filename: str, match) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each node in ``source`` that
    ``match`` accepts."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((filename, func, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(source, filename=filename), None)
    return found


def _calls(source: str, filename: str, match) -> list[tuple[str, str | None, int]]:
    """``_nodes`` of the calls that ``match`` accepts."""
    return _nodes(source, filename, lambda node: isinstance(node, ast.Call) and match(node))


def _mode_branches(source: str, filename: str) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each ``isinstance`` call in
    ``source`` that tests for ``SmallMode`` or ``LargeMode``."""

    def match(call):
        if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                and len(call.args) == 2):
            return False
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(call.args[1])}
        return bool(names & {"SmallMode", "LargeMode"})

    return _calls(source, filename, match)


def _method_calls(source: str, filename: str, method: str) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each ``<expr>.<method>(...)`` call."""
    return _calls(source, filename,
                  lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == method)


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


def test_only_the_two_time_loops_step_the_solver():
    # wave.march is the one forward loop; the adjoint adds data between its
    # transposed steps, so it marches them itself
    found = {"step": [], "step_T": []}
    for path in sorted(SRC.glob("*.py")):
        for method in found:
            found[method] += [where[:2] for where in
                              _method_calls(path.read_text(), path.name, method)]
    assert found == {"step": [("wave.py", "march")], "step_T": [("detector.py", "adjoint_operator")]}


def test_step_check_sees_a_step():
    source = ("def settle(solver, s):\n"
              "    for _ in range(3):\n"
              "        s = solver.step(s)\n"
              "    return solver.step_T(s)\n")
    assert _method_calls(source, "m.py", "step") == [("m.py", "settle", 3)]
    assert _method_calls(source, "m.py", "step_T") == [("m.py", "settle", 4)]


_LIBRARIES = {"numpy", "scipy"}


def _is_private(name: str) -> bool:
    """A single-underscore name (dunders such as ``__version__`` are public)."""
    return name.startswith("_") and not name.endswith("__")


def _private_reaches(source: str, filename: str) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each import of, or attribute
    read reaching, a private name of numpy or SciPy."""
    tree = ast.parse(source, filename=filename)
    # the names an import binds to numpy or SciPy, or to anything in them
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names
                      if a.name.split(".")[0] in _LIBRARIES}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _LIBRARIES:
            bound |= {a.asname or a.name for a in node.names}

    def match(node):
        if isinstance(node, ast.Import):
            return any(n.split(".")[0] in _LIBRARIES and any(map(_is_private, n.split(".")))
                       for n in (a.name for a in node.names))
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            return parts[0] in _LIBRARIES and any(map(_is_private, parts + [a.name for a in node.names]))
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            return isinstance(root, ast.Name) and root.id in bound
        return False

    return _nodes(source, filename, match)


def test_only_one_helper_reaches_a_private_library_name():
    # wave._accumulating binds SciPy's in-place sparse kernels, and
    # test_wave.py's TestBandProducts pins them to the public products
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [where[:2] for where in _private_reaches(path.read_text(), path.name)]
    assert found == [("wave.py", "_accumulating")]


def test_private_reach_check_sees_a_reach():
    source = ("import numpy as np\n"
              "import scipy.linalg._flapack\n"
              "from scipy import sparse\n"
              "from numpy import _core\n"
              "def kernels(self):\n"
              "    from scipy.sparse._sparsetools import csr_matvec\n"
              "    v = np.__version__, np.add, self._x, sparse.csr_matrix\n"
              "    return np._core.multiarray, sparse._sputils, scipy.linalg.blas\n")
    assert _private_reaches(source, "m.py") == [
        ("m.py", None, 2), ("m.py", None, 4), ("m.py", "kernels", 6),
        ("m.py", "kernels", 8), ("m.py", "kernels", 8)]
