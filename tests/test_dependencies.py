"""Every import is a declared dependency.

The package may import the standard library and numpy, its one declared
runtime dependency (``pyproject.toml``).  The tests may also import the
declared test extras, pytest and hypothesis, the package itself and their
shared ``oracles`` module.  Anything else, mpmath or sympy for instance,
would make the suite pass only where it happens to be installed.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}
TEST_ALLOWED = ALLOWED | {"pytest", "hypothesis", "foglink", "oracles"}


def imported_modules(path):
    """Top-level names of the absolute imports anywhere in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("directory, allowed", [
    ("src/foglink", ALLOWED),
    ("tests", TEST_ALLOWED),
])
def test_only_declared_dependencies_are_imported(directory, allowed):
    paths = sorted((ROOT / directory).glob("*.py"))
    assert paths
    undeclared = {
        path.name: sorted(imported_modules(path) - allowed) for path in paths
    }
    assert {name: found for name, found in undeclared.items() if found} == {}


def test_an_undeclared_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import os.path\nfrom . import pa\n"
        "def f():\n    import mpmath\n    from sympy.core import S\n",
        encoding="utf-8",
    )
    assert imported_modules(path) - ALLOWED == {"mpmath", "sympy"}
