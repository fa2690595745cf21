"""Every public name resolves: each ``__all__`` entry of a ``foglink``
module exists, and each ``from foglink… import …`` line of the README
imports.  A name deleted from a module but left in an ``__all__`` or in
the README fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import foglink

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["foglink", *(f"foglink.{info.name}" for info in pkgutil.iter_modules(foglink.__path__))]

README_IMPORTS = [
    line.strip() for line in README.read_text().splitlines()
    if re.match(r"\s*from foglink(\.\w+)* import ", line)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what {name} does not define: {missing}"


def test_readme_imports_resolve():
    assert README_IMPORTS, "README.md has no `from foglink... import` line"
    for line in README_IMPORTS:
        exec(line, {})
