"""Every private module-level name is used by the package, and every
import by its module.

A name that starts with an underscore is the package's own business, so
only the package can be the reason it exists: each one a module binds at
its top level must be loaded somewhere in ``src/foglink/``, by plain name
or as an attribute, beyond the statement that binds it.  A helper left
behind by a refactor, or kept only for the tests, fails here.  A name a
module imports at its top level must be loaded in that module or listed in
its ``__all__``, so an import outliving its last use fails too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foglink"


def private_bindings(tree):
    """The private names a module's top-level defs, classes and assignments
    bind (dunder names such as ``__all__`` excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unreferenced_private_names(paths):
    """``module.name`` of each private top-level name in ``paths`` that no
    code in ``paths`` loads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in private_bindings(tree) - loaded
    )


def test_every_private_name_is_used_by_the_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert unreferenced_private_names(paths) == []


def test_an_unused_private_name_is_found(tmp_path):
    (tmp_path / "first.py").write_text(
        "__all__ = ['run']\n_LIMIT = 3\n_spare: int = 4\n"
        "def _helper(x):\n    return x\n"
        "def _tests_only(x):\n    return x\n"
        "def run(rows):\n    _count = 0\n    return _helper(rows[:_LIMIT])\n",
        encoding="utf-8",
    )
    (tmp_path / "second.py").write_text(
        "from .first import _spare\nimport first\n_TABLE = {}\n_TABLE['k'] = first._spare\n",
        encoding="utf-8",
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced_private_names(paths) == ["first._tests_only"]


def unused_imports(path):
    """``module.name`` of each name a module's top-level imports bind that
    the module neither loads nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(f"{path.stem}.{name}" for name in imported - loaded - exported)


def test_every_import_is_used_or_exported():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [name for path in paths for name in unused_imports(path)] == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "third.py"
    path.write_text(
        "import os.path\nimport math as m\nfrom .link import clip_power, noise_dbm\n"
        "from .units import db_to_linear\n__all__ = ['db_to_linear']\n"
        "def run(x):\n    return os.path.join(noise_dbm(x), m.pi)\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["third.clip_power"]
