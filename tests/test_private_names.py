"""Every private module-level name is used by the package.

A name that starts with an underscore is the package's own business, so
only the package can be the reason it exists: each one a module binds at
its top level must be loaded somewhere in ``src/foglink/``, by plain name
or as an attribute, beyond the statement that binds it.  A helper left
behind by a refactor, or kept only for the tests, fails here.
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
