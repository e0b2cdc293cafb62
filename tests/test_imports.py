"""Import hygiene of the package modules, checked with the stdlib ``ast``.

No module may import a name it never uses (``__init__.py`` re-exports are
exempt), and no module may reach into a sibling for a ``_``-prefixed name.
"""

import ast
from pathlib import Path

import bbayes

MODULES = sorted(Path(bbayes.__file__).parent.glob("*.py"))


def _imports(tree):
    """(bound name, imported name, sibling import?) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sibling = node.level > 0 or (node.module or "").split(".")[0] == "bbayes"
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, sibling


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {bound}" for bound, _, _ in _imports(tree) if bound not in used]
    assert not unused, unused


def test_no_private_names_from_siblings():
    private = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        private += [f"{path.name}: {name}" for _, name, sibling in _imports(tree) if sibling and name.startswith("_")]
    assert not private, private
