"""Import hygiene of the package modules, checked with the stdlib ``ast``.

No module may import a name it never uses (``__init__.py`` re-exports are
exempt), no module may reach into a sibling for a ``_``-prefixed name, and
``import bbayes`` must not load ``scipy.stats``.
"""

import ast
import os
import subprocess
import sys
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


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.7 s of start-up; the package needs only scipy.special
    code = "import sys, bbayes; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(bbayes.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
