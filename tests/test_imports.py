"""Import hygiene of the package modules, checked with the stdlib ``ast``.

No module may import a name it never uses (``__init__.py`` re-exports are
exempt), no module may reach into a sibling for a ``_``-prefixed name, every
name in a module's ``__all__`` must exist, every ``_``-prefixed helper must have
a caller in the package, every function parameter must be read, no private
posterior kernel may take the point pattern, only ``posterior.py`` may compare
a sampler name, only ``passes.py`` and ``wavelets.py`` may slice a Haar tree's
even and odd children, ``import bbayes`` and ``import bbayes.cli`` must load no
scipy module that they do not need (``scipy.stats``, ``scipy.optimize`` and
``scipy.special``), neither may load ``concurrent.futures`` or
``multiprocessing``, which a study with ``threads >= 2`` loads, a laplace
wavelet posterior or study, threaded or not, must never load ``scipy.special``,
and every name the benchmark under ``perfbench/`` imports from ``bbayes`` must
exist.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bbayes

MODULES = sorted(Path(bbayes.__file__).parent.glob("*.py"))
BENCH_SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


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


def test_all_names_exist():
    # a name left in __all__ after its definition is gone breaks ``from bbayes.<module> import *``
    missing = []
    for path in MODULES:
        name = "bbayes" if path.name == "__init__.py" else f"bbayes.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def _referenced(node):
    """Names and attribute names read anywhere in the subtree, with multiplicity."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_private_helpers_have_a_src_caller():
    # a helper only tests call is dead code kept alive by its tests
    trees = [(path.name, ast.parse(path.read_text())) for path in MODULES]
    refs = sum((_referenced(tree) for _, tree in trees), Counter())
    defs = [
        (name, node)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    # references inside the helper's own body do not count
    orphans = [f"{name}: {node.name}" for name, node in defs if refs[node.name] <= _referenced(node)[node.name]]
    assert defs, "no private helper found"
    assert not orphans, orphans


def test_every_parameter_is_read():
    # a parameter that is accepted and then ignored misleads every caller that sets it
    ignored = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            ignored += [f"{path.name}: {name}({p.arg})" for p in params if p.arg not in read | {"self", "cls"}]
    assert not ignored, ignored


def test_posterior_kernels_read_minima():
    # the public samplers reduce the pattern to its bin minima once; a kernel that takes it reduces it again
    tree = ast.parse((Path(bbayes.__file__).parent / "posterior.py").read_text())
    kernels = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    takes = [node.name for node in kernels if "pattern" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert kernels, "no private function found in posterior.py"
    assert not takes, takes


def test_sampler_names_are_compared_only_in_posterior():
    # posterior.sample_cells is the one dispatch on the sampler name; a comparison elsewhere is a second copy of it
    names = {"importance", "exact", "mcmc"}
    found, elsewhere = 0, []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            compared = names & {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            if path.name == "posterior.py":
                found += bool(compared)
            elif compared:
                elsewhere.append(f"{path.name}:{node.lineno}: {', '.join(sorted(compared))}")
    assert found, "no sampler-name comparison found in posterior.py"
    assert not elsewhere, elsewhere


def test_haar_tree_slicing_lives_in_passes_and_wavelets():
    # a walk over the Haar tree's even and odd children is a pass of passes.py or a map of wavelets.py; a sampler
    # with slicing of its own keeps a second tree layout beside theirs
    found = {path.name for path in MODULES if "0::2" in path.read_text() or "1::2" in path.read_text()}
    assert {"passes.py", "wavelets.py"} <= found, found
    assert found <= {"passes.py", "wavelets.py"}, found


def _loaded_by_import(module, code="import bbayes"):
    # a fresh interpreter, so that no other test's import can load the module first
    script = f"{code}\nimport sys; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(bbayes.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    return out.strip() == "True"


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.7 s of start-up, and no module of the package reads it
    assert not _loaded_by_import("scipy.stats")


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize, which only the complexity functionals' set-cover solve reads, costs about 0.2 s and 20 MB
    assert not _loaded_by_import("scipy.optimize")


@pytest.mark.parametrize("code", ["import bbayes", "import bbayes.cli"])
def test_import_does_not_load_scipy_special(code):
    # scipy.special, which only gaussian and Brownian draws, passes and evidences read, costs about 0.23 s of
    # start-up under scipy 1.17, most of it its array-API layer
    assert not _loaded_by_import("scipy.special", code)


_LAPLACE_SPEC = """from bbayes import CoefficientDistribution, PriorSpec
spec = PriorSpec(variant="wavelet_series", alpha=2.0, dist=CoefficientDistribution("laplace"), j_max=1, grid_level=4)
"""

_LAPLACE_POSTERIOR = _LAPLACE_SPEC + """import numpy as np
from bbayes import build_prior, holder_test_function, sample_posterior, simulate_ppp
pattern = simulate_ppp(holder_test_function(1.0, 1.0, "hat", 4), 100.0, 2.0, np.random.default_rng(0))
ens = sample_posterior(build_prior(spec), pattern, "mcmc", 800, np.random.default_rng(1))
assert len(ens.values) > 0 and np.isfinite(ens.values).all()"""

# 40 cells in 2 blocks, one process task each: the study forks
_THREADED_LAPLACE_STUDY = _LAPLACE_SPEC + """from bbayes import RateStudyConfig, run_rate_study
cfg = RateStudyConfig(spec, 1.0, 1.0, "hat", (20.0, 40.0, 80.0, 160.0), 10, budget=400, seed=4)
assert run_rate_study(cfg, threads=2).exclusions == 0"""


def test_a_laplace_wavelet_posterior_does_not_load_scipy_special():
    # a laplace chain draws by exponentials alone, so a laplace study never pays for scipy.special, and a study
    # that forks loads it first only for a prior whose kernels read it
    assert not _loaded_by_import("scipy.special", _LAPLACE_POSTERIOR)
    assert not _loaded_by_import("scipy.special", _THREADED_LAPLACE_STUDY)


@pytest.mark.parametrize("module", ["concurrent.futures", "multiprocessing"])
def test_only_a_study_that_forks_loads_a_process_pool(module):
    # the process pool's modules (multiprocessing, socket, subprocess, logging, ...) cost about a tenth of the
    # start-up of ``import bbayes`` and are read only by a rate or decay study with threads >= 2
    assert not _loaded_by_import(module)
    assert not _loaded_by_import(module, "import bbayes.cli")
    assert _loaded_by_import(module, _THREADED_LAPLACE_STUDY)


def test_the_one_sampler_entry_point_is_exported():
    # the sampler aliases are kept only for the benchmark replay; the package's own entry point is sample_posterior
    assert bbayes.sample_posterior is bbayes.posterior.sample_posterior


def test_benchmark_imports_resolve():
    # perfbench/ sits outside testpaths, so only this check ties its imports to the package
    checked, missing = 0, []
    for path in BENCH_SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bbayes":
                module = importlib.import_module(node.module)
                checked += len(node.names)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert checked, "no bbayes import found under perfbench/"
    assert not missing, missing
