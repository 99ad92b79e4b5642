"""Import cost and dead code: ``import losscomp`` loads only what the pipeline runs, no
helper or public name goes unused, and each module docstring keeps to its contract."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import losscomp


def fresh(code):
    """What ``code`` prints in a fresh process that imports this copy of losscomp."""
    src = str(Path(losscomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout


def loaded_after(statement, names):
    """The entries of ``names`` (a module-name test) loaded by ``statement`` in a fresh process."""
    return fresh(f"import sys; {statement}; print(sorted(m for m in sys.modules if {names}))")


def test_import_leaves_optional_modules_unloaded():
    lazy = ("losscomp.acceptance", "losscomp.cli")
    assert loaded_after("import losscomp", f"m in {lazy!r}") == "[]\n"


POOL = ("multiprocessing", "concurrent")


def test_import_leaves_the_worker_pool_unloaded():
    assert loaded_after("import losscomp", f"m.split('.')[0] in {POOL!r}") == "[]\n"


def test_forking_run_leaves_the_worker_pool_unloaded(tmp_path):
    """A homodyne run forks its children with ``os.fork`` and talks to them through pipes."""
    run = ("from dataclasses import replace; from losscomp import experiments; "
           "experiments._cpus = lambda: 2; "
           "experiments.run_fig1(replace(experiments.default_config('fig1'), "
           "eta_list=(0.6, 0.5), n_samples=500, trials=2, jm_list=(1, 2)), "
           f"out={str(tmp_path / 'fig1.csv')!r})")
    assert loaded_after(run, f"m.split('.')[0] in {POOL!r}") == "[]\n"
    assert (tmp_path / "fig1_trials.csv").is_file()


@pytest.mark.parametrize("module", ["losscomp", "losscomp.cli"])
def test_runtime_loads_no_scipy(module):
    assert loaded_after(f"import {module}", "m.split('.')[0] == 'scipy'") == "[]\n"


def test_import_builds_no_tables():
    """The kernel and binomial tables are built by the first call that needs them."""
    code = ("import losscomp; from losscomp import loss_channel, oscillator; "
            "print(oscillator._TABLES is None, loss_channel._BINOMIALS[0].shape)")
    assert fresh(code) == "True (1, 1)\n"


PACKAGE = Path(losscomp.__file__).parent


def read_names(paths):
    """The names and attributes read (an AST load) anywhere in ``paths``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_is_used():
    """Each name in ``losscomp.__all__`` is read by a package module other than
    ``__init__.py``, or named by a script in ``demos/`` or ``bench/``; a dunder is metadata."""
    used = read_names(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    folders = [PACKAGE.parents[1] / name for name in ("demos", "bench")]
    assert all(folder.is_dir() for folder in folders)
    scripts = "\n".join(path.read_text() for folder in folders for path in folder.glob("*.py"))
    unused = [name for name in losscomp.__all__ if not name.startswith("__")
              and name not in used and not re.search(rf"\b{name}\b", scripts)]
    assert unused == []


def test_module_docstrings_keep_to_twenty_lines():
    """A module docstring keeps to its contract, the convention and what a result's bits
    depend on, in at most 20 lines; the mechanisms are told where they are implemented."""
    lengths = {path.name: node.end_lineno - node.lineno + 1
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.parse(path.read_text()).body[:1]
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
               and isinstance(node.value.value, str)}
    assert {name: lines for name, lines in lengths.items() if lines > 20} == {}


def test_every_private_helper_is_used_by_the_package():
    """Each module-level private function, class or constant, and each non-dunder method
    of a module-level class, is read from the package itself; an assignment is no read."""
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = read_names(PACKAGE.glob("*.py"))
    unused = [f"{name}::{node.name}" for name, tree in sorted(trees.items()) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
              and node.name.startswith("_") and not node.name.startswith("__")]
    unused += [f"{name}::{node.name}.{method.name}" for name, tree in sorted(trees.items())
               for node in tree.body if isinstance(node, ast.ClassDef)
               for method in node.body if isinstance(method, ast.FunctionDef)
               and method.name not in used and not method.name.startswith("__")]
    unused += [f"{name}::{target.id}" for name, tree in sorted(trees.items()) for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name)
               and target.id not in used and target.id.startswith("_")
               and not target.id.startswith("__")]
    assert unused == []
