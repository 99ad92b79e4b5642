"""Import cost: ``import losscomp`` loads only what the pipeline runs, and no dead helper."""
import ast
import os
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


def test_every_private_helper_is_used_by_the_package():
    """Each module-level private function, class or constant, and each non-dunder method
    of a module-level class, is read from the package itself; an assignment is no read."""
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(losscomp.__file__).parent.glob("*.py")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
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
