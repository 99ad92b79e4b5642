"""Import cost: ``import losscomp`` loads only what the pipeline runs."""
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


@pytest.mark.parametrize("module", ["losscomp", "losscomp.cli"])
def test_runtime_loads_no_scipy(module):
    assert loaded_after(f"import {module}", "m.split('.')[0] == 'scipy'") == "[]\n"


def test_import_builds_no_tables():
    """The kernel and binomial tables are built by the first call that needs them."""
    code = ("import losscomp; from losscomp import loss_channel, oscillator; "
            "print(oscillator._TABLES is None, loss_channel._BINOMIALS[0].shape)")
    assert fresh(code) == "True (1, 1)\n"
