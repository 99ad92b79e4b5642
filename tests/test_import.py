"""Import cost: ``import losscomp`` loads only what the pipeline runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import losscomp


def loaded_after(statement, names):
    """The entries of ``names`` (a module-name test) loaded by ``statement`` in a fresh process."""
    src = str(Path(losscomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; {statement}; print(sorted(m for m in sys.modules if {names}))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout


def test_import_leaves_optional_modules_unloaded():
    lazy = ("losscomp.acceptance", "losscomp.cli")
    assert loaded_after("import losscomp", f"m in {lazy!r}") == "[]\n"


@pytest.mark.parametrize("module", ["losscomp", "losscomp.cli"])
def test_runtime_loads_no_scipy(module):
    assert loaded_after(f"import {module}", "m.split('.')[0] == 'scipy'") == "[]\n"
