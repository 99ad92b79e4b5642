"""Import cost: ``import losscomp`` loads only what the pipeline runs."""
import os
import subprocess
import sys
from pathlib import Path

import losscomp


def test_import_leaves_optional_modules_unloaded():
    lazy = ("scipy.integrate", "scipy.stats", "losscomp.acceptance", "losscomp.cli")
    src = str(Path(losscomp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, losscomp; print([m for m in {lazy!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"
