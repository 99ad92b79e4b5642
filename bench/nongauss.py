"""Homodyne scans of two non-Gaussian states: the benchmark's ``nongauss`` workload.

No CLI command covers these states, so this script goes through the
library directly:

* an even cat state with alpha = 1.5 in dim 32, target ``<0|rho|2>``.  It
  is not phase invariant, so it reaches the rejection sampler and the
  phase-weighted off-diagonal estimator;
* the Fock state |3> in dim 32, target ``<3|rho|3>``.  It is phase
  invariant but not Gaussian, so it reaches the inverse-CDF sampler.

Each (state, trial) cell draws 24 000 samples at eta = 0.6 from
``SeedSequence((seed, state_index, trial))`` and scans j = 1..20.  One CSV
row per (state, trial, j_M), formatted like the CLI's per-trial tables.
A cell that raises is reported on stderr and leaves no rows.

    PYTHONPATH=src python3 bench/nongauss.py --seed 1 --out nongauss.csv
"""
from __future__ import annotations

import argparse
import traceback
from pathlib import Path

import numpy as np

from losscomp import compensation, fock_core, homodyne, loss_channel

ETA = 0.6
N_SAMPLES = 24_000
J_LIST = tuple(range(1, 21))
TRIALS = 10
HEADER = "state,trial,j_M,value,propagated_error,theory,verdict"


def even_cat(alpha: float, dim: int) -> fock_core.DensityMatrix:
    """``|alpha> + |-alpha>``, normalized: the even-photon part of a coherent state."""
    coherent = fock_core.make_coherent(alpha, dim).elements
    even = (np.arange(dim) % 2 == 0).astype(float)
    elements = coherent * np.outer(even, even)
    return fock_core.DensityMatrix(dim, elements / np.trace(elements).real)


# (name, state constructor, n, d): the target element is <n|rho|n+d>
STATES = (
    ("cat", lambda: even_cat(1.5, 32), 0, 2),
    ("fock3", lambda: fock_core.make_fock(3, 32), 3, 0),
)


def run(seed: int, out, trials: int = TRIALS) -> Path:
    """Write the scan table for every (state, trial) cell to ``out``."""
    lines = [HEADER]
    for index, (name, build, n, d) in enumerate(STATES):
        signal = build()
        theory = signal.element(n, n + d).real
        damped = loss_channel.apply_loss(signal, ETA)
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, index, trial)))
            try:
                data = homodyne.sample_quadratures(damped, N_SAMPLES, rng)
                scan = compensation.convergence_scan(data, n, d, ETA, J_LIST)
            except Exception:  # a failed cell is counted by the benchmark
                traceback.print_exc()
                continue
            lines += [f"{name},{trial},{j},{value.real:.9g},{error:.9g},"
                      f"{theory:.9g},{scan.verdict}"
                      for j, value, error in scan.trace]
    out = Path(out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trials", type=int, default=TRIALS)
    args = parser.parse_args(argv)
    run(args.seed, args.out, args.trials)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
