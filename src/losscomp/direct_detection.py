"""Photon counting: multinomial sampling of the diagonal and its errors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalSanityError
from .fock_core import DensityMatrix
from .homodyne import MeasuredRay


@dataclass
class CountHistogram:
    """Observed photon-number counts, one bin per Fock index."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or np.any(self.counts < 0):
            raise ValueError("counts must be a 1-d array of nonnegative integers")

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @property
    def dim(self) -> int:
        return self.counts.size


def sample_counts(rho: DensityMatrix, n: int, rng: np.random.Generator) -> CountHistogram:
    """Draw ``n`` ideal photon-number measurements of ``rho``.

    The diagonal must account for all probability up to the state's
    declared truncation tail; otherwise the histogram would silently
    misrepresent the distribution.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    probs = rho.diagonal().copy()
    missing = 1.0 - probs.sum()
    if missing > rho.tail_bound + 1e-9:
        raise NumericalSanityError(
            f"diagonal sums to {probs.sum():.12g} but tail bound is "
            f"{rho.tail_bound:.3g}; cannot sample a proper distribution")
    probs = np.clip(probs, 0.0, None)
    return CountHistogram(counts=rng.multinomial(n, probs / probs.sum()))


def estimate_probabilities(hist: CountHistogram) -> MeasuredRay:
    """Binomial point estimates and errors for every diagonal element.

    Returns the diagonal ray from ``<0|rho|0>`` over all bins.  Bins with
    observed frequency exactly 0 or 1 get zero error: the plug-in formula
    returns a floor there, not an estimate.
    """
    n = hist.n_samples
    if n < 1:
        raise ValueError("empty histogram")
    p_hat = hist.counts / n
    return MeasuredRay(n=0, d=0, estimate=p_hat,
                       stderr=np.sqrt(p_hat * (1.0 - p_hat) / n))
