"""Truncated Fock-basis density matrices for the state families used here.

All states are stored as complex ``dim x dim`` matrices of elements
``<n|rho|m>``.  Constructors report the probability weight they know was
left outside the truncation (the *tail bound*), so downstream code can
tell truncation effects from real signal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np


@dataclass(frozen=True)
class GaussianQuadratureLaw:
    """Exact quadrature statistics for states with Gaussian ``p(x; phi)``.

    At local-oscillator phase ``phi`` the quadrature is normal with mean
    ``Re(mean_amplitude * exp(i*phi))`` and the given variance.  Thermal
    states carry ``mean_amplitude = 0`` and variance ``(2*nbar + 1)/4``;
    coherent states carry their amplitude and vacuum variance ``1/4``.
    """

    variance: float
    mean_amplitude: complex = 0j


@dataclass
class DensityMatrix:
    """State in the photon-number basis, truncated to ``dim`` levels.

    Parameters
    ----------
    dim : int
        Fock-space truncation; indices run over ``0 .. dim-1``.
    elements : ndarray
        Complex matrix with ``elements[n, m] = <n|rho|m>``.
    tail_bound : float
        Probability weight the construction knows it dropped beyond the
        truncation (0 when unknown).
    quadrature_law : GaussianQuadratureLaw, optional
        Present when the quadrature distribution is exactly Gaussian;
        enables the exact sampling fast path.

    Notes
    -----
    Only structural invariants (shape, Hermiticity, real diagonal) are
    enforced here.  Trace and positivity are guaranteed by the
    constructors; matrices produced by the series inversion in its
    divergent regime may violate them by design and are diagnostic
    objects rather than physical states.
    """

    dim: int
    elements: np.ndarray
    tail_bound: float = 0.0
    quadrature_law: GaussianQuadratureLaw | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        self.elements = np.asarray(self.elements, dtype=complex)
        if self.elements.shape != (self.dim, self.dim):
            raise ValueError(
                f"elements must be {self.dim}x{self.dim}, got {self.elements.shape}"
            )
        if not np.allclose(self.elements, self.elements.conj().T, atol=1e-12, rtol=0):
            raise ValueError("density matrix must be Hermitian")
        if np.max(np.abs(np.diagonal(self.elements).imag)) > 1e-12:
            raise ValueError("diagonal elements must be real")

    @property
    def trace(self) -> float:
        return float(np.trace(self.elements).real)

    def element(self, n: int, m: int) -> complex:
        return complex(self.elements[n, m])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.elements).real.copy()


def _check_state(rho: DensityMatrix) -> DensityMatrix:
    diag = np.diagonal(rho.elements).real
    if np.any(diag < -1e-12):
        raise ValueError("negative diagonal element in constructed state")
    if rho.trace > 1.0 + 1e-12:
        raise ValueError("trace exceeds 1 beyond tolerance")
    return rho


def make_thermal(nbar: float, dim: int) -> DensityMatrix:
    """Thermal state with mean photon number ``nbar``.

    Diagonal weights ``p_n = nbar^n / (1 + nbar)^(n+1)``; the reported
    tail bound is the exact geometric tail ``(nbar/(1+nbar))^dim``.
    """
    if not 0.0 <= nbar < np.inf:
        raise ValueError(f"mean photon number {nbar} must be finite and nonnegative")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    q = nbar / (1.0 + nbar)
    p = q ** np.arange(dim) / (1.0 + nbar)
    law = GaussianQuadratureLaw(variance=(2.0 * nbar + 1.0) / 4.0)
    return _check_state(
        DensityMatrix(dim, np.diag(p).astype(complex), tail_bound=q**dim,
                      quadrature_law=law)
    )


def make_fock(m: int, dim: int) -> DensityMatrix:
    """Number state ``|m><m|``."""
    if m < 0:
        raise ValueError("photon number must be nonnegative")
    if m >= dim:
        raise ValueError(f"fock index {m} does not fit in dimension {dim}")
    el = np.zeros((dim, dim), dtype=complex)
    el[m, m] = 1.0
    return _check_state(DensityMatrix(dim, el))


def make_coherent(alpha: complex, dim: int) -> DensityMatrix:
    """Coherent state ``|alpha><alpha|`` truncated to ``dim`` levels.

    Amplitudes are evaluated in log space so large ``|alpha|`` and high
    indices stay finite.  A comfortable truncation satisfies
    ``|alpha|^2 + 5|alpha| + 10 <= dim``.
    """
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude {alpha} must be finite")
    n = np.arange(dim)
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
    else:
        log_fact = np.array([lgamma(k + 1.0) for k in range(dim)])
        log_mag = -abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_fact
        amp = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    el = np.outer(amp, amp.conj())
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amp) ** 2)))
    law = GaussianQuadratureLaw(variance=0.25, mean_amplitude=alpha)
    return _check_state(DensityMatrix(dim, el, tail_bound=tail, quadrature_law=law))


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a state family, used by the experiment
    harness: ``kind`` is one of ``thermal``, ``fock``, ``coherent``."""

    kind: str
    dim: int
    nbar: float = 0.0
    m: int = 0
    alpha: complex = 0j

    def build(self) -> DensityMatrix:
        if self.kind == "thermal":
            return make_thermal(self.nbar, self.dim)
        if self.kind == "fock":
            return make_fock(self.m, self.dim)
        if self.kind == "coherent":
            return make_coherent(self.alpha, self.dim)
        raise ValueError(f"unknown state kind: {self.kind!r}")
