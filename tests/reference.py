"""The tests' reference quadrature density, from the full density matrix.

The samplers score draws from the state's eigenpairs and tables; this direct
``sum_{n,m} <n|rho|m> e^{i(n-m) phi} psi_n(x) psi_m(x)`` form is what they are
checked against.
"""
import numpy as np

from losscomp import oscillator
from losscomp.fock_core import DensityMatrix


def quadrature_pdf(rho: DensityMatrix, phi, x) -> np.ndarray:
    """Quadrature density ``p(x; phi)`` for the given state.

    ``phi`` is one phase or one per point of ``x``; scalar ``phi`` and
    ``x`` give a float, anything else an array.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    step = np.exp(1j * np.atleast_1d(np.asarray(phi, dtype=float)))
    rotated = np.empty((rho.dim, max(xa.size, step.size)), dtype=complex)  # e^{in phi} psi_n
    rotated[:] = oscillator._psi_half(rho.dim - 1, xa)
    power = np.ones_like(step)      # e^{in phi}, by the rule at homodyne._BinnedEnvelope.density
    for row in rotated[1:]:
        power = power * step
        row *= power
    dens = np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real
    return dens if np.ndim(x) or np.ndim(phi) else float(dens[0])
