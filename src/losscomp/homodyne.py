"""Bare (unit-efficiency) homodyne detection of a Fock-basis state.

Convention: the measured quadrature is ``x_phi = (a e^{i phi} + a^dag
e^{-i phi})/2`` with vacuum variance 1/4, and the distribution at phase
``phi`` is

    p(x; phi) = sum_{n,m} <n|rho|m> e^{i(n-m) phi} psi_n(x) psi_m(x).

Matrix elements are estimated from samples by phase-weighted kernel
averages; ``estimate_element`` is unbiased for every state, which is
the contract the kernel construction in :mod:`losscomp.oscillator` is
anchored to.  It reads each kernel's sums over the samples from
``oscillator.pattern_sums`` and never evaluates a kernel at a sample.
The Gaussian sampler adds the phase mean only for a nonzero amplitude;
for a thermal law it is +-0, so skipping it keeps every draw's bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oscillator
from .exceptions import NumericalSanityError
from .fock_core import DensityMatrix


@dataclass
class QuadratureData:
    """Columnar store for homodyne samples (one x and one phase each)."""

    x: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.x.shape != self.phi.shape or self.x.ndim != 1:
            raise ValueError("x and phi must be 1-d arrays of equal length")

    def __len__(self) -> int:
        return self.x.size


@dataclass
class MeasuredRay:
    """Estimates of the ray ``<n+j|rho|n+d+j>``, j = 0, 1, ..., with errors.

    ``estimate[j]`` (complex) approximates the element at offset ``j``
    and ``stderr[j]`` is its standard error; exact sources carry zeros.
    """

    n: int
    d: int
    estimate: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        self.estimate = np.asarray(self.estimate, dtype=complex)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if self.estimate.shape != self.stderr.shape or self.estimate.ndim != 1:
            raise ValueError("estimate and stderr must be 1-d arrays of equal length")


def quadrature_pdf(rho: DensityMatrix, phi, x) -> np.ndarray:
    """Quadrature density ``p(x; phi)`` for the given state.

    ``phi`` is one phase or one per point of ``x``; scalar ``phi`` and
    ``x`` give a float, anything else an array.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    step = np.exp(1j * np.atleast_1d(np.asarray(phi, dtype=float)))
    rotated = np.empty((rho.dim, max(xa.size, step.size)), dtype=complex)
    rotated[:] = oscillator._psi_half(rho.dim - 1, xa)
    # e^{i n phi} as e^{i (n-1) phi} e^{i phi}, so it is 1 exactly at phi = 0.  Each
    # power is a new array: numpy 2.4 rounded an in-place one-element product
    # differently from the same product in a longer array, which split
    # scalar-phase calls from per-point ones.
    power = np.ones_like(step)
    for row in rotated[1:]:
        power = power * step
        row *= power
    dens = np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real
    return dens if np.ndim(x) or np.ndim(phi) else float(dens[0])


def _is_phase_invariant(rho):
    off = rho.elements - np.diag(np.diagonal(rho.elements))
    return float(np.max(np.abs(off))) < 1e-12


_GRID_POINTS = 4097


def _grid_for(rho):
    var = float(np.sum(rho.diagonal() * (2.0 * np.arange(rho.dim) + 1.0)) / 4.0)
    half = 6.5 * np.sqrt(max(var, 0.25)) + 1.0
    return np.linspace(-half, half, _GRID_POINTS)


def _sample_inverse_cdf(density, grid, n, rng, trace=None):
    """``n`` draws from ``density`` on ``grid``; its mass must match ``trace`` if given."""
    mass = np.concatenate(
        [[0.0], np.cumsum((density[1:] + density[:-1]) * 0.5 * np.diff(grid))])
    total = mass[-1]
    if trace is not None and abs(total - trace) > 1e-6:
        raise NumericalSanityError(
            f"quadrature density integrates to {total:.3g}, trace is {trace:.3g}; "
            "state truncation is inadequate")
    return np.interp(rng.random(n) * total, mass, grid)


# proposal points per density call in the rejection sampler: one call holds
# a few complex (dim, points) arrays, so this caps them whatever N is
_PDF_CHUNK = 16384


def _sample_rejection(rho, n, rng):
    """Exact joint sampler for arbitrary states.

    The proposal draws phi uniformly and x from a phase-independent
    envelope (sum of absolute ray profiles, which dominates p(x; phi)
    for every phi); accepted pairs follow the joint density exactly.
    The density is evaluated ``_PDF_CHUNK`` proposals at a time.
    """
    grid = _grid_for(rho)
    psi = oscillator._psi_half(rho.dim - 1, grid)
    envelope = np.zeros(grid.size)
    for d in range(rho.dim):
        ray = np.diagonal(rho.elements, offset=d)
        profile = np.einsum("j,jx,jx->x", ray, psi[: rho.dim - d], psi[d:])
        envelope += (1.0 if d == 0 else 2.0) * np.abs(profile)
    envelope *= 1.005  # headroom for interpolation between grid nodes
    xs_out = np.empty(n)
    phi_out = np.empty(n)
    filled = 0
    for _ in range(200):
        if filled == n:
            break
        batch = max(2 * (n - filled), 512)
        xc = _sample_inverse_cdf(envelope, grid, batch, rng)
        pc = rng.uniform(0.0, np.pi, batch)
        height = rng.random(batch) * np.interp(xc, grid, envelope)
        dens = np.concatenate([quadrature_pdf(rho, pc[lo:lo + _PDF_CHUNK], xc[lo:lo + _PDF_CHUNK])
                               for lo in range(0, batch, _PDF_CHUNK)])
        keep = np.nonzero(height <= np.maximum(dens, 0.0))[0][: n - filled]
        xs_out[filled:filled + keep.size] = xc[keep]
        phi_out[filled:filled + keep.size] = pc[keep]
        filled += keep.size
    if filled < n:
        raise NumericalSanityError("rejection sampling failed to converge")
    return xs_out, phi_out


def sample_quadratures(rho: DensityMatrix, n: int, rng: np.random.Generator) -> QuadratureData:
    """Draw ``n`` i.i.d. homodyne samples from the state.

    Phases are uniform on [0, pi); x follows ``p(x; phi)``.  States
    carrying an exact Gaussian quadrature law (thermal, coherent, and
    their loss-damped images) are sampled in closed form; other
    phase-invariant states go through a tabulated inverse CDF; anything
    else falls back to rejection sampling.  Deterministic given the
    generator state.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    law = rho.quadrature_law
    if law is not None:
        phi = rng.uniform(0.0, np.pi, n)
        x = np.sqrt(law.variance) * rng.standard_normal(n)
        if law.mean_amplitude:
            x = np.real(law.mean_amplitude * np.exp(1j * phi)) + x
    elif _is_phase_invariant(rho):
        phi = rng.uniform(0.0, np.pi, n)
        grid = _grid_for(rho)
        pdf = np.maximum(quadrature_pdf(rho, 0.0, grid), 0.0)
        x = _sample_inverse_cdf(pdf, grid, n, rng, rho.trace)
    else:
        x, phi = _sample_rejection(rho, n, rng)
    return QuadratureData(x=x, phi=phi)


def estimate_element(samples: QuadratureData, n: int, d: int, j_max: int = 0) -> MeasuredRay:
    """Estimate the ray ``<n+j|rho|n+d+j>``, j = 0..j_max, from homodyne samples.

    Element j is the sample mean of ``e^{i d phi} f_{n+j,n+d+j}(x)``; its
    standard error is the larger componentwise sample deviation divided
    by sqrt(N).  Both come from the sums of the summands and of their
    squares, which ``oscillator.pattern_sums`` forms from per-cell moments.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    n_s = len(samples)
    if d:
        phase = np.exp(1j * d * samples.phi)
        weights = (phase.real, phase.imag)
    else:
        weights = None
    s1, s2 = oscillator.pattern_sums(n, d, j_max, samples.x, weights)
    mean = s1 / n_s
    spread = np.sqrt(np.maximum(s2 - n_s * mean**2, 0.0) / (n_s - 1))
    estimate = mean[:, 0] + 1j * mean[:, 1] if d else mean[:, 0]
    return MeasuredRay(n, d, estimate, np.max(spread, axis=1) / np.sqrt(n_s))


def error_saturation_profile(samples: QuadratureData, j_list, n0: int, d: int):
    """``(j, stderr * sqrt(N))`` for the elements ``(n0+j, n0+d+j)``.

    The scaled error approaches sqrt(2) as j grows, for every state —
    the saturation that makes the compensation series diverge at low
    efficiency.
    """
    j_list = [int(j) for j in j_list]
    lo = min(j_list)
    ray = estimate_element(samples, n0 + lo, d, max(j_list) - lo)
    return [(j, ray.stderr[j - lo] * np.sqrt(len(samples))) for j in j_list]
