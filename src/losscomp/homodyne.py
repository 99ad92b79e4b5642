"""Bare (unit-efficiency) homodyne detection of a Fock-basis state.

Convention: the measured quadrature is ``x_phi = (a e^{i phi} + a^dag
e^{-i phi})/2`` with vacuum variance 1/4, and the distribution at phase
``phi`` is

    p(x; phi) = sum_{n,m} <n|rho|m> e^{i(n-m) phi} psi_n(x) psi_m(x).

Matrix elements are estimated from samples by phase-weighted kernel
averages; ``estimate_element`` is unbiased for every state, which is
the contract the kernel construction in :mod:`losscomp.oscillator` is
anchored to.
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
class MeasuredElement:
    """An estimated matrix element with its standard error.

    ``estimate`` approximates ``<n|rho|n+d>``; ``stderr`` is the sample
    standard deviation of the kernel summands over sqrt(N) (the larger
    of the real/imaginary components for d > 0).
    """

    n: int
    d: int
    estimate: complex
    stderr: float
    n_samples: int


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


def quadrature_pdf(rho: DensityMatrix, phi: float, x) -> np.ndarray:
    """Quadrature density ``p(x; phi)`` for the given state.

    Accepts scalar or array ``x`` and returns matching shape.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    psi = oscillator._psi_half(rho.dim - 1, xa)
    rotated = psi * np.exp(1j * phi * np.arange(rho.dim))[:, None]
    dens = np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real
    return dens if np.ndim(x) else float(dens[0])


def _is_phase_invariant(rho):
    off = rho.elements - np.diag(np.diagonal(rho.elements))
    return float(np.max(np.abs(off))) < 1e-12


def _grid_for(rho, points=4097):
    var = float(np.sum(rho.diagonal() * (2.0 * np.arange(rho.dim) + 1.0)) / 4.0)
    half = 6.5 * np.sqrt(max(var, 0.25)) + 1.0
    return np.linspace(-half, half, points)


def _sample_inverse_cdf(pdf, grid, n, rng, trace):
    mass = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    total = mass[-1]
    if abs(total - trace) > 1e-6:
        raise NumericalSanityError(
            f"quadrature density integrates to {total:.3g}, trace is {trace:.3g}; "
            "state truncation is inadequate")
    return np.interp(rng.random(n) * total, mass, grid)


def _sample_rejection(rho, n, rng):
    """Exact joint sampler for arbitrary states.

    The proposal draws phi uniformly and x from a phase-independent
    envelope (sum of absolute ray profiles, which dominates p(x; phi)
    for every phi); accepted pairs follow the joint density exactly.
    """
    grid = _grid_for(rho)
    psi = oscillator._psi_half(rho.dim - 1, grid)
    envelope = np.zeros(grid.size)
    for d in range(rho.dim):
        ray = np.diagonal(rho.elements, offset=d)
        profile = np.einsum("j,jx,jx->x", ray, psi[: rho.dim - d], psi[d:])
        envelope += (1.0 if d == 0 else 2.0) * np.abs(profile)
    envelope *= 1.005  # headroom for interpolation between grid nodes
    cum = np.concatenate(
        [[0.0], np.cumsum((envelope[1:] + envelope[:-1]) * 0.5 * np.diff(grid))])
    modes = np.arange(rho.dim)
    xs_out = np.empty(n)
    phi_out = np.empty(n)
    filled = 0
    for _ in range(200):
        if filled == n:
            break
        batch = max(2 * (n - filled), 512)
        xc = np.interp(rng.random(batch) * cum[-1], cum, grid)
        pc = rng.uniform(0.0, np.pi, batch)
        height = rng.random(batch) * np.interp(xc, grid, envelope)
        rotated = oscillator._psi_half(rho.dim - 1, xc) * np.exp(1j * np.outer(modes, pc))
        dens = np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real
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
        mean = np.real(law.mean_amplitude * np.exp(1j * phi))
        x = mean + np.sqrt(law.variance) * rng.standard_normal(n)
    elif _is_phase_invariant(rho):
        phi = rng.uniform(0.0, np.pi, n)
        grid = _grid_for(rho)
        pdf = np.maximum(quadrature_pdf(rho, 0.0, grid), 0.0)
        x = _sample_inverse_cdf(pdf, grid, n, rng, rho.trace)
    else:
        x, phi = _sample_rejection(rho, n, rng)
    return QuadratureData(x=x, phi=phi)


def pattern_function(n: int, m: int, x):
    """Tomography kernel ``f_nm`` evaluated at ``x`` (scalar or array).

    Defined by unbiasedness:  averaging ``e^{i(m-n) phi} f_nm(x)`` over
    homodyne samples of any state estimates ``<n|rho|m>``.
    """
    values = oscillator.evaluate_pattern(n, m, x)
    return values if np.ndim(x) else float(values)


def estimate_element(samples: QuadratureData, n: int, d: int) -> MeasuredElement:
    """Estimate ``<n|rho|n+d>`` from homodyne samples.

    The estimate is the sample mean of ``e^{i d phi} f_{n,n+d}(x)``; its
    standard error is the larger componentwise sample deviation divided
    by sqrt(N).
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if n < 0 or d < 0:
        raise ValueError("indices must be nonnegative")
    kernel = oscillator.evaluate_pattern(n, n + d, samples.x)
    n_s = len(samples)
    if d == 0:
        est = complex(np.mean(kernel))
        err = float(np.std(kernel, ddof=1) / np.sqrt(n_s))
    else:
        summands = np.exp(1j * d * samples.phi) * kernel
        est = complex(np.mean(summands))
        err = float(
            max(np.std(summands.real, ddof=1), np.std(summands.imag, ddof=1))
            / np.sqrt(n_s))
    return MeasuredElement(n=n, d=d, estimate=est, stderr=err, n_samples=n_s)


def error_saturation_profile(samples: QuadratureData, j_list, n0: int, d: int):
    """``(j, stderr * sqrt(N))`` for the elements ``(n0+j, n0+d+j)``.

    The scaled error approaches sqrt(2) as j grows, for every state —
    the saturation that makes the compensation series diverge at low
    efficiency.
    """
    out = []
    for j in j_list:
        el = estimate_element(samples, n0 + j, d)
        out.append((int(j), el.stderr * np.sqrt(el.n_samples)))
    return out
