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

Other states are sampled from tables on an x grid: a phase-invariant
state's cumulative density for inverse-CDF draws, and for any other state
a rejection proposal of ``_BINS`` phase bins, each with its own envelope
over x, whose proposals are scored through the state's kept eigenpairs
rather than by ``quadrature_pdf``.  Building them takes longer than one draw
of a few thousand samples, and a scan draws many trials from one state, so
the tables of the last state sampled are kept, keyed by its dimension and
element bytes, and reused while the next state is equal.  Nothing is built
at import.
"""
from __future__ import annotations

import numbers
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


def _rotated(dim, phi, x):
    """``e^{i n phi} psi_n(x)`` for ``n < dim``, a complex ``(dim, points)`` array.

    ``phi`` is one phase or one per point of ``x``.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    step = np.exp(1j * np.atleast_1d(np.asarray(phi, dtype=float)))
    rotated = np.empty((dim, max(xa.size, step.size)), dtype=complex)
    rotated[:] = oscillator._psi_half(dim - 1, xa)
    # e^{i n phi} as e^{i (n-1) phi} e^{i phi}, so it is 1 exactly at phi = 0.  Each
    # power is a new array: numpy 2.4 rounded an in-place one-element product
    # differently from the same product in a longer array, which split
    # scalar-phase calls from per-point ones.
    power = np.ones_like(step)
    for row in rotated[1:]:
        power = power * step
        row *= power
    return rotated


def quadrature_pdf(rho: DensityMatrix, phi, x) -> np.ndarray:
    """Quadrature density ``p(x; phi)`` for the given state.

    ``phi`` is one phase or one per point of ``x``; scalar ``phi`` and
    ``x`` give a float, anything else an array.
    """
    rotated = _rotated(rho.dim, phi, x)
    dens = np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real
    return dens if np.ndim(x) or np.ndim(phi) else float(dens[0])


def _is_phase_invariant(rho):
    off = rho.elements - np.diag(np.diagonal(rho.elements))
    return float(np.max(np.abs(off))) < 1e-12


_GRID_POINTS = 4097
_BINS = 32          # phase bins of the rejection proposal
_HEADROOM = 1.005   # envelope factor: room for interpolation between grid nodes
# proposal points per density call in the rejection sampler: one call holds
# a few complex (dim, points) arrays, so this caps them whatever N is
_PDF_CHUNK = 8192
_TABLES = {}        # one entry: (dim, element bytes) -> that state's sampling tables


def _grid_for(rho):
    var = float(np.sum(rho.diagonal() * (2.0 * np.arange(rho.dim) + 1.0)) / 4.0)
    half = 6.5 * np.sqrt(max(var, 0.25)) + 1.0
    return np.linspace(-half, half, _GRID_POINTS)


def _cumulative_mass(density, grid):
    """Trapezoid integrals of ``density`` (last axis) from ``grid[0]`` to each node."""
    steps = np.cumsum((density[..., 1:] + density[..., :-1]) * 0.5 * np.diff(grid), axis=-1)
    return np.concatenate([np.zeros(density.shape[:-1] + (1,)), steps], axis=-1)


def _sorted_interp(u, xp, fp):
    """``np.interp(u, xp, fp)`` in the order of ``u``, looked up in sorted order (faster)."""
    order = np.argsort(u)
    out = np.empty(u.size)
    out[order] = np.interp(u[order], xp, fp)
    return out


class _InverseCdf:
    """A phase-invariant state's density on a grid, as its cumulative mass."""

    def __init__(self, rho):
        self.grid = _grid_for(rho)
        self.mass = _cumulative_mass(np.maximum(quadrature_pdf(rho, 0.0, self.grid), 0.0),
                                     self.grid)
        if abs(self.mass[-1] - rho.trace) > 1e-6:
            raise NumericalSanityError(
                f"quadrature density integrates to {self.mass[-1]:.3g}, trace is "
                f"{rho.trace:.3g}; state truncation is inadequate")

    def draw(self, n, rng):
        """Uniform phases, then x by inverse CDF."""
        phi = rng.uniform(0.0, np.pi, n)
        return _sorted_interp(rng.random(n) * self.mass[-1], self.mass, self.grid), phi


class _BinnedEnvelope:
    """Rejection proposal: ``_BINS`` phase bins, each with an x envelope on one grid.

    ``envelope[b]`` bounds ``p(x; phi)`` for every phi in bin b; ``mass`` is
    the bins' cumulative envelope masses laid end to end, so one inverse-CDF
    lookup picks the bin with probability proportional to its mass and x
    within it.  ``rate`` is the acceptance rate, trace over mean bin mass.

    With ray profiles ``P_d = sum_k rho_{k,k+d} psi_k psi_{k+d}``, ``p(x; phi)
    = P_0 + 2 Re sum_{d>=1} e^{-id phi} P_d``.  For bin b, centre phi_b and
    half-width delta, ``|e^{-id phi} - e^{-id phi_b}| <= min(d delta, 2)``, so
    ``p(x; phi_b) + sum_{d>=1} 2 |P_d(x)| min(d delta, 2)`` bounds the bin.

    Proposals are scored through the state's eigenpairs, ``rho = V diag(lam)
    V^H``: with ``R_n = e^{in phi} psi_n(x)``, ``p(x; phi) = sum_r lam_r
    |sum_n V_nr R_n|^2``, so ``density`` costs O(rank dim) per point where
    ``quadrature_pdf`` costs O(dim^2).  The pairs of smallest ``|lam|`` are
    dropped while their ``|lam|`` sum to at most machine epsilon times the
    trace; since ``|sum_n V_nr R_n|^2 <= sum_n psi_n(x)^2``, that moves ``p`` by
    less than the rounding the quadratic form carries.  A state whose negative
    eigenvalues sum below ``-1e-6`` of its trace raises: its ``p`` is not a
    probability law.
    """

    def __init__(self, rho):
        grid = _grid_for(rho)
        psi = oscillator._psi_half(rho.dim - 1, grid)
        profiles = np.zeros((rho.dim, grid.size), dtype=complex)
        for d, profile in enumerate(profiles):
            ray = np.diagonal(rho.elements, offset=d)
            if ray.any():
                pair = psi[: rho.dim - d] * psi[d:]
                profile.real, profile.imag = ray.real @ pair, ray.imag @ pair
        d = np.arange(rho.dim)
        fold = np.where(d == 0, 1.0, 2.0)
        half_width = np.pi / (2 * _BINS)
        centres = (2 * np.arange(_BINS) + 1) * half_width
        centre_pdf = (fold * np.exp(-1j * np.outer(centres, d)) @ profiles).real
        slack = (fold * np.minimum(d * half_width, 2.0)) @ np.abs(profiles)
        envelope = _HEADROOM * (np.maximum(centre_pdf, 0.0) + slack)
        mass = _cumulative_mass(envelope, grid)
        mass[1:] += np.cumsum(mass[:-1, -1])[:, None]
        self.rate = rho.trace * _BINS / mass[-1, -1]
        if not self.rate > 0.0:
            raise NumericalSanityError(f"state of trace {rho.trace:.3g} has no density to sample")
        self.grid, self.envelope, self.mass = grid, envelope, mass.ravel()
        values, vectors = np.linalg.eigh(rho.elements)
        negative = float(np.sum(values[values < 0.0]))
        if negative < -1e-6 * rho.trace:
            raise NumericalSanityError(
                f"state has negative eigenvalues summing to {negative:.3g} (trace "
                f"{rho.trace:.3g}); its quadrature density is not a probability law")
        order = np.argsort(np.abs(values))
        dropped = np.count_nonzero(
            np.cumsum(np.abs(values[order])) <= np.finfo(float).eps * rho.trace)
        kept = order[dropped:]
        self.weights, self.modes = values[kept], vectors[:, kept].T

    def density(self, phi, x):
        """``p(x; phi)`` at equal-length arrays of phases and points, from the kept eigenpairs."""
        amplitude = self.modes @ _rotated(self.modes.shape[1], phi, x)
        return self.weights @ (amplitude.real ** 2 + amplitude.imag ** 2)

    def draw(self, n, rng):
        """Exact joint draws: propose (bin, x, phi), accept under ``p(x; phi)``.

        Each batch is sized from ``rate`` to fill what is left, with three
        binomial deviations to spare, and holds at most four proposals per
        missing sample, so a loose envelope costs passes, not memory.  The
        density is evaluated ``_PDF_CHUNK`` proposals at a time.  A proposal
        whose density exceeds its envelope raises, since the draws would be
        biased.
        """
        points, flat = self.grid.size, self.envelope.ravel()
        nodes = np.arange(flat.size, dtype=float)
        step = (self.grid[-1] - self.grid[0]) / (points - 1)
        xs_out = np.empty(n)
        phi_out = np.empty(n)
        filled = 0
        for _ in range(200):
            if filled == n:
                break
            left = n - filled
            batch = min(int(np.ceil((left + 3.0 * np.sqrt(left)) / self.rate)), 4 * left + 512)
            # position in the bins' concatenated grids
            at = _sorted_interp(rng.random(batch) * self.mass[-1], self.mass, nodes)
            b = at // points
            xc = self.grid[0] + (at - b * points) * step
            pc = np.minimum((b + rng.random(batch)) * (np.pi / _BINS), np.nextafter(np.pi, 0.0))
            node = np.minimum(at.astype(np.int64), flat.size - 2)
            frac = at - node
            bound = flat[node] * (1.0 - frac) + flat[node + 1] * frac
            height = rng.random(batch) * bound
            dens = np.concatenate([
                self.density(pc[lo:lo + _PDF_CHUNK], xc[lo:lo + _PDF_CHUNK])
                for lo in range(0, batch, _PDF_CHUNK)])
            if np.any(dens > bound):
                raise NumericalSanityError(
                    f"quadrature density exceeds its rejection envelope at "
                    f"{np.count_nonzero(dens > bound)} of {batch} proposals; "
                    "the draws would be biased")
            keep = np.nonzero(height <= np.maximum(dens, 0.0))[0][:left]
            xs_out[filled:filled + keep.size] = xc[keep]
            phi_out[filled:filled + keep.size] = pc[keep]
            filled += keep.size
        if filled < n:
            raise NumericalSanityError("rejection sampling failed to converge")
        return xs_out, phi_out


def _tables_for(rho):
    """The sampling tables of a non-Gaussian state, kept for the next call on an equal state."""
    key = (rho.dim, rho.elements.tobytes())
    if key not in _TABLES:
        table = (_InverseCdf if _is_phase_invariant(rho) else _BinnedEnvelope)(rho)
        _TABLES.clear()
        _TABLES[key] = table
    return _TABLES[key]


def sample_quadratures(rho: DensityMatrix, n: int, rng: np.random.Generator) -> QuadratureData:
    """Draw ``n`` i.i.d. homodyne samples from the state.

    Phases are uniform on [0, pi); x follows ``p(x; phi)``.  States
    carrying an exact Gaussian quadrature law (thermal, coherent, and
    their loss-damped images) are sampled in closed form; other
    phase-invariant states go through a tabulated inverse CDF; anything
    else goes through rejection from a phase-binned envelope.  The last
    two build their tables once per state (the last one is kept).
    Deterministic given the generator state.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    law = rho.quadrature_law
    if law is not None:
        phi = rng.uniform(0.0, np.pi, n)
        x = np.sqrt(law.variance) * rng.standard_normal(n)
        if law.mean_amplitude:
            x = np.real(law.mean_amplitude * np.exp(1j * phi)) + x
    else:
        x, phi = _tables_for(rho).draw(n, rng)
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


def _indices(j_list) -> list:
    """``j_list`` as ints; ValueError naming an entry that is a bool or not an integer."""
    j_list = list(j_list)
    for j in j_list:
        if isinstance(j, bool) or not isinstance(j, numbers.Integral):
            raise ValueError(f"truncation index {j!r} is not an integer")
    return [int(j) for j in j_list]


def error_saturation_profile(samples: QuadratureData, j_list, n0: int, d: int):
    """``(j, stderr * sqrt(N))`` for the elements ``(n0+j, n0+d+j)``.

    The scaled error approaches sqrt(2) as j grows, for every state —
    the saturation that makes the compensation series diverge at low
    efficiency.
    """
    j_list = _indices(j_list)
    lo = min(j_list)
    ray = estimate_element(samples, n0 + lo, d, max(j_list) - lo)
    return [(j, ray.stderr[j - lo] * np.sqrt(len(samples))) for j in j_list]
