"""Bare (unit-efficiency) homodyne detection of a Fock-basis state.

Convention: the measured quadrature is ``x_phi = (a e^{i phi} + a^dag
e^{-i phi})/2`` with vacuum variance 1/4, and the distribution at phase
``phi`` is

    p(x; phi) = sum_{n,m} <n|rho|m> e^{i(n-m) phi} psi_n(x) psi_m(x).

Ray estimates are unbiased for every state, and a dataset's ray has the same
bytes alone or in any batch, at any BLAS thread count; its last bits come from
the CPU's BLAS kernel.  A draw depends only on the state and the generator.
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


def _is_phase_invariant(rho):
    off = rho.elements - np.diag(np.diagonal(rho.elements))
    return float(np.max(np.abs(off))) < 1e-12


_GRID_POINTS = 4097
_BINS = 32          # phase bins of the rejection proposal
_HEADROOM = 1.005   # envelope factor: room for interpolation between grid nodes
# proposal points per density call in the rejection sampler: one call holds the
# kept modes' complex (rank, points) amplitudes, so this caps them whatever N is
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


def _ray_profiles(rho, grid):
    """``(d, Re P_d, Im P_d)`` on ``grid`` for each nonzero ray d of ``rho``, one at a time.

    ``P_d(x) = sum_k rho_{k,k+d} psi_k(x) psi_{k+d}(x)``, so ``p(x; phi) = P_0 + 2 Re
    sum_{d>=1} e^{-id phi} P_d`` for a Hermitian ``rho``.  ``psi`` is evaluated on the
    grid once; each profile comes from two real products with one ``(dim - d, points)``
    pair table, let go before the profile is yielded.
    """
    psi = oscillator._psi_half(rho.dim - 1, grid)
    for d in range(rho.dim):
        ray = np.diagonal(rho.elements, offset=d)
        if ray.any():
            pair = psi[: rho.dim - d] * psi[d:]
            real, imag = ray.real @ pair, ray.imag @ pair
            del pair
            yield d, real, imag


class _InverseCdf:
    """A phase-invariant state's density on a grid, as its cumulative mass.

    The density is ``p(x; 0) = P_0 + 2 sum_{d>=1} Re P_d``, summed from the streamed ray
    profiles (``_ray_profiles``); no complex ``(dim, points)`` table is formed.
    """

    def __init__(self, rho):
        self.grid = _grid_for(rho)
        density = np.zeros(self.grid.size)
        for d, real, _ in _ray_profiles(rho, self.grid):
            density += real if d == 0 else 2.0 * real
        self.mass = _cumulative_mass(np.maximum(density, 0.0), self.grid)
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

    With the ray profiles ``P_d`` of ``_ray_profiles``, bin b of centre phi_b and
    half-width delta has ``|e^{-id phi} - e^{-id phi_b}| <= min(d delta, 2)``, so
    ``max(p(x; phi_b), 0) + sum_{d>=1} 2 |P_d(x)| min(d delta, 2)`` bounds it;
    ``envelope[b]`` is that times ``_HEADROOM``, each profile folded in as it is
    yielded.  ``mass`` lays the bins' cumulative envelope masses end to end, so one
    inverse-CDF lookup picks a bin in proportion to its mass and x within it; ``rate``
    is the acceptance rate, trace over mean bin mass.

    Proposals are scored through the state's eigenpairs, ``rho = V diag(lam) V^H``:
    with ``R_n = e^{in phi} psi_n(x)``, ``p(x; phi) = sum_r lam_r |sum_n V_nr R_n|^2``,
    O(rank dim) per point where the tests' reference density costs O(dim^2).  The pairs
    of smallest ``|lam|`` are dropped while their ``|lam|`` sum to at most machine
    epsilon times the trace; since ``|sum_n V_nr R_n|^2 <= sum_n psi_n(x)^2``, that
    moves ``p`` by less than the rounding the quadratic form carries.  A state whose
    negative eigenvalues sum below ``-1e-6`` of its trace raises: its ``p`` is not a
    probability law.
    """

    def __init__(self, rho):
        grid = _grid_for(rho)
        half_width = np.pi / (2 * _BINS)
        centres = (2 * np.arange(_BINS) + 1) * half_width
        centre_pdf = np.zeros((_BINS, grid.size))
        slack = np.zeros(grid.size)
        for d, real, imag in _ray_profiles(rho, grid):
            fold = 2.0 if d else 1.0
            turn = fold * np.exp(-1j * d * centres)     # fold_d e^{-i d phi_b}
            centre_pdf += np.stack([turn.real, -turn.imag], axis=1) @ np.stack([real, imag])
            slack += fold * min(d * half_width, 2.0) * np.hypot(real, imag)
        envelope = np.maximum(centre_pdf, 0.0, out=centre_pdf)
        envelope += slack
        envelope *= _HEADROOM
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
        """``p(x; phi)`` at equal-length arrays of phases and points, from the kept eigenpairs.

        Each oscillator row is added into the modes' amplitudes as it comes, and the
        weighted squares are summed mode by mode, so a point's score has the same bytes
        whatever points are scored with it.  The tests' reference density shares the
        phase powers' rule: ``e^{in phi}`` is the fresh product ``e^{i(n-1) phi} e^{i
        phi}``, so it is 1 exactly at ``phi = 0``, never an in-place one, which numpy 2.4
        rounded differently in a one-element array than in a longer one.
        """
        step = np.exp(1j * phi)
        power = np.ones_like(step)
        term = np.empty_like(step)      # R_n, one row at a time
        amplitude = np.zeros((len(self.weights), step.size), dtype=complex)
        for n, row in enumerate(oscillator._psi_rows(self.modes.shape[1] - 1, x)):
            amplitude += self.modes[:, n, None] * np.multiply(row, power, out=term)
            power = power * step
        square = amplitude.real ** 2 + amplitude.imag ** 2
        return sum(weight * row for weight, row in zip(self.weights, square))

    def draw(self, n, rng):
        """Exact joint draws: propose (bin, x, phi), accept under ``p(x; phi)``.

        Each batch is sized from ``rate`` to fill what is left, with three binomial
        deviations to spare, and holds at most four proposals per missing sample, so
        a loose envelope costs passes, not memory.  Its proposals are scored
        ``_PDF_CHUNK`` at a time, each chunk accepted as soon as it is scored.  A
        proposal whose density exceeds its envelope raises once its whole batch is
        scored, since the draws would be biased.
        """
        points, flat = self.grid.size, self.envelope.ravel()
        step = (self.grid[-1] - self.grid[0]) / (points - 1)
        xs_out = np.empty(n)
        phi_out = np.empty(n)
        filled = 0
        for _ in range(200):
            if filled == n:
                break
            left = n - filled
            batch = min(int(np.ceil((left + 3.0 * np.sqrt(left)) / self.rate)), 4 * left + 512)
            at = self._positions(rng.random(batch) * self.mass[-1])
            b = at // points
            pc = rng.random(batch)
            pc += b
            pc *= np.pi / _BINS
            np.minimum(pc, np.nextafter(np.pi, 0.0), out=pc)
            b *= points
            xc = np.subtract(at, b, out=b)  # at - b points, in b's buffer
            xc *= step
            xc += self.grid[0]
            node = np.minimum(at.astype(np.int64), flat.size - 2)
            frac = np.subtract(at, node, out=at)    # in at's buffer
            bound = flat[node]              # flat[node] (1 - frac) + flat[node + 1] frac
            node += 1
            upper = flat[node]
            upper *= frac
            bound *= np.subtract(1.0, frac, out=frac)
            bound += upper
            del at, frac, node, upper       # only the proposals and their bounds are scored
            height = rng.random(batch)
            height *= bound
            violations = 0
            for lo in range(0, batch, _PDF_CHUNK):
                chunk = slice(lo, lo + _PDF_CHUNK)
                dens = self.density(pc[chunk], xc[chunk])
                violations += np.count_nonzero(dens > bound[chunk])
                keep = np.nonzero(height[chunk] <= np.maximum(dens, 0.0, out=dens))[0]
                del dens
                keep = keep[:n - filled] + lo
                xs_out[filled:filled + keep.size] = xc[keep]
                phi_out[filled:filled + keep.size] = pc[keep]
                filled += keep.size
            if violations:
                raise NumericalSanityError(
                    f"quadrature density exceeds its rejection envelope at "
                    f"{violations} of {batch} proposals; the draws would be biased")
        if filled < n:
            raise NumericalSanityError("rejection sampling failed to converge")
        return xs_out, phi_out

    def _positions(self, u):
        """``np.interp(u, mass, node numbers)`` in the order of ``u``, one bin at a time.

        ``u`` is looked up in sorted order, the run of it from one bin's first
        mass up to the next bin's against that bin's masses and node numbers
        alone.  Each bin's first mass equals the previous bin's last, so every
        value of the run lies between two of its own bin's nodes, and each
        position has the bits of one lookup in the whole table.
        """
        points = self.grid.size
        order = np.argsort(u)
        u = u[order]
        cuts = np.searchsorted(u, self.mass[points::points])
        for first, lo, hi in zip(range(0, self.mass.size, points), [0, *cuts], [*cuts, u.size]):
            u[lo:hi] = np.interp(u[lo:hi], self.mass[first:first + points],
                                 np.arange(first, first + points, dtype=float))
        at = np.empty_like(u)
        at[order] = u
        return at


def _tables_for(rho):
    """The sampling tables of a non-Gaussian state, kept for the next call on an equal state.

    A build costs more than a draw of a few thousand samples, and a scan draws
    many trials from one state.
    """
    key = (rho.dim, rho.elements.tobytes())
    if key not in _TABLES:
        _TABLES.clear()     # let the last state's tables go before this one's are built
        _TABLES[key] = (_InverseCdf if _is_phase_invariant(rho) else _BinnedEnvelope)(rho)
    return _TABLES[key]


def sample_quadratures(rho: DensityMatrix, n: int, rng: np.random.Generator) -> QuadratureData:
    """Draw ``n`` i.i.d. homodyne samples from the state.

    Phases are uniform on [0, pi); x follows ``p(x; phi)``.  A state carrying an
    exact Gaussian quadrature law (thermal, coherent, and their loss-damped images)
    is sampled from the law alone (``_sample_law``, which a scan hands a Gaussian
    signal's damped law, with the damped matrix's draws); another phase-invariant
    state by inverse CDF (``_InverseCdf``); any other by rejection
    (``_BinnedEnvelope``).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if rho.quadrature_law is not None:
        return _sample_law(rho.quadrature_law, n, rng)
    x, phi = _tables_for(rho).draw(n, rng)
    return QuadratureData(x=x, phi=phi)


def _sample_law(law, n, rng):
    """``n`` homodyne samples of the Gaussian quadrature law ``law``: uniform phases, normal x."""
    phi = rng.uniform(0.0, np.pi, n)
    x = np.sqrt(law.variance) * rng.standard_normal(n)
    if law.mean_amplitude:      # a thermal law's is +-0, so skipping it keeps the bits
        x = np.real(law.mean_amplitude * np.exp(1j * phi)) + x
    return QuadratureData(x=x, phi=phi)


def estimate_rays(datasets, n: int, d: int, j_max: int = 0) -> list:
    """Estimate the ray ``<n+j|rho|n+d+j>``, j = 0..j_max, from each of several datasets.

    Element j is the sample mean of ``e^{i d phi} f_{n+j,n+d+j}(x)``; its
    standard error is the larger componentwise sample deviation divided
    by sqrt(N).  Both come from the sums of the summands and of their
    squares, which ``oscillator.pattern_sums`` forms in one pass.  ``datasets``
    is any iterable, read once, one dataset at a time.  A ray with ``d > 0``
    rejects a dataset holding a non-finite phase.
    """
    sizes = []

    def column(samples):
        if len(samples) < 2:
            raise ValueError("need at least two samples")
        sizes.append(len(samples))
        if not d:
            return samples.x, None
        if not np.isfinite(samples.phi).all():
            raise ValueError("phases must be finite")
        phase = np.exp(1j * d * samples.phi)
        return samples.x, (phase.real, phase.imag)

    s1, s2 = oscillator.pattern_sums(n, d, j_max, map(column, datasets))
    width = 2 if d else 1
    rays = []
    for k, n_s in enumerate(sizes):
        own = slice(k * width, (k + 1) * width)
        mean = s1[:, own] / n_s
        spread = np.sqrt(np.maximum(s2[:, own] - n_s * mean**2, 0.0) / (n_s - 1))
        estimate = mean[:, 0] + 1j * mean[:, 1] if d else mean[:, 0]
        rays.append(MeasuredRay(n, d, estimate, np.max(spread, axis=1) / np.sqrt(n_s)))
    return rays


def estimate_element(samples: QuadratureData, n: int, d: int, j_max: int = 0) -> MeasuredRay:
    """Estimate the ray ``<n+j|rho|n+d+j>``, j = 0..j_max, from homodyne samples.

    The batch of one of :func:`estimate_rays`.
    """
    return estimate_rays([samples], n, d, j_max)[0]


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
    if not j_list:
        raise ValueError("the truncation index list j_list is empty")
    lo = min(j_list)
    ray = estimate_element(samples, n0 + lo, d, max(j_list) - lo)
    return [(j, ray.stderr[j - lo] * np.sqrt(len(samples))) for j in j_list]
