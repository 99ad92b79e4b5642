"""Homodyne statistics: the reference pdf, samplers, pattern kernels, and estimators."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import BPoly
from scipy.stats import chisquare, kstest

from losscomp import (
    QuadratureData,
    apply_loss,
    error_saturation_profile,
    estimate_element,
    evaluate_pattern,
    make_coherent,
    make_fock,
    make_thermal,
    sample_quadratures,
)
from losscomp import acceptance, homodyne, oscillator
from losscomp.exceptions import ExtrapolationError, NumericalSanityError
from losscomp.fock_core import DensityMatrix
from losscomp.loss_channel import _damped_law
from reference import quadrature_pdf


def rng_from(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def blas_threads_run(argv, threads):
    """Standard output of ``argv`` run in a fresh process on this copy of losscomp, with
    OpenBLAS and OpenMP limited to ``threads`` threads."""
    src = str(Path(oscillator.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


def element(data, n, d):
    """(estimate, stderr) of the single element <n|rho|n+d>."""
    ray = estimate_element(data, n, d)
    return ray.estimate[0], ray.stderr[0]


def index_reach(m):
    """Index m's classical turning point plus 4, whole: the range its kernels need."""
    return float(np.ceil(np.sqrt(m + 0.5) + 4.0))


def index_table(m):
    """The shared table, holding index m and its reach, with the count of its ``x_cell``
    nodes inside that reach; the table may run farther, after other calls."""
    reach = index_reach(m)
    return oscillator.tables_for(m, reach), int(round(reach / oscillator._CELL)) + 1


def reference_kernel(n, m, x):
    """Kernel f_nm at points ``x >= 0``, from a ``chi_m`` that shares no step with the table.

    ``chi_m`` and ``chi_m'`` come from scipy's DOP853 (rtol 1e-13, atol 1e-15), started
    from the table's start values at the origin; ``psi`` comes from ``_psi_half``.  The
    kernel ``psi_n' chi_m + psi_n chi_m'`` is divided by its anchor ``W_m / 2``.
    """
    x = np.asarray(x, dtype=float)
    start = [1.0, 0.0] if m % 2 else [0.0, 1.0]     # chi is even exactly when psi_m is odd
    e = 4.0 * m + 2.0
    chi, dchi = solve_ivp(lambda s, y: [y[1], (4.0 * s * s - e) * y[0]], (0.0, float(x.max())),
                          start, method="DOP853", rtol=1e-13, atol=1e-15,
                          dense_output=True).sol(x)
    psi = oscillator._psi_half(max(n, m) + 1, np.append(0.0, x))

    def dpsi(k):
        return np.sqrt(k) * psi[max(k - 1, 0)] - np.sqrt(k + 1.0) * psi[k + 1]

    anchor = 0.5 * (psi[m, 0] * start[1] - dpsi(m)[0] * start[0])
    return (dpsi(n)[1:] * chi + psi[n, 1:] * dchi) / anchor


def reference_stencil(n, m, x):
    """The reference kernel at ``x + 0.002 k``, k = -2..2, as rows of 5."""
    return reference_kernel(n, m, (x[:, None] + 0.002 * np.arange(-2, 3)).ravel()).reshape(-1, 5)


def six_gather_pattern(t, coefficients, parities, x):
    """Kernel rows from ``(6, cells)`` half-line quintic coefficients, one gather per coefficient.

    Row k is evaluated at ``|x|`` by Horner's rule and multiplied by
    ``parities[k]`` where ``x < 0``.
    """
    a = np.abs(x)
    idx = np.minimum((a / oscillator._CELL).astype(np.int64), t.x_cell.size - 2)
    dt = a - t.x_cell[idx]
    rows = []
    for c, p in zip(coefficients, parities):
        value = c[0, idx]
        for ck in c[1:]:
            value = value * dt + ck[idx]
        rows.append(np.where(x < 0, p, 1.0) * value)
    return np.array(rows)


def kernel_rows(n, m, x):
    """``evaluate_pattern`` for each pair ``(n[k], m[k])``, stacked: ``(pairs,) + x.shape``."""
    return np.array([evaluate_pattern(nk, mk, x) for nk, mk in zip(n, m)])


def band_row(t, n, m):
    """Kernel f_nm's ``(6, cells)`` quintic coefficients."""
    return t.coefficients(n, m)


def row_derivatives(c, h):
    """Value, slope and curvature of quintic coefficients ``c`` (``(6, cells)``, highest
    power first) at offset ``h`` in each cell."""
    a = c[::-1]                         # a[k] multiplies dt^k
    k = np.arange(6)[:, None]
    return (np.sum(a * h**k, axis=0),
            np.sum((k * a)[1:] * h ** (k[1:] - 1), axis=0),
            np.sum((k * (k - 1) * a)[2:] * h ** (k[2:] - 2), axis=0))


def strip_law(rho):
    """Same matrix, no Gaussian shortcut: forces the generic sampler paths."""
    return DensityMatrix(rho.dim, rho.elements, tail_bound=rho.tail_bound)


def even_cat(alpha, dim):
    """``|alpha> + |-alpha>``, normalized: the even-photon part of a coherent state."""
    even = np.arange(dim) % 2 == 0
    elements = make_coherent(alpha, dim).elements * np.outer(even, even)
    return DensityMatrix(dim, elements / np.trace(elements).real)


def phase_averaged_cdf(rho, grid=np.linspace(-12.0, 12.0, 2401), phases=128):
    """CDF of x at a uniform phase: the mean of ``quadrature_pdf`` over a phase grid on [0, pi)."""
    phi = (np.arange(phases) + 0.5) * np.pi / phases
    density = np.mean([quadrature_pdf(rho, p, grid) for p in phi], axis=0)
    mass = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2 * np.diff(grid))])
    return lambda x: np.interp(x, grid, mass / mass[-1])


def count_scored(monkeypatch):
    """The point count of every proposal-scoring call the rejection sampler makes from now on."""
    scored, density = [], homodyne._BinnedEnvelope.density

    def counting(table, phi, x):
        scored.append(np.size(x))
        return density(table, phi, x)

    monkeypatch.setattr(homodyne._BinnedEnvelope, "density", counting)
    return scored


class TestQuadraturePdf:
    def test_vacuum_peak(self):
        assert quadrature_pdf(make_fock(0, 8), 0.7, 0.0) == pytest.approx(
            np.sqrt(2.0 / np.pi), abs=1e-12)

    def test_thermal_peak(self):
        # variance (2*2+1)/4 = 5/4
        want = 1.0 / np.sqrt(2.0 * np.pi * 1.25)
        assert quadrature_pdf(make_thermal(2.0, 64), 1.1, 0.0) == pytest.approx(want, abs=1e-10)

    def test_thermal_is_gaussian(self):
        x = np.linspace(-6.0, 6.0, 801)
        want = np.exp(-(x**2) / 2.5) / np.sqrt(2.0 * np.pi * 1.25)
        got = quadrature_pdf(make_thermal(2.0, 64), 0.0, x)
        assert np.allclose(got, want, atol=1e-10)

    def test_single_photon_node_at_origin(self):
        for phi in (0.0, 0.2, 2.8):
            assert quadrature_pdf(make_fock(1, 8), phi, 0.0) == 0.0

    def test_nonnegative(self):
        x = np.linspace(-9.0, 9.0, 2001)
        rho = make_coherent(1.0, 32)
        for phi in (0.0, 1.0, 2.0):
            assert quadrature_pdf(rho, phi, x).min() > -1e-10

    def test_normalizes_to_trace(self):
        x = np.linspace(-9.0, 9.0, 4097)
        rho = make_coherent(1.0, 32)
        for phi in np.linspace(0.0, np.pi, 8, endpoint=False):
            total = simpson(quadrature_pdf(rho, phi, x), x=x)
            assert abs(total - rho.trace) < 1e-8

    def test_scalar_and_array_agree(self):
        rho = make_coherent(1.0, 32)
        vec = quadrature_pdf(rho, 0.5, np.array([0.1, 0.7]))
        assert isinstance(quadrature_pdf(rho, 0.5, 0.1), float)
        assert vec[0] == pytest.approx(quadrature_pdf(rho, 0.5, 0.1), rel=1e-13)
        assert vec[1] == pytest.approx(quadrature_pdf(rho, 0.5, 0.7), rel=1e-13)


    @staticmethod
    def exp_formula(rho, phi, x):
        """The density with each factor ``e^{i n phi}`` taken from its own complex ``exp``."""
        rotated = oscillator._psi_half(rho.dim - 1, np.atleast_1d(x)) * np.exp(
            1j * np.multiply.outer(np.arange(rho.dim), np.atleast_1d(phi)))
        return np.einsum("nx,nx->x", rotated, rho.elements @ rotated.conj()).real

    def test_phase_recurrence_matches_exp_formula(self):
        rho = make_coherent(1.3 - 0.8j, 64)
        rng = rng_from(17, 24)
        x, phi = rng.normal(0.0, 1.2, 500), rng.uniform(0.0, np.pi, 500)
        want = self.exp_formula(rho, phi, x)
        assert np.max(np.abs(quadrature_pdf(rho, phi, x) - want)) <= 1e-12 * np.max(want)
        at_zero = quadrature_pdf(rho, 0.0, x)
        assert at_zero.tobytes() == self.exp_formula(rho, 0.0, x).tobytes()
        assert quadrature_pdf(rho, np.zeros(500), x).tobytes() == at_zero.tobytes()

    def test_per_sample_phases_equal_scalar_phase_calls(self):
        rho = make_coherent(0.7 + 0.3j, 24)
        rng = rng_from(17, 20)
        x, phi = rng.normal(size=200), rng.uniform(0.0, np.pi, 200)
        dens = quadrature_pdf(rho, phi, x)
        assert dens.shape == (200,)
        for k in range(200):
            assert dens[k] == quadrature_pdf(rho, phi[k], x)[k]


class TestSampleQuadratures:
    def test_thermal_variance(self):
        data = sample_quadratures(make_thermal(2.0, 64), 100_000, rng_from(17, 12))
        assert np.var(data.x) == pytest.approx(1.25, abs=0.02)

    def test_vacuum_mean(self):
        data = sample_quadratures(make_fock(0, 8), 100_000, rng_from(17, 13))
        assert abs(np.mean(data.x)) < 0.003

    def test_phases_in_half_open_interval(self):
        data = sample_quadratures(make_coherent(0.5, 24), 5000, rng_from(17, 14))
        assert np.all(data.phi >= 0.0)
        assert np.all(data.phi < np.pi)
        assert np.all(np.isfinite(data.x))

    def test_deterministic_given_seed(self):
        for rho in (make_thermal(1.0, 32), strip_law(make_coherent(0.4 + 0.2j, 24))):
            a = sample_quadratures(rho, 10, rng_from(17, 15))
            b = sample_quadratures(rho, 10, rng_from(17, 15))
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.phi, b.phi)

    def test_generic_paths_agree_with_gaussian_path(self):
        """Inverse-CDF sampling of a thermal matrix (law stripped) must give

        statistics compatible with the closed-form Gaussian draw.
        """
        rho = make_thermal(2.0, 64)
        a = estimate_element(sample_quadratures(rho, 50_000, rng_from(17, 5)), 1, 0)
        b = estimate_element(sample_quadratures(strip_law(rho), 50_000, rng_from(17, 6)), 1, 0)
        pull = abs(a.estimate[0].real - b.estimate[0].real) / np.hypot(a.stderr[0], b.stderr[0])
        assert pull < 3.0

    @pytest.mark.parametrize("sampler,state", [
        ("gaussian", lambda: make_thermal(2.0, 64)),
        ("inverse_cdf", lambda: strip_law(make_thermal(2.0, 64))),
        ("inverse_cdf", lambda: make_fock(3, 16)),
        ("rejection", lambda: even_cat(1.5, 32)),
        ("rejection", lambda: strip_law(make_coherent(0.8 + 0.4j, 32))),
    ], ids=["thermal", "thermal-stripped", "fock3", "even-cat", "coherent-stripped"])
    def test_samples_follow_the_phase_averaged_density(self, sampler, state):
        rho = state()
        path = ("gaussian" if rho.quadrature_law is not None else
                "inverse_cdf" if homodyne._is_phase_invariant(rho) else "rejection")
        assert path == sampler
        data = sample_quadratures(rho, 20_000, rng_from(17, 23))
        assert kstest(data.x, phase_averaged_cdf(rho)).pvalue > 1e-3

    @pytest.mark.parametrize("state,seed", [
        (lambda: even_cat(1.5, 32), 26),
        (lambda: strip_law(make_coherent(0.8 + 0.4j, 32)), 27),
    ], ids=["even-cat", "coherent-stripped"])
    def test_samples_follow_the_joint_density(self, state, seed):
        """Counts in (x, phi) cells match ``quadrature_pdf / pi`` integrated over each cell.

        The x marginal alone cannot see a draw whose phase is in the wrong
        place.  Each of 8 phase bins is cut into 12 x cells of equal mass.
        """
        rho, n, cells = state(), 100_000, 12
        grid = np.linspace(-10.0, 10.0, 8001)
        nodes, node_weights = np.polynomial.legendre.leggauss(16)
        data = sample_quadratures(rho, n, rng_from(17, seed))
        observed, expected = [], []
        for lo, hi in zip(np.linspace(0.0, np.pi, 9)[:-1], np.linspace(0.0, np.pi, 9)[1:]):
            phases = (lo + hi) / 2 + (hi - lo) / 2 * nodes
            dens = (hi - lo) / 2 * node_weights @ np.maximum(
                [quadrature_pdf(rho, p, grid) for p in phases], 0.0) / np.pi
            mass = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
            edges = np.interp(mass[-1] * np.arange(1, cells) / cells, mass, grid)
            inside = (data.phi >= lo) & (data.phi < hi)
            observed += list(np.bincount(np.searchsorted(edges, data.x[inside]),
                                         minlength=cells))
            expected += [mass[-1] / cells] * cells
        expected = n * np.array(expected) / np.sum(expected)
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_rejection_density_in_chunks_equals_one_call(self, monkeypatch):
        """Proposals are scored ``_PDF_CHUNK`` points at a time with the draws of one call."""
        rho = even_cat(1.5, 32)
        calls = count_scored(monkeypatch)
        monkeypatch.setattr(homodyne, "_PDF_CHUNK", 10**9)
        whole = sample_quadratures(rho, 3000, rng_from(17, 25))
        assert calls
        rate = homodyne._tables_for(rho).rate
        assert calls[0] == int(np.ceil((3000 + 3.0 * np.sqrt(3000)) / rate))
        calls.clear()
        monkeypatch.setattr(homodyne, "_PDF_CHUNK", 1000)
        chunked = sample_quadratures(rho, 3000, rng_from(17, 25))
        assert max(calls) == 1000 and len(calls) > 3
        assert chunked.x.tobytes() == whole.x.tobytes()
        assert chunked.phi.tobytes() == whole.phi.tobytes()

    @pytest.mark.parametrize("eta", [0.4, 0.5, 0.9])
    @pytest.mark.parametrize("state", [lambda: make_thermal(2.0, 64),
                                       lambda: make_coherent(1.0 + 0.5j, 64)],
                             ids=["thermal", "coherent"])
    def test_damped_law_draws_the_damped_matrix_bytes(self, state, eta):
        """A scan draws a Gaussian signal's cells from its damped law, never damping the
        matrix: the law sampler gives the bytes ``sample_quadratures`` gives on the
        damped state."""
        signal = state()
        law = homodyne._sample_law(_damped_law(signal.quadrature_law, eta), 8000,
                                   rng_from(17, 31))
        matrix = sample_quadratures(apply_loss(signal, eta), 8000, rng_from(17, 31))
        assert law.x.tobytes() == matrix.x.tobytes()
        assert law.phi.tobytes() == matrix.phi.tobytes()

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            sample_quadratures(make_fock(0, 4), 0, rng_from(0))

    def test_bad_truncation_raises(self):
        # diagonal sums to 1 but the clipped density does not: the sampler
        # must refuse rather than silently draw from the wrong law
        rho = DensityMatrix(2, np.diag([1.25, -0.25]).astype(complex))
        with pytest.raises(NumericalSanityError):
            sample_quadratures(rho, 100, rng_from(0))


@st.composite
def small_mixed_states(draw):
    """A random mixed state of dim 2..8 with rank 1..3 and off-diagonal elements."""
    dim, rank = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    elements = a @ a.conj().T
    return DensityMatrix(dim, elements / np.trace(elements).real)


class FixedDraws:
    """A stand-in generator whose ``random`` calls return given constants, in turn."""

    def __init__(self, *values):
        self.values = values
        self.calls = 0

    def random(self, size):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return np.full(size, value)


class TestRejectionProposal:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(rho=small_mixed_states())
    def test_bin_envelopes_dominate_the_density(self, rho):
        """At grid midpoints and 9 phases per bin, each bin's envelope bounds ``p(x; phi)``."""
        table = homodyne._BinnedEnvelope(rho)
        mid = (table.grid[1:] + table.grid[:-1]) / 2
        width = np.pi / homodyne._BINS
        for b, envelope in enumerate(table.envelope):
            bound = (envelope[1:] + envelope[:-1]) / 2
            for phi in b * width + np.linspace(0.0, width, 9):
                assert np.all(quadrature_pdf(rho, phi, mid) <= bound)
        data = sample_quadratures(rho, 2000, rng_from(17, 28, rho.dim))
        assert np.all((data.phi >= 0.0) & (data.phi < np.pi))

    def test_top_edge_of_the_last_bin_stays_below_pi(self):
        rho = even_cat(1.5, 32)
        top = np.nextafter(1.0, 0.0)
        x, phi = homodyne._tables_for(rho).draw(50, FixedDraws(1.0 - 0.5 / homodyne._BINS,
                                                               top, 0.0))
        assert np.all(phi == np.nextafter(np.pi, 0.0))
        assert np.all(np.isfinite(x))

    def test_damped_cat_scores_at_most_1_2_proposals_per_sample(self, monkeypatch):
        rho = apply_loss(even_cat(1.5, 32), 0.6)
        scored = count_scored(monkeypatch)
        for trial in range(3):
            sample_quadratures(rho, 24_000, rng_from(17, 29, trial))
        assert scored
        assert sum(scored) <= 1.2 * 3 * 24_000

    def test_a_loose_envelope_costs_passes_not_memory(self, monkeypatch):
        """At most four proposals per missing sample go into one batch."""
        rho = strip_law(make_coherent(5.0, 96))
        assert homodyne._tables_for(rho).rate < 0.25
        scored = count_scored(monkeypatch)
        monkeypatch.setattr(homodyne, "_PDF_CHUNK", 10**9)
        sample_quadratures(rho, 1000, rng_from(17, 39))
        assert scored
        assert scored[0] == 4 * 1000 + 512

    def test_tables_are_built_once_per_state(self, monkeypatch):
        """An equal state reuses the last tables; a changed state, or another kind, rebuilds."""
        built = []

        def counting(kind):
            class Counting(kind):
                def __init__(self, rho):
                    built.append(kind.__name__)
                    super().__init__(rho)
            return Counting

        for kind in (homodyne._BinnedEnvelope, homodyne._InverseCdf):
            monkeypatch.setattr(homodyne, kind.__name__, counting(kind))
        monkeypatch.setattr(homodyne, "_TABLES", {})
        cat = even_cat(1.5, 32)
        sample_quadratures(cat, 100, rng_from(17, 30))
        sample_quadratures(DensityMatrix(32, cat.elements.copy()), 100, rng_from(17, 31))
        assert built == ["_BinnedEnvelope"]
        sample_quadratures(apply_loss(cat, 0.6), 100, rng_from(17, 32))
        sample_quadratures(make_fock(3, 16), 100, rng_from(17, 33))
        sample_quadratures(make_fock(3, 16), 100, rng_from(17, 34))
        sample_quadratures(cat, 100, rng_from(17, 35))
        assert built == ["_BinnedEnvelope", "_BinnedEnvelope", "_InverseCdf", "_BinnedEnvelope"]
        assert len(homodyne._TABLES) == 1

    def test_last_tables_are_dropped_before_a_new_build(self, monkeypatch):
        """A new state's tables are built with the last state's already let go."""
        seen = []

        def watching(kind):
            class Watching(kind):
                def __init__(self, rho):
                    seen.append(dict(homodyne._TABLES))
                    super().__init__(rho)
            return Watching

        for kind in (homodyne._BinnedEnvelope, homodyne._InverseCdf):
            monkeypatch.setattr(homodyne, kind.__name__, watching(kind))
        monkeypatch.setattr(homodyne, "_TABLES", {})
        sample_quadratures(even_cat(1.5, 32), 100, rng_from(17, 44))
        sample_quadratures(make_fock(3, 16), 100, rng_from(17, 45))
        sample_quadratures(apply_loss(even_cat(1.5, 32), 0.6), 100, rng_from(17, 46))
        assert seen == [{}, {}, {}]
        assert len(homodyne._TABLES) == 1

    def test_inverse_cdf_draws_are_the_same_from_kept_tables(self, monkeypatch):
        monkeypatch.setattr(homodyne, "_TABLES", {})
        rho = make_fock(3, 32)
        first = sample_quadratures(rho, 500, rng_from(17, 36))
        again = sample_quadratures(make_fock(3, 32), 500, rng_from(17, 36))
        assert first.x.tobytes() == again.x.tobytes()
        assert first.phi.tobytes() == again.phi.tobytes()

    def test_traceless_state_raises(self):
        elements = np.zeros((4, 4), dtype=complex)
        elements[0, 1] = elements[1, 0] = 0.5
        with pytest.raises(NumericalSanityError, match="no density to sample"):
            sample_quadratures(DensityMatrix(4, elements), 10, rng_from(17, 38))

    def test_too_small_envelope_raises(self, monkeypatch):
        monkeypatch.setattr(homodyne, "_TABLES", {})
        monkeypatch.setattr(homodyne, "_HEADROOM", 0.9)
        with pytest.raises(NumericalSanityError, match="exceeds its rejection envelope"):
            sample_quadratures(even_cat(1.5, 32), 5000, rng_from(17, 37))

    def test_state_with_a_negative_eigenvalue_raises(self):
        """Eigenvalues -0.1 and 1.1: the clipped density is no state's, so nothing is drawn."""
        rho = DensityMatrix(2, np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))
        with pytest.raises(NumericalSanityError, match="negative eigenvalues"):
            sample_quadratures(rho, 1000, rng_from(17, 40))

    def test_inverse_cdf_lookup_is_pointwise(self):
        """The sorted lookup returns ``np.interp``'s bits in draw order."""
        table = homodyne._InverseCdf(make_fock(3, 32))
        u = rng_from(17, 41).random(5000) * table.mass[-1]
        got = homodyne._sorted_interp(u, table.mass, table.grid)
        assert got.tobytes() == np.interp(u, table.mass, table.grid).tobytes()


def damped_cat():
    return apply_loss(even_cat(1.5, 32), 0.6)


class TestFactoredDensity:
    """Proposals are scored from the kept eigenpairs; ``quadrature_pdf`` is the reference."""

    @staticmethod
    def assert_scores_match(rho, seed):
        rng = rng_from(17, 42, seed)
        x, phi = rng.normal(0.0, 1.5, 3000), rng.uniform(0.0, np.pi, 3000)
        want = quadrature_pdf(rho, phi, x)
        got = homodyne._BinnedEnvelope(rho).density(phi, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(rho=small_mixed_states(), seed=st.integers(0, 2**16))
    def test_mixed_states(self, rho, seed):
        self.assert_scores_match(rho, seed)

    @pytest.mark.parametrize("state", [
        lambda: strip_law(make_coherent(0.8 + 0.4j, 32)),
        lambda: apply_loss(make_coherent(1.3 - 0.8j, 32), 0.6),
        damped_cat,
    ], ids=["coherent-stripped", "coherent-damped", "cat-damped"])
    def test_named_states(self, state):
        self.assert_scores_match(state(), 0)

    @pytest.mark.parametrize("state", [
        lambda: strip_law(make_coherent(0.8 + 0.4j, 32)),
        damped_cat,
        lambda: DensityMatrix(6, np.diag([0.4, 0.1, 0.2, 0.05, 0.15, 0.1]).astype(complex)
                              + 0.02 * (np.eye(6, k=1) + np.eye(6, k=-1))),
    ], ids=["coherent-stripped", "cat-damped", "mixed"])
    def test_density_is_pointwise(self, state):
        """Each point's score has the same bytes alone as among 2,000 others."""
        rng = rng_from(17, 43)
        x, phi = rng.normal(0.0, 1.5, 2000), rng.uniform(0.0, np.pi, 2000)
        table = homodyne._BinnedEnvelope(state())
        alone = np.concatenate([table.density(phi[k:k + 1], x[k:k + 1]) for k in range(2000)])
        assert alone.tobytes() == table.density(phi, x).tobytes()

    def test_damped_cat_keeps_two_eigenpairs(self):
        rho = damped_cat()
        table = homodyne._BinnedEnvelope(rho)
        assert table.weights.size == 2 and table.modes.shape == (2, 32)
        dropped = np.sort(np.abs(np.linalg.eigh(rho.elements)[0]))[:-2]
        assert np.sum(dropped) <= np.finfo(float).eps * rho.trace

    def test_full_rank_state_keeps_every_eigenpair(self):
        table = homodyne._BinnedEnvelope(strip_law(make_thermal(2.0, 16)))
        assert table.weights.size == 16


def reference_draw(table, n, rng):
    """The rejection draw with batch-wide arrays: one sorted lookup in the whole node table,
    every chunk's scores joined before any is tested, and the batch's first ``left``
    acceptances kept."""
    points, flat = table.grid.size, table.envelope.ravel()
    nodes = np.arange(flat.size, dtype=float)
    step = (table.grid[-1] - table.grid[0]) / (points - 1)
    xs_out, phi_out, filled = np.empty(n), np.empty(n), 0
    for _ in range(200):
        if filled == n:
            break
        left = n - filled
        batch = min(int(np.ceil((left + 3.0 * np.sqrt(left)) / table.rate)), 4 * left + 512)
        at = homodyne._sorted_interp(rng.random(batch) * table.mass[-1], table.mass, nodes)
        b = at // points
        xc = table.grid[0] + (at - b * points) * step
        pc = np.minimum((b + rng.random(batch)) * (np.pi / homodyne._BINS),
                        np.nextafter(np.pi, 0.0))
        node = np.minimum(at.astype(np.int64), flat.size - 2)
        frac = at - node
        bound = flat[node] * (1.0 - frac) + flat[node + 1] * frac
        height = rng.random(batch) * bound
        dens = np.concatenate([
            table.density(pc[lo:lo + homodyne._PDF_CHUNK], xc[lo:lo + homodyne._PDF_CHUNK])
            for lo in range(0, batch, homodyne._PDF_CHUNK)])
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


def banded_mixture():
    """The dim-6 mixed state with a tridiagonal band of ``test_density_is_pointwise``."""
    return DensityMatrix(6, np.diag([0.4, 0.1, 0.2, 0.05, 0.15, 0.1]).astype(complex)
                         + 0.02 * (np.eye(6, k=1) + np.eye(6, k=-1)))


class TestChunkedDraw:
    """The draw looks proposals up one bin's nodes at a time and accepts each density chunk
    as it is scored; the batch-wide draw is the reference, to the byte."""

    @pytest.mark.parametrize("state, n", [
        (damped_cat, 24_000),
        (lambda: strip_law(make_coherent(5.0, 96)), 3000),
        (banded_mixture, 5000),
    ], ids=["cat-damped", "coherent-stripped", "mixed"])
    def test_draws_equal_the_batch_wide_draw(self, state, n, monkeypatch):
        """Three seeds at the default chunk and at 1,000 points.  The damped cat's mass is
        flat over the many nodes where its envelope underflows; coherent alpha 5 accepts
        under a quarter of its proposals, so its batches stop at ``4 left + 512``."""
        table = homodyne._BinnedEnvelope(state())
        for chunk in (homodyne._PDF_CHUNK, 1000):
            monkeypatch.setattr(homodyne, "_PDF_CHUNK", chunk)
            for seed in range(3):
                x, phi = table.draw(n, rng_from(17, 49, seed))
                want_x, want_phi = reference_draw(table, n, rng_from(17, 49, seed))
                assert x.tobytes() == want_x.tobytes()
                assert phi.tobytes() == want_phi.tobytes()

    def test_positions_equal_one_lookup_in_the_whole_table(self):
        """On a small table with an empty bin, flat runs and steps up to every bin's last
        node, each bin's lookup returns the whole table's ``np.interp`` bits: at random
        masses, at every node's mass and midway between each two."""
        rng = rng_from(17, 50)
        envelope = rng.random((5, 7))
        envelope[1] = 0.0
        envelope[2, :3] = 0.0
        envelope[3, -2:] = 0.0
        grid = np.linspace(-1.0, 1.0, 7)
        mass = homodyne._cumulative_mass(envelope, grid)
        mass[1:] += np.cumsum(mass[:-1, -1])[:, None]
        mass = mass.ravel()
        u = np.concatenate([rng.random(300) * mass[-1], mass, (mass[1:] + mass[:-1]) / 2])
        got = homodyne._BinnedEnvelope._positions(SimpleNamespace(grid=grid, mass=mass), u)
        assert got.tobytes() == np.interp(u, mass, np.arange(mass.size, dtype=float)).tobytes()

    def test_envelope_violations_are_counted_over_the_whole_batch(self, monkeypatch):
        """A 5,000-sample draw under a too-small envelope, scored 1,000 points at a time,
        raises with the batch-wide draw's count of violating proposals."""
        monkeypatch.setattr(homodyne, "_TABLES", {})
        monkeypatch.setattr(homodyne, "_HEADROOM", 0.9)
        monkeypatch.setattr(homodyne, "_PDF_CHUNK", 1000)
        rho = even_cat(1.5, 32)
        with pytest.raises(NumericalSanityError) as chunked:
            sample_quadratures(rho, 5000, rng_from(17, 37))
        with pytest.raises(NumericalSanityError) as whole:
            reference_draw(homodyne._tables_for(rho), 5000, rng_from(17, 37))
        assert str(chunked.value) == str(whole.value)
        assert re.search(r"at \d+ of \d+ proposals", str(chunked.value))


def reference_envelope(rho, grid):
    """The binned envelope from whole-grid complex tables: every ray profile ``P_d`` at
    once, the bin-centre densities from one matrix product and the slack from one
    matrix-vector product."""
    psi = oscillator._psi_half(rho.dim - 1, grid)
    profiles = np.zeros((rho.dim, grid.size), dtype=complex)
    for d, profile in enumerate(profiles):
        ray = np.diagonal(rho.elements, offset=d)
        pair = psi[: rho.dim - d] * psi[d:]
        profile.real, profile.imag = ray.real @ pair, ray.imag @ pair
    d = np.arange(rho.dim)
    fold = np.where(d == 0, 1.0, 2.0)
    half_width = np.pi / (2 * homodyne._BINS)
    centres = (2 * np.arange(homodyne._BINS) + 1) * half_width
    centre_pdf = (fold * np.exp(-1j * np.outer(centres, d)) @ profiles).real
    slack = (fold * np.minimum(d * half_width, 2.0)) @ np.abs(profiles)
    return homodyne._HEADROOM * (np.maximum(centre_pdf, 0.0) + slack)


def faint_coherence_mixture():
    """A dim-12 Fock mixture whose off-diagonal elements, all below 1e-12, leave it phase
    invariant."""
    rng = rng_from(17, 48)
    weights = rng.random(12)
    upper = np.triu(4e-13 * (rng.random((12, 12)) + 1j * rng.random((12, 12))), 1)
    elements = np.diag(weights / weights.sum()) + upper + upper.conj().T
    return DensityMatrix(12, elements)


class TestStreamedTables:
    """The sampler tables are built from one streamed pass over the ray profiles; the
    whole-grid formulas are the reference, within 1e-14 of the peak."""

    @pytest.mark.parametrize("state", [
        damped_cat,
        lambda: strip_law(make_coherent(0.7 + 0.3j, 32)),
        lambda: make_fock(3, 32),
        faint_coherence_mixture,
    ], ids=["cat-damped", "coherent-stripped", "fock3", "faint-mixture"])
    def test_envelope_matches_whole_grid_tables(self, state):
        rho = state()
        table = homodyne._BinnedEnvelope(rho)
        want = reference_envelope(rho, table.grid)
        assert np.max(np.abs(table.envelope - want)) <= 1e-14 * np.max(want)

    @pytest.mark.parametrize("state", [
        lambda: apply_loss(make_fock(3, 32), 0.6),
        faint_coherence_mixture,
    ], ids=["fock3-damped", "faint-mixture"])
    def test_inverse_cdf_density_is_the_density_at_phase_zero(self, state, monkeypatch):
        rho = state()
        assert homodyne._is_phase_invariant(rho)
        densities, cumulative_mass = [], homodyne._cumulative_mass
        monkeypatch.setattr(homodyne, "_cumulative_mass",
                            lambda density, grid: densities.append(density)
                            or cumulative_mass(density, grid))
        table = homodyne._InverseCdf(rho)
        want = np.maximum(quadrature_pdf(rho, 0.0, table.grid), 0.0)
        assert len(densities) == 1
        assert np.max(np.abs(densities[0] - want)) <= 1e-14 * np.max(want)


class TestPatternFunction:
    # values frozen from the tabulated kernels; the normalization anchors
    # delta_nk are covered by the acceptance checks
    FROZEN = {
        (0, 0.0): 2.0, (0, 0.5): 0.55044308198584734, (0, 1.3): -0.48096319138578101,
        (1, 0.0): -2.0, (1, 0.5): 1.4495569180141527, (1, 1.3): -0.28938479099631759,
        (2, 0.0): 2.0, (2, 0.5): -2.0, (2, 1.3): 1.3220937755037532,
        (5, 0.0): -2.0, (5, 0.5): 0.11557600658160154, (5, 1.3): -1.0299775954295823,
    }

    @pytest.mark.parametrize("n,x", sorted(FROZEN))
    def test_frozen_diagonal_values(self, n, x):
        assert evaluate_pattern(n, n, x) == pytest.approx(self.FROZEN[(n, x)], abs=1e-7)

    def test_parity(self):
        """``f_nm(-x) = (-1)^(n+m) f_nm(x)`` bit for bit, odd ``n + m`` included."""
        n, m = np.triu_indices(13)
        x = rng_from(17, 23).uniform(-10.0, 10.0, 1000)
        sign = np.where((n + m) % 2, -1.0, 1.0)[:, None]
        assert kernel_rows(n, m, -x).tobytes() == (sign * kernel_rows(n, m, x)).tobytes()

    def test_bounded_through_index_40(self):
        x = np.linspace(-8.0, 8.0, 401)
        worst = 0.0
        for n in range(41):
            for m in {n, min(n + 1, 40), 40}:
                worst = max(worst, float(np.max(np.abs(evaluate_pattern(n, m, x)))))
        assert np.isfinite(worst)
        assert worst < 50.0

    def test_interleaved_spline_equals_four_gather_reference(self):
        t = oscillator.tables_for(40, 10.0)
        pairs = [(0, 0), (2, 5), (7, 7), (13, 40)]
        for n, m in pairs:
            c = band_row(t, n, m)
            assert c.shape == (6, t.x_cell.size - 1)
            assert c.flags.c_contiguous
        nodes = t.x_cell[[0, 1, 2, 250, 500, t.x_cell.size // 2 + 1, -3, -2, -1]]
        x = np.concatenate([nodes, -nodes, [-t.x_max, t.x_max, -0.0, 0.37, -2.6, 9.999],
                            rng_from(17, 20).uniform(-t.x_max, t.x_max, 488)])
        n, m = np.array(pairs).T
        want = six_gather_pattern(t, [band_row(t, nk, mk) for nk, mk in pairs],
                                  (-1.0) ** (n + m), x)
        assert kernel_rows(n, m, x).tobytes() == want.tobytes()
        grid = x[:506].reshape(2, 253)
        assert kernel_rows(n, m, grid).tobytes() == want[:, :506].tobytes()
        for k, (nk, mk) in enumerate(pairs):
            assert evaluate_pattern(nk, mk, x).tobytes() == want[k].tobytes()
        assert oscillator.tables_for(0) is t

    @pytest.mark.parametrize("n,m", [(0, 0), (2, 5), (13, 40), (100, 102)])
    def test_spline_is_the_hermite_interpolant_of_the_ode_slopes(self, n, m):
        """Each row matches the tabulated value, ODE slope and ODE curvature at both cell ends.

        Between the ends the rows agree with scipy's quintic Hermite
        interpolant of the same node data.  Both are checked inside index m's reach.
        """
        t, cells = index_table(m)
        jet = [a[:cells] for a in t.kernel_derivatives(n, m)]
        c = band_row(t, n, m)[:, :cells - 1]
        for end, h in ((slice(None, -1), 0.0), (slice(1, None), t.dx[:cells - 1])):
            for got, want in zip(row_derivatives(c, h), jet):
                assert np.max(np.abs(got - want[end])) <= 1e-9 * np.max(np.abs(want))
        hermite = BPoly.from_derivatives(t.x_cell[:cells], np.column_stack(jet))
        ends = t.x_cell[[0, 1, cells // 2, cells - 2, cells - 1]]
        reach = index_reach(m)
        x = np.concatenate([ends, -ends, rng_from(17, 21).uniform(-reach, reach, 2000)])
        want = np.where(x < 0, (-1.0) ** (n + m), 1.0) * hermite(np.abs(x))
        assert np.max(np.abs(evaluate_pattern(n, m, x) - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 1), (2, 5), (7, 7), (13, 40), (100, 102)])
    def test_ode_slope_matches_central_differences(self, n, m):
        """``f' = (Q_n + Q_m) psi_n chi_m + 2 psi_n' chi_m'`` against a 5-point stencil, at
        step 0.002, of the reference kernel at the interior cell nodes."""
        t, cells = index_table(m)
        slope = t.kernel_derivatives(n, m)[1]
        assert slope.shape == t.x_cell.shape
        slope = slope[:cells]
        f = reference_stencil(n, m, t.x_cell[1:cells - 1])
        stencil = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 3] - f[:, 4]) / (12.0 * 0.002)
        assert np.max(np.abs(stencil - slope[1:-1])) <= 1e-5 * np.max(np.abs(slope))

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 1), (2, 5), (7, 7), (13, 40), (100, 102)])
    def test_ode_curvature_matches_central_differences(self, n, m):
        """``f'' = 16x psi_n chi_m + (Q_n + Q_m) f + 2(Q_n psi_n chi_m' + Q_m psi_n' chi_m)``

        against a 5-point stencil, at step 0.002, of the reference kernel at the interior
        cell nodes.
        """
        t, cells = index_table(m)
        curvature = t.kernel_derivatives(n, m)[2]
        assert curvature.shape == t.x_cell.shape
        curvature = curvature[:cells]
        f = reference_stencil(n, m, t.x_cell[1:cells - 1])
        stencil = (-f[:, 0] + 16.0 * f[:, 1] - 30.0 * f[:, 2] + 16.0 * f[:, 3] - f[:, 4]) / (
            12.0 * 0.002**2)
        assert np.max(np.abs(stencil - curvature[1:-1])) <= 1e-5 * np.max(np.abs(curvature))

    @pytest.mark.parametrize("n,m", [(0, 0), (2, 2), (5, 9), (13, 40), (20, 31), (50, 50),
                                     (70, 71), (100, 100), (100, 102), (0, 102)])
    def test_spline_holds_the_nodes_it_skips(self, n, m):
        """At x = 0.002 k inside each cell, where the rows store nothing, the spline is
        within 1e-7 of the reference kernel's peak, inside index 102's reach."""
        k = np.arange(int(round(index_reach(102) / 0.002)) + 1)
        f = reference_kernel(n, m, 0.002 * k)
        inside = k % 5 != 0
        x = 0.002 * k[inside]
        assert np.max(np.abs(evaluate_pattern(n, m, x) - f[inside])) <= 1e-7 * np.max(np.abs(f))

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            evaluate_pattern(3, 1, 0.0)
        with pytest.raises(ValueError):
            evaluate_pattern(-1, 0, 0.0)

    def test_evaluates_one_kernel_per_call(self):
        """The values have the shape of the points, a float for a scalar; index arrays raise."""
        x = np.linspace(-5.0, 5.0, 300).reshape(2, 150)
        assert evaluate_pattern(2, 5, x).shape == (2, 150)
        assert evaluate_pattern(np.int64(2), np.int64(5), x).tobytes() == \
            evaluate_pattern(2, 5, x).tobytes()
        value = evaluate_pattern(2, 2, 0.37)
        assert isinstance(value, float) and value == evaluate_pattern(2, 2, [0.37])[0]
        for n, m in [(np.array([0, 3]), np.array([1, 4])), (0, np.array([1, 4])), (2.0, 2)]:
            with pytest.raises(TypeError):
                evaluate_pattern(n, m, x)

    def test_far_outside_table_raises(self):
        with pytest.raises(ExtrapolationError):
            evaluate_pattern(0, 0, 50.0)

    def test_number_state_anchors_through_index_20(self):
        """``integral psi_k^2 f_nn = delta_nk`` for every n, k <= 20, at AC-7's tolerance.

        AC-7's quadrature, Gauss-Legendre at 4 nodes per cell on the band rows, over index
        20's reach.
        """
        overlap = acceptance._number_state_overlaps(20, index_table(20)[1] - 1)
        assert np.max(np.abs(overlap - np.eye(21))) < 1e-6

    @pytest.mark.parametrize("n,m", [(0, 0), (2, 2), (3, 8), (10, 10), (50, 51), (100, 102)])
    def test_wronskian_anchor_equals_the_simpson_integral(self, n, m):
        """The kernel's scale ``W_m / 2`` equals, to 1e-9 relative, the unbiasedness integral
        ``2 integral_0^R psi_n psi_m (psi_n chi_m)' dx`` by Simpson's rule at step 0.002 over
        the range index m needs, ``R = ceil(sqrt(m + 1/2) + 4)``: the scaled reference kernel
        integrates to 1.  The table's kernel is that reference, to 1e-7 of its peak, at the
        cell nodes, every fifth Simpson node."""
        t, cells = index_table(m)
        x = 0.002 * np.arange(5 * (cells - 1) + 1)          # an odd node count
        f = reference_kernel(n, m, x)
        psi = oscillator._psi_half(m, x)
        overlap = 2.0 * simpson(psi[n] * psi[m] * f, dx=0.002)
        assert abs(overlap - 1.0) <= 1e-9
        table = t.kernel_derivatives(n, m)[0][:cells]
        assert np.max(np.abs(table - f[::5])) <= 1e-7 * np.max(np.abs(f))

    def test_table_keeps_only_its_grid(self):
        t = oscillator.tables_for(12, index_reach(12))
        for name in ("x_cell", "psi", "chi", "dchi"):
            a = getattr(t, name)
            assert a.shape[-1] == t.x_cell.size, name
            assert a.base is None, f"{name} is a view of a longer array"
        assert np.array_equal(t.x_cell, oscillator._CELL * np.arange(t.x_cell.size))
        assert t.x_cell[-1] == t.x_max
        assert not hasattr(t, "dpsi"), "psi' follows from two stored psi rows"
        for n, m in [(0, 0), (3, 8), (12, 12)]:
            band_row(t, n, m)
        for name, a in vars(t).items():     # dx holds one width per spline cell
            if isinstance(a, np.ndarray):
                assert a.shape[-1] in (t.x_cell.size, t.x_cell.size - 1), name

    @pytest.mark.parametrize("index,reach,message", [
        (oscillator._INDEX_LIMIT + 1, 0.0, "index 484 past the kernel table's limit 483"),
        (22, 1984.94, "|x| = 1984.94 past the kernel table's limit 26"),
        (22, np.nan, "|x| = nan past the kernel table's limit 26")])
    def test_table_error_names_the_limit_it_hit(self, index, reach, message):
        with pytest.raises(ExtrapolationError) as info:
            oscillator.tables_for(index, reach)
        assert str(info.value) == message

    def test_table_at_its_limits(self, monkeypatch):
        t = oscillator._Tables(32, oscillator._X_LIMIT)
        assert t.x_max == oscillator._X_LIMIT
        assert all(np.all(np.isfinite(a)) for n in range(33) for m in range(n, 33)
                   for a in t.kernel_derivatives(n, m))
        monkeypatch.setattr(oscillator, "_TABLES", None)
        with pytest.raises(ExtrapolationError):
            oscillator.tables_for(oscillator._INDEX_LIMIT + 1)
        assert oscillator._TABLES is None
        with pytest.raises(ExtrapolationError):
            evaluate_pattern(0, 0, [0.0, np.nan])

    @pytest.mark.parametrize("old,asked,built", [
        ((40, 11.0), (40, 12.5), (40, 12.5)),    # reach alone keeps the index
        ((40, 11.0), (41, 0.0), (41, 11.0)),     # a short index grows to what is asked
        ((300, 22.0), (301, 0.0), (301, 22.0)),  # and keeps the range it had
    ])
    def test_rebuild_grows_what_is_short(self, old, asked, built, monkeypatch):
        made = []
        monkeypatch.setattr(oscillator, "_TABLES", SimpleNamespace(max_index=old[0], x_max=old[1]))
        monkeypatch.setattr(oscillator, "_Tables", lambda *args: made.append(args))
        oscillator.tables_for(*asked)
        assert made == [built]


    def test_kernel_bits_do_not_depend_on_the_table(self):
        """A kernel has the same bits in every table that holds it, whatever its range."""
        pairs = [(0, 0), (0, 3), (5, 9), (20, 32), (31, 40)]
        first, *others = [oscillator._Tables(*size) for size in [(40, 0.0), (40, 17.0), (70, 0.0)]]
        for n, m in pairs:
            want = band_row(first, n, m)
            for t in others:
                assert np.array_equal(band_row(t, n, m)[:, :want.shape[1]], want), (n, m, t.x_max)

    def test_cell_ranges_keep_the_bits(self):
        """A kernel block's coefficients on a range of cells, as the contraction blocks are
        built, have the bits of the same cells in the whole-table call."""
        t = oscillator._Tables(60, 7.0)
        ks = np.arange(3, 35)
        whole = t.coefficients(ks, ks + 2)
        for lo, hi in [(0, 256), (256, 512), (200, 300), (512, t.dx.size), (699, 700)]:
            assert t.coefficients(ks, ks + 2, lo, hi).tobytes() == whole[..., lo:hi].tobytes()

    def test_blocks_regrown_equal_one_build(self, monkeypatch):
        """Blocks rebuilt for more rows have the bytes of a fresh table's blocks; asked
        again for fewer rows, they are served from the cache without a coefficient."""
        d = 2
        grown = oscillator._Tables(104, 0.0)
        grown.blocks(d, 40)
        stacks = grown.blocks(d, 103)
        whole = oscillator._Tables(104, 0.0).blocks(d, 103)
        assert [s.tobytes() for s in stacks] == [s.tobytes() for s in whole]
        calls = []
        coefficients = oscillator._Tables.coefficients
        monkeypatch.setattr(oscillator._Tables, "coefficients",
                            lambda self, *args: calls.append(args) or coefficients(self, *args))
        again = grown.blocks(d, 40)
        assert calls == []
        assert all(a is b for a, b in zip(again, stacks))

    @pytest.mark.parametrize("rows", [40, 103])
    def test_blocks_filled_in_pieces_equal_one_build(self, rows):
        """Blocks filled over cell ranges cut inside a span and inside a depth block, and
        blocks regrown for more rows after a partial fill, have a one-shot build's bytes."""
        one, pieces, regrown = (oscillator._Tables(106, 7.0) for _ in range(3))
        for d in range(4):
            whole = [s.tobytes() for s in one.blocks(d, rows)]
            for cells in (1, 43, 128, 130, 431, None):
                stacks = pieces.blocks(d, rows, cells)
            assert [s.tobytes() for s in stacks] == whole
            regrown.blocks(d, 20, 130)
            assert [s.tobytes() for s in regrown.blocks(d, rows)] == whole

    def test_bands_keep_their_bytes(self):
        """sha256 prefix of fig1's table at full precision: the bands ``f_{k,k+d}``,
        d = 0..3, up to index 103 over |x| <= 7, and band 0's contraction blocks."""
        t = oscillator._Tables(104, 7.0)
        digest = hashlib.sha256()
        for d in range(4):
            digest.update(np.array([t.coefficients(k, k + d) for k in range(103 - d)]).tobytes())
        for stack in t.blocks(0, 103):
            digest.update(stack.tobytes())
        assert digest.hexdigest()[:12] == "6a2989844cb1"


@st.composite
def kernel_sum_cases(draw):
    """One ray ``(n, d, j_max)``, with d = 0..3, points and phases.

    Points include cell nodes and -0.0.
    """
    n, d, j_max = draw(st.integers(0, 30)), draw(st.integers(0, 3)), draw(st.integers(0, 6))
    size = draw(st.integers(2, 80))
    point = st.one_of(st.floats(-12.0, 12.0),
                      st.integers(-1200, 1200).map(lambda k: k * oscillator._CELL),
                      st.sampled_from([0.0, -0.0]))
    x = np.array(draw(st.lists(point, min_size=size, max_size=size)))
    phi = np.array(draw(st.lists(st.floats(0.0, np.pi), min_size=size, max_size=size)))
    return n, d, j_max, x, phi


def plane_product_sums(n, d, j_max, x, weights=None):
    """Reference kernel sums: elementwise plane products at the occupied cells.

    The ray's rows are gathered at the occupied cells as ``(6, rows, cells)``
    planes ``a_k`` (``a_k`` multiplies ``dt^k``) and dotted with the cells'
    moments: ``s1 = sum_k a_k S_k`` over ``S_k = sum v dt^k`` (``v = w``, negated at
    ``x < 0`` for odd d) and ``s2 = sum_k a_k (a_k T_2k + 2 sum_(l>k) a_l T_(k+l))``
    over ``T_p = sum w^2 dt^p``, each row summed over the cells on its own.
    """
    x = np.asarray(x, dtype=float).ravel()
    t, idx, dt, negative = oscillator._locate(n + d + j_max, x)
    w = np.ones((1, x.size)) if weights is None else np.reshape(weights, (-1, x.size))
    counts = np.bincount(idx, minlength=t.x_cell.size - 1)
    cells = np.flatnonzero(counts)
    at = np.cumsum(counts > 0)[idx] - 1

    powers = [np.ones(x.size)]
    for _ in range(10):
        powers.append(powers[-1] * dt)

    def moments(v, order):
        return [np.bincount(at, v * powers[p], minlength=cells.size) for p in range(order)]

    ks = np.arange(n, n + j_max + 1)
    a = np.take(t.coefficients(ks, ks + d), cells, axis=2).transpose(1, 0, 2)[::-1]
    s1 = np.empty((j_max + 1, len(w)))
    s2 = np.empty((j_max + 1, len(w)))
    for k, wk in enumerate(w):
        s = moments(np.where(negative, -wk, wk) if d % 2 else wk, 6)
        sq = moments(wk * wk, 11)
        total = a[0] * s[0]
        for ak, sk in zip(a[1:], s[1:]):
            total += ak * sk
        s1[:, k] = np.sum(total, axis=1)
        total = 0.0
        for i in range(6):
            part = a[i] * sq[2 * i]
            for l in range(i + 1, 6):
                part += a[l] * (2.0 * sq[i + l])
            total += part * a[i]
        s2[:, k] = np.sum(total, axis=1)
    return s1, s2


class TestPatternSums:
    @settings(derandomize=True, deadline=None)
    @given(case=kernel_sum_cases(), phased=st.booleans())
    def test_sums_equal_sums_of_kernel_values(self, case, phased):
        """``pattern_sums`` against ``np.sum`` of ``w f`` and ``(w f)^2`` over ``evaluate_pattern`` rows."""
        n, d, j_max, x, phi = case
        x_max = oscillator.tables_for(n + d + j_max, float(np.max(np.abs(x)))).x_max
        x, phi = np.append(x, [x_max, -x_max]), np.append(phi, [0.4, 2.9])
        e = np.arange(1, 4)[:, None] if phased else np.zeros((1, 1))
        weights = np.where(e % 2, np.sin(e * phi), np.cos(e * phi))
        s1, s2 = oscillator.pattern_sums(n, d, j_max, [(x, weights if phased else None)])
        rows = np.arange(n, n + j_max + 1)
        terms = kernel_rows(rows, rows + d, x)[:, None, :] * weights
        assert s1.shape == s2.shape == (j_max + 1, weights.shape[0])
        assert np.all(np.abs(s1 - np.sum(terms, axis=-1)) <= 1e-12 * np.sum(np.abs(terms), axis=-1))
        assert np.all(np.abs(s2 - np.sum(terms**2, axis=-1)) <= 1e-12 * np.sum(terms**2, axis=-1))

    @pytest.mark.parametrize("j_max", [0, 20, 100])
    @pytest.mark.parametrize("phased", [False, True], ids=["unit", "phased"])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_sums_equal_the_plane_product_reference(self, d, phased, j_max):
        """The block contraction against the elementwise plane products it replaced.

        The tolerance was fixed before the first run: ``s2`` within 1e-13 of the
        reference's own value, ``s1`` within 1e-13 of ``sqrt(N s2)``, which bounds
        ``sum |w f|``.  ``j_max = 0`` is one row of a 32-row block.
        """
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 30 + d))
        weights = np.array([np.cos(d * data.phi), np.sin(d * data.phi)]) if phased else None
        s1, s2 = oscillator.pattern_sums(1, d, j_max, [(data.x, weights)])
        r1, r2 = plane_product_sums(1, d, j_max, data.x, weights)
        assert s1.shape == s2.shape == r1.shape == (j_max + 1, 2 if phased else 1)
        assert np.all(np.abs(s2 - r2) <= 1e-13 * r2)
        assert np.all(np.abs(s1 - r1) <= 1e-13 * np.sqrt(data.x.size * r2))

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_default_weights_equal_a_row_of_ones(self, d):
        """No weights gives the bytes of one explicit row of ones, for either parity."""
        x = np.append(rng_from(5, d).normal(0.0, 1.5, 4000), [0.0, -0.0, 2.0, -2.0])
        s1, s2 = oscillator.pattern_sums(3, d, 6, [(x, None)])
        t1, t2 = oscillator.pattern_sums(3, d, 6, [(x, np.ones((1, x.size)))])
        assert s1.tobytes() == t1.tobytes() and s2.tobytes() == t2.tobytes()

    @pytest.mark.parametrize("d", [0, 1])
    def test_a_columns_sums_do_not_depend_on_its_batch(self, d):
        """Each dataset's columns have the bytes of that dataset alone, at any position,
        beside datasets of other extents, and past the first 16 columns."""
        rng = rng_from(5, 10 + d)
        xs = [rng.normal(0.0, scale, size) for scale, size in
              [(0.5, 800), (1.0, 3000), (3.0, 2000), (0.2, 50), (1.5, 5000), (2.5, 100),
               (0.8, 1200), (1.2, 900), (4.0, 3000)]]
        batch = [(x, np.array([np.cos(x), np.sin(x)])) for x in xs]     # 18 columns
        s1, s2 = oscillator.pattern_sums(2, d, 40, batch)
        assert s1.shape == (41, 18)
        for k, dataset in enumerate(batch):
            t1, t2 = oscillator.pattern_sums(2, d, 40, [dataset])
            assert s1[:, 2 * k:2 * k + 2].tobytes() == t1.tobytes()
            assert s2[:, 2 * k:2 * k + 2].tobytes() == t2.tobytes()
        moved1, moved2 = oscillator.pattern_sums(2, d, 40, batch[5:] + batch[:5])
        assert moved1[:, 8:].tobytes() == s1[:, :10].tobytes()
        assert moved2[:, 8:].tobytes() == s2[:, :10].tobytes()

    def test_shapes_follow_the_indices(self):
        x = np.array([[0.3, -1.2], [2.5, -0.0]])
        s1, s2 = oscillator.pattern_sums(2, 3, 0, [(x, None)])
        assert s1.shape == s2.shape == (1, 1)
        assert s1[0, 0] == pytest.approx(np.sum(evaluate_pattern(2, 5, x)), rel=1e-12)
        s1, s2 = oscillator.pattern_sums(0, 1, 4, [(x, np.ones((3, 4))), (x[0], None)])
        assert s1.shape == s2.shape == (5, 4)
        assert oscillator.pattern_sums(0, 1, 4, [])[0].shape == (5, 0)
        for bad in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError):
                oscillator.pattern_sums(*bad, [(x, None)])


class TestEstimateElement:
    def test_vacuum_diagonal(self):
        data = sample_quadratures(make_fock(0, 16), 100_000, rng_from(17, 0))
        est, err = element(data, 0, 0)
        assert est.imag == 0.0
        assert abs(est.real - 1.0) < 3.0 * err

    def test_orthogonal_element_is_zero(self):
        data = sample_quadratures(make_fock(1, 16), 100_000, rng_from(17, 1))
        est, err = element(data, 0, 0)
        assert abs(est.real) < 3.0 * err

    def test_thermal_diagonal(self):
        data = sample_quadratures(make_thermal(2.0, 64), 24_000, rng_from(17, 2))
        ray = estimate_element(data, 2, 0)
        assert (ray.n, ray.d, ray.estimate.shape) == (2, 0, (1,))
        assert abs(ray.estimate[0].real - 4.0 / 27.0) < 3.0 * ray.stderr[0]

    def test_coherent_off_diagonal(self):
        data = sample_quadratures(make_coherent(1.0, 32), 100_000, rng_from(17, 3))
        est, err = element(data, 0, 1)
        assert abs(est.real - np.exp(-1.0)) < 3.0 * err
        assert abs(est.imag) < 3.0 * err

    def test_complex_amplitude_phase_convention(self):
        """<0|rho|1> of a coherent state is e^{-|a|^2} * conj(a): the sign of

        the phase factor in the estimator is observable here.
        """
        alpha = 0.6 + 0.8j
        rho = strip_law(make_coherent(alpha, 32))
        data = sample_quadratures(rho, 60_000, rng_from(17, 4))
        est, err = element(data, 0, 1)
        want = np.exp(-1.0) * np.conj(alpha)
        assert abs(est.real - want.real) < 3.0 * err
        assert abs(est.imag - want.imag) < 3.0 * err

    def test_phase_invariant_state_has_zero_off_diagonals(self):
        data = sample_quadratures(make_thermal(2.0, 64), 24_000, rng_from(17, 2))
        est, err = element(data, 0, 2)
        assert abs(est.real) < 3.0 * err
        assert abs(est.imag) < 3.0 * err

    def test_deterministic_estimates(self):
        runs = []
        for _ in range(2):
            data = sample_quadratures(make_thermal(1.0, 32), 4000, rng_from(17, 16))
            runs.append(estimate_element(data, 1, 0))
        assert np.array_equal(runs[0].estimate, runs[1].estimate)
        assert np.array_equal(runs[0].stderr, runs[1].stderr)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            estimate_element(QuadratureData(np.array([0.1]), np.array([0.2])), 0, 0)
        data = sample_quadratures(make_fock(0, 8), 100, rng_from(17, 17))
        with pytest.raises(ValueError):
            estimate_element(data, -1, 0)
        with pytest.raises(ValueError):
            estimate_element(data, 0, -1)
        with pytest.raises(ValueError):
            estimate_element(data, 0, 0, j_max=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_phases(self, bad):
        """A phased ray rejects a dataset with a NaN or infinite phase; a ray with d = 0
        reads no phase, so it still estimates from the positions."""
        x, phi = np.array([0.1, -0.3, 0.7]), np.array([0.0, bad, 1.0])
        for d in (1, 2):
            with pytest.raises(ValueError, match="^phases must be finite$"):
                estimate_element(QuadratureData(x, phi), 0, d, 2)
        ray = estimate_element(QuadratureData(x, phi), 0, 0, 2)
        assert np.isfinite(ray.estimate).all() and np.isfinite(ray.stderr).all()

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_ray_equals_single_elements_across_blocks(self, d, monkeypatch):
        """A ray's rows have the bytes of the single-element rays, and no kernel value is formed."""
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 19))

        def no_point_values(*args):
            raise AssertionError("estimate_element evaluated kernels at the samples")

        monkeypatch.setattr(oscillator, "evaluate_pattern", no_point_values)
        ray = estimate_element(data, 1, d, j_max=10)
        assert (ray.n, ray.d, ray.estimate.shape, ray.stderr.shape) == (1, d, (11,), (11,))
        for j in range(11):
            one = estimate_element(data, 1 + j, d)
            assert one.estimate.tobytes() == ray.estimate[j:j + 1].tobytes()
            assert one.stderr.tobytes() == ray.stderr[j:j + 1].tobytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_batched_rays_equal_rays_one_at_a_time(self, d):
        """``estimate_rays`` gives each dataset the bytes ``estimate_element`` gives it alone."""
        rho = apply_loss(make_coherent(0.8 + 0.4j, 32), 0.6)
        datasets = [sample_quadratures(rho, size, rng_from(17, 40, k))
                    for k, size in enumerate([3000, 500, 8000, 2, 1200, 3000, 700, 4000, 900])]
        rays = homodyne.estimate_rays(datasets, 1, d, j_max=20)
        for data, ray in zip(datasets, rays):
            one = estimate_element(data, 1, d, j_max=20)
            assert (ray.n, ray.d) == (1, d)
            assert ray.estimate.tobytes() == one.estimate.tobytes()
            assert ray.stderr.tobytes() == one.stderr.tobytes()
        assert homodyne.estimate_rays([], 1, d, j_max=20) == []
        with pytest.raises(ValueError, match="need at least two samples"):
            homodyne.estimate_rays([datasets[0], QuadratureData([0.1], [0.2])], 1, d)

    def test_ray_bytes_do_not_depend_on_the_blas_thread_count(self):
        """Fresh processes at one and at two BLAS threads estimate the same ray bytes for a
        fig2-size batch: ten datasets of 8,000 samples, j_max = 100, a unit-weight ray
        and a phased one.  Every block product stays under OpenBLAS's one-thread limit;
        one plain product over the occupied cells does not, and fails this test."""
        code = ("import hashlib, numpy as np\n"
                "from losscomp import apply_loss, homodyne, make_coherent, make_thermal\n"
                "digest = hashlib.sha256()\n"
                "for state, d in ((make_thermal(2.0, 64), 0), (make_coherent(1 + 0.5j, 64), 1)):\n"
                "    rho = apply_loss(state, 0.5)\n"
                "    data = [homodyne.sample_quadratures(rho, 8000, np.random.default_rng(k))\n"
                "            for k in range(10)]\n"
                "    for ray in homodyne.estimate_rays(data, 2, d, 100):\n"
                "        digest.update(ray.estimate.tobytes() + ray.stderr.tobytes())\n"
                "print(digest.hexdigest())\n")
        assert blas_threads_run([sys.executable, "-c", code], "1") == \
            blas_threads_run([sys.executable, "-c", code], "2")

    @staticmethod
    def documented_reductions(data, n, d, rows):
        """Per-sample reference: ``np.mean`` and ``np.std(ddof=1)`` of each kernel row's summands."""
        kernels = kernel_rows(np.arange(n, n + rows), np.arange(n + d, n + d + rows), data.x)
        root = np.sqrt(len(data))
        for kernel in kernels:
            if d:
                summands = np.exp(1j * d * data.phi) * kernel
                spread = max(np.std(summands.real, ddof=1), np.std(summands.imag, ddof=1))
            else:
                summands, spread = kernel, np.std(kernel, ddof=1)
            yield np.mean(summands), spread / root

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_reductions_follow_the_documented_formula(self, d):
        """Row j's mean and error are the documented reductions of that kernel row.

        The sums come from per-cell moments, so they differ from the per-sample
        reductions in the last bits only: 1e-12 of the error on each estimate,
        1e-12 relative on each error.
        """
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 21))
        ray = estimate_element(data, 1, d, j_max=5)
        for j, (mean, stderr) in enumerate(self.documented_reductions(data, 1, d, 6)):
            assert abs(ray.estimate[j] - mean) <= 1e-12 * stderr
            assert abs(ray.stderr[j] - stderr) <= 1e-12 * stderr

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("x", [
        [0.3, -1.1],                                           # N = 2
        [-0.7] * 40,                                           # all samples identical
        [0.0, -0.0, 0.002, -0.002, 1.0, -3.5, 0.25, -0.25],    # on and between cell nodes, -0.0
        "edge",                                                # +-x_max of the table
    ], ids=["two", "identical", "nodes", "edge"])
    def test_reductions_on_degenerate_samples(self, d, x):
        if x == "edge":
            x_max = oscillator.tables_for(6 + d, 12.0).x_max
            x = [x_max, -x_max, 0.5, x_max]
        x = np.array(x)
        data = QuadratureData(x, np.linspace(0.1, 3.0, x.size))
        ray = estimate_element(data, 1, d, j_max=5)
        assert np.all(np.isfinite(ray.stderr)) and np.all(ray.stderr >= 0.0)
        for j, (mean, stderr) in enumerate(self.documented_reductions(data, 1, d, 6)):
            scale = np.max(np.abs(np.exp(1j * d * data.phi)
                                  * evaluate_pattern(1 + j, 1 + d + j, data.x)))
            assert abs(ray.estimate[j] - mean) <= 1e-12 * scale
            # sum of squares minus N mean^2 keeps ~eps of the squares, so a
            # vanishing spread is resolved to about sqrt(eps) of the summands
            assert abs(ray.stderr[j] - stderr) <= 1e-7 * scale

    def test_ray_builds_one_table_across_blocks(self, monkeypatch):
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 19))
        built = []

        class Counting(oscillator._Tables):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(oscillator, "_TABLES", None)
        monkeypatch.setattr(oscillator, "_Tables", Counting)
        estimate_element(data, 30, 0, j_max=10)
        assert built == [40]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_estimates_do_not_depend_on_table_history(self, d, monkeypatch):
        """A ray has the same bytes from a fresh table as after the table grew in another order."""
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 22))
        monkeypatch.setattr(oscillator, "_TABLES", None)
        fresh = estimate_element(data, 1, d, j_max=30)
        monkeypatch.setattr(oscillator, "_TABLES", None)
        oscillator.tables_for(90, 19.0)
        grown = estimate_element(data, 1, d, j_max=30)
        assert grown.estimate.tobytes() == fresh.estimate.tobytes()
        assert grown.stderr.tobytes() == fresh.stderr.tobytes()

    def test_rays_of_both_parities_keep_their_bytes(self):
        """sha256 prefix of the estimate and stderr bytes of the rays d = 0..3, j_max = 30.

        Covers odd rays (the sign fold) and phased weights, which no default
        table exercises.  The bits come from the CPU's BLAS ``gemm`` kernel.
        """
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 26))
        digest = hashlib.sha256()
        for d in range(4):
            ray = estimate_element(data, 1, d, j_max=30)
            digest.update(ray.estimate.tobytes())
            digest.update(ray.stderr.tobytes())
        assert digest.hexdigest()[:12] == "1f0ca85a0d69"

    def test_table_reaches_past_the_samples(self, monkeypatch):
        monkeypatch.setattr(oscillator, "_TABLES", None)
        x = np.array([-0.3, 12.4, 0.8])
        ray = estimate_element(QuadratureData(x, np.zeros(3)), 0, 0, j_max=2)
        assert oscillator._TABLES.x_max == 13.0
        assert np.all(np.isfinite(ray.estimate))
        assert np.isfinite(evaluate_pattern(0, 0, 13.5))
        assert oscillator._TABLES.x_max == 14.0
        for far in (26.5, np.inf, np.nan):
            with pytest.raises(ExtrapolationError):
                evaluate_pattern(0, 0, far)

    @pytest.mark.parametrize("far", [30.0, np.inf, np.nan])
    def test_samples_past_the_table_limit_raise(self, far):
        with pytest.raises(ExtrapolationError):
            estimate_element(QuadratureData(np.array([0.0, far]), np.zeros(2)), 0, 0)


@pytest.mark.parametrize("fixture,seed", [
    ("thermal", (99, 1)),
    ("coherent", (99, 2)),
    ("fock", (99, 3)),
])
def test_estimator_unbiased_over_many_runs(fixture, seed):
    """Mean over 200 runs of N=2000 hits every element with n+d < 12 to

    within 4 standard errors of the run mean.
    """
    signal = {
        "thermal": make_thermal(2.0, 64),
        "coherent": make_coherent(1.0, 64),
        "fock": make_fock(3, 64),
    }[fixture]
    rho = apply_loss(signal, 0.7)
    data = sample_quadratures(rho, 200 * 2000, rng_from(*seed))
    for total in range(12):
        for n in range(total + 1):
            d = total - n
            kernel = evaluate_pattern(n, n + d, data.x)
            summands = kernel if d == 0 else np.exp(1j * d * data.phi) * kernel
            runs = np.asarray(summands).reshape(200, 2000).mean(axis=1)
            truth = rho.element(n, n + d)
            se_re = runs.real.std(ddof=1) / np.sqrt(200)
            assert abs(np.real(runs.mean() - truth)) < 4.0 * se_re, (n, d)
            if d != 0:
                se_im = runs.imag.std(ddof=1) / np.sqrt(200)
                assert abs(np.imag(runs.mean() - truth)) < 4.0 * se_im, (n, d)


class TestErrorSaturation:
    def test_scaled_error_saturates_at_sqrt2(self):
        dressed = apply_loss(make_thermal(2.0, 64), 0.6)
        data = sample_quadratures(dressed, 8000, rng_from(17, 7))
        profile = error_saturation_profile(data, range(5, 16), 0, 0)
        values = [v for _, v in profile]
        assert min(values) > np.sqrt(2.0) * 0.9
        assert max(values) < np.sqrt(2.0) * 1.1

    def test_off_diagonal_component_error_saturates_lower(self):
        # per-component error of e^{i phi} f: the cos^2 average halves the
        # variance, so the componentwise convention saturates near 1, not
        # sqrt(2)
        dressed = apply_loss(make_thermal(2.0, 64), 0.6)
        data = sample_quadratures(dressed, 8000, rng_from(17, 8))
        for _, v in error_saturation_profile(data, [6, 10], 0, 1):
            assert v == pytest.approx(1.0, rel=0.1)

    def test_low_index_sits_below_saturation(self):
        data = sample_quadratures(make_fock(0, 16), 8000, rng_from(17, 9))
        (_, value), = error_saturation_profile(data, [0], 0, 0)
        assert value < np.sqrt(2.0)

    def test_saturation_level_is_state_independent(self):
        a = sample_quadratures(make_thermal(1.0, 64), 8000, rng_from(17, 10))
        b = sample_quadratures(make_thermal(2.0, 64), 8000, rng_from(17, 11))
        (_, va), = error_saturation_profile(a, [12], 0, 0)
        (_, vb), = error_saturation_profile(b, [12], 0, 0)
        assert abs(va - vb) / vb < 0.1

    def test_profile_structure(self):
        data = sample_quadratures(make_thermal(1.0, 32), 500, rng_from(17, 18))
        profile = error_saturation_profile(data, [0, 3, 7], 1, 0)
        assert [j for j, _ in profile] == [0, 3, 7]
        assert all(isinstance(j, int) and v > 0.0 for j, v in profile)

    @pytest.mark.parametrize("j_list,bad", [([5.7], "5.7"), ([2, True], "True"),
                                            (np.array([1.0, 3.0]), "np.float64(1.0)")])
    def test_profile_rejects_non_integer_indices(self, j_list, bad):
        """Named, not truncated: ``[5.7]`` used to report j 5."""
        data = sample_quadratures(make_thermal(1.0, 32), 500, rng_from(17, 18))
        with pytest.raises(ValueError, match=f"^truncation index {re.escape(bad)} is not an "
                                             "integer$"):
            error_saturation_profile(data, j_list, 1, 0)

    @pytest.mark.parametrize("j_list", [[], (), np.array([], dtype=int)])
    def test_profile_rejects_an_empty_index_list(self, j_list):
        """One line naming the list, not ``min()``'s empty-sequence error."""
        data = sample_quadratures(make_thermal(1.0, 32), 500, rng_from(17, 18))
        with pytest.raises(ValueError, match="^the truncation index list j_list is empty$"):
            error_saturation_profile(data, j_list, 1, 0)

    def test_profile_keeps_unsorted_and_numpy_indices(self):
        data = sample_quadratures(make_thermal(1.0, 32), 500, rng_from(17, 18))
        want = error_saturation_profile(data, [7, 0, 3], 1, 0)
        assert error_saturation_profile(data, np.array([7, 0, 3]), 1, 0) == want
        assert [j for j, _ in want] == [7, 0, 3]


class TestContainers:
    def test_data_validates_shapes(self):
        with pytest.raises(ValueError):
            QuadratureData(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            QuadratureData(np.zeros((2, 2)), np.zeros((2, 2)))

