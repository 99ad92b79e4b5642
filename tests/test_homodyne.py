"""Homodyne statistics: pdf, samplers, pattern kernels, and estimators."""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.stats import kstest

from losscomp import (
    QuadratureData,
    apply_loss,
    error_saturation_profile,
    estimate_element,
    evaluate_pattern,
    make_coherent,
    make_fock,
    make_thermal,
    quadrature_pdf,
    sample_quadratures,
)
from losscomp import homodyne, oscillator
from losscomp.exceptions import ExtrapolationError, NumericalSanityError
from losscomp.fock_core import DensityMatrix


def rng_from(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def element(data, n, d):
    """(estimate, stderr) of the single element <n|rho|n+d>."""
    ray = estimate_element(data, n, d)
    return ray.estimate[0], ray.stderr[0]


def four_gather_pattern(t, coefficients, parities, x):
    """Kernel rows from ``(4, L-1)`` half-line cubic coefficients, one gather per coefficient.

    Row k is evaluated at ``|x|`` and multiplied by ``parities[k]`` where ``x < 0``.
    """
    a = np.abs(x)
    idx = np.minimum((a / oscillator.TAB_STEP).astype(np.int64), t.x_half.size - 2)
    dt = a - t.x_half[idx]
    return np.array([np.where(x < 0, p, 1.0)
                     * (((c[0, idx] * dt + c[1, idx]) * dt + c[2, idx]) * dt + c[3, idx])
                     for c, p in zip(coefficients, parities)])


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

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            sample_quadratures(make_fock(0, 4), 0, rng_from(0))

    def test_bad_truncation_raises(self):
        # diagonal sums to 1 but the clipped density does not: the sampler
        # must refuse rather than silently draw from the wrong law
        rho = DensityMatrix(2, np.diag([1.25, -0.25]).astype(complex))
        with pytest.raises(NumericalSanityError):
            sample_quadratures(rho, 100, rng_from(0))


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
        assert evaluate_pattern(n, m, -x).tobytes() == (sign * evaluate_pattern(n, m, x)).tobytes()

    def test_bounded_through_index_40(self):
        x = np.linspace(-8.0, 8.0, 401)
        worst = 0.0
        for n in range(41):
            for m in {n, min(n + 1, 40), 40}:
                worst = max(worst, float(np.max(np.abs(evaluate_pattern(n, m, x)))))
        assert np.isfinite(worst)
        assert worst < 50.0

    def test_index_arrays_equal_per_pair_calls(self):
        n, m = np.array([0, 3, 5, 2, 7]), np.array([0, 4, 9, 2, 7])
        x = np.linspace(-5.0, 5.0, 301)
        rows = evaluate_pattern(n, m, x)
        assert rows.shape == (5, 301)
        points = evaluate_pattern(n, m, 0.37)
        assert points.shape == (5,)
        for k in range(5):
            assert rows[k].tobytes() == evaluate_pattern(n[k], m[k], x).tobytes()
            assert points[k] == evaluate_pattern(n[k], m[k], 0.37)
        assert isinstance(evaluate_pattern(2, 2, 0.37), float)
        with pytest.raises(ValueError):
            evaluate_pattern(np.array([0, 3]), np.array([1, 2]), x)

    def test_interleaved_spline_equals_four_gather_reference(self):
        t = oscillator.tables_for(40, 10.0)
        pairs = [(0, 0), (2, 5), (7, 7), (13, 40)]
        for n, m in pairs:
            c = t.spline(n, m)
            assert c.shape == (t.x_half.size - 1, 4)
            assert c.flags.c_contiguous
        nodes = t.x_half[[0, 1, 2500, t.x_half.size // 2, -2, -1]]
        x = np.concatenate([nodes, -nodes, [-t.x_max, t.x_max, -0.0, 0.37, -2.6, 9.999],
                            rng_from(17, 20).uniform(-t.x_max, t.x_max, 494)])
        n, m = np.array(pairs).T
        want = four_gather_pattern(t, [t.spline(nk, mk).T for nk, mk in pairs],
                                   (-1.0) ** (n + m), x)
        assert evaluate_pattern(n, m, x).tobytes() == want.tobytes()
        grid = x[:506].reshape(2, 253)
        assert evaluate_pattern(n, m, grid).tobytes() == want[:, :506].tobytes()
        for k, (nk, mk) in enumerate(pairs):
            assert evaluate_pattern(nk, mk, x).tobytes() == want[k].tobytes()
        assert oscillator.tables_for(0) is t

    @pytest.mark.parametrize("n,m", [(0, 0), (2, 5), (13, 40), (100, 102)])
    def test_spline_is_the_hermite_interpolant_of_the_ode_slopes(self, n, m):
        t = oscillator.tables_for(m)
        hermite = CubicHermiteSpline(t.x_half, *t.kernel_and_slope(n, m))
        nodes = t.x_half[[0, 1, t.x_half.size // 2, -2, -1]]
        x = np.concatenate([nodes, -nodes, rng_from(17, 21).uniform(-t.x_max, t.x_max, 2000)])
        want = four_gather_pattern(t, [hermite.c], [(-1.0) ** (n + m)], x)[0]
        got = evaluate_pattern(n, m, x)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 1), (2, 5), (7, 7), (13, 40), (100, 102)])
    def test_ode_slope_matches_central_differences(self, n, m):
        """``f' = (Q_n + Q_m) psi_n chi_m + 2 psi_n' chi_m'`` against a 5-point stencil of f."""
        t = oscillator.tables_for(m)
        f, slope = t.kernel_and_slope(n, m)
        stencil = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * oscillator.TAB_STEP)
        assert np.max(np.abs(stencil - slope[2:-2])) <= 1e-5 * np.max(np.abs(slope))

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            evaluate_pattern(3, 1, 0.0)

    def test_far_outside_table_raises(self):
        with pytest.raises(ExtrapolationError):
            evaluate_pattern(0, 0, 50.0)

    def test_number_state_anchors_through_index_20(self):
        """``integral psi_k^2 f_nn = delta_nk`` for every n, k <= 20, at AC-7's tolerance.

        The integrands are even, so each integral is twice its half-line value.
        """
        t = oscillator.tables_for(20)
        psi2 = t.psi[:21] ** 2
        overlap = np.array([2.0 * simpson(psi2 * t.kernel_and_slope(n, n)[0],
                                          dx=oscillator.TAB_STEP)
                            for n in range(21)])
        assert np.max(np.abs(overlap - np.eye(21))) < 1e-6

    def test_table_keeps_only_its_grid(self):
        t = oscillator.tables_for(12)
        for name in ("x_half", "psi", "chi", "dchi"):
            a = getattr(t, name)
            assert a.shape[-1] == t.x_half.size, name
            assert a.base is None, f"{name} is a view of a longer array"
        assert not hasattr(t, "dpsi"), "psi' follows from two stored psi rows"
        for n, m in [(0, 0), (3, 8), (12, 12)]:
            t.spline(n, m)
        for name, a in vars(t).items():     # dx holds one width per cell
            if isinstance(a, np.ndarray):
                assert a.shape[-1] in (t.x_half.size, t.x_half.size - 1), name
        assert all(c.shape == (t.x_half.size - 1, 4) for c in t.kernels.values())

    def test_table_at_its_limits(self, monkeypatch):
        t = oscillator._Tables(32, oscillator._X_LIMIT)
        assert t.x_max == oscillator._X_LIMIT
        assert all(np.all(np.isfinite(t.kernel_and_slope(n, m)))
                   for n in range(33) for m in range(n, 33))
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

    @pytest.mark.parametrize("d", [0, 2])
    def test_ray_equals_single_elements_across_blocks(self, d, monkeypatch):
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 19))
        calls, evaluate = [], oscillator.evaluate_pattern

        def counting(n, m, x):
            calls.append(np.size(n))
            return evaluate(n, m, x)

        monkeypatch.setattr(homodyne, "_BLOCK", 4 * len(data))
        monkeypatch.setattr(homodyne.oscillator, "evaluate_pattern", counting)
        ray = estimate_element(data, 1, d, j_max=10)
        assert calls == [3, 4, 4]
        assert (ray.n, ray.d, ray.estimate.shape, ray.stderr.shape) == (1, d, (11,), (11,))
        for j in range(11):
            one = estimate_element(data, 1 + j, d)
            assert one.estimate.tobytes() == ray.estimate[j:j + 1].tobytes()
            assert one.stderr.tobytes() == ray.stderr[j:j + 1].tobytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_reductions_follow_the_documented_formula(self, d):
        """Row j's mean and error are the documented reductions of that kernel row, bit for bit."""
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 21))
        ray = estimate_element(data, 1, d, j_max=5)
        rows = evaluate_pattern(np.arange(1, 7), np.arange(1 + d, 7 + d), data.x)
        root = np.sqrt(len(data))
        for j, kernel in enumerate(rows):
            if d:
                summands = np.exp(1j * d * data.phi) * kernel
                spread = max(np.std(summands.real, ddof=1), np.std(summands.imag, ddof=1))
            else:
                summands, spread = kernel, np.std(kernel, ddof=1)
            assert ray.estimate[j].tobytes() == np.complex128(np.mean(summands)).tobytes()
            assert ray.stderr[j].tobytes() == np.float64(spread / root).tobytes()

    def test_ray_builds_one_table_across_blocks(self, monkeypatch):
        data = sample_quadratures(make_coherent(0.8 + 0.4j, 32), 3000, rng_from(17, 19))
        built = []

        class Counting(oscillator._Tables):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(oscillator, "_TABLES", None)
        monkeypatch.setattr(oscillator, "_Tables", Counting)
        monkeypatch.setattr(homodyne, "_BLOCK", 4 * len(data))
        estimate_element(data, 30, 0, j_max=10)
        assert built == [40]

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


class TestContainers:
    def test_data_validates_shapes(self):
        with pytest.raises(ValueError):
            QuadratureData(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            QuadratureData(np.zeros((2, 2)), np.zeros((2, 2)))

