"""Homodyne statistics: pdf, samplers, pattern kernels, and estimators."""
import numpy as np
import pytest
from scipy.integrate import simpson

from losscomp import (
    QuadratureData,
    apply_loss,
    error_saturation_profile,
    estimate_element,
    make_coherent,
    make_fock,
    make_thermal,
    pattern_function,
    quadrature_pdf,
    sample_quadratures,
)
from losscomp.exceptions import ExtrapolationError, NumericalSanityError
from losscomp.fock_core import DensityMatrix


def rng_from(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def strip_law(rho):
    """Same matrix, no Gaussian shortcut: forces the generic sampler paths."""
    return DensityMatrix(rho.dim, rho.elements, tail_bound=rho.tail_bound)


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
        pull = abs(a.estimate.real - b.estimate.real) / np.hypot(a.stderr, b.stderr)
        assert pull < 3.0

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
        assert pattern_function(n, n, x) == pytest.approx(self.FROZEN[(n, x)], abs=1e-7)

    def test_parity(self):
        x = np.array([0.37, 1.1, 2.6])
        for n, m in [(0, 0), (0, 1), (2, 5), (3, 3)]:
            left = pattern_function(n, m, -x)
            right = (-1.0) ** (n + m) * pattern_function(n, m, x)
            assert np.allclose(left, right, atol=1e-12)

    def test_bounded_through_index_40(self):
        x = np.linspace(-8.0, 8.0, 401)
        worst = 0.0
        for n in range(41):
            for m in {n, min(n + 1, 40), 40}:
                worst = max(worst, float(np.max(np.abs(pattern_function(n, m, x)))))
        assert np.isfinite(worst)
        assert worst < 50.0

    def test_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            pattern_function(3, 1, 0.0)

    def test_far_outside_table_raises(self):
        with pytest.raises(ExtrapolationError):
            pattern_function(0, 0, 50.0)


class TestEstimateElement:
    def test_vacuum_diagonal(self):
        data = sample_quadratures(make_fock(0, 16), 100_000, rng_from(17, 0))
        el = estimate_element(data, 0, 0)
        assert el.estimate.imag == 0.0
        assert abs(el.estimate.real - 1.0) < 3.0 * el.stderr

    def test_orthogonal_element_is_zero(self):
        data = sample_quadratures(make_fock(1, 16), 100_000, rng_from(17, 1))
        el = estimate_element(data, 0, 0)
        assert abs(el.estimate.real) < 3.0 * el.stderr

    def test_thermal_diagonal(self):
        data = sample_quadratures(make_thermal(2.0, 64), 24_000, rng_from(17, 2))
        el = estimate_element(data, 2, 0)
        assert abs(el.estimate.real - 4.0 / 27.0) < 3.0 * el.stderr
        assert el.n_samples == 24_000

    def test_coherent_off_diagonal(self):
        data = sample_quadratures(make_coherent(1.0, 32), 100_000, rng_from(17, 3))
        el = estimate_element(data, 0, 1)
        assert abs(el.estimate.real - np.exp(-1.0)) < 3.0 * el.stderr
        assert abs(el.estimate.imag) < 3.0 * el.stderr

    def test_complex_amplitude_phase_convention(self):
        """<0|rho|1> of a coherent state is e^{-|a|^2} * conj(a): the sign of

        the phase factor in the estimator is observable here.
        """
        alpha = 0.6 + 0.8j
        rho = strip_law(make_coherent(alpha, 32))
        data = sample_quadratures(rho, 60_000, rng_from(17, 4))
        el = estimate_element(data, 0, 1)
        want = np.exp(-1.0) * np.conj(alpha)
        assert abs(el.estimate.real - want.real) < 3.0 * el.stderr
        assert abs(el.estimate.imag - want.imag) < 3.0 * el.stderr

    def test_phase_invariant_state_has_zero_off_diagonals(self):
        data = sample_quadratures(make_thermal(2.0, 64), 24_000, rng_from(17, 2))
        el = estimate_element(data, 0, 2)
        assert abs(el.estimate.real) < 3.0 * el.stderr
        assert abs(el.estimate.imag) < 3.0 * el.stderr

    def test_deterministic_estimates(self):
        runs = []
        for _ in range(2):
            data = sample_quadratures(make_thermal(1.0, 32), 4000, rng_from(17, 16))
            runs.append(estimate_element(data, 1, 0))
        assert runs[0].estimate == runs[1].estimate
        assert runs[0].stderr == runs[1].stderr

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            estimate_element(QuadratureData(np.array([0.1]), np.array([0.2])), 0, 0)
        data = sample_quadratures(make_fock(0, 8), 100, rng_from(17, 17))
        with pytest.raises(ValueError):
            estimate_element(data, -1, 0)
        with pytest.raises(ValueError):
            estimate_element(data, 0, -1)


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
            kernel = pattern_function(n, n + d, data.x)
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

