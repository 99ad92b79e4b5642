"""Photon-counting statistics and the binomial error model."""
import numpy as np
import pytest

from losscomp import (
    CountHistogram,
    apply_loss,
    estimate_element,
    estimate_probabilities,
    make_fock,
    make_thermal,
    sample_counts,
    sample_quadratures,
)
from losscomp.exceptions import NumericalSanityError
from losscomp.fock_core import DensityMatrix


def rng_from(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


class TestSampleCounts:
    def test_damped_single_photon_is_binomial(self):
        rho = apply_loss(make_fock(1, 8), 0.35)
        hist = sample_counts(rho, 20_000, rng_from(23, 0))
        freq = hist.counts / hist.n_samples
        sigma = np.sqrt(0.35 * 0.65 / 20_000)
        assert abs(freq[0] - 0.65) < 3.0 * sigma
        assert abs(freq[1] - 0.35) < 3.0 * sigma
        assert hist.counts[2:].sum() == 0

    def test_vacuum_all_counts_in_first_bin(self):
        hist = sample_counts(make_fock(0, 8), 5000, rng_from(23, 6))
        assert hist.counts[0] == 5000
        assert hist.n_samples == 5000

    def test_thermal_vacuum_frequency(self):
        hist = sample_counts(make_thermal(1.2, 64), 100_000, rng_from(23, 1))
        p0 = 1.0 / 2.2
        se = np.sqrt(p0 * (1.0 - p0) / 100_000)
        assert abs(hist.counts[0] / 100_000 - p0) < 3.0 * se

    def test_deterministic_given_seed(self):
        a = sample_counts(make_thermal(0.8, 32), 1000, rng_from(23, 7))
        b = sample_counts(make_thermal(0.8, 32), 1000, rng_from(23, 7))
        assert np.array_equal(a.counts, b.counts)

    def test_counts_conserved(self):
        hist = sample_counts(make_thermal(2.0, 64), 4321, rng_from(23, 8))
        assert hist.counts.sum() == 4321

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            sample_counts(make_fock(0, 4), 0, rng_from(0))

    def test_undeclared_missing_mass_raises(self):
        # diagonal sums to 0.95 but the state declares no tail
        rho = DensityMatrix(4, np.diag([0.5, 0.3, 0.15, 0.0]).astype(complex))
        with pytest.raises(NumericalSanityError):
            sample_counts(rho, 100, rng_from(0))


class TestEstimateProbabilities:
    def test_frequencies_sum_to_one(self):
        hist = sample_counts(make_thermal(1.2, 64), 8000, rng_from(23, 9))
        ray = estimate_probabilities(hist)
        assert ray.estimate.real.sum() == pytest.approx(1.0, abs=1e-12)
        assert (ray.n, ray.d) == (0, 0)
        assert ray.estimate.shape == ray.stderr.shape == (64,)

    def test_error_formula_value(self):
        ray = estimate_probabilities(CountHistogram(np.array([4000, 4000])))
        assert ray.estimate[0].real == 0.5
        assert ray.stderr[0] == pytest.approx(np.sqrt(0.25 / 8000), abs=1e-15)
        assert ray.stderr[0] == pytest.approx(5.59016994e-3, abs=1e-9)

    def test_degenerate_bins_have_zero_error(self):
        ray = estimate_probabilities(CountHistogram(np.array([100, 0, 0])))
        assert list(ray.estimate.real) == [1.0, 0.0, 0.0]
        assert list(ray.stderr) == [0.0, 0.0, 0.0]
        mixed = estimate_probabilities(CountHistogram(np.array([60, 40])))
        assert np.all(mixed.stderr > 0.0)

    def test_squared_error_vanishes_linearly_with_probability(self):
        """At small p the binomial error collapses to sqrt(p/N): the error

        *shrinks* with the signal instead of saturating like homodyne.
        """
        hist = sample_counts(make_thermal(1.2, 64), 100_000, rng_from(23, 2))
        ray = estimate_probabilities(hist)
        for j in range(8, 13):
            p = ray.estimate[j].real
            if p > 0.0:
                ratio = 100_000 * ray.stderr[j] ** 2 / p
                assert ratio == pytest.approx(1.0, rel=0.15)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            estimate_probabilities(CountHistogram(np.array([0, 0, 0])))


def test_two_sigma_coverage():
    """Pooled over 500 seeded trials, p +- 2 eps covers the truth at the

    binomial nominal rate (between 93% and 97%) for mid-range bins.
    """
    rho = make_thermal(1.2, 64)
    truth = rho.diagonal()
    watched = [j for j in range(64) if 0.05 <= truth[j] <= 0.95]
    rng = rng_from(23, 3)
    inside = total = 0
    for _ in range(500):
        ray = estimate_probabilities(sample_counts(rho, 8000, rng))
        for j in watched:
            total += 1
            if abs(ray.estimate[j].real - truth[j]) <= 2.0 * ray.stderr[j]:
                inside += 1
    assert 0.93 <= inside / total <= 0.97


def test_direct_errors_collapse_relative_to_homodyne():
    # same state, same budget: the error ratio falls off with the photon
    # index because the homodyne error saturates while the binomial one
    # tracks sqrt(p)
    rho = make_thermal(1.2, 64)
    ray = estimate_probabilities(sample_counts(rho, 8000, rng_from(23, 4)))
    data = sample_quadratures(rho, 8000, rng_from(23, 5))
    ratios = [ray.stderr[j] / estimate_element(data, j, 0).stderr for j in (0, 4, 8)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.1


class TestCountHistogram:
    def test_properties(self):
        hist = CountHistogram(np.array([3, 0, 7]))
        assert hist.n_samples == 10
        assert hist.dim == 3

    def test_accepts_lists(self):
        assert CountHistogram([1, 2, 3]).counts.dtype == np.int64

    def test_rejects_negative_or_multidim(self):
        with pytest.raises(ValueError):
            CountHistogram(np.array([1, -2, 3]))
        with pytest.raises(ValueError):
            CountHistogram(np.zeros((2, 2), dtype=int))
