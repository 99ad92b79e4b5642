"""Compensation series, error propagation, and convergence verdicts."""
import math

import numpy as np
import pytest

from losscomp import (
    CompensationResult,
    MeasuredRay,
    apply_loss,
    convergence_scan,
    error_vs_eta,
    estimate_element,
    inverse_coefficient,
    invert_loss,
    make_coherent,
    make_thermal,
    measure_ray,
    sample_counts,
    sample_quadratures,
)
from losscomp.compensation import convergence_scans, errors_vs_eta
from losscomp.exceptions import NumericalSanityError
from losscomp.fock_core import DensityMatrix


def rng_from(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def ray(estimates, errors, n0=0, d=0):
    """Hand-built measured ray starting at (n0, n0+d)."""
    return MeasuredRay(n=n0, d=d, estimate=estimates, stderr=errors)


class TestCompensatedElement:
    """The series truncated at one index ``j_max``: the last point of a scan over ``[j_max]``."""

    def test_single_term_is_scaled_first_coefficient(self):
        coeffs = ray([0.37], [0.05], n0=2, d=1)
        _, value, error = convergence_scan(coeffs, 2, 1, 0.8, [0]).trace[-1]
        scale = 0.8 ** (-2.5)
        assert value == pytest.approx(0.37 * scale, rel=1e-12)
        assert error == pytest.approx(0.05 * scale, rel=1e-12)
        # at n = d = 0 the scale is 1 and the coefficient passes through
        _, value, error = convergence_scan(ray([0.37], [0.05]), 0, 0, 0.8, [0]).trace[-1]
        assert (value.real, error) == (0.37, 0.05)

    @pytest.mark.parametrize("j_max", [0, 3, 10, 100])
    def test_error_identity_at_half(self, j_max):
        # z = -1: every term contributes the same variance
        eps = 0.015
        coeffs = ray([0.0] * (j_max + 1), [eps] * (j_max + 1))
        *_, error = convergence_scan(coeffs, 0, 0, 0.5, [j_max]).trace[-1]
        assert error == pytest.approx(eps * math.sqrt(j_max + 1), rel=1e-14)

    def test_exact_coefficients_recover_signal_element(self):
        rho_meas = apply_loss(make_thermal(2.0, 64), 0.6)
        coeffs = measure_ray(rho_meas, 2, 0, 40)
        _, value, error = convergence_scan(coeffs, 2, 0, 0.6, [40]).trace[-1]
        assert error == 0.0
        assert value.real == pytest.approx(4.0 / 27.0, abs=1e-10)

    def test_matches_matrix_inversion(self):
        """The series with exact coefficients is the same sum invert_loss

        does internally, so the two must agree to roundoff.
        """
        rho_meas = apply_loss(make_thermal(2.0, 64), 0.6)
        inverted = invert_loss(rho_meas, 0.6, 40).state
        for n, d in [(0, 0), (2, 0), (1, 2)]:
            coeffs = measure_ray(rho_meas, n, d, 40)
            _, value, _ = convergence_scan(coeffs, n, d, 0.6, [40]).trace[-1]
            assert abs(value - inverted.element(n, n + d)) < 1e-10

    def test_missing_coefficient_rejected(self):
        coeffs = ray([1.0, 0.5], [0.1, 0.1])
        with pytest.raises(ValueError, match=r"element \(2, 2\)"):
            convergence_scan(coeffs, 0, 0, 0.8, [5])
        with pytest.raises(ValueError, match=r"element \(1, 2\)"):
            convergence_scan(coeffs, 1, 1, 0.8, [1])  # wrong ray entirely

    def test_imaginary_residue_on_diagonal_raises(self):
        coeffs = ray([0.5 + 0.1j], [0.05])
        with pytest.raises(NumericalSanityError):
            convergence_scan(coeffs, 0, 0, 0.8, [0])


def batch_sources(kind, d):
    """Three different sources of one kind that reach ray ``(1, 1 + d)`` up to j = 12."""
    states = [apply_loss(signal, 0.7)
              for signal in (make_thermal(0.8, 24), make_coherent(0.9 + 0.4j, 24),
                             make_thermal(2.5, 24))]
    if kind == "density":
        return states
    rngs = [rng_from(47, d, k) for k in range(3)]
    if kind == "counts":
        return [sample_counts(rho, 3000, rng) for rho, rng in zip(states, rngs)]
    data = [sample_quadratures(rho, 3000, rng) for rho, rng in zip(states, rngs)]
    if kind == "quadratures":
        return data
    return [estimate_element(x, 0, d, 14) for x in data]   # rays starting one index early


def outcome(call):
    """``repr`` of what ``call()`` returns, or the text of the ValueError it raises."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"ValueError: {exc}"


def one_dimensional(scan, source, n, d, eta, j_list):
    """One source's trace (or error list) with its partial sums taken along a 1-d array."""
    ray = measure_ray(source, n, d, j_list[-1])
    j = np.arange(j_list[-1] + 1)
    if scan is error_vs_eta:
        return np.sqrt(np.cumsum((1.0 - 1.0 / eta) ** (2 * j) * ray.stderr**2))[j_list].tolist()
    weights = inverse_coefficient(n, d, j, eta)
    values = np.cumsum(weights * ray.estimate)[j_list]
    errors = np.sqrt(np.cumsum(weights**2 * ray.stderr**2))[j_list]
    return [(jm, complex(v.real, 0.0) if d == 0 else complex(v), float(e))
            for jm, v, e in zip(j_list, values, errors)]


class TestBatchScans:
    """A batch gives each source's scan alone, bit for bit, whatever the source kind."""

    GRID = [0, 1, 3, 7, 12]

    def together_and_alone(self, scan, batch, sources, d):
        together = outcome(lambda: batch(sources, 1, d, 0.55, self.GRID))
        alone = [outcome(lambda s=s: scan(s, 1, d, 0.55, self.GRID)) for s in sources]
        return together, alone

    @pytest.mark.parametrize("kind", ["quadratures", "counts", "density", "ray"])
    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("scan,batch", [(convergence_scan, convergence_scans),
                                            (error_vs_eta, errors_vs_eta)])
    def test_batch_equals_each_source_alone(self, scan, batch, kind, d):
        sources = batch_sources(kind, d)
        together, alone = self.together_and_alone(scan, batch, sources, d)
        if kind == "counts" and d:  # photocounting cannot reach an off-diagonal ray
            assert {together, *alone} == {
                "ValueError: photocounting only measures diagonal elements"}
        else:
            assert together == "[" + ", ".join(alone) + "]"
            got = batch(sources, 1, d, 0.55, self.GRID)
            rows = [r.trace for r in got] if batch is convergence_scans else got
            assert repr(rows) == repr([one_dimensional(scan, s, 1, d, 0.55, self.GRID)
                                       for s in sources])

    def test_mixed_batch_equals_each_source_alone(self):
        sources = [batch_sources(kind, 0)[k]
                   for k, kind in enumerate(["quadratures", "counts", "density"])]
        sources.insert(1, batch_sources("ray", 0)[2])
        for scan, batch in [(convergence_scan, convergence_scans),
                            (error_vs_eta, errors_vs_eta)]:
            together, alone = self.together_and_alone(scan, batch, sources, 0)
            assert together == "[" + ", ".join(alone) + "]"

    def test_empty_batch(self):
        assert convergence_scans([], 0, 0, 0.6, [1, 2]) == []
        assert errors_vs_eta([], 0, 0, 0.6, [1, 2]) == []

    def test_first_source_with_a_residue_raises_its_message(self):
        """The middle source fails at j = 2 and the last at j = 0: the middle one raises,
        with the message it raises alone."""
        clean = ray([0.5, 0.2, 0.1], [0.05, 0.05, 0.05])
        middle = ray([0.5, 0.2, 0.1 + 0.3j], [0.05, 0.05, 0.05])
        last = ray([0.5 + 0.7j, 0.2, 0.1], [0.05, 0.05, 0.05])
        messages = []
        for call in [lambda: convergence_scan(middle, 0, 0, 0.8, [0, 1, 2]),
                     lambda: convergence_scan(last, 0, 0, 0.8, [0, 1, 2]),
                     lambda: convergence_scans([clean, middle, last], 0, 0, 0.8, [0, 1, 2])]:
            with pytest.raises(NumericalSanityError) as raised:
                call()
            messages.append(str(raised.value))
        assert messages == ["diagonal estimate has imaginary residue 0.0187",
                            "diagonal estimate has imaginary residue 0.7",
                            "diagonal estimate has imaginary residue 0.0187"]


class TestVerdicts:
    def test_converged(self):
        # z = -0.5 at eta = 2/3; tail coefficients negligible
        coeffs = ray([1.0, 0.001, 0.001], [1.0, 0.01, 0.01])
        res = convergence_scan(coeffs, 0, 0, 2.0 / 3.0, [0, 1, 2])
        assert res.verdict == "converged"

    def test_diverging(self):
        # error grows sqrt(91) ~ 9.5x and values swing far outside it
        coeffs = ray([0.0, 10.0, -10.0], [1.0, 3.0, 9.0])
        res = convergence_scan(coeffs, 0, 0, 0.5, [0, 1, 2])
        assert res.verdict == "diverging"

    def test_marginal(self):
        # values disagree but the error only grew sqrt(3) < 3x
        coeffs = ray([0.0, 5.0, -5.0], [1.0, 1.0, 1.0])
        res = convergence_scan(coeffs, 0, 0, 0.5, [0, 1, 2])
        assert res.verdict == "marginal"

    def test_exact_scan_converges_despite_zero_error(self):
        rho_meas = apply_loss(make_thermal(2.0, 64), 0.6)
        res = convergence_scan(rho_meas, 2, 0, 0.6, range(1, 41))
        assert res.verdict == "converged"
        assert res.trace[-1][1].real == pytest.approx(4.0 / 27.0, abs=1e-10)
        assert all(e == 0.0 for _, _, e in res.trace)


class TestConvergenceScan:
    def test_homodyne_above_half_converges_to_truth(self):
        dressed = apply_loss(make_thermal(2.0, 64), 0.6)
        data = sample_quadratures(dressed, 24_000, rng_from(31, 0))
        res = convergence_scan(data, 2, 0, 0.6, range(1, 21))
        assert res.verdict == "converged"
        _, value, error = res.trace[-1]
        assert abs(value.real - 4.0 / 27.0) < 3.0 * error

    def test_homodyne_at_half_diverges(self):
        dressed = apply_loss(make_thermal(2.0, 64), 0.5)
        data = sample_quadratures(dressed, 24_000, rng_from(31, 1))
        res = convergence_scan(data, 2, 0, 0.5,
                               list(range(1, 21)) + list(range(25, 101, 5)))
        assert res.verdict == "diverging"
        assert res.trace[-1][2] / res.trace[0][2] > 100.0

    def test_direct_detection_below_half_converges(self):
        """Counting the diagonal keeps compensation usable at eta < 1/2,

        where the homodyne scan above has already blown up.
        """
        dressed = apply_loss(make_thermal(2.0, 64), 0.45)
        hist = sample_counts(dressed, 24_000, rng_from(31, 2))
        res = convergence_scan(hist, 2, 0, 0.45, range(1, 41))
        assert res.verdict == "converged"
        _, value, error = res.trace[-1]
        assert abs(value.real - 4.0 / 27.0) < 3.0 * error

    def test_error_monotone_along_trace(self):
        dressed = apply_loss(make_thermal(2.0, 64), 0.6)
        data = sample_quadratures(dressed, 8000, rng_from(31, 4))
        res = convergence_scan(data, 2, 0, 0.6, [1, 2, 5, 10, 20])
        errors = [e for _, _, e in res.trace]
        assert all(b >= a for a, b in zip(errors, errors[1:]))
        assert [j for j, _, _ in res.trace] == [1, 2, 5, 10, 20]

    def test_result_fields(self):
        res = convergence_scan(make_thermal(1.0, 32), 1, 1, 0.9, [0, 1, 2])
        assert isinstance(res, CompensationResult)
        assert len(res.trace) == 3

    @pytest.mark.parametrize("bad", [[], [2, 1, 3], [1, 1, 2], [-1, 0, 1], [2.5, 10],
                                     [True, 3]])
    def test_rejects_bad_truncation_lists(self, bad):
        with pytest.raises(ValueError):
            convergence_scan(make_thermal(1.0, 16), 0, 0, 0.9, bad)


class TestMeasureRay:
    def test_homodyne_source(self):
        data = sample_quadratures(make_thermal(1.0, 32), 2000, rng_from(31, 5))
        got = measure_ray(data, 1, 1, 4)
        assert (got.n, got.d) == (1, 1)
        assert got.estimate.shape == got.stderr.shape == (5,)
        el = estimate_element(data, 3, 1)
        assert (got.estimate[2], got.stderr[2]) == (el.estimate[0], el.stderr[0])

    def test_exact_source_has_zero_errors(self):
        rho = make_thermal(2.0, 64)
        got = measure_ray(rho, 0, 0, 3)
        assert list(got.stderr) == [0.0] * 4
        assert got.estimate[2] == rho.element(2, 2)

    def test_histogram_source_diagonal_only(self):
        hist = sample_counts(make_thermal(1.0, 32), 1000, rng_from(31, 6))
        got = measure_ray(hist, 2, 0, 5)
        assert got.n == 2
        assert np.array_equal(got.estimate, hist.counts[2:8] / 1000)
        with pytest.raises(ValueError):
            measure_ray(hist, 0, 1, 5)

    def test_ray_source_sliced_and_bad_type(self):
        got = measure_ray(ray([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4], n0=1), 2, 0, 1)
        assert (got.n, got.d) == (2, 0)
        assert list(got.estimate) == [2.0, 3.0]
        assert list(got.stderr) == [0.2, 0.3]
        with pytest.raises(TypeError):
            measure_ray({"not": "a source"}, 0, 0, 0)

    @pytest.mark.parametrize("source", [
        make_thermal(2.0, 8),
        sample_counts(make_thermal(2.0, 8), 100, rng_from(31, 7)),
        ray([0.5] * 8, [0.1] * 8),
    ], ids=["exact", "histogram", "ray"])
    def test_short_source_names_missing_element(self, source):
        with pytest.raises(ValueError, match=r"element \(8, 8\)"):
            measure_ray(source, 2, 0, 10)


class TestErrorVsEta:
    def flat_ray(self, j_top, eps=1.0):
        return ray([0.0] * (j_top + 1), [eps] * (j_top + 1))

    def test_error_ratio_at_half(self):
        at_10, at_100 = error_vs_eta(self.flat_ray(100), 0, 0, 0.5, [10, 100])
        assert at_100 / at_10 == pytest.approx(math.sqrt(101.0 / 11.0), rel=1e-12)
        assert at_10 == pytest.approx(math.sqrt(11.0), rel=1e-12)

    def test_above_half_truncation_independent(self):
        errs = error_vs_eta(self.flat_ray(100), 0, 0, 0.7, [10, 20, 100])
        assert max(errs) / min(errs) < 1.05

    def test_below_half_grows_without_bound(self):
        at_10, at_100 = error_vs_eta(self.flat_ray(100), 0, 0, 0.4, [10, 100])
        assert at_100 / at_10 > 10.0

    def test_grid_order_and_shape(self):
        # one float per j_M, in j_list order: z^2 = 4/9 at eta 0.6
        errs = error_vs_eta(self.flat_ray(4), 0, 0, 0.6, [2, 4])
        assert all(type(e) is float for e in errs)
        assert errs == pytest.approx(
            [math.sqrt(sum((4 / 9) ** j for j in range(top + 1))) for top in (2, 4)],
            rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, -0.3, 1.2])
    def test_rejects_bad_efficiency(self, eta):
        with pytest.raises(ValueError):
            error_vs_eta(self.flat_ray(3), 0, 0, eta, [3])

    @pytest.mark.parametrize("j_list", [[5, -1], [3, 1]])
    def test_rejects_bad_truncation_list(self, j_list):
        with pytest.raises(ValueError, match="strictly ascending"):
            error_vs_eta(self.flat_ray(5), 0, 0, 0.7, j_list)


def test_transition_in_propagated_error_series():
    """Partial sums of z^{2j} (2/N) settle only above eta = 1/2: at 0.5 the

    growth is exactly linear in the number of terms, below it geometric.
    """
    n_samples = 8000
    var = 2.0 / n_samples

    def partial(eta, terms):
        q = (1.0 - 1.0 / eta) ** 2
        return var * math.fsum(q**j for j in range(terms))

    assert partial(0.55, 400) - partial(0.55, 200) < 1e-30
    assert partial(0.5, 400) - partial(0.5, 200) == pytest.approx(200 * var, rel=1e-12)
    assert partial(0.45, 400) - partial(0.45, 200) > 1e30 * var


def test_direct_detection_errors_converge_below_half():
    # binomial errors fall off along the thermal ray, so the propagated
    # series settles at eta = 0.45 even though the homodyne one cannot
    p = [0.4545 * (1.2 / 2.2) ** j for j in range(200)]
    eps = [math.sqrt(pj * (1 - pj) / 8000.0) for pj in p]
    coeffs = ray(p, eps)
    errs = error_vs_eta(coeffs, 0, 0, 0.45, [50, 100, 199])
    assert errs[-1] / errs[0] < 1.001


def test_cross_trial_spread_within_factor_two_of_propagated():
    """The propagated error treats same-dataset coefficients as if they

    were independent; the actual trial-to-trial spread must still land
    within a factor of two of it.
    """
    dressed = apply_loss(make_thermal(2.0, 64), 0.6)
    rng = rng_from(31, 3)
    values, propagated = [], []
    for _ in range(100):
        data = sample_quadratures(dressed, 8000, rng)
        _, value, error = convergence_scan(measure_ray(data, 0, 0, 20), 0, 0, 0.6, [20]).trace[-1]
        values.append(value.real)
        propagated.append(error)
    ratio = np.std(values, ddof=1) / np.mean(propagated)
    assert 0.5 < ratio < 2.0
