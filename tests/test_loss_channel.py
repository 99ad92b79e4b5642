"""Loss-channel forward map, series inversion, and convergence diagnostics."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from losscomp import (
    DensityMatrix,
    analytic_threshold,
    apply_loss,
    decay_ratio,
    inverse_coefficient,
    invert_loss,
    make_coherent,
    make_fock,
    make_thermal,
)
from losscomp import loss_channel
from losscomp.exceptions import NoConvergenceError, UndefinedRatioError
from losscomp.loss_channel import _ray_weights


def brute_force_coefficient(n, d, j, eta):
    """Exact-arithmetic reference for the series weight A_j(n, d, eta).

    The squared factorial ratio is an exact integer, so the only rounding
    happens in one square root and one power.
    """
    f = math.factorial
    ratio = (f(n + j) // f(n)) * (f(n + d + j) // f(n + d))
    return eta ** (-(2 * n + d) / 2) * math.sqrt(ratio) / f(j) * (1 - 1 / eta) ** j


class TestInverseCoefficient:
    def test_hand_evaluated_value(self):
        # eta = 1/2: 2 * sqrt(3! 3!) / (sqrt(1) * 2!) * (-1)^2 = 2 * 3 = 6
        assert inverse_coefficient(1, 0, 2, 0.5) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("j", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9])
    def test_vacuum_ray_collapses_to_geometric(self, j, eta):
        z = 1.0 - 1.0 / eta
        assert inverse_coefficient(0, 0, j, eta) == pytest.approx(z**j, rel=1e-12)

    def test_unit_efficiency(self):
        assert inverse_coefficient(3, 2, 0, 1.0) == pytest.approx(1.0)
        assert inverse_coefficient(3, 2, 4, 1.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("j", [0, 1, 3, 7, 12])
    def test_against_brute_force(self, n, d, j):
        for eta in (0.5, 0.8):
            want = brute_force_coefficient(n, d, j, eta)
            assert inverse_coefficient(n, d, j, eta) == pytest.approx(want, rel=1e-12)

    def test_sign_alternates_in_j(self):
        values = [inverse_coefficient(2, 1, j, 0.6) for j in range(9)]
        for j, v in enumerate(values):
            assert v != 0.0
            assert math.copysign(1.0, v) == (-1.0) ** j

    def test_is_a_row_of_the_ray_weights(self):
        """Series and matrix inversion share one weight formula, bit for bit."""
        for n, d in [(0, 0), (2, 0), (0, 2), (3, 0), (2, 1), (5, 3)]:
            for eta in (0.42, 0.5, 0.6, 0.9, 1.0):
                row = _ray_weights(n + 41, d, 1.0 / eta)[n, n:]
                assert np.array_equal(inverse_coefficient(n, d, np.arange(41), eta), row)
                assert [inverse_coefficient(n, d, j, eta) for j in range(41)] == list(row)

    def test_ray_weights_past_the_float_range_of_a_binomial(self, monkeypatch):
        """C(1099, 549) overflows a float; the weights built from it do not."""
        L, g = 1100, 0.6
        lg = np.array([math.lgamma(i + 1.0) for i in range(L)])
        n, k = np.triu_indices(L)
        j = k - n
        want = np.exp(n * math.log(g) + j * math.log(1.0 - g) + lg[k] - lg[n] - lg[j])
        monkeypatch.setattr(loss_channel, "_BINOMIALS", (np.ones((1, 1)), np.zeros((1, 1), int)))
        monkeypatch.setattr(loss_channel, "_PASCAL_ROW", [1])
        before = _ray_weights(40, 3, 1.0 / 0.55)
        w = _ray_weights(L, 0, g)
        assert loss_channel._BINOMIALS[0].shape == (L, L)
        assert np.all(np.isfinite(w)) and np.all(np.tril(w, -1) == 0.0)
        normal = want > 1e-300
        assert np.max(np.abs(w[n, k][normal] / want[normal] - 1.0)) < 1e-10
        assert np.max(np.abs(w[n, k][~normal])) < 1e-290
        assert _ray_weights(40, 3, 1.0 / 0.55).tobytes() == before.tobytes()

    def test_ray_weights_past_the_normal_range_raise(self):
        """At g = 1/sqrt(2) the product under the root is about 2^-n, normal to n = 1022."""
        g, L = 2**-0.5, loss_channel._DIM_LIMIT
        w = _ray_weights(L, 0, g)
        assert np.all(np.isfinite(w)) and w[-1, -1] == pytest.approx(g**1022, rel=1e-12)
        for L in (loss_channel._DIM_LIMIT + 1, 1100):
            with pytest.raises(ValueError, match="float range"):
                _ray_weights(L, 0, g)

    def test_weights_whose_square_overflows_raise(self):
        """At eta = 0.05, A_j(2, 0)^2 leaves the float range from j = 116 (A_j itself at 236)."""
        assert np.isfinite(inverse_coefficient(2, 0, 115, 0.05) ** 2)
        for j, first in [(116, 116), (236, 236), (np.arange(300), 116)]:
            with pytest.raises(ValueError, match=f"j = {first} leaves the float range at "
                                                 "efficiency 0.05"):
                inverse_coefficient(2, 0, j, 0.05)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            inverse_coefficient(0, 0, 1, 0.0)
        with pytest.raises(ValueError):
            inverse_coefficient(0, 0, 1, 1.2)
        with pytest.raises(ValueError):
            inverse_coefficient(-1, 0, 1, 0.5)
        with pytest.raises(ValueError):
            inverse_coefficient(0, 0, -1, 0.5)
        with pytest.raises(ValueError):
            inverse_coefficient(0, 0, np.array([0, 1, -1]), 0.5)


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self):
        rho = make_coherent(0.8 + 0.3j, 32)
        out = apply_loss(rho, 1.0)
        assert np.allclose(out.elements, rho.elements, atol=1e-15)

    def test_single_photon_becomes_binomial(self):
        """One photon survives with probability eta, else drops to vacuum."""
        out = apply_loss(make_fock(1, 8), 0.35)
        want = np.zeros((8, 8))
        want[0, 0], want[1, 1] = 0.65, 0.35
        assert np.allclose(out.elements, want, atol=1e-12)

    def test_thermal_maps_to_damped_thermal(self):
        out = apply_loss(make_thermal(2.0, 64), 0.5)
        ref = make_thermal(1.0, 64)
        assert np.max(np.abs(out.elements - ref.elements)) < 1e-10

    @pytest.mark.parametrize("eta", [0.9, 0.6, 0.3])
    def test_thermal_covariance_at_any_efficiency(self, eta):
        out = apply_loss(make_thermal(2.0, 64), eta)
        ref = make_thermal(2.0 * eta, 64)
        assert np.max(np.abs(out.elements - ref.elements)) < 1e-10

    @pytest.mark.parametrize("rho", [make_thermal(2.0, 64), make_coherent(1.0, 48)],
                             ids=["thermal", "coherent"])
    def test_semigroup_composition(self, rho):
        twice = apply_loss(apply_loss(rho, 0.8), 0.75)
        once = apply_loss(rho, 0.6)
        assert np.max(np.abs(twice.elements - once.elements)) < 1e-10

    def test_trace_preserved_within_tail(self):
        rho = make_thermal(2.0, 64)
        out = apply_loss(rho, 0.55)
        drop = abs(np.trace(rho.elements) - np.trace(out.elements))
        assert drop < rho.tail_bound + 1e-12

    def test_hermitian_output(self):
        out = apply_loss(make_coherent(0.6 + 0.9j, 40), 0.5)
        assert np.allclose(out.elements, out.elements.conj().T, atol=1e-14)

    def test_law_propagation(self):
        thermal = apply_loss(make_thermal(2.0, 64), 0.5)
        assert thermal.quadrature_law.variance == pytest.approx(
            0.25 + 0.5 * (1.25 - 0.25))
        coherent = apply_loss(make_coherent(1.0, 32), 0.49)
        assert coherent.quadrature_law.mean_amplitude == pytest.approx(0.7)
        assert coherent.quadrature_law.variance == pytest.approx(0.25)
        assert apply_loss(make_fock(3, 16), 0.5).quadrature_law is None

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_rejects_bad_efficiency(self, eta):
        with pytest.raises(ValueError):
            apply_loss(make_fock(0, 4), eta)


class TestInvertLoss:
    def test_unit_efficiency_is_identity(self):
        rho = make_coherent(0.8 + 0.3j, 32)
        res = invert_loss(rho, 1.0, 5)
        assert np.allclose(res.state.elements, rho.elements, atol=1e-15)
        assert res.last_term.max() < 1e-15

    def test_round_trip(self):
        rho = make_thermal(2.0, 64)
        back = invert_loss(apply_loss(rho, 0.8), 0.8, j_max=64).state
        assert np.max(np.abs(back.elements - rho.elements)) < 1e-8

    def test_round_trip_coherent(self):
        rho = make_coherent(1.0, 64)
        back = invert_loss(apply_loss(rho, 0.7), 0.7, j_max=64).state
        assert np.max(np.abs(back.elements - rho.elements)) < 1e-8

    def test_deep_series_above_dressed_threshold(self):
        """eta = 0.45 sits above the dressed-state threshold, so a long

        truncation recovers the signal; roundoff grows with the largest
        intermediate term, hence the looser bound here than at eta = 0.8.
        """
        rho = make_thermal(2.0, 64)
        res = invert_loss(apply_loss(rho, 0.45), 0.45, j_max=200)
        assert np.max(np.abs(res.state.elements - rho.elements)) < 1e-5
        assert res.last_term[0, 0] < 1e-20

    def test_divergence_reported_not_raised(self):
        # below the dressed threshold of 2/9 the series blows up, but the
        # call still returns finite numbers plus a growing diagnostic
        meas = apply_loss(make_thermal(2.0, 64), 0.2)
        res = invert_loss(meas, 0.2, 25)
        assert np.all(np.isfinite(res.state.elements))
        assert np.all(np.isfinite(res.last_term))

    def test_last_term_grows_when_divergent(self):
        # stay at j <= 25: past j ~ 30 the 64-level truncation starves the
        # high end of the dressed diagonal and the diagnostic turns over
        meas = apply_loss(make_thermal(2.0, 64), 0.2)
        terms = [invert_loss(meas, 0.2, j).last_term[0, 0] for j in (10, 15, 20, 25)]
        assert terms[0] > 1.0
        assert all(b > a for a, b in zip(terms, terms[1:]))

    def test_last_term_shrinks_when_convergent(self):
        meas = apply_loss(make_thermal(2.0, 64), 0.45)
        terms = [invert_loss(meas, 0.45, j).last_term[0, 0] for j in (10, 20, 30)]
        assert all(b < a for a, b in zip(terms, terms[1:]))
        assert terms[-1] < 1e-7

    def test_diagnostic_shape(self):
        res = invert_loss(make_thermal(1.0, 16), 0.9, 4)
        assert res.last_term.shape == (16, 16)
        assert np.all(res.last_term >= 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            invert_loss(make_fock(0, 4), 0.0, 3)
        with pytest.raises(ValueError):
            invert_loss(make_fock(0, 4), 0.5, -1)


class TestDecayRatio:
    def test_thermal_main_diagonal(self):
        assert decay_ratio(make_thermal(2.0, 64), 0, 0) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_thermal_shifted_ray(self):
        # thermal diagonals stay geometric from any starting index
        got = decay_ratio(make_thermal(1.2, 64), 2, 0)
        assert got == pytest.approx(1.2 / 2.2, abs=1e-9)

    def test_vacuum_ray_is_undefined(self):
        with pytest.raises(UndefinedRatioError):
            decay_ratio(make_fock(0, 8), 0, 0)

    def test_ray_outside_truncation(self):
        with pytest.raises(ValueError):
            decay_ratio(make_thermal(1.0, 8), 6, 3)


class TestAnalyticThreshold:
    @pytest.mark.parametrize("r,want", [(2.0 / 3.0, 0.4), (0.0, 0.0), (0.5, 1.0 / 3.0)])
    def test_values(self, r, want):
        assert analytic_threshold(r) == pytest.approx(want, abs=1e-12)

    def test_no_finite_threshold_at_unit_ratio(self):
        with pytest.raises(NoConvergenceError):
            analytic_threshold(1.0)
        with pytest.raises(NoConvergenceError):
            analytic_threshold(1.3)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            analytic_threshold(-0.1)

    def test_threshold_brackets_numerical_convergence(self):
        """For r = 1/2 the threshold is 1/3: the geometric proxy series

        converges just above it and blows up just below it.
        """
        r = 0.5
        assert analytic_threshold(r) == pytest.approx(1.0 / 3.0)
        j = np.arange(2001)
        q_above = abs(1.0 - 1.0 / 0.34) * r
        total = np.sum(q_above**j)
        assert q_above < 1.0
        assert total == pytest.approx(1.0 / (1.0 - q_above), rel=1e-12)
        q_below = abs(1.0 - 1.0 / 0.32) * r
        assert q_below > 1.0
        assert np.sum(q_below**j) > 1e50


PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def mixtures(draw, max_dim=32):
    """A random mixture of a thermal, a coherent and a Fock state."""
    dim = draw(st.integers(2, max_dim))
    parts = [
        make_thermal(draw(st.floats(0.0, 3.0)), dim),
        make_coherent(draw(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                              allow_infinity=False)), dim),
        make_fock(draw(st.integers(0, dim - 1)), dim),
    ]
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
    w /= w.sum()
    return DensityMatrix(dim, sum(wk * p.elements for wk, p in zip(w, parts)),
                         tail_bound=sum(wk * p.tail_bound for wk, p in zip(w, parts)))


class TestProperties:
    @staticmethod
    def assert_round_trip(rho, eta):
        back = invert_loss(apply_loss(rho, eta), eta, rho.dim).state
        assert np.max(np.abs(back.elements - rho.elements)) < 1e-8  # AC-1's tolerance

    @PROPERTY
    @given(rho=mixtures(max_dim=24), eta=st.floats(0.55, 1.0))
    def test_inversion_undoes_loss(self, rho, eta):
        self.assert_round_trip(rho, eta)

    @PROPERTY
    @given(rho=mixtures(max_dim=32), eta=st.floats(0.55, 1.0))
    @example(rho=make_fock(31, 32), eta=0.55)
    def test_inversion_undoes_loss_through_dim_32(self, rho, eta):
        self.assert_round_trip(rho, eta)

    @PROPERTY
    @given(rho=mixtures(), eta=st.floats(0.0, 1.0, exclude_min=True))
    def test_forward_map_keeps_trace_and_positivity(self, rho, eta):
        out = apply_loss(rho, eta)
        assert abs(out.trace - rho.trace) <= rho.tail_bound + 1e-12
        assert np.min(np.linalg.eigvalsh(out.elements)) >= -1e-12
