"""Loss-channel forward map, series inversion, and convergence diagnostics."""
import hashlib
import math
import warnings
from unittest import mock

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
from losscomp.loss_channel import _weight_rays


def brute_force_coefficient(n, d, j, eta):
    """Exact-arithmetic reference for the series weight A_j(n, d, eta).

    The squared factorial ratio is an exact integer, so the only rounding
    happens in one square root and one power.
    """
    f = math.factorial
    ratio = (f(n + j) // f(n)) * (f(n + d + j) // f(n + d))
    return eta ** (-(2 * n + d) / 2) * math.sqrt(ratio) / f(j) * (1 - 1 / eta) ** j


def transform_weights(dim, d, g):
    """The weights ``_transform`` applies to ray ``d`` of a ``dim x dim`` state.

    ``W[n, k]`` (``k = n + j``) maps input ``k`` to output ``n`` along the ray.
    """
    nn = np.arange(dim)[:, None]
    return _weight_rays(nn, np.arange(dim) - nn, g, dim - 1)(d, dim - d)


def random_state(rng, dim):
    """A dense state ``a a^H / tr``, whose diagonal carries rounding-level imaginary parts."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(dim, rho / np.trace(rho).real)


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
                row = transform_weights(n + 41 + d, d, 1.0 / eta)[n, n:]
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
        before = transform_weights(43, 3, 1.0 / 0.55)
        w = transform_weights(L, 0, g)
        assert loss_channel._BINOMIALS[0].shape == (L, L)
        assert np.all(np.isfinite(w)) and np.all(np.tril(w, -1) == 0.0)
        normal = want > 1e-300
        assert np.max(np.abs(w[n, k][normal] / want[normal] - 1.0)) < 1e-10
        assert np.max(np.abs(w[n, k][~normal])) < 1e-290
        assert transform_weights(43, 3, 1.0 / 0.55).tobytes() == before.tobytes()

    def test_ray_weights_past_the_normal_range_raise(self):
        """At g = 1/sqrt(2) the product under the root is about 2^-n, normal to n = 1022."""
        g, L = 2**-0.5, loss_channel._DIM_LIMIT
        w = transform_weights(L, 0, g)
        assert np.all(np.isfinite(w)) and w[-1, -1] == pytest.approx(g**1022, rel=1e-12)
        for L in (loss_channel._DIM_LIMIT + 1, 1100):
            with pytest.raises(ValueError, match="float range"):
                transform_weights(L, 0, g)

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

    def test_kept_weights_past_the_float_range_raise(self):
        """A kept weight that overflows is named with its efficiency; zeroed ones past the cap pass."""
        damped = apply_loss(make_thermal(0.5, 300), 0.1)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(transform_weights(300, 0, 1.0 / 0.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(invert_loss(damped, 0.1, 4).state.elements))
            with pytest.raises(ValueError, match=r"A_j\(291, 0\) at j = 6 leaves the float "
                                                 r"range at efficiency 0\.1$"):
                invert_loss(damped, 0.1, 6)
            with pytest.raises(ValueError, match=r"at j = 10 leaves the float range at "
                                                 r"efficiency 0\.05$"):
                invert_loss(apply_loss(make_thermal(0.5, 300), 0.05), 0.05, 10)

    def test_zero_rays_with_kept_weights_past_the_float_range_raise(self):
        """An all-zero ray is not summed, but its kept weights are range-checked all the same."""
        off_diagonal = np.zeros((300, 300), dtype=complex)
        off_diagonal[0, 1] = off_diagonal[1, 0] = 0.5
        for elements in (np.zeros((300, 300)), off_diagonal):
            rho = DensityMatrix(300, elements)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.all(np.isfinite(invert_loss(rho, 0.1, 4).state.elements))
                with pytest.raises(ValueError, match=r"A_j\(291, 0\) at j = 6 leaves the float "
                                                     r"range at efficiency 0\.1$"):
                    invert_loss(rho, 0.1, 6)

    def test_dense_state_with_rounding_on_its_diagonal(self):
        """The weights (``eta^-n`` about 1e16 at n = 32) must not lift the diagonal's
        rounding-level imaginary parts past the Hermitian check."""
        rho = random_state(np.random.default_rng(7), 33)
        assert 0.0 < np.max(np.abs(np.diagonal(rho.elements).imag)) < 1e-18
        res = invert_loss(apply_loss(rho, 0.3), 0.3, 1)
        assert np.all(np.diagonal(res.state.elements).imag == 0.0)
        assert np.all(np.isfinite(res.state.elements))

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

    def test_nan_ratio_rejected(self):
        with pytest.raises(ValueError, match="decay ratio must be nonnegative"):
            analytic_threshold(float("nan"))

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


def test_transforms_keep_their_bytes():
    """The bytes of forward and inverse transforms of a coherent state and an even cat.

    The coherent state (dim 64) has every ray nonzero, the cat (alpha 1.5,
    dim 32) every odd ray zero; the efficiencies lie on both sides of 1/2.
    """
    even = np.arange(32) % 2 == 0
    cat = make_coherent(1.5, 32).elements * np.outer(even, even)
    digest = hashlib.sha256()
    for rho in (make_coherent(1 + 0.5j, 64), DensityMatrix(32, cat / np.trace(cat).real)):
        for eta in (0.4, 0.5, 0.6, 0.9):
            damped = apply_loss(rho, eta)
            digest.update(damped.elements.tobytes())
            for j_max in (6, 30):
                res = invert_loss(damped, eta, j_max)
                digest.update(res.state.elements.tobytes())
                digest.update(res.last_term.tobytes())
    assert digest.hexdigest()[:12] == "0440dd91adff"


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
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 33), eta=st.floats(0.3, 1.0),
           j_max=st.integers(0, 40))
    def test_transforms_give_an_exactly_real_diagonal(self, seed, dim, eta, j_max):
        damped = apply_loss(random_state(np.random.default_rng(seed), dim), eta)
        assert np.all(np.diagonal(damped.elements).imag == 0.0)
        back = invert_loss(damped, eta, j_max).state
        assert np.all(np.diagonal(back.elements).imag == 0.0)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), eta=st.floats(0.03, 1.0),
           j_cap=st.one_of(st.none(), st.integers(0, 40)), inverse=st.booleans())
    def test_skipped_zero_rays_keep_every_byte(self, seed, dim, eta, j_cap, inverse):
        """The transform with all-zero rays skipped equals the one that sums every ray."""
        rng = np.random.default_rng(seed)
        elements = random_state(rng, dim).elements
        for d in np.flatnonzero(rng.random(dim) < 0.7):
            elements[np.arange(dim - d), np.arange(d, dim)] = 0.0
            elements[np.arange(d, dim), np.arange(dim - d)] = 0.0
        rho, g = DensityMatrix(dim, elements), 1.0 / eta if inverse else eta

        def outcome():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    return b"".join(a.tobytes() for a in loss_channel._transform(rho, g, j_cap))
                except ValueError as error:
                    return str(error)

        skipped = outcome()
        with mock.patch.object(loss_channel, "_finite_rays", lambda D, g, j_cap: np.zeros(D, bool)):
            assert outcome() == skipped

    @PROPERTY
    @given(rho=mixtures(), eta=st.floats(0.0, 1.0, exclude_min=True))
    def test_forward_map_keeps_trace_and_positivity(self, rho, eta):
        out = apply_loss(rho, eta)
        assert abs(out.trace - rho.trace) <= rho.tail_bound + 1e-12
        assert np.min(np.linalg.eigvalsh(out.elements)) >= -1e-12
