import numpy as np
import pytest

from losscomp import (DensityMatrix, GaussianQuadratureLaw, StateSpec,
                      make_coherent, make_fock, make_thermal)


def test_thermal_diagonal_values():
    rho = make_thermal(2.0, 64)
    # p_n = nbar^n / (1+nbar)^(n+1)
    assert rho.element(0, 0).real == pytest.approx(1 / 3, rel=1e-14)
    assert rho.element(2, 2).real == pytest.approx(4 / 27, rel=1e-14)
    assert rho.tail_bound == pytest.approx((2 / 3) ** 64, rel=1e-12)
    assert np.all(np.abs(rho.elements - np.diag(rho.diagonal())) == 0)


def test_thermal_trace_accounts_for_tail():
    rho = make_thermal(2.0, 64)
    assert rho.trace == pytest.approx(1.0, abs=1e-11)
    assert 1.0 - rho.trace <= rho.tail_bound + 1e-15


def test_thermal_quadrature_law():
    rho = make_thermal(2.0, 32)
    assert isinstance(rho.quadrature_law, GaussianQuadratureLaw)
    assert rho.quadrature_law.variance == pytest.approx(1.25)
    assert rho.quadrature_law.mean_amplitude == 0


def test_thermal_zero_nbar_is_vacuum():
    rho = make_thermal(0.0, 8)
    assert rho.element(0, 0) == 1.0
    assert rho.trace == 1.0


def test_thermal_rejects_negative_nbar():
    with pytest.raises(ValueError):
        make_thermal(-0.5, 16)


def test_fock_state():
    rho = make_fock(3, 16)
    expected = np.zeros(16)
    expected[3] = 1.0
    assert np.allclose(rho.diagonal(), expected)
    assert rho.diagonal() @ np.arange(16) == pytest.approx(3.0)


def test_coherent_elements():
    rho = make_coherent(1.0, 32)
    # <n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!)
    assert rho.element(0, 0).real == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert rho.element(0, 1) == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    assert rho.quadrature_law.variance == pytest.approx(0.25)
    assert rho.quadrature_law.mean_amplitude == 1.0 + 0j


def test_coherent_complex_phase():
    alpha = 0.6 + 0.8j
    rho = make_coherent(alpha, 32)
    assert rho.element(0, 1) == pytest.approx(np.exp(-0.5) * np.conj(alpha) * np.exp(-0.5))
    assert rho.diagonal() @ np.arange(32) == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_coherent_tight_truncation_reports_tail():
    # |a|^2 + 5|a| + 10 = 34 > 16: allowed, but the lost norm must be declared
    rho = make_coherent(3.0, 16)
    deficit = 1.0 - rho.trace
    assert deficit > 1e-4
    assert deficit <= rho.tail_bound + 1e-12


@pytest.mark.parametrize("alpha", [40.0, 28.0])     # amplitudes 0; amplitudes 1e-162, squares 0
def test_coherent_with_no_weight_inside_the_truncation_rejected(alpha):
    with pytest.raises(ValueError, match=r"^coherent amplitude \(\d+\+0j\) leaves no weight "
                                         r"inside dimension 8$"):
        make_coherent(alpha, 8)
    assert make_coherent(27.0, 8).trace > 0.0


def test_mean_photon_thermal():
    assert make_thermal(2.0, 64).diagonal() @ np.arange(64) == pytest.approx(2.0, abs=1e-8)


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, elements=bad)


def test_density_matrix_rejects_complex_diagonal():
    bad = np.array([[0.5 + 0.1j, 0.0], [0.0, 0.5 - 0.1j]])
    with pytest.raises(ValueError):
        DensityMatrix(dim=2, elements=bad)


def test_density_matrix_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        DensityMatrix(dim=3, elements=np.eye(2))


def test_density_matrix_allows_nonpositive_input():
    # inversion output in the divergent regime is not a physical state; the
    # container must carry it without complaint
    elements = np.diag([1.5, -0.5]).astype(complex)
    rho = DensityMatrix(dim=2, elements=elements)
    assert rho.trace == pytest.approx(1.0)


@pytest.mark.parametrize("spec, check", [
    (StateSpec(kind="thermal", dim=32, nbar=1.5), lambda r: r.diagonal() @ np.arange(32) < 1.51),
    (StateSpec(kind="fock", dim=8, m=2), lambda r: r.element(2, 2) == 1.0),
    (StateSpec(kind="coherent", dim=32, alpha=0.5j), lambda r: r.trace > 0.999),
])
def test_state_spec_builds(spec, check):
    assert check(spec.build())


def test_state_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        StateSpec(kind="squeezed", dim=8).build()
