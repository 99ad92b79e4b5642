"""Loss compensation from measured data, with error propagation.

The series value is ``sum_j A_j(n, d, eta) c_j`` over the measured ray
``c_j ~ <n+j|rho_meas|n+d+j>``.  Because the weights A_j alternate in
sign and grow combinatorially once 1 - 1/eta leaves the unit disc, the
statistical error of the truncated sum is the observable that decides
whether compensation is meaningful; everything here exists to put a
number on it.

Two error views are provided.  ``convergence_scan`` propagates the
actual weights, ``sqrt(sum_j A_j^2 eps_j^2)``, which is what an
experimenter quotes for a specific target element; the series truncated
at one index is the last point of a scan over ``[j_max]``.
``error_vs_eta`` instead reports, at one efficiency, the normalized
profile ``sqrt(sum_j z^{2j} eps_j^2)`` with ``z = 1 - 1/eta``, which
strips the combinatorial prefactors and isolates the transition at
eta = 1/2: below it |z| >= 1 and the sum cannot converge no matter how
precise the individual coefficients are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct_detection import CountHistogram, estimate_probabilities
from .exceptions import NumericalSanityError
from .fock_core import DensityMatrix
from .homodyne import MeasuredRay, QuadratureData, _indices, estimate_element
from .loss_channel import inverse_coefficient


@dataclass
class CompensationResult:
    """Outcome of a truncation-index scan for one target element.

    ``trace`` holds ``(j_max, value, propagated_error)`` tuples in
    ascending ``j_max``; the error is non-decreasing along the trace
    since each added term contributes nonnegative variance.
    """

    trace: list
    verdict: str


def measure_ray(source, n: int, d: int, j_max: int) -> MeasuredRay:
    """Coefficient estimates ``c_j`` for j = 0..j_max from any source.

    Accepts homodyne samples, a photocount histogram (diagonal rays
    only), an exact density matrix (zero errors), or a measured ray,
    which is sliced to the requested elements.  Raises ValueError when
    the source does not reach every element.
    """
    if isinstance(source, QuadratureData):
        return estimate_element(source, n, d, j_max)
    if isinstance(source, CountHistogram):
        if d != 0:
            raise ValueError("photocounting only measures diagonal elements")
        source = estimate_probabilities(source)
    elif isinstance(source, DensityMatrix):
        diagonal = np.diagonal(source.elements, offset=d)
        source = MeasuredRay(0, d, diagonal, np.zeros(diagonal.size))
    elif not isinstance(source, MeasuredRay):
        raise TypeError(f"unsupported coefficient source: {type(source).__name__}")
    lo = n - source.n
    reach = source.estimate.size - lo if source.d == d and lo >= 0 else 0
    if reach <= j_max:
        j = max(reach, 0)
        raise ValueError(f"no measured coefficient for element ({n + j}, {n + d + j})")
    return MeasuredRay(n, d, source.estimate[lo:lo + j_max + 1],
                       source.stderr[lo:lo + j_max + 1])


def _finalize_value(value, d):
    if d == 0:
        if abs(value.imag) >= 1e-9 * abs(value.real) + 1e-12:
            raise NumericalSanityError(
                f"diagonal estimate has imaginary residue {value.imag:.3g}")
        return complex(value.real, 0.0)
    return value


def _verdict_from_trace(trace):
    errors = [t[2] for t in trace]
    if len(trace) >= 3:
        values = [t[1] for t in trace[-3:]]
        spread = max(abs(a - b) for a in values for b in values)
        # epsilon floor so exact (zero-error) scans can still settle
        floor = 1e-12 * (1.0 + abs(values[-1]))
        values_settled = spread < 2.0 * errors[-1] + floor
        if errors[-3] > 0:
            error_settled = (errors[-1] / errors[-3] - 1.0) < 0.10
        else:
            error_settled = errors[-1] == 0.0
        if values_settled and error_settled:
            return "converged"
    if errors[0] > 0 and errors[-1] / errors[0] > 3.0:
        return "diverging"
    return "marginal"


def truncation_indices(j_list) -> list:
    """``j_list`` as ints; ValueError unless integers, nonempty, nonnegative and strictly
    ascending."""
    j_list = _indices(j_list)
    if not j_list or j_list[0] < 0 or any(a >= b for a, b in zip(j_list, j_list[1:])):
        raise ValueError(f"truncation indices {j_list} must be nonempty, nonnegative "
                         "and strictly ascending")
    return j_list


def convergence_scan(source, n: int, d: int, eta: float, j_list) -> CompensationResult:
    """Evaluate the series at each truncation index and classify the trend.

    Verdicts: ``converged`` when the last three values agree within
    twice the final error and the error itself has stopped moving
    (relative change below 10% across those points); ``diverging`` when
    the error has grown more than 3x over the scan; ``marginal``
    otherwise.  A scan that satisfies the convergence gate is never
    reported diverging, however much the error grew in the early,
    pre-asymptotic part of the scan.
    """
    j_list = truncation_indices(j_list)
    ray = measure_ray(source, n, d, j_list[-1])
    weights = inverse_coefficient(n, d, np.arange(j_list[-1] + 1), eta)
    value_partial = np.cumsum(weights * ray.estimate)
    var_partial = np.cumsum(weights**2 * ray.stderr**2)
    trace = [
        (j, _finalize_value(complex(value_partial[j]), d), float(np.sqrt(var_partial[j])))
        for j in j_list
    ]
    return CompensationResult(trace=trace, verdict=_verdict_from_trace(trace))


def error_vs_eta(source, n: int, d: int, eta: float, j_list) -> list:
    """Normalized error ``sqrt(sum_j z^{2j} eps_j^2)`` at one efficiency.

    ``z = 1 - 1/eta`` weights the measured errors of ``source`` (anything
    :func:`measure_ray` accepts); ``j_list`` follows
    :func:`truncation_indices`.  Returns the error at each ``j_M`` of
    ``j_list``, in order.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    j_list = truncation_indices(j_list)
    err = measure_ray(source, n, d, j_list[-1]).stderr
    z = 1.0 - 1.0 / eta
    var_partial = np.cumsum(z ** (2 * np.arange(err.size)) * err**2)
    return [float(np.sqrt(var_partial[j])) for j in j_list]
