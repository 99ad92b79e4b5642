"""Loss compensation from measured data, with error propagation.

The series value is ``sum_j A_j(n, d, eta) c_j`` over the measured ray ``c_j ~
<n+j|rho_meas|n+d+j>``.  The weights alternate in sign and grow combinatorially
once 1 - 1/eta leaves the unit disc, so the statistical error of the truncated
sum decides whether compensation is meaningful: ``convergence_scan`` propagates
the weights, ``sqrt(sum_j A_j^2 eps_j^2)``, and ``error_vs_eta`` gives the
normalized profile ``sqrt(sum_j z^{2j} eps_j^2)``, ``z = 1 - 1/eta``, which cannot
converge once eta <= 1/2.  A source's result has the same bits alone as in the
batch forms ``convergence_scans`` and ``errors_vs_eta``.
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


def _stacked_rays(sources, n, d, j_max):
    """Each source's measured ray, as ``(estimate, stderr)`` arrays with one row per source."""
    rays = [measure_ray(source, n, d, j_max) for source in sources]
    shape = (len(rays), j_max + 1)
    return (np.array([ray.estimate for ray in rays]).reshape(shape),
            np.array([ray.stderr for ray in rays]).reshape(shape))


def convergence_scans(sources, n: int, d: int, eta: float, j_list) -> list:
    """:func:`convergence_scan` of each of several sources, in order.

    The weights are computed once, and every source's partial sums are
    taken in one ``cumsum`` along its row, which adds in sequence, so each
    result has the bits of its source's scan alone.  Every source is
    measured before any is summed; a diagonal scan whose value keeps an
    imaginary residue raises for the first such source, as it would alone.
    """
    j_list = truncation_indices(j_list)
    estimate, stderr = _stacked_rays(sources, n, d, j_list[-1])
    weights = inverse_coefficient(n, d, np.arange(j_list[-1] + 1), eta)
    values = np.cumsum(weights * estimate, axis=1)[:, j_list]
    errors = np.sqrt(np.cumsum(weights**2 * stderr**2, axis=1)[:, j_list])
    if d == 0:
        residue = np.abs(values.imag) >= 1e-9 * np.abs(values.real) + 1e-12
        if residue.any():  # the flat argmax is the first source's first failing index
            first = float(values.imag.flat[residue.argmax()])
            raise NumericalSanityError(f"diagonal estimate has imaginary residue {first:.3g}")
        values = values.real.astype(complex)
    results = []
    for row_values, row_errors in zip(values.tolist(), errors.tolist()):
        trace = list(zip(j_list, row_values, row_errors))
        results.append(CompensationResult(trace=trace, verdict=_verdict_from_trace(trace)))
    return results


def convergence_scan(source, n: int, d: int, eta: float, j_list) -> CompensationResult:
    """Evaluate the series at each truncation index and classify the trend.

    Verdicts: ``converged`` when the last three values agree within
    twice the final error and the error itself has stopped moving
    (relative change below 10% across those points); ``diverging`` when
    the error has grown more than 3x over the scan; ``marginal``
    otherwise.  A scan that satisfies the convergence gate is never
    reported diverging, however much the error grew in the early,
    pre-asymptotic part of the scan.  The batch of one of
    :func:`convergence_scans`.
    """
    return convergence_scans([source], n, d, eta, j_list)[0]


def errors_vs_eta(sources, n: int, d: int, eta: float, j_list) -> list:
    """:func:`error_vs_eta` of each of several sources, in order.

    The weights ``z^{2j}`` are computed once, and each source's partial
    sums are taken along its row, in sequence, so each list has the bits
    of its source's alone.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    j_list = truncation_indices(j_list)
    _, stderr = _stacked_rays(sources, n, d, j_list[-1])
    z = 1.0 - 1.0 / eta
    var_partial = np.cumsum(z ** (2 * np.arange(j_list[-1] + 1)) * stderr**2, axis=1)
    return np.sqrt(var_partial[:, j_list]).tolist()


def error_vs_eta(source, n: int, d: int, eta: float, j_list) -> list:
    """Normalized error ``sqrt(sum_j z^{2j} eps_j^2)`` at one efficiency.

    ``z = 1 - 1/eta`` weights the measured errors of ``source`` (anything
    :func:`measure_ray` accepts); ``j_list`` follows
    :func:`truncation_indices`.  Returns the error at each ``j_M`` of
    ``j_list``, in order.  The batch of one of :func:`errors_vs_eta`.
    """
    return errors_vs_eta([source], n, d, eta, j_list)[0]
