"""Bernoulli loss channel on Fock-basis states and its series inversion.

The forward map damps a signal state ``rho_sig`` into the measured
("dressed") state ``rho_meas`` at detector efficiency ``eta``:

    <n|rho_meas|n+d> = sum_j sqrt(C(n+j,j) C(n+d+j,j))
                       * eta^((2n+d)/2) * (1-eta)^j * <n+j|rho_sig|n+d+j>

The inverse series coefficient is the forward coefficient at ``1/eta``, both
from one table of exact integer binomials, each rounded to float once, so the
duality between the two maps is exact in floating point and a weight's bits do
not depend on how far the table has grown.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import frexp, log, sqrt
from operator import add

import numpy as np

from .exceptions import NoConvergenceError, UndefinedRatioError
from .fock_core import DensityMatrix, GaussianQuadratureLaw


_DIM_LIMIT = 1 - np.finfo(float).minexp  # 1023: g^(dim-1) is normal at g = 1/sqrt(2)
_BINOMIALS = (np.ones((1, 1)), np.zeros((1, 1), dtype=np.int32))  # C(0, 0) = 1
_PASCAL_ROW = [1]       # C(k, j) for the table's last row k, as exact integers


def _binomials(kmax):
    """``C(k, j) = m 4^q`` for ``j <= k <= kmax`` as ``(m, q)``, ``m`` in [1/2, 2).

    One shared table, grown by Pascal rows: each exact integer is rounded
    to float once, so a row does not depend on how far the table has grown.
    """
    global _BINOMIALS, _PASCAL_ROW
    done = _BINOMIALS[0].shape[0]
    if done <= kmax:
        m = np.zeros((kmax + 1, kmax + 1))
        q = np.zeros((kmax + 1, kmax + 1), dtype=np.int32)   # numpy's ldexp is fast for int32 only
        m[:done, :done], q[:done, :done] = _BINOMIALS
        row = _PASCAL_ROW
        for k in range(done, kmax + 1):
            row = [1, *map(add, row[:-1], row[1:]), 1]
            s = max(0, k - 1000)        # exact scaling keeps the row in float range
            f, e = np.frexp([c / 2**s for c in row])
            m[k, :k + 1], q[k, :k + 1] = np.ldexp(f, (e + s) % 2), (e + s) // 2
        _BINOMIALS, _PASCAL_ROW = (m, q), row
    return _BINOMIALS


def _near_one(v):
    """``v = a 2^h`` with ``a`` in [1/sqrt(2), sqrt(2)), or ``a = 0`` for ``v = 0``."""
    a, h = frexp(v)
    return (2.0 * a, h - 1) if a < sqrt(0.5) else (a, h)


def _weight_rays(n, j, g, kmax, j_cap=None):
    """Coefficients of ``<n+j|rho|n+d+j>`` in the image ``<n|rho'|n+d>``, by offset ``d``.

    ``g`` in (0, 1] gives the damping weights; ``g = 1/eta > 1`` gives the
    inverse-series weights A_j (the sign then alternates with j).  ``n``
    and ``j`` are broadcastable integer arrays, made at least 2-d, and
    ``kmax`` bounds ``n + j + d``.  The factors that do not depend on ``d``
    are evaluated on this (n, j) grid once; the returned ``weights(d, rows)``
    adds the rest on the grid's leading ``rows x rows`` block (default: all
    of it).  Entries with ``j < 0`` or ``j > j_cap`` are zero.  The weight is
    the root of ``C(k, j) C(k+d, j) g^(2n+d) |1-g|^(2j)``, ``k = n + j``; the
    binary exponents of its factors add up as integers, and a product that
    leaves the normal range (indices past about 1000) raises ``ValueError``.
    """
    n, j = np.atleast_2d(n, j)
    jv = np.maximum(j, 0)
    m, q = _binomials(kmax)
    at = (n + j) * m.shape[1] + jv          # flat index of C(k, j); C(k+d, j) is d rows on
    a, h = _near_one(g)
    b, c = _near_one(abs(1.0 - g))
    a_pow = a ** np.arange(2 * kmax + 1)
    b_pow = (b ** np.arange(0, 2 * np.max(jv) + 1, 2))[jv]
    m_at = m.take(at)
    e_at = (q.take(at) + c * jv + h * n).astype(np.int32)   # C(k, j), |1-g|^2j and g^2n exponents
    flip = jv % 2 == 1
    keep = (j >= 0) if j_cap is None else (j >= 0) & (j <= j_cap)

    def weights(d, rows=None):
        cut, r = np.s_[:rows, :rows], h * d % 2   # r moves an odd power of 2 into the root
        z = m_at[cut] * m[d:].take(at[cut]) * (a_pow[2 * n[cut] + d] * 2.0**r) * b_pow[cut]
        if not (np.max(z) < np.inf and (g == 1.0 or np.min(z) >= np.finfo(float).tiny)):
            raise ValueError(f"loss weights at index {np.max((n + j)[cut])} leave the float range")
        w = np.ldexp(np.sqrt(z), e_at[cut] + q[d:].take(at[cut]) + h * d // 2)
        if g > 1.0:
            np.negative(w, out=w, where=flip[cut])
        return np.where(keep[cut], w, 0.0)

    return weights


def _range_error(n, d, j, eta):
    """The error for an inverse-series weight A_j(n, d) at efficiency ``eta`` that overflows."""
    return ValueError(f"inverse-series weight A_j({n}, {d}) at j = {j} leaves the "
                      f"float range at efficiency {eta:g}")


def inverse_coefficient(n: int, d: int, j, eta: float):
    """Inverse-series coefficient ``A_j(n, d, eta)``.

    ``A_j = eta^(-(2n+d)/2) * sqrt((n+j)!(n+d+j)!) / (sqrt(n!(n+d)!) j!)
    * (1 - 1/eta)^j``, from exact integer binomials.  ``j`` may be an integer
    (returns a float) or an array of them (returns the matching array).
    Raises ValueError when the square of a weight, which the propagated
    error sums, leaves the float range.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if n < 0 or d < 0 or np.any(np.asarray(j) < 0):
        raise ValueError("indices must be nonnegative")
    with np.errstate(over="ignore"):
        weights = _weight_rays(n, j, 1.0 / eta, n + int(np.max(j)) + d)(d).reshape(np.shape(j))
        finite = np.isfinite(weights**2)
    if not finite.all():
        raise _range_error(n, d, int(np.min(np.asarray(j)[~finite])), eta)
    return weights if np.ndim(j) else float(weights)


def _transform(rho: DensityMatrix, g: float, j_cap=None):
    """Apply the ray-wise map with parameter ``g`` to every (n, d) ray.

    Returns the transformed matrix and the per-element magnitude of the
    last included term (the truncation diagnostic).  Raises ValueError when
    a weight that is kept (``j <= j_cap``) leaves the float range.  A damping
    weight (``g <= 1``) is at most 1, and up to dim 1018 the product under its
    root is within ``2^(D+2)`` of 1, so none fails that check: there an
    all-zero ray is not summed but set to the zeros the sum gives, ``+0``
    above the diagonal and ``conj(+0) = -0j`` below it.  The inverse series
    (``g > 1``) sums every ray.
    """
    D = rho.dim
    out = np.zeros((D, D), dtype=complex)
    last = np.zeros((D, D))
    flat_out, flat_last = out.reshape(-1), last.reshape(-1)
    nn = np.arange(D)[:, None]
    with np.errstate(over="ignore"):
        ray_weights = _weight_rays(nn, np.arange(D) - nn, g, D - 1, j_cap)
    skip = g <= 1.0 and D <= 1018
    for d in range(D):
        L = D - d
        ray = np.diagonal(rho.elements, offset=d).copy()
        upper, lower = np.s_[d:D * L:D + 1], np.s_[d * D::D + 1]   # diagonals d and -d
        if skip and not ray.any():
            if d > 0:
                flat_out[lower] = complex(0.0, -0.0)
            continue
        with np.errstate(over="ignore"):
            w = ray_weights(d, L)
        if not np.isfinite(w).all():
            n, k = np.argwhere(~np.isfinite(w))[0]
            raise _range_error(n, d, k - n, 1.0 / g)
        new_ray = w @ ray
        if d == 0:
            new_ray = new_ray.real      # a diagonal is real; the weights would lift its rounding
        # index of the last term actually summed for each output n
        k_last = np.minimum((L - 1) if j_cap is None else np.arange(L) + j_cap, L - 1)
        last_ray = np.abs(w[np.arange(L), k_last] * ray[k_last])
        flat_out[upper] = new_ray
        flat_last[upper] = last_ray
        if d > 0:
            flat_out[lower] = new_ray.conj()
            flat_last[lower] = last_ray
    return out, last


def _damped_law(law, eta):
    """The Gaussian quadrature law ``law`` after loss of efficiency ``eta``; None stays None."""
    if law is None:
        return None
    # loss maps the Gaussian families onto themselves exactly:
    # thermal nbar -> eta*nbar, coherent alpha -> sqrt(eta)*alpha
    amp = np.sqrt(eta) * law.mean_amplitude
    var = 0.25 + eta * (law.variance - 0.25)
    return GaussianQuadratureLaw(variance=var, mean_amplitude=amp)


def apply_loss(rho_sig: DensityMatrix, eta: float) -> DensityMatrix:
    """Damp ``rho_sig`` through a beam-splitter-type loss of efficiency ``eta``."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    out, _ = _transform(rho_sig, eta)
    return DensityMatrix(rho_sig.dim, out, tail_bound=rho_sig.tail_bound,
                         quadrature_law=_damped_law(rho_sig.quadrature_law, eta))


@dataclass
class InversionResult:
    """Truncated inverse series with its per-element truncation diagnostic.

    ``last_term[n, m]`` is the magnitude of the final summand for that
    element; growth of this diagnostic along a scan signals divergence.
    The inversion never raises on divergence — in the divergent regime
    ``state`` is not a physical state and carries no tail bound.
    """

    state: DensityMatrix
    last_term: np.ndarray


def invert_loss(rho_meas: DensityMatrix, eta: float, j_max: int) -> InversionResult:
    """Evaluate the inverse series with exact elements, truncated at ``j_max``."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    out, last = _transform(rho_meas, 1.0 / eta, j_cap=j_max)
    state = DensityMatrix(rho_meas.dim, out, tail_bound=rho_meas.tail_bound)
    return InversionResult(state=state, last_term=last)


def decay_ratio(rho_meas: DensityMatrix, n: int, d: int) -> float:
    """Geometric decay ratio of the ray ``<n+j|rho|n+d+j>`` versus j.

    Estimated by a ratio test over the last quartile of the available
    indices (at least five elements).  For an exact thermal state with
    mean ``mu`` this returns ``mu/(mu+1)`` for every starting index.
    """
    if n < 0 or d < 0 or n + d >= rho_meas.dim:
        raise ValueError("ray start outside the truncation")
    ray = np.abs(np.diagonal(rho_meas.elements, offset=d)[n:])
    window = ray[-max(-(-ray.size // 4), 5):]
    ratios = []
    for a, b in zip(window[:-1], window[1:]):
        if a > 0.0 and b > 0.0:
            ratios.append(log(b) - log(a))
    if len(ratios) < 4:
        raise UndefinedRatioError(
            "too few nonzero elements along the ray for a ratio test")
    return float(np.exp(np.mean(ratios)))


def analytic_threshold(r: float) -> float:
    """Minimal efficiency for which the inverse series converges.

    A ray decaying like ``r^j`` gives a convergent series when
    ``|1 - 1/eta| * r < 1``, i.e. for ``eta > r/(1+r)``.
    """
    if not r >= 0.0:
        raise ValueError("decay ratio must be nonnegative")
    if r >= 1.0:
        raise NoConvergenceError("decay ratio >= 1 admits no finite threshold")
    return r / (1.0 + r)
