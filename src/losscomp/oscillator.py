"""Oscillator wavefunction tables and tomography kernels.

Everything here lives in the convention where the quadrature is
``x = (a + a^dag)/2`` (vacuum variance 1/4), in which the number-state
wavefunctions ``psi_n`` satisfy ``psi'' = (4x^2 - 4n - 2) psi``.

The tomography kernel for the element ``<n|rho|m>`` is

    f_nm(x) = d/dx [ psi_n(x) * chi_m(x) ]

with ``chi_m`` the irregular (non-normalizable) second solution of the
same equation, fixed uniquely by giving it the parity opposite to
``psi_m``.  ``chi_m`` is integrated outward from the origin with a
Numerov scheme; the kernel normalization is then pinned per pair by the
unbiasedness anchor ``integral psi_n psi_m f_nm dx = 1``.

One table is cached at module level and rebuilt larger on demand.  Its
range extends past the points ``evaluate_pattern`` is asked for and past
the classical turning point of the largest index, which the normalization
integrals need, up to ``|x| = 26``, past which ``chi_0`` overflows.

The table holds ``psi``, ``chi`` and ``chi'`` on the half line ``x >= 0``
and the cached splines built from them.  Each kernel is the cubic Hermite
interpolant of its tabulated values and its slopes, which follow from the
ODE, so no spline system is solved.  Its coefficients are cached as one
contiguous ``(L-1, 4)`` array, four Horner coefficients per grid cell.
``evaluate_pattern`` is where kernels leave the table: it locates ``|x|``
once, fetches each row's coefficients in one gather, and negates a row at
``x < 0`` when its ``n + m`` is odd, so the parity ``(-1)^(n+m)`` is exact.
"""
from __future__ import annotations

import numpy as np

from .exceptions import ExtrapolationError

TAB_STEP = 0.002          # kernel tabulation grid step
_FINE_SUB = 2             # Numerov substeps per tabulation step
_TURNING_MARGIN = 4.0     # grid range beyond the classical turning point
_X_LIMIT = 26.0           # widest table range at which chi stays finite
_INDEX_LIMIT = int((_X_LIMIT - _TURNING_MARGIN) ** 2 - 0.5)  # 483, the largest index it fits


def _psi_half(nmax, x):
    """psi_n(x) for n <= nmax as a (nmax + 1, len(x)) array.

    Three-term recursion for normalized oscillator eigenfunctions,
    rescaled to the vacuum-variance-1/4 convention.
    """
    y = np.sqrt(2.0) * x
    out = np.empty((nmax + 1, x.size))
    out[0] = (2.0 / np.pi) ** 0.25 * np.exp(-(x**2))
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * y * out[0]
    for n in range(2, nmax + 1):
        out[n] = np.sqrt(2.0 / n) * y * out[n - 1] - np.sqrt((n - 1.0) / n) * out[n - 2]
    return out


def _chi_half(mmax, x):
    """Numerov integration of chi'' = (4x^2 - 4m - 2) chi for all m at once.

    Start values at the origin select the solution of parity opposite to
    psi_m, which excludes any admixture of the regular solution.
    Returns contiguous chi and chi' at every ``_FINE_SUB``-th node of ``x`` but the last.
    """
    ms = np.arange(mmax + 1)
    E = 4.0 * ms + 2.0
    Q = 4.0 * x[:, None] ** 2 - E[None, :]
    L = x.size
    h = x[1] - x[0]
    even = (ms % 2) == 1          # chi is even exactly when psi_m is odd
    chi = np.empty((L, ms.size))
    chi[0] = np.where(even, 1.0, 0.0)
    # Taylor start one step out (error O(h^6))
    chi[1] = np.where(
        even,
        1.0 - E * h * h / 2.0 + (8.0 + E * E) * h**4 / 24.0,
        h * (1.0 - E * h * h / 6.0 + (24.0 + E * E) * h**4 / 120.0),
    )
    a = 1.0 - (h * h / 12.0) * Q
    b = 2.0 * (1.0 + (5.0 * h * h / 12.0) * Q)
    for i in range(1, L - 1):
        chi[i + 1] = (b[i] * chi[i] - a[i - 1] * chi[i - 1]) / a[i + 1]
    # derivative at the returned nodes from the ODE-corrected central difference (O(h^4)):
    # chi' (1 + h^2 Q / 6) = (chi_+ - chi_-)/(2h) - (h^2/6) Q' chi, Q' = 8x
    i = np.arange(_FINE_SUB, L - 1, _FINE_SUB)
    dchi = np.empty((i.size + 1, ms.size))
    dchi[1:] = (
        (chi[i + 1] - chi[i - 1]) / (2.0 * h)
        - (h * h / 6.0) * (8.0 * x[i, None]) * chi[i]
    ) / (1.0 + (h * h / 6.0) * Q[i])
    dchi[0] = np.where(even, 0.0, 1.0)
    return np.ascontiguousarray(chi[:-1:_FINE_SUB].T), np.ascontiguousarray(dchi.T)


class _Tables:
    def __init__(self, max_index, reach):
        self.max_index = max_index
        self.x_max = float(np.ceil(max(np.sqrt(max_index + 0.5) + _TURNING_MARGIN, reach)))
        nh = int(round(self.x_max / TAB_STEP))
        fine = np.arange(_FINE_SUB * nh + 2) * (TAB_STEP / _FINE_SUB)
        self.chi, self.dchi = _chi_half(max_index, fine)
        self.x_half = np.arange(nh + 1) * TAB_STEP
        self.psi = _psi_half(max_index + 1, self.x_half)
        self.simpson = np.ones(nh + 1)      # composite Simpson weights; nh is even
        self.simpson[1:-1:2], self.simpson[2:-1:2] = 4.0, 2.0
        self.simpson *= TAB_STEP / 3.0
        self.dx = np.diff(self.x_half)
        self.kernels = {}

    def kernel_and_slope(self, n, m):
        """Kernel f_nm and its slope on ``x_half``, normalized by the unbiasedness anchor.

        The slope follows from the ODE, ``psi'' = Q psi`` and ``chi'' = Q chi``:
        ``f' = (Q_n + Q_m) psi_n chi_m + 2 psi_n' chi_m'``, ``Q_k = 4x^2 - 4k - 2``.
        ``psi_n' = sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}``, with ``psi_0``
        standing in for ``psi_{-1}``, which its zero coefficient cancels.
        """
        dpsi = np.sqrt(n) * self.psi[max(n - 1, 0)] - np.sqrt(n + 1.0) * self.psi[n + 1]
        f = dpsi * self.chi[m] + self.psi[n] * self.dchi[m]
        df = ((8.0 * self.x_half**2 - 4.0 * (n + m + 1)) * self.psi[n] * self.chi[m]
              + 2.0 * dpsi * self.dchi[m])
        anchor = 2.0 * float(np.sum(self.psi[n] * self.psi[m] * f * self.simpson))
        return f / anchor, df / anchor

    def spline(self, n, m):
        """Cubic Hermite coefficients of f_nm on ``x_half``, one row per cell: ``(L-1, 4)``.

        Each row holds the Horner coefficients in ``x - x_i`` that match the
        kernel's values and slopes at both ends of the cell.  Cell-major, so
        one gather fetches all four coefficients of a point.
        """
        key = (n, m)
        if key not in self.kernels:
            y, dy = self.kernel_and_slope(n, m)
            secant = np.diff(y) / self.dx
            excess = (dy[:-1] + dy[1:] - 2.0 * secant) / self.dx
            self.kernels[key] = np.column_stack(
                [excess / self.dx, (secant - dy[:-1]) / self.dx - excess, dy[:-1], y[:-1]])
        return self.kernels[key]


_TABLES: _Tables | None = None


def tables_for(max_index: int, reach: float = 0.0) -> _Tables:
    """The shared table for indices <= ``max_index`` and ``|x| <= reach``.

    A rebuild grows what is short (index floor 32); neither index nor range ever shrinks.
    """
    global _TABLES
    if not (reach <= _X_LIMIT and max_index <= _INDEX_LIMIT):  # also rejects NaN
        raise ExtrapolationError(f"index {max_index} or |x| = {reach:g} past the kernel table")
    t = _TABLES
    if t is None or t.max_index < max_index or t.x_max < reach:
        if t is not None:
            max_index, reach = max(max_index, t.max_index), max(reach, t.x_max)
        t = _TABLES = None        # let the old table go before the new one is built
        _TABLES = _Tables(max(max_index, 32), reach)
    return _TABLES


def evaluate_pattern(n, m, x) -> np.ndarray:
    """Kernel f_nm at points ``x`` via cached cubic interpolation.

    Defined by unbiasedness:  averaging ``e^{i(m-n) phi} f_nm(x)`` over
    homodyne samples of any state estimates ``<n|rho|m>``.  ``n`` and
    ``m`` may be equal-length integer arrays: the points are located in
    the table once and row k holds ``f_{n[k] m[k]}(x)``.  The parity
    ``f_nm(-x) = (-1)^(n+m) f_nm(x)`` holds bit for bit.
    """
    ns, ms = np.asarray(n), np.asarray(m)
    if ns.shape != ms.shape or np.any(ns < 0) or np.any(ms < ns):
        raise ValueError("kernel indices require 0 <= n <= m")
    xa = np.asarray(x, dtype=float)
    xr = xa.ravel()
    ax = np.abs(xr)
    t = tables_for(int(np.max(ms)), float(np.max(ax, initial=0.0)))
    idx = np.minimum((ax / TAB_STEP).astype(np.int64), t.x_half.size - 2)
    dt = ax - t.x_half[idx]
    negative = xr < 0
    out = np.empty((ns.size, xr.size))
    for row, nk, mk in zip(out, ns.ravel().tolist(), ms.ravel().tolist()):
        g = np.take(t.spline(nk, mk), idx, axis=0)
        np.add(((g[:, 0] * dt + g[:, 1]) * dt + g[:, 2]) * dt, g[:, 3], out=row)
        if (nk + mk) % 2:
            np.negative(row, out=row, where=negative)
    return out.reshape(ns.shape + xa.shape)[()]
