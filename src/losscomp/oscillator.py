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

Tables are cached at module level and grown on demand.  The tabulation
range always extends past the classical turning point of the largest
index in play, which the normalization integrals need.
"""
from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import ExtrapolationError

TAB_STEP = 0.002          # kernel tabulation grid step
_FINE_SUB = 2             # Numerov substeps per tabulation step
_TURNING_MARGIN = 4.0     # grid range beyond the classical turning point


def _range_for(max_index):
    return float(np.ceil(np.sqrt(max_index + 0.5) + _TURNING_MARGIN))


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
    Returns chi and its derivative on the fine grid.
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
    # derivative from the ODE-corrected central difference (O(h^4)):
    # chi' (1 + h^2 Q / 6) = (chi_+ - chi_-)/(2h) - (h^2/6) Q' chi, Q' = 8x
    dchi = np.empty_like(chi)
    dchi[1:-1] = (
        (chi[2:] - chi[:-2]) / (2.0 * h)
        - (h * h / 6.0) * (8.0 * x[1:-1, None]) * chi[1:-1]
    ) / (1.0 + (h * h / 6.0) * Q[1:-1])
    dchi[0] = np.where(even, 0.0, 1.0)
    dchi[-1] = dchi[-2]
    return chi.T, dchi.T


class _Tables:
    def __init__(self, max_index):
        self.max_index = max_index
        self.x_max = _range_for(max_index)
        nh = int(round(self.x_max / TAB_STEP))
        h = TAB_STEP / _FINE_SUB
        fine = np.arange(_FINE_SUB * nh + 2) * h
        psi_f = _psi_half(max_index + 1, fine)
        chi_f, dchi_f = _chi_half(max_index, fine)
        keep = slice(0, _FINE_SUB * nh + 1, _FINE_SUB)
        self.x_half = fine[keep]
        self.psi = psi_f[:, keep]
        self.chi = chi_f[:, keep]
        self.dchi = dchi_f[:, keep]
        # psi_n' = sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}
        self.dpsi = np.empty((max_index + 1, self.x_half.size))
        for n in range(max_index + 1):
            lower = np.sqrt(n) * self.psi[n - 1] if n >= 1 else 0.0
            self.dpsi[n] = lower - np.sqrt(n + 1.0) * psi_f[n + 1, keep]
        # Simpson weights on the half line (nh is even by construction)
        w = np.ones(nh + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        self.simpson = w * (TAB_STEP / 3.0)
        self.x_full = np.concatenate([-self.x_half[:0:-1], self.x_half])
        self.kernels = {}

    def half_line_integral(self, values):
        """Full-line integral of an even function given on the half grid."""
        return 2.0 * float(np.sum(values * self.simpson))

    def kernel_half(self, n, m):
        """Normalized kernel f_nm on the half grid."""
        raw = self.dpsi[n] * self.chi[m] + self.psi[n] * self.dchi[m]
        anchor = self.half_line_integral(self.psi[n] * self.psi[m] * raw)
        return raw / anchor

    def kernel_full(self, n, m):
        half = self.kernel_half(n, m)
        parity = 1.0 if (n + m) % 2 == 0 else -1.0
        return np.concatenate([parity * half[:0:-1], half])

    def spline(self, n, m):
        key = (n, m)
        if key not in self.kernels:
            cs = CubicSpline(self.x_full, self.kernel_full(n, m))
            self.kernels[key] = np.ascontiguousarray(cs.c)
        return self.kernels[key]


_TABLES: _Tables | None = None


def tables_for(max_index: int) -> _Tables:
    global _TABLES
    if _TABLES is None or _TABLES.max_index < max_index:
        size = max_index if _TABLES is None else max(max_index, 2 * _TABLES.max_index)
        _TABLES = _Tables(max(size, 32))
    return _TABLES


def evaluate_pattern(n: int, m: int, x) -> np.ndarray:
    """Kernel f_nm at points ``x`` via cached cubic interpolation."""
    if n < 0 or m < n:
        raise ValueError("kernel indices require 0 <= n <= m")
    t = tables_for(m)
    xa = np.asarray(x, dtype=float)
    if xa.size and np.max(np.abs(xa)) > t.x_max:
        raise ExtrapolationError(
            f"|x| beyond tabulated range {t.x_max:g} for kernel ({n},{m})")
    c = t.spline(n, m)
    idx = np.clip(
        ((xa + t.x_max) / TAB_STEP).astype(np.int64), 0, t.x_full.size - 2)
    dt = xa - t.x_full[idx]
    return ((c[0, idx] * dt + c[1, idx]) * dt + c[2, idx]) * dt + c[3, idx]


def kernel_on_grid(n: int, m: int):
    """(grid, kernel values) for inspection and quadrature tests."""
    t = tables_for(m)
    return t.x_full.copy(), t.kernel_full(n, m)
