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
range extends past the points it is asked for and past the classical
turning point of the largest index, which the normalization integrals
need, up to ``|x| = 26``, past which ``chi_0`` overflows.  Each
normalization integral stops at the range its own index needs, so a
kernel has the same bits in every table that holds it.

The table holds ``psi``, ``chi`` and ``chi'`` on the half line ``x >= 0``
at the tabulation step and the splines built from them.  A spline lives on
cells ``_CELL_SUB`` steps wide, between every fifth tabulation node.  On
each cell a kernel is the quintic Hermite interpolant of its tabulated
value, slope and curvature at both ends; slope and curvature follow from
the ODE, so no spline system is solved.  The kernels ``f_{k,k+d}`` of one
offset ``d`` are cached as one ``(rows, 6, cells)`` band: row k holds six
Horner coefficients per cell, each a contiguous plane.

Kernels leave the table two ways, which share one locate step (``|x|``
to its cell and offset).  ``evaluate_pattern`` gives the values of one
kernel: it fetches its band row at the points in one gather and negates
them at ``x < 0`` when ``n + m`` is odd, so the parity ``(-1)^(n+m)`` is
exact.  ``pattern_sums`` gives the weighted sums of a kernel and of its
square over the points for one ray ``f_{n+j, n+d+j}``, j = 0..j_max, which
is rows n..n+j_max of band d: it gathers them at the occupied cells once
and dots them with per-cell moments of the offsets, so a kernel costs its
occupied cells, not its points.  All kernels of a ray have the parity of
``d``, so an odd ray takes the sign into the weights of its first sums
once.  Unit weights (the default) share one moment set between both sums
of an even ray.
"""
from __future__ import annotations

import operator

import numpy as np

from .exceptions import ExtrapolationError

TAB_STEP = 0.002          # kernel tabulation grid step
_CELL_SUB = 5             # tabulation steps per spline cell
_TERMS = 6                # coefficients of a quintic spline row
_FINE_SUB = 2             # Numerov substeps per tabulation step
_TURNING_MARGIN = 4.0     # grid range beyond the classical turning point
_X_LIMIT = 26.0           # widest table range at which chi stays finite
_INDEX_LIMIT = int((_X_LIMIT - _TURNING_MARGIN) ** 2 - 0.5)  # 483, the largest index it fits


def _index_reach(index):
    """Table range an index needs: past its classical turning point by the margin, whole."""
    return float(np.ceil(np.sqrt(index + 0.5) + _TURNING_MARGIN))


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
        self.x_max = max(_index_reach(max_index), float(np.ceil(reach)))
        nh = int(round(self.x_max / TAB_STEP))
        fine = np.arange(_FINE_SUB * nh + 2) * (TAB_STEP / _FINE_SUB)
        self.chi, self.dchi = _chi_half(max_index, fine)
        self.x_half = np.arange(nh + 1) * TAB_STEP
        self.psi = _psi_half(max_index + 1, self.x_half)
        self.simpson = np.ones(nh + 1)      # composite Simpson weights; nh is even
        self.simpson[1:-1:2], self.simpson[2:-1:2] = 4.0, 2.0
        self.simpson *= TAB_STEP / 3.0
        self.x_cell = self.x_half[::_CELL_SUB].copy()    # x_max is whole: nh is a multiple of 5
        self.dx = np.diff(self.x_cell)
        self.bands = {}

    def kernel_derivatives(self, n, m):
        """Kernel f_nm on ``x_half``, its slope and curvature on ``x_cell``, all over the anchor.

        Both derivatives follow from the ODE, ``psi'' = Q psi`` and ``chi'' = Q chi``,
        ``Q_k = 4x^2 - 4k - 2``:
        ``f' = (Q_n + Q_m) psi_n chi_m + 2 psi_n' chi_m'`` and
        ``f'' = 16x psi_n chi_m + (Q_n + Q_m) f + 2(Q_n psi_n chi_m' + Q_m psi_n' chi_m)``.
        ``psi_n' = sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}``, with ``psi_0``
        standing in for ``psi_{-1}``, which its zero coefficient cancels.
        The value is needed on every node, for the anchor; the spline reads
        the derivatives at cell ends only.  The anchor integrates over the
        range index ``m`` needs, not the table's, so a kernel's bits do not
        depend on the table it is built in.
        """
        dpsi = np.sqrt(n) * self.psi[max(n - 1, 0)] - np.sqrt(n + 1.0) * self.psi[n + 1]
        psi, chi, dchi = self.psi[n], self.chi[m], self.dchi[m]
        f = dpsi * chi + psi * dchi
        end = int(round(_index_reach(m) / TAB_STEP))    # even, like the table's node count
        weights = self.simpson[:end + 1].copy()
        weights[-1] = TAB_STEP / 3.0
        anchor = 2.0 * float(np.sum((psi * self.psi[m] * f)[:end + 1] * weights))
        dpsi, psi, chi, dchi, fc = (a[::_CELL_SUB] for a in (dpsi, psi, chi, dchi, f))
        product = psi * chi
        x2 = 4.0 * self.x_cell**2
        q_n, q_m = x2 - (4.0 * n + 2.0), x2 - (4.0 * m + 2.0)
        df = (q_n + q_m) * product + 2.0 * dpsi * dchi
        ddf = (16.0 * self.x_cell * product + (q_n + q_m) * fc
               + 2.0 * (q_n * psi * dchi + q_m * dpsi * chi))
        return f / anchor, df / anchor, ddf / anchor

    def band(self, d, rows):
        """Quintic Hermite coefficients of kernels f_{k,k+d}, k < ``rows``: ``(rows, 6, cells)``.

        Row k holds, per cell on ``x_cell``, the Horner coefficients in
        ``x - x_i``, highest power first, that match the kernel's value, slope
        and curvature at both ends of the cell.  Rows are built once and kept;
        a longer band appends the rows it lacks.
        """
        band = self.bands.get(d, np.empty((0, _TERMS, self.dx.size)))
        if len(band) < rows:
            grown = np.empty((rows, _TERMS, self.dx.size))
            grown[:len(band)] = band
            h = self.dx
            for k in range(len(band), rows):
                f, dy, ddy = self.kernel_derivatives(k, k + d)
                y = f[::_CELL_SUB]
                # what the Taylor quadratic at the left end misses at the right end,
                # in value, slope and curvature, each scaled to units of h^k
                e0 = y[1:] - (y[:-1] + h * (dy[:-1] + 0.5 * h * ddy[:-1]))
                e1 = h * (dy[1:] - (dy[:-1] + h * ddy[:-1]))
                e2 = h * h * (ddy[1:] - ddy[:-1])
                grown[k] = [(6.0 * e0 - 3.0 * e1 + 0.5 * e2) / h**5,
                            (-15.0 * e0 + 7.0 * e1 - e2) / h**4,
                            (10.0 * e0 - 4.0 * e1 + 0.5 * e2) / h**3,
                            0.5 * ddy[:-1], dy[:-1], y[:-1]]
            band = self.bands[d] = grown
        return band[:rows]


_TABLES: _Tables | None = None


def tables_for(max_index: int, reach: float = 0.0) -> _Tables:
    """The shared table for indices <= ``max_index`` and ``|x| <= reach``.

    A rebuild grows what is short (index floor 32); neither index nor range ever shrinks.
    """
    global _TABLES
    if not reach <= _X_LIMIT:       # also rejects NaN
        raise ExtrapolationError(f"|x| = {reach:g} past the kernel table's limit {_X_LIMIT:g}")
    if max_index > _INDEX_LIMIT:
        raise ExtrapolationError(f"index {max_index} past the kernel table's limit "
                                 f"{_INDEX_LIMIT}")
    t = _TABLES
    if t is None or t.max_index < max_index or t.x_max < reach:
        if t is not None:
            max_index, reach = max(max_index, t.max_index), max(reach, t.x_max)
        t = _TABLES = None        # let the old table go before the new one is built
        _TABLES = _Tables(max(max_index, 32), reach)
    return _TABLES


def _locate(max_index, x):
    """Size the shared table for indices <= ``max_index`` and the points ``x``; locate ``|x|``.

    Returns the table, each raveled point's spline cell on ``x_cell``, its
    offset ``|x| - x_i`` in that cell, and the mask of points at ``x < 0``.
    """
    xr = x.ravel()
    ax = np.abs(xr)
    t = tables_for(max_index, float(np.max(ax, initial=0.0)))
    idx = np.minimum((ax / (_CELL_SUB * TAB_STEP)).astype(np.int64), t.x_cell.size - 2)
    return t, idx, ax - t.x_cell[idx], xr < 0


def evaluate_pattern(n, m, x) -> np.ndarray:
    """Kernel f_nm at points ``x`` via cached quintic interpolation.

    Defined by unbiasedness:  averaging ``e^{i(m-n) phi} f_nm(x)`` over
    homodyne samples of any state estimates ``<n|rho|m>``.  ``n`` and ``m``
    are integers (an index array raises TypeError); the values have the
    shape of ``x``, a float for scalar ``x``.  The parity
    ``f_nm(-x) = (-1)^(n+m) f_nm(x)`` holds bit for bit.
    """
    n, m = operator.index(n), operator.index(m)
    if n < 0 or m < n:
        raise ValueError("kernel indices require 0 <= n <= m")
    xa = np.asarray(x, dtype=float)
    t, idx, dt, negative = _locate(m, xa)
    c = np.take(t.band(m - n, n + 1)[n], idx, axis=1)
    out = ((((c[0] * dt + c[1]) * dt + c[2]) * dt + c[3]) * dt + c[4]) * dt + c[5]
    if (n + m) % 2:
        np.negative(out, out=out, where=negative)
    return out.reshape(xa.shape)[()]


def pattern_sums(n, d, j_max, x, weights=None):
    """Sums ``sum_s w_s f(x_s)`` and ``sum_s (w_s f(x_s))^2`` of each kernel ``f_{n+j, n+d+j}``.

    ``j`` runs over 0..j_max, one ray.  ``weights`` holds one row of per-point
    weights ``w`` per sum wanted (default: one row of ones); ``s1`` and ``s2``
    are shaped ``(j_max + 1, rows)``.
    A kernel is a quintic in ``dt = |x| - x_i`` on each cell, so its sums are its
    coefficients ``a_k`` dotted with the occupied cells' moments ``S_k = sum w dt^k``
    and ``sum w^2 dt^p``, the latter as ``sum_k a_k (a_k S_2k + 2 sum_(l>k) a_l S_(k+l))``.
    Every kernel of the ray has the parity of ``d``: for odd ``d`` the first sums
    take ``-w`` at ``x < 0``.  Products are elementwise on ``(kernels, cells)``
    planes and each row is summed on its own, so its bits do not depend on ``j_max``.
    """
    if n < 0 or d < 0 or j_max < 0:
        raise ValueError("ray indices n, d and j_max must be nonnegative")
    xa = np.asarray(x, dtype=float)
    t, idx, dt, negative = _locate(n + d + j_max, xa)
    w = np.ones((1, xa.size)) if weights is None else np.reshape(weights, (-1, xa.size))
    counts = np.bincount(idx, minlength=t.x_cell.size - 1)
    cells = np.flatnonzero(counts)
    at = np.cumsum(counts > 0)[idx] - 1         # each point's rank among the occupied cells
    powers = np.empty((2 * _TERMS - 1, xa.size))
    powers[0] = 1.0
    for p in range(1, 2 * _TERMS - 1):
        np.multiply(powers[p - 1], dt, out=powers[p])

    def moments(v, order):
        """``sum v dt^p`` over each occupied cell, ``p < order``; ``v = None`` is unit weights."""
        return [np.bincount(at, powers[p] if v is None else v * powers[p], minlength=cells.size)
                for p in range(order)]

    # the ray's rows in one gather at the occupied cells, as contiguous planes; a[k] * dt^k
    a = np.take(t.band(d, n + j_max + 1)[n:], cells, axis=2).transpose(1, 0, 2).copy()[::-1]
    s1 = np.empty((j_max + 1, len(w)))
    s2 = np.empty((j_max + 1, len(w)))
    for k, wk in enumerate(w):
        sq = moments(None if weights is None else wk * wk, 2 * _TERMS - 1)
        if d % 2:
            s = moments(np.where(negative, -wk, wk), _TERMS)
        else:
            s = sq if weights is None else moments(wk, _TERMS)
        total = a[0] * s[0]
        for ak, sk in zip(a[1:], s[1:]):
            total += ak * sk
        s1[:, k] = np.sum(total, axis=1)
        total = 0.0
        for i in range(_TERMS):
            part = a[i] * sq[2 * i]
            for l in range(i + 1, _TERMS):
                part += a[l] * (2.0 * sq[i + l])
            part *= a[i]
            total += part
        s2[:, k] = np.sum(total, axis=1)
    return s1, s2
