"""Oscillator wavefunction tables and tomography kernels.

Convention: the quadrature is ``x = (a + a^dag)/2`` (vacuum variance 1/4), in
which the number-state wavefunctions ``psi_n`` satisfy ``psi'' = (4x^2 - 4n - 2)
psi``.  The tomography kernel for the element ``<n|rho|m>`` is

    f_nm(x) = d/dx [ psi_n(x) * chi_m(x) ]

with ``chi_m`` the irregular solution of the same equation whose parity is
opposite to ``psi_m``, integrated outward from the origin by Numerov.  Each
kernel is scaled by the unbiasedness anchor ``integral psi_n psi_m f_nm dx = 1``,
whose value is ``W_m / 2``, half the Wronskian ``psi_m chi_m' - psi_m' chi_m`` of
the pair, read at x = 0.

A kernel's values come from the start values at the origin and the steps out to
each node, and its anchor from the origin, so it has the same bits in every table
that holds it.  A dataset's sums from ``pattern_sums`` depend only on its own
points and weights and on the CPU's BLAS kernel.
"""
from __future__ import annotations

import operator

import numpy as np

from .exceptions import ExtrapolationError

_CELL = 0.01              # spline cell width
_TERMS = 6                # coefficients of a quintic spline row
_SQUARE = 2 * _TERMS - 1  # coefficients of its square
_ROWS = 32                # kernel rows per contraction block
_DEPTH = 256              # cell coefficients per contraction block
_COLUMNS = 16             # moment columns per contraction
_FINE_SUB = 10            # Numerov steps per spline cell
_X_LIMIT = 26.0           # widest table range at which chi stays finite
_INDEX_LIMIT = 483        # number states up to it sample inside |x| = 26 (_check_sample_extent)


def _psi_rows(nmax, x):
    """psi_n(x) for n = 0..nmax, one row at a time, each shaped like ``x``.

    Three-term recursion for normalized oscillator eigenfunctions,
    rescaled to the vacuum-variance-1/4 convention.  Each row feeds the
    next two, so a caller must not write into the rows it is given.
    """
    y = np.sqrt(2.0) * x
    row = (2.0 / np.pi) ** 0.25 * np.exp(-(x**2))
    yield row
    if nmax >= 1:
        last, row = row, np.sqrt(2.0) * y * row
        yield row
    for n in range(2, nmax + 1):
        last, row = row, np.sqrt(2.0 / n) * y * row - np.sqrt((n - 1.0) / n) * last
        yield row


def _psi_half(nmax, x):
    """psi_n(x) for n <= nmax as a (nmax + 1, len(x)) array: the rows of ``_psi_rows``."""
    out = np.empty((nmax + 1, x.size))
    for n, row in enumerate(_psi_rows(nmax, x)):
        out[n] = row
    return out


def _chi_half(mmax, x):
    """Numerov integration of chi'' = (4x^2 - 4m - 2) chi for all m at once.

    Start values at the origin select the solution of parity opposite to
    psi_m, which excludes any admixture of the regular solution.
    Returns contiguous chi and chi' at every ``_FINE_SUB``-th node of ``x``, the cell
    nodes; the last node of ``x`` serves the central difference at the outermost one.
    It steps one cell at a time, forming ``Q`` and the Numerov factors on that cell's rows.
    """
    ms = np.arange(mmax + 1)
    E = 4.0 * ms + 2.0
    h = x[1] - x[0]
    even = (ms % 2) == 1          # chi is even exactly when psi_m is odd
    cells = (x.size - 2) // _FINE_SUB
    chi = np.empty((cells + 1, ms.size))
    around = np.empty((cells, 2, ms.size))     # chi one step before and after each node
    rows = np.empty((_FINE_SUB + 2, ms.size))  # one cell's steps, from its left node on
    rows[0] = chi[0] = np.where(even, 1.0, 0.0)
    # Taylor start one step out (error O(h^6))
    rows[1] = np.where(
        even,
        1.0 - E * h * h / 2.0 + (8.0 + E * E) * h**4 / 24.0,
        h * (1.0 - E * h * h / 6.0 + (24.0 + E * E) * h**4 / 120.0),
    )
    for c in range(cells):
        Q = 4.0 * x[c * _FINE_SUB:(c + 1) * _FINE_SUB + 2, None] ** 2 - E[None, :]
        a = 1.0 - (h * h / 12.0) * Q
        b = 2.0 * (1.0 + (5.0 * h * h / 12.0) * Q)
        for i in range(1, _FINE_SUB + 1):
            rows[i + 1] = (b[i] * rows[i] - a[i - 1] * rows[i - 1]) / a[i + 1]
        chi[c + 1] = rows[_FINE_SUB]
        around[c] = rows[_FINE_SUB - 1::2]
        rows[:2] = rows[_FINE_SUB:]
    # derivative at the returned nodes from the ODE-corrected central difference (O(h^4)):
    # chi' (1 + h^2 Q / 6) = (chi_+ - chi_-)/(2h) - (h^2/6) Q' chi, Q' = 8x
    node = x[_FINE_SUB:-1:_FINE_SUB, None]
    dchi = np.empty((cells + 1, ms.size))
    dchi[1:] = (
        (around[:, 1] - around[:, 0]) / (2.0 * h)
        - (h * h / 6.0) * (8.0 * node) * chi[1:]
    ) / (1.0 + (h * h / 6.0) * (4.0 * node ** 2 - E[None, :]))
    dchi[0] = np.where(even, 0.0, 1.0)
    return np.ascontiguousarray(chi.T), np.ascontiguousarray(dchi.T)


class _Tables:
    """``psi``, ``chi`` and ``chi'`` on the spline's cell nodes ``x_cell``, ``_CELL`` apart on
    ``x >= 0`` up to ``x_max``, with each band's contraction blocks in ``stacks``."""

    def __init__(self, max_index, reach):
        self.max_index = max_index
        self.x_max = max(1.0, float(np.ceil(reach)))
        fine = np.arange(_FINE_SUB * int(round(self.x_max / _CELL)) + 2) * (_CELL / _FINE_SUB)
        self.chi, self.dchi = _chi_half(max_index, fine)
        self.x_cell = fine[:-1:_FINE_SUB].copy()
        self.psi = _psi_half(max_index + 1, self.x_cell)
        self.dx = np.diff(self.x_cell)
        self.stacks = {}

    def kernel_derivatives(self, n, m, lo=0, hi=None):
        """Kernel f_nm, its slope and its curvature at nodes ``lo:hi`` of ``x_cell`` (all by
        default), all over the anchor.

        ``n`` and ``m`` are indices or equal-length index arrays; an array gives one row
        per pair.  Both derivatives follow from the ODE, ``psi'' = Q psi`` and
        ``chi'' = Q chi``, ``Q_k = 4x^2 - 4k - 2``:
        ``f' = (Q_n + Q_m) psi_n chi_m + 2 psi_n' chi_m'`` and
        ``f'' = 16x psi_n chi_m + (Q_n + Q_m) f + 2(Q_n psi_n chi_m' + Q_m psi_n' chi_m)``.
        ``psi_n' = sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}``, with ``psi_0``
        standing in for ``psi_{-1}``, which its zero coefficient cancels.
        The anchor is ``W_m / 2``, taken at the x = 0 node whatever the node range, so a
        kernel's bits depend neither on the table's range nor on the range asked for.
        """
        n, m = np.asarray(n), np.asarray(m)
        cn, cm = n[..., None], m[..., None]     # per-pair factors, broadcast over the nodes
        nodes = slice(lo, hi)
        dpsi = (np.sqrt(cn) * self.psi[np.maximum(n - 1, 0), nodes]
                - np.sqrt(cn + 1.0) * self.psi[n + 1, nodes])
        psi, chi, dchi = self.psi[n, nodes], self.chi[m, nodes], self.dchi[m, nodes]
        f = dpsi * chi + psi * dchi
        origin = self.psi[:, :1]
        dpsi_m = np.sqrt(cm) * origin[np.maximum(m - 1, 0)] - np.sqrt(cm + 1.0) * origin[m + 1]
        anchor = 0.5 * (origin[m] * self.dchi[m, :1] - dpsi_m * self.chi[m, :1])
        product = psi * chi
        x = self.x_cell[nodes]
        x2 = 4.0 * x**2
        q_n, q_m = x2 - (4.0 * cn + 2.0), x2 - (4.0 * cm + 2.0)
        df = (q_n + q_m) * product + 2.0 * dpsi * dchi
        ddf = (16.0 * x * product + (q_n + q_m) * f
               + 2.0 * (q_n * psi * dchi + q_m * dpsi * chi))
        return f / anchor, df / anchor, ddf / anchor

    def coefficients(self, n, m, lo=0, hi=None):
        """Kernel f_nm's quintic Hermite coefficients on cells ``lo:hi`` (all by default),
        ``(6, cells)``; ``(pairs, 6, cells)`` for index arrays.  Per cell on ``x_cell``, the
        Horner coefficients in ``x - x_i``, highest power first, that match its value,
        slope and curvature at both ends."""
        hi = self.dx.size if hi is None else hi
        y, dy, ddy = self.kernel_derivatives(n, m, lo, hi + 1)
        h = self.dx[lo:hi]
        # what the Taylor quadratic at the left end misses at the right end,
        # in value, slope and curvature, each scaled to units of h^k
        y0, dy0, ddy0 = y[..., :-1], dy[..., :-1], ddy[..., :-1]
        e0 = y[..., 1:] - (y0 + h * (dy0 + 0.5 * h * ddy0))
        e1 = h * (dy[..., 1:] - (dy0 + h * ddy0))
        e2 = h * h * (ddy[..., 1:] - ddy0)
        return np.stack([(6.0 * e0 - 3.0 * e1 + 0.5 * e2) / h**5,
                         (-15.0 * e0 + 7.0 * e1 - e2) / h**4,
                         (10.0 * e0 - 4.0 * e1 + 0.5 * e2) / h**3,
                         0.5 * ddy0, dy0, y0], axis=-2)

    def blocks(self, d, rows, cells=None):
        """Kernels f_{k,k+d}, k < ``rows``, as contraction blocks filled over cells ``< cells``
        (all of the table's by default).

        Returns ``(quintics, squares)``, each ``(depth blocks, row blocks, 32, 256)`` over
        the whole table, zero-padded: row k at row ``k % 32`` of row block ``k // 32``, cell
        c's coefficient of ``dt^p`` at depth ``c * terms + p``, with 6 terms for the quintic
        and 11 for its square, ``sum_(k+l=p) a_k a_l``.  The stacks are allocated zeroed and
        kept, and made anew only for more rows.  A call fills the cells past those already
        filled, 128 at a time, so pages no fill has reached stay untouched, and every cell
        has the bits of the whole-table build however the fills were cut.
        """
        held = self.stacks.get(d)
        if held is None or held[0] < rows:
            self.stacks.pop(d, None)    # let the short stacks go before the new ones are made
            count = -(-rows // _ROWS)
            held = self.stacks[d] = [rows, 0] + [
                np.zeros((-(-self.dx.size * terms // _DEPTH), count, _ROWS, _DEPTH))
                for terms in (_TERMS, _SQUARE)]
        rows, filled, *stacks = held
        cells = self.dx.size if cells is None else cells
        for lo in range(filled, cells, _DEPTH // 2):
            hi = min(lo + _DEPTH // 2, cells)
            for b in range(stacks[0].shape[1]):
                ks = np.arange(b * _ROWS, min((b + 1) * _ROWS, rows))
                a = self.coefficients(ks, ks + d, lo, hi)[:, ::-1].transpose(0, 2, 1)  # dt^k
                square = np.zeros((len(ks), hi - lo, _SQUARE))
                for k in range(_TERMS):
                    square[..., 2 * k] += a[..., k] * a[..., k]
                    for l in range(k + 1, _TERMS):
                        square[..., k + l] += 2.0 * (a[..., k] * a[..., l])
                for stack, c in zip(stacks, (a, square)):
                    flat = c.reshape(len(ks), -1)
                    start, stop = lo * c.shape[2], hi * c.shape[2]  # the span's depth positions
                    for first in range(start - start % _DEPTH, stop, _DEPTH):
                        at, to = max(first, start), min(first + _DEPTH, stop)
                        stack[first // _DEPTH, b, :len(ks), at - first:to - first] = (
                            flat[:, at - start:to - start])
        held[1] = max(filled, cells)
        return tuple(stacks)

    def extent(self):
        """How far each band's blocks are filled, for :meth:`extend` in another process."""
        return {d: (rows, filled) for d, (rows, filled, *_) in self.stacks.items()}

    def extend(self, extent):
        """Fill the blocks at least as far as ``extent``, read from a copy of this table."""
        for d, (rows, filled) in extent.items():
            self.blocks(d, rows, min(filled, self.dx.size))


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
    idx = np.minimum((ax / _CELL).astype(np.int64), t.x_cell.size - 2)
    return t, idx, ax - t.x_cell[idx], xr < 0


def evaluate_pattern(n, m, x) -> np.ndarray:
    """Kernel f_nm at points ``x`` via quintic interpolation on the table's cells.

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
    c = np.take(t.coefficients(n, m), idx, axis=1)
    out = ((((c[0] * dt + c[1]) * dt + c[2]) * dt + c[3]) * dt + c[4]) * dt + c[5]
    if (n + m) % 2:
        np.negative(out, out=out, where=negative)
    return out.reshape(xa.shape)[()]


def pattern_sums(n, d, j_max, datasets):
    """Sums ``sum_s w_s f(x_s)`` and ``sum_s (w_s f(x_s))^2`` of each kernel ``f_{n+j, n+d+j}``.

    ``j`` runs over 0..j_max, one ray.  ``datasets`` is an iterable of pairs ``(x,
    weights)``: points of any shape and one row of per-point weights ``w`` per sum
    wanted, or ``None`` for one row of ones.  Each weight row is one column of ``s1``
    and ``s2``, shaped ``(j_max + 1, columns)``.  A kernel is a quintic in ``dt = |x| -
    x_i`` on each cell, so its sums are its coefficients dotted with the cells' moments
    ``sum w dt^k``, and its square's with ``sum w^2 dt^p``: it costs its occupied cells,
    not its points.  A ray's kernels have the parity of ``d``, so for odd ``d`` the
    first sums take ``-w`` at ``x < 0``.  Each dataset is reduced to its columns'
    moments as it arrives, and each 16 columns are contracted with the ray's blocks
    (``_Tables.blocks``), filled up to their last occupied cell, one BLAS ``gemm`` of
    32 rows, 256 cell coefficients and 16 columns per block: under OpenBLAS's
    one-thread limit (4 x 65,536 multiply-adds), so no product is split over threads.
    Products are added in cell order from the columns' first occupied block to their
    last, and a block where a column has no points adds exact zeros to it.  So a
    column's bits depend on its own points and weights only, not on the other datasets,
    ``j_max``, the table's range, how far the blocks are filled or the BLAS thread count.
    """
    if n < 0 or d < 0 or j_max < 0:
        raise ValueError("ray indices n, d and j_max must be nonnegative")
    top = n + d + j_max
    lo, skip = divmod(n, _ROWS)
    rows = slice(lo, (n + j_max) // _ROWS + 1)
    sums = [np.zeros((2, j_max + 1, 0))]
    group = []      # (first cell, first-sum moments, second-sum moments) per open column

    def contract():
        out = np.zeros((2, j_max + 1, len(group)))
        occupied = [c for c in group if c[1].size]
        if occupied:
            low = min(c[0] for c in occupied)
            high = max(len(c[1]) for c in occupied)
            stacks = tables_for(top).blocks(d, n + j_max + 1, high)
            for part, (stack, terms) in enumerate(zip(stacks, (_TERMS, _SQUARE))):
                # moments up to the depth block of the group's last occupied cell
                m = np.zeros((-(-high * terms // _DEPTH) * _DEPTH, _COLUMNS))
                for k, column in enumerate(group):
                    m[:column[part + 1].size, k] = column[part + 1].ravel()
                depth = slice(low * terms // _DEPTH, len(m) // _DEPTH)
                parts = np.matmul(stack[depth, rows], m.reshape(-1, _DEPTH, _COLUMNS)[depth, None])
                total = parts[0]
                for product in parts[1:]:
                    total += product
                out[part] = total.reshape(-1, _COLUMNS)[skip:skip + j_max + 1, :len(group)]
        sums.append(out)
        group.clear()

    def moments(dataset):
        x, weights = dataset
        xa = np.asarray(x, dtype=float)
        _, idx, dt, negative = _locate(top, xa)
        cells = int(idx.max(initial=-1)) + 1
        first = int(idx.min(initial=cells))
        weighted = []   # (first-sum weights v, second-sum weights w^2) per row; None for ones
        for w in [None] if weights is None else np.reshape(weights, (-1, xa.size)):
            v = w
            if d % 2:
                v = np.where(negative, -1.0, 1.0) if w is None else np.where(negative, -w, w)
            weighted.append((v, None if w is None else w * w))
        # sum v dt^p and sum w^2 dt^p over each cell c, at row c
        columns = [(first, np.empty((cells, _TERMS)), np.empty((cells, _SQUARE)))
                   for _ in weighted]
        power = np.ones(dt.size)
        for p in range(_SQUARE):
            if p:
                np.multiply(power, dt, out=power)
            for (v, w2), (_, s, sq) in zip(weighted, columns):
                sq[:, p] = np.bincount(idx, power if w2 is None else w2 * power, minlength=cells)
                if p < _TERMS:
                    s[:, p] = sq[:, p] if v is None else np.bincount(idx, v * power,
                                                                      minlength=cells)
        return columns

    # map holds no dataset between pulls, so only the one being reduced is alive
    for columns in map(moments, datasets):
        for column in columns:
            group.append(column)
            if len(group) == _COLUMNS:
                contract()
    if group:
        contract()
    s1, s2 = np.concatenate(sums, axis=2)
    return s1, s2
