"""Independent brute-force integration oracles for the test suite.

The cut-region oracle decomposes the triangle into vertical slabs and
integrates monomials by 1D quadrature in x with exact antiderivatives in
y; the sign of the linear vertex interpolant restricts each x-section.
It shares no code with the polygon-clipping quadrature it checks. The
condition-number oracle is a dense symmetric eigensolve of the whole
spectrum.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_PANELS = 96


def _interpolant_coefficients(tri, values):
    """Coefficients (c0, c1, c2) of the affine interpolant
    c0 + c1 x + c2 y matching the vertex values."""
    a = np.column_stack([np.ones(3), tri[:, 0], tri[:, 1]])
    return np.linalg.solve(a, values)


def _section(tri, x):
    """y-interval of the triangle at abscissa x (may be empty)."""
    ys = []
    for i in range(3):
        p, q = tri[i], tri[(i + 1) % 3]
        lo, hi = min(p[0], q[0]), max(p[0], q[0])
        if lo <= x <= hi and hi > lo:
            t = (x - p[0]) / (q[0] - p[0])
            if 0.0 <= t <= 1.0:
                ys.append(p[1] + t * (q[1] - p[1]))
    if len(ys) < 2:
        return None
    return min(ys), max(ys)


def integrate_negative_monomial(tri, values, a: int, b: int) -> float:
    """Brute-force integral of x^a y^b over the sub-region of ``tri``
    where the linear interpolant of ``values`` is negative."""
    tri = np.asarray(tri, dtype=float)
    values = np.asarray(values, dtype=float)
    c0, c1, c2 = _interpolant_coefficients(tri, values)
    # slab boundaries: vertex abscissas plus the abscissas where the zero
    # line crosses an edge (the inner integrand kinks there)
    breaks = list(tri[:, 0])
    for i in range(3):
        j = (i + 1) % 3
        if (values[i] < 0.0) != (values[j] < 0.0):
            t = values[i] / (values[i] - values[j])
            breaks.append(tri[i, 0] + t * (tri[j, 0] - tri[i, 0]))
    xs = np.sort(np.asarray(breaks))
    total = 0.0
    for xl, xr in zip(xs[:-1], xs[1:]):
        if xr - xl <= 0.0:
            continue
        edges = np.linspace(xl, xr, _PANELS + 1)
        for pl, pr in zip(edges[:-1], edges[1:]):
            half = 0.5 * (pr - pl)
            mid = 0.5 * (pr + pl)
            for gx, gw in zip(_GAUSS_X, _GAUSS_W):
                x = mid + half * gx
                section = _section(tri, x)
                if section is None:
                    continue
                ylo, yhi = section
                # restrict to the negative part of the linear interpolant
                if abs(c2) < 1e-300:
                    if c0 + c1 * x >= 0.0:
                        continue
                else:
                    ystar = -(c0 + c1 * x) / c2
                    if c2 > 0.0:
                        yhi = min(yhi, ystar)
                    else:
                        ylo = max(ylo, ystar)
                if yhi <= ylo:
                    continue
                inner = (yhi ** (b + 1) - ylo ** (b + 1)) / (b + 1)
                total += gw * half * x ** a * inner
    return total


def integrate_segment_monomial(p0, p1, a: int, b: int, panels: int = 4096) -> float:
    """Composite-midpoint line integral of x^a y^b along a segment."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t = (np.arange(panels) + 0.5) / panels
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    length = np.linalg.norm(p1 - p0)
    return float(np.mean(pts[:, 0] ** a * pts[:, 1] ** b) * length)


def dense_condition_number(matrix, zero_threshold: float = 1e-12):
    """(kappa, lambda_min_nonzero, lambda_max, nullity) of a sparse
    symmetric matrix from all its eigenvalues, where |lambda| <=
    zero_threshold * |lambda|_max counts as zero."""
    eigs = np.abs(scipy.linalg.eigvalsh(matrix.toarray()))
    lam_max = float(eigs.max())
    nonzero = eigs[eigs > zero_threshold * lam_max]
    lam_min = float(nonzero.min())
    return lam_max / lam_min, lam_min, lam_max, eigs.size - nonzero.size
