"""Shifted Legendre polynomials on [0, 1].

These are the package's workhorse orthogonal family: edge and interior
test polynomials, the element-space trial bases (BDM's curl members
included), and the internal projector bases are all built from them.
Values and derivatives are computed by the three-term recurrence, which
stays accurate where coefficient-grid evaluation of high-degree members
would lose digits to cancellation; derivatives expand back into the
family with the exact integer derivative_matrix.

Orthogonality: integral over [0,1] of L_i L_j = delta_ij / (2i + 1).
Normalization: L_n(1) = 1 for every n.
"""

from __future__ import annotations

import numpy as np


def values(nmax: int, x) -> list:
    """Values of degrees 0..nmax at x via the recurrence, dtype-preserving."""
    x = np.asarray(x)
    s = 2 * x - np.asarray(1, dtype=x.dtype if x.dtype.kind == "f" else float)
    out = [np.ones_like(s)]
    if nmax >= 1:
        out.append(s.copy())
    for n in range(2, nmax + 1):
        out.append(((2 * n - 1) * s * out[-1] - (n - 1) * out[-2]) / n)
    return out


def deriv_values(nmax: int, x) -> tuple:
    """(values(nmax, x), first derivatives d/dx including the chain-rule factor 2)."""
    x = np.asarray(x)
    s = 2 * x - np.asarray(1, dtype=x.dtype if x.dtype.kind == "f" else float)
    p = values(nmax, x)
    out = [np.zeros_like(s)]
    if nmax >= 1:
        out.append(np.full_like(s, 2))
    for n in range(2, nmax + 1):
        out.append(((2 * n - 1) * (2 * p[n - 1] + s * out[-1]) - (n - 1) * out[-2]) / n)
    return p, out


def derivative_matrix(n: int) -> np.ndarray:
    """Exact d/dt L_a = sum_m D[a, m] L_m, D[a, m] = 2 (2m + 1) for m < a, a - m odd.

    Python integers in an object array, so products stay exact.
    """
    D = np.zeros((n, n), dtype=object)
    for a in range(n):
        for m in range(a - 1, -1, -2):
            D[a, m] = 2 * (2 * m + 1)
    return D
