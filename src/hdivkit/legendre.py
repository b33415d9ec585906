"""Shifted Legendre polynomials on [0, 1].

These are the package's workhorse orthogonal family: edge and interior
test polynomials, the element-space trial bases, and the internal
projector bases are all built from them.  Coefficients are exact
integers, so grids are exactly representable; values are computed by the
three-term recurrence, which stays accurate where coefficient-grid
evaluation of high-degree members would lose digits to cancellation.

Orthogonality: integral over [0,1] of L_i L_j = delta_ij / (2i + 1).
Normalization: L_n(1) = 1 for every n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .poly import Polynomial2D


@functools.lru_cache(maxsize=None)
def coeffs(n: int) -> np.ndarray:
    """Monomial coefficients of the degree-n shifted Legendre polynomial.

    Exact integers: coef[m] = (-1)**(n+m) * C(n, m) * C(n+m, m).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    c = np.array(
        [(-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m) for m in range(n + 1)],
        dtype=float,
    )
    c.setflags(write=False)
    return c


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


@functools.lru_cache(maxsize=None)
def coeffs_frac(n: int) -> tuple:
    return tuple(
        Fraction((-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m))
        for m in range(n + 1)
    )


@functools.lru_cache(maxsize=None)
def power_moment(a: int, n: int) -> Fraction:
    """Exact integral over [0,1] of t**a * L_n(t)."""
    return sum((c * Fraction(1, a + m + 1) for m, c in enumerate(coeffs_frac(n))), Fraction(0))


@functools.lru_cache(maxsize=None)
def monomial_in_basis(a: int) -> tuple:
    """Exact expansion t**a = sum_i b[i] L_i(t); returns b[0..a] as Fractions."""
    return tuple((2 * i + 1) * power_moment(a, i) for i in range(a + 1))


def grid_to_basis_exact(grid) -> dict:
    """Expand a coefficient grid over products L_i(x) L_j(y), exactly.

    The grid entries are converted to Fractions (doubles are exact
    rationals), so a polynomial that truly lies in a Legendre-product
    span comes out with exactly zero coefficients outside it.
    """
    grid = np.asarray(grid, dtype=float)
    nx, ny = grid.shape
    out: dict = {}
    for a in range(nx):
        bx = monomial_in_basis(a)
        for b in range(ny):
            g = grid[a, b]
            if g == 0.0:
                continue
            gf = Fraction(g)
            by = monomial_in_basis(b)
            for i in range(a + 1):
                if bx[i] == 0:
                    continue
                for j in range(b + 1):
                    if by[j] == 0:
                        continue
                    key = (i, j)
                    out[key] = out.get(key, Fraction(0)) + gf * bx[i] * by[j]
    return {k: v for k, v in out.items() if v != 0}


def product_poly(i: int, j: int) -> Polynomial2D:
    """L_i(x) * L_j(y) as a Polynomial2D with exact integer grid."""
    return Polynomial2D(np.outer(coeffs(i), coeffs(j)))
