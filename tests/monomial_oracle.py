"""Monomial grids of element-space members, the bit-exact test oracle.

Members and projections hold Legendre-product coefficients only; tests
that need exact monomial algebra (products, formal partials, the
divergence and the curl) build the grids here from the labels or the
coefficients, never from the member.  The library's Polynomial2D has no
algebra of its own: Poly adds +, -, * and negation, and the shifted
Legendre polynomials expand into monomials and back in exact rationals.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from hdivkit.poly import Polynomial2D, VectorPoly2D


class Poly(Polynomial2D):
    """Polynomial2D with exact grid algebra: +, - and * (by a polynomial or a
    number) and negation; the other operand may be any Polynomial2D."""

    __slots__ = ()

    def _binary(self, other, sign):
        sc, oc = self.coeffs, other.coeffs
        out = np.zeros((max(sc.shape[0], oc.shape[0]), max(sc.shape[1], oc.shape[1])))
        out[: sc.shape[0], : sc.shape[1]] = sc
        out[: oc.shape[0], : oc.shape[1]] += sign * oc
        return Poly(out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, other):
        if not isinstance(other, Polynomial2D):
            return Poly(self.coeffs * float(other))
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return Poly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(-self.coeffs)


def partial(p: Polynomial2D, direction: str) -> Poly:
    """The formal first partial of p, with Poly's algebra."""
    return Poly(p.partial(direction).coeffs)


def divergence(w: VectorPoly2D) -> Poly:
    """du/dx + dv/dy as an exact formal derivative."""
    return partial(w.u, "x") + partial(w.v, "y")


def curl_scalar(phi: Polynomial2D) -> VectorPoly2D:
    """(dphi/dy, -dphi/dx); divergence-free by mixed-partial symmetry."""
    return VectorPoly2D(partial(phi, "y"), -partial(phi, "x"))


@functools.lru_cache(maxsize=None)
def coeffs_frac(n: int) -> tuple:
    """Monomial coefficients of the degree-n shifted Legendre polynomial,
    exact: coef[m] = (-1)**(n+m) * C(n, m) * C(n+m, m)."""
    return tuple(
        Fraction((-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m))
        for m in range(n + 1)
    )


@functools.lru_cache(maxsize=None)
def coeffs(n: int) -> np.ndarray:
    """coeffs_frac(n) as doubles, which hold these integers exactly."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c = np.array(coeffs_frac(n), dtype=float)
    c.setflags(write=False)
    return c


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


def product_poly(i: int, j: int) -> Poly:
    """L_i(x) * L_j(y) as a Poly with exact integer grid."""
    return Poly(np.outer(coeffs(i), coeffs(j)))


def reference_grids(space, coeffs):
    """Sum of c_b times the monomial grid of label b, in label order; curl
    label (i, j) is the monomial curl of product_poly(i, j)."""
    u = v = Poly.zero()
    for c, (kind, i, j) in zip(coeffs, space.labels):
        if c == 0.0:
            continue
        if kind == "x":
            u = u + product_poly(i, j) * float(c)
        elif kind == "y":
            v = v + product_poly(i, j) * float(c)
        else:
            w = curl_scalar(product_poly(i, j))
            u = u + w.u * float(c)
            v = v + w.v * float(c)
    return u, v


def reference_field(member) -> VectorPoly2D:
    """The single member as a monomial field, from reference_grids."""
    assert np.ndim(member.coeffs) == 1, "one member, not a stack"
    return VectorPoly2D(*reference_grids(member.space, member.coeffs))


def integrate_rect(p: Polynomial2D, hx: float, hy: float) -> float:
    """Integral of p over [0, hx] x [0, hy] from the monomial closed form."""
    if hx <= 0 or hy <= 0:
        raise ValueError("rectangle dimensions must be positive")
    c = p.coeffs
    i = np.arange(1, c.shape[0] + 1, dtype=float)
    j = np.arange(1, c.shape[1] + 1, dtype=float)
    return float(np.sum(c * np.outer(hx**i / i, hy**j / j)))


def project(proj, w) -> Poly:
    """proj's projection of w as a monomial grid, summed from
    proj.coeffs_internal(w) in sorted (i, j) order."""
    c = proj.coeffs_internal(w)
    out = Poly.zero()
    for ij in sorted(c):
        if c[ij] != 0.0:
            out = out + product_poly(*ij) * c[ij]
    return out


def monomial_basis(scalar_space) -> list:
    """The monomials x^i y^j of scalar_space.exponents, in order."""
    return [Poly.monomial(i, j) for i, j in scalar_space.exponents]


def scale_arguments(p: Polynomial2D, ax: float, ay: float) -> Poly:
    """q(x, y) = p(ax*x, ay*y) via coefficient scaling."""
    i = np.arange(p.coeffs.shape[0], dtype=float)
    j = np.arange(p.coeffs.shape[1], dtype=float)
    return Poly(p.coeffs * np.outer(ax**i, ay**j))


def pull_back(fld: VectorPoly2D, hx: float, hy: float) -> VectorPoly2D:
    """The Piola pull-back (hy u . F, hx v . F) of a monomial field to the
    reference square, F(x, y) = (hx x, hy y), by coefficient scaling."""
    return VectorPoly2D(scale_arguments(fld.u, hx, hy) * hy, scale_arguments(fld.v, hx, hy) * hx)
