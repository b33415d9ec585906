"""Monomial grids of element-space members, the bit-exact test oracle.

Members and projections hold Legendre-product coefficients only; tests
that need exact monomial algebra (products, formal partials, the
divergence) build the grids here from the labels or the coefficients,
never from the member.
"""

import functools
import math

import numpy as np

from hdivkit.poly import Polynomial2D, VectorPoly2D, curl_scalar


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


def product_poly(i: int, j: int) -> Polynomial2D:
    """L_i(x) * L_j(y) as a Polynomial2D with exact integer grid."""
    return Polynomial2D(np.outer(coeffs(i), coeffs(j)))


def reference_grids(space, coeffs):
    """Sum of c_b times the monomial grid of label b, in label order."""
    u = v = Polynomial2D.zero()
    for c, lab in zip(coeffs, space.labels):
        if c == 0.0:
            continue
        if lab[0] == "x":
            u = u + product_poly(lab[1], lab[2]) * float(c)
        elif lab[0] == "y":
            v = v + product_poly(lab[1], lab[2]) * float(c)
        else:
            exps = (space.k + 1, 1) if lab[1] == 1 else (1, space.k + 1)
            w = curl_scalar(Polynomial2D.monomial(*exps))
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


def project(proj, w) -> Polynomial2D:
    """proj's projection of w as a monomial grid, summed from
    proj.coeffs_internal(w) in sorted (i, j) order."""
    c = proj.coeffs_internal(w)
    out = Polynomial2D.zero()
    for ij in sorted(c):
        if c[ij] != 0.0:
            out = out + product_poly(*ij) * c[ij]
    return out


def monomial_basis(scalar_space) -> list:
    """The monomials x^i y^j of scalar_space.exponents, in order."""
    return [Polynomial2D.monomial(i, j) for i, j in scalar_space.exponents]


def scale_arguments(p: Polynomial2D, ax: float, ay: float) -> Polynomial2D:
    """q(x, y) = p(ax*x, ay*y) via coefficient scaling."""
    i = np.arange(p.coeffs.shape[0], dtype=float)
    j = np.arange(p.coeffs.shape[1], dtype=float)
    return Polynomial2D(p.coeffs * np.outer(ax**i, ay**j))


def pull_back(fld: VectorPoly2D, hx: float, hy: float) -> VectorPoly2D:
    """The Piola pull-back (hy u . F, hx v . F) of a monomial field to the
    reference square, F(x, y) = (hx x, hy y), by coefficient scaling."""
    return VectorPoly2D(scale_arguments(fld.u, hx, hy) * hy, scale_arguments(fld.v, hx, hy) * hx)
