"""Monomial grids of element-space members, the bit-exact test oracle.

Members hold Legendre-product coefficients only; tests that need exact
monomial algebra (products, formal partials, the divergence) build the
grids here from the labels, never from the member.
"""

import numpy as np

from hdivkit import legendre
from hdivkit.poly import Polynomial2D, VectorPoly2D, curl_scalar


def reference_grids(space, coeffs):
    """Sum of c_b times the monomial grid of label b, in label order."""
    u = v = Polynomial2D.zero()
    for c, lab in zip(coeffs, space.labels):
        if c == 0.0:
            continue
        if lab[0] == "x":
            u = u + legendre.product_poly(lab[1], lab[2]) * float(c)
        elif lab[0] == "y":
            v = v + legendre.product_poly(lab[1], lab[2]) * float(c)
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
