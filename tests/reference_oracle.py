"""Reference computations that only the tests read.

The library samples tensor rules on their axes; these oracles keep the
enumerated points and the closed forms the tests compare it with.
"""

import numpy as np

from hdivkit.elements import ElementSpace, _legendre_coordinates, _product_norms, build_space
from hdivkit.harness import _check_lp_args, _lp_sum
from hdivkit.interpolation import REFINE_SWEEPS
from hdivkit.quadrature import NONPOLY_POINTS, tensor_rule


def enumerated_rule(hx, hy):
    """The fixed 20 x 20 Gauss rule mapped to [0, hx] x [0, hy] as enumerated
    points: xs, ys, ws of shape (..., 400), x-major; columns hx, hy of shape
    (m, 1) map it to one rectangle per row."""
    rule = tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)
    return hx * rule.xs, hy * rule.ys, (hx * hy) * rule.ws


def on_grid(values):
    """Values at the enumerated points, laid out on the (20, 20) grid of the axes."""
    return np.reshape(values, np.shape(values)[:-1] + (NONPOLY_POINTS, NONPOLY_POINTS))


def error_Lp_reference(ref_field, member, rect, p: float, which: str) -> float:
    """The physical L^p error of harness.error_Lp, integrated on the reference square.

    Consistency oracle for error_Lp: reference components scale by
    1/hy, 1/hx (divergence by 1/(hx hy)) and the measure by hx hy.
    """
    _check_lp_args(p, which)
    xs, ys, ws = enumerated_rule(1.0, 1.0)
    area = rect.hx * rect.hy
    if which == "field":
        U1, V1 = ref_field.uv(xs, ys)
        U2, V2 = member.uv(xs, ys)
        mag = np.hypot(np.asarray(U1 - U2, dtype=float) / rect.hy,
                       np.asarray(V1 - V2, dtype=float) / rect.hx)
    else:
        d1 = ref_field.div_values(xs, ys)
        d2 = member.div_values(xs, ys)
        mag = np.abs(np.asarray(d1 - d2, dtype=float)) / area
    return _lp_sum(area * ws, mag, p)


def gram_matrix(space: ElementSpace) -> np.ndarray:
    """L2(K) Gram matrix of the basis in closed form.

    Legendre products are orthogonal, so with basis coordinates C
    G = sum over components of C diag(1 / ((2i+1)(2j+1))) C^T.
    """
    n = space._maxdeg + 1
    C = _legendre_coordinates(space).astype(float).reshape(space.dim, 2, n * n)
    w = _product_norms(n).ravel()
    return sum((C[:, comp] * w) @ C[:, comp].T for comp in range(2))


def component_degrees(family, k):
    """Maximal (x-degree, y-degree) per component, curl members included: the
    degree bounds of the member with every coefficient nonzero."""
    space = build_space(family, k)
    return space.member(np.ones(space.dim)).degree_bounds


def gesv_solve(op, b):
    """The operator's solve by LU instead of its cached inverse: one nrhs = 1
    np.linalg.solve per DOF vector (a getrf and a getrs each) and the same
    REFINE_SWEEPS extended-precision residual corrections; leading axes batch."""
    b = b[..., None]
    x = np.longdouble(np.linalg.solve(op.dof_matrix, b.astype(float)))
    for _ in range(REFINE_SWEEPS):
        x = x + np.linalg.solve(op.dof_matrix, (b - op._M_ld @ x).astype(float))
    return x[..., 0].astype(float)
