"""Reference computations that only the tests read.

The library samples tensor rules on their axes and applies a whole DOF
set through one plan; these oracles keep the enumerated points, the
per-functional quadrature and the closed forms the tests compare it with.
"""

import functools

import numpy as np

from hdivkit import legendre
from hdivkit.dofs import _EDGE_SIGN
from hdivkit.elements import ElementSpace, _legendre_coordinates, _product_norms, build_space
from hdivkit.harness import _check_lp_args, _lp_sum
from hdivkit.interpolation import REFINE_SWEEPS
from hdivkit.quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01, n_for_degree, tensor_rule

_EDGE_COMPONENT = {"left": 0, "right": 0, "bottom": 1, "top": 1}


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


@functools.lru_cache(maxsize=None)
def edge_rule(edge: str, n: int) -> tuple:
    """n Gauss points on an edge of the unit square, extended precision.

    Returns read-only arrays (x, y, t, w): the points, the edge parameter
    and the weights.  t runs with the increasing coordinate: left edge
    (0, t), right (1, t), bottom (t, 0), top (t, 1).
    """
    if edge not in EDGES:
        raise ValueError(f"unknown edge {edge!r}")
    r = gauss_legendre_01(n)
    t = r.nodes_ld
    side = np.full(n, np.longdouble(edge in ("right", "top")))
    side.setflags(write=False)
    if edge in ("left", "right"):
        return side, t, t, r.weights_ld
    return t, side, t, r.weights_ld


def apply_dof_ld(fn, field) -> np.longdouble:
    """One functional applied to a field by its own quadrature, in extended
    precision: the per-functional reference for dofs.DofPlan."""
    degs = getattr(field, "degree_bounds", None)
    if fn.kind == "edge_moment":
        comp = _EDGE_COMPONENT[fn.edge]
        if degs is None:
            n = NONPOLY_POINTS
        else:
            along = degs[comp][1] if comp == 0 else degs[comp][0]
            n = n_for_degree(along + fn.i)
        x, y, t, w = edge_rule(fn.edge, n)
        U, V = field.uv(x, y)
        vals = U if comp == 0 else V
        test = legendre.values(fn.i, t)[fn.i]
        return np.longdouble(_EDGE_SIGN[fn.edge]) * np.sum(w * vals * test)
    if fn.kind == "interior_moment":
        if degs is None:
            nx = ny = NONPOLY_POINTS
        else:
            dx, dy = degs[fn.component]
            nx = n_for_degree(dx + fn.i)
            ny = n_for_degree(dy + fn.j)
        rule = tensor_rule(nx, ny)
        U, V = field.uv(rule.xs_ld, rule.ys_ld)
        vals = U if fn.component == 0 else V
        test = legendre.values(fn.i, rule.xs_ld)[fn.i] * legendre.values(fn.j, rule.ys_ld)[fn.j]
        return np.sum(rule.ws_ld * vals * test)
    if fn.kind == "div_moment":
        if degs is None:
            nx = ny = NONPOLY_POINTS
        else:
            (dx0, dy0), (dx1, dy1) = degs
            nx = n_for_degree(max(dx0 - 1, dx1, 0) + fn.i)
            ny = n_for_degree(max(dy0, dy1 - 1, 0) + fn.j)
        rule = tensor_rule(nx, ny)
        vals = field.div_values(rule.xs_ld, rule.ys_ld)
        return np.sum(rule.ws_ld * vals * rule.xs_ld ** fn.i * rule.ys_ld ** fn.j)
    raise ValueError(f"unknown DOF kind {fn.kind!r}")


def apply_dof(fn, field) -> float:
    return float(apply_dof_ld(fn, field))
