"""Reference computations that only the tests read.

The library reads every field through its factor sample, samples tensor
rules on their axes and applies a whole DOF set through one plan; these
oracles keep pointwise values by another path (point_values), the
enumerated points, the per-functional quadrature, the closed forms and
the all-pairs (outer product) DOF contraction the tests compare it with,
the 2-D projector sums and Legendre sums that the commuting check's 1-D
factor products replaced, and ABF's divergence moments against the
monomials x^i y^j, the other test basis of the same functionals' span.
"""

import functools

import numpy as np

from hdivkit import legendre
from hdivkit.dofs import _plan_for, build_dofs
from hdivkit.elements import (
    ElementSpace, SpaceMember, _legendre_coordinates, _product_norms, build_space, factor_values,
)
from hdivkit.fields import CallableField, FieldStack, ManufacturedField
from hdivkit.harness import PulledBackField, _check_lp_args, _lp_sum
from hdivkit.quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01, n_for_degree, tensor_rule

_EDGE_COMPONENT = {"left": 0, "right": 0, "bottom": 1, "top": 1}
# outward normals: left (-1,0), right (1,0), bottom (0,-1), top (0,1)
_EDGE_SIGN = {"left": -1, "right": 1, "bottom": -1, "top": 1}


def point_values(field, x, y, comps=(0, 1, 2)) -> np.ndarray:
    """Components comps (u, v and div) of field at the points (x, y), shape
    (len(comps),) + batch + the points' broadcast shape, by a path apart from
    factor samples: a manufactured field's closed-form partials, a member's
    exact Legendre coordinates against the recurrence's values, a pull-back's
    Piola scaling of its field's values, a callable's own callables (nan for a
    missing divergence), a stack's rows, and a monomial field's
    (monomial_oracle) own uv and div_values."""
    x, y = np.broadcast_arrays(np.asarray(x), np.asarray(y))
    if isinstance(field, ManufacturedField):
        return np.stack([np.broadcast_to(field.partial(0, 0, c)(x, y), x.shape) for c in comps])
    if isinstance(field, SpaceMember):
        n = field.space._maxdeg + 1
        Lx, Ly = (np.array(legendre.values(n - 1, z)) for z in (x, y))
        dt = np.result_type(Lx, float)
        # the coefficients against the exact coordinates, then one Legendre sum per point
        C = _legendre_coordinates(field.space)[:, list(comps)].astype(dt)
        A = np.tensordot(field.coeffs.astype(dt), C, 1)
        values = np.einsum("mqij,i...,j...->mq...", A.reshape((-1,) + C.shape[1:]), Lx, Ly)
        return np.moveaxis(values.reshape(A.shape[:-2] + x.shape), -1 - x.ndim, 0)
    if isinstance(field, PulledBackField):
        hx, hy = field.hx, field.hy
        values = point_values(field.field, hx * x, hy * y, comps)
        return np.stack([(hy, hx, hx * hy)[c] * v for c, v in zip(comps, values)])
    if isinstance(field, FieldStack):
        return np.stack([point_values(f, x, y, comps) for f in field.fields], axis=1)
    if isinstance(field, CallableField):
        div = np.nan if field._div is None else field._div(x, y)
        values = (*field._uv(x, y), div)
    else:
        values = (*field.uv(x, y), field.div_values(x, y))
    return np.stack([np.broadcast_to(values[c], x.shape) for c in comps])


def rule_points(nx: int, ny: int, extended: bool = False):
    """tensor_rule(nx, ny) as enumerated points: xs, ys from the 1-D rules and
    the rule's weights ws, each of shape (nx * ny,), x-major; extended=True
    gives the long-double nodes and weights."""
    rx, ry, rule = gauss_legendre_01(nx), gauss_legendre_01(ny), tensor_rule(nx, ny)
    if extended:
        return np.repeat(rx.nodes_ld, ny), np.tile(ry.nodes_ld, nx), rule.ws_ld
    return np.repeat(rx.nodes, ny), np.tile(ry.nodes, nx), rule.ws


def enumerated_rule(hx, hy):
    """The fixed 20 x 20 Gauss rule mapped to [0, hx] x [0, hy] as enumerated
    points: xs, ys, ws of shape (..., 400), x-major; columns hx, hy of shape
    (m, 1) map it to one rectangle per row."""
    xs, ys, ws = rule_points(NONPOLY_POINTS, NONPOLY_POINTS)
    return hx * xs, hy * ys, (hx * hy) * ws


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
    (U, V, D) = point_values(ref_field, xs, ys) - point_values(member, xs, ys)
    if which == "field":
        mag = np.hypot(np.asarray(U, dtype=float) / rect.hy, np.asarray(V, dtype=float) / rect.hx)
    else:
        mag = np.abs(np.asarray(D, dtype=float)) / area
    return _lp_sum(area * ws, mag, p)


def gram_matrix(space: ElementSpace) -> np.ndarray:
    """L2(K) Gram matrix of the basis in closed form.

    Legendre products are orthogonal, so with basis coordinates C
    G = sum over components of C diag(1 / ((2i+1)(2j+1))) C^T.
    """
    n = space._maxdeg + 1
    C = _legendre_coordinates(space)[:, :2].astype(float).reshape(space.dim, 2, n * n)
    w = _product_norms(n).ravel()
    return sum((C[:, comp] * w) @ C[:, comp].T for comp in range(2))


def degree_bounds(field):
    """((dx, dy) of u, (dx, dy) of v) of a polynomial field, None for any other.

    A member's come from its space's _label_degrees on the labels of its
    nonzero coefficients, over every row of a stack; a monomial field
    (monomial_oracle.VectorPoly2D) states its own.
    """
    if not isinstance(field, SpaceMember):
        return getattr(field, "degree_bounds", None)
    live = (field.coeffs != 0.0).reshape(-1, field.space.dim).any(axis=0)
    d = field.space._label_degrees[live].max(axis=0, initial=0)
    return (int(d[0]), int(d[1])), (int(d[2]), int(d[3]))


def component_degrees(family, k):
    """Maximal (x-degree, y-degree) per component, curl members included: the
    degree bounds of the member with every coefficient nonzero."""
    space = build_space(family, k)
    return degree_bounds(space.member(np.ones(space.dim)))


def gesv_solve(M_ld, b):
    """An operator's solve by LU instead of its cached inverse, for the
    extended-precision DOF matrix M_ld: one nrhs = 1 np.linalg.solve per DOF
    vector (a getrf and a getrs each) and the operator's one extended-precision
    residual correction; leading axes batch."""
    M, b = M_ld.astype(float), b[..., None]
    x = np.longdouble(np.linalg.solve(M, b.astype(float)))
    x = x + np.linalg.solve(M, (b - M_ld @ x).astype(float))
    return x[..., 0].astype(float)


def three_sweep_solve(op, b):
    """op.solve through its cached inverse with three extended-precision
    residual corrections, each on a stack of single columns, where the
    operator makes one: the refinement loop to measure one correction against."""
    b = b[..., None]
    x = np.longdouble(op._inverse @ b.astype(float))
    for _ in range(3):
        x = x + op._inverse @ (b - op._M_ld @ x).astype(float)
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
    degs = degree_bounds(field)
    if fn.kind == "edge_moment":
        comp = _EDGE_COMPONENT[fn.edge]
        if degs is None:
            n = NONPOLY_POINTS
        else:
            along = degs[comp][1] if comp == 0 else degs[comp][0]
            n = n_for_degree(along + fn.i)
        x, y, t, w = edge_rule(fn.edge, n)
        vals = point_values(field, x, y, (comp,))[0]
        test = legendre.values(fn.i, t)[fn.i]
        return np.longdouble(_EDGE_SIGN[fn.edge]) * np.sum(w * vals * test)
    if fn.kind == "interior_moment":
        if degs is None:
            nx = ny = NONPOLY_POINTS
        else:
            dx, dy = degs[fn.component]
            nx = n_for_degree(dx + fn.i)
            ny = n_for_degree(dy + fn.j)
        xs, ys, ws = rule_points(nx, ny, extended=True)
        vals = point_values(field, xs, ys, (fn.component,))[0]
        test = legendre.values(fn.i, xs)[fn.i] * legendre.values(fn.j, ys)[fn.j]
        return np.sum(ws * vals * test)
    if fn.kind == "div_moment":
        return _div_moment_ld(fn, field, lambda x, y: (legendre.values(fn.i, x)[fn.i]
                                                       * legendre.values(fn.j, y)[fn.j]))
    raise ValueError(f"unknown DOF kind {fn.kind!r}")


def _div_moment_ld(fn, field, test) -> np.longdouble:
    """int_K (div w) test(x, y) by a tensor rule exact for a polynomial field
    against a test of degree (fn.i, fn.j)."""
    degs = degree_bounds(field)
    if degs is None:
        nx = ny = NONPOLY_POINTS
    else:
        (dx0, dy0), (dx1, dy1) = degs
        nx = n_for_degree(max(dx0 - 1, dx1, 0) + fn.i)
        ny = n_for_degree(max(dy0, dy1 - 1, 0) + fn.j)
    xs, ys, ws = rule_points(nx, ny, extended=True)
    return np.sum(ws * point_values(field, xs, ys, (2,))[0] * test(xs, ys))


def kind_weights(functionals, n: int) -> list:
    """Per kind (edge, interior, div), the rows w L_i(t) of the n-point rule up to
    the kind's largest test index among the functionals (none where it is absent),
    one factor_values pass each."""
    rule = gauss_legendre_01(n)
    degs = [max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)
            for kind in ("edge_moment", "interior_moment", "div_moment")]
    return [rule.weights_ld * factor_values(max(d, 0), rule.nodes_ld)[: d + 1] for d in degs]


def _moment(weights, F, kind: int) -> np.ndarray:
    """The 1-D moments of factors F of one kind: 0 their values at 0 and 1, 1, 2
    and 3 their weighted sums against weights[kind - 1]."""
    return F[..., [0, -1]] if kind == 0 else np.dot(F[..., 1:-1], weights[kind - 1].T)


def outer_product_dof_values(weights, moment, sample, functionals) -> np.ndarray:
    """The all-pairs contraction: every pairing of a block's 1-D moments as an
    outer product, concatenated, and only then each functional's pair picked out
    and signed; batch + (functionals, r), as dofs._dof_values.  sample holds the
    (x, y) factors of u, v and div, and moment(F, kind) reads their moments."""
    (ux, uy), (vx, vy), (dx, dy) = sample
    # edges left (0, t) and right (1, t), then bottom (t, 0) and top (t, 1), as EDGES
    blocks = ((ux, 0, uy, 1), (vy, 0, vx, 1), (ux, 2, uy, 2), (vx, 2, vy, 2), (dx, 3, dy, 3))
    parts = [moment(X, a)[..., :, None] * moment(Y, b)[..., None, :] for X, a, Y, b in blocks]
    raw = np.concatenate([p.reshape(p.shape[:-2] + (p.shape[-2] * p.shape[-1],)) for p in parts],
                         axis=-1)
    ne, na, nd = (len(w) for w in weights)
    position = {"edge_moment": lambda f: EDGES.index(f.edge) * ne + f.i,
                "interior_moment": lambda f: 4 * ne + (f.component * na + f.i) * na + f.j,
                "div_moment": lambda f: 4 * ne + 2 * na * na + f.i * nd + f.j}
    index = np.array([position[f.kind](f) for f in functionals])
    signs = np.array([_EDGE_SIGN.get(f.edge, 1) for f in functionals], np.longdouble)
    return np.swapaxes(signs * raw[..., index], -1, -2)


def outer_product_dof_matrix(dofset, space) -> np.ndarray:
    """dofs.dof_matrix_ld by the all-pairs contraction, the labels' factor rows
    as the terms and their moments tabulated once per kind."""
    plan = _plan_for(dofset, space._maxdeg)
    weights = kind_weights(dofset.functionals, plan.n)
    F = factor_values(space._maxdeg, plan.nodes)
    tables = [_moment(weights, F, kind) for kind in range(4)]
    return outer_product_dof_values(weights, lambda rows, kind: tables[kind][rows], space._rows,
                                    dofset.functionals)


def outer_product_dof_vector(dofset, field) -> np.ndarray:
    """dofs.dof_vector_ld of a field's factor sample by the all-pairs contraction,
    the sample's two arrays read as one (X, Y) pair per component."""
    plan = _plan_for(dofset, None)
    weights = kind_weights(dofset.functionals, plan.n)
    X, Y = field.factor_sample(plan.nodes, plan.nodes)
    sample = [(X[..., c, :], Y[..., c, :]) for c in range(3)]
    return outer_product_dof_values(weights, functools.partial(_moment, weights), sample,
                                    dofset.functionals).sum(-1)


def apply_dof(fn, field) -> float:
    return float(apply_dof_ld(fn, field))


def apply_monomial_dof_ld(fn, field) -> np.longdouble:
    """apply_dof_ld, except that a divergence moment tests against the raw
    monomial x^i y^j.  The two test sets span the same functionals (for
    a, b <= k, int (div w) x^a y^b is an edge moment minus interior moments
    against ABF's tests), so both define one interpolant; the monomial
    tests only condition the DOF matrix far worse."""
    if fn.kind != "div_moment":
        return apply_dof_ld(fn, field)
    return _div_moment_ld(fn, field, lambda x, y: x ** fn.i * y ** fn.j)


@functools.lru_cache(maxsize=None)
def monomial_dof_matrix_ld(family, k: int) -> np.ndarray:
    """The DOF matrix of build_space(family, k) under the monomial divergence
    tests, one apply_monomial_dof_ld per entry."""
    space, dofs = build_space(family, k), build_dofs(family, k)
    return np.stack([monomial_dof_vector_ld(dofs, space.member(e)) for e in np.eye(space.dim)],
                    axis=1)


def monomial_dof_vector_ld(dofs, field) -> np.ndarray:
    return np.array([apply_monomial_dof_ld(fn, field) for fn in dofs.functionals])


def monomial_interpolant(family, k: int, field) -> np.ndarray:
    """The coefficients of the (family, k) interpolant of field under the
    monomial divergence tests, by gesv_solve."""
    return gesv_solve(monomial_dof_matrix_ld(family, k),
                      monomial_dof_vector_ld(build_dofs(family, k), field))


def _projector_rule(proj) -> tuple:
    """proj's fixed 20 x 20 rule as 2-D tables: the long-double axes x (20, 1)
    and y (1, 20), the (20, 20) weights and the Legendre values on each axis."""
    n = NONPOLY_POINTS
    t = gauss_legendre_01(n).nodes_ld
    x, y = t[:, None], t[None, :]
    nmax = max(max(i, j) for i, j in proj._index)
    return x, y, tensor_rule(n, n).ws_ld.reshape(n, n), legendre.values(nmax, x), \
        legendre.values(nmax, y)


def _projector_terms(proj, w):
    """The rule's (20, 20) terms w v L_i L_j of each (i, j) of proj, long double."""
    x, y, ws, Lx, Ly = _projector_rule(proj)
    wv = ws * np.asarray(w(x, y), dtype=np.longdouble)
    return {(i, j): wv * Lx[i] * Ly[j] for i, j in proj._index}


def coeffs_internal_reference(proj, w) -> dict:
    """proj's Legendre-product coefficients of w(x, y), keyed (i, j), one
    scalar x-major pairwise sum per (i, j) over the 20 x 20 rule: the 2-D
    reference for the sum-factorised L2Projector.coefficients."""
    return {(i, j): float(np.sum(t) * ((2 * i + 1) * (2 * j + 1)))
            for (i, j), t in _projector_terms(proj, w).items()}


def coeffs_internal_bound(proj, w) -> dict:
    """Per (i, j), eps_d sum |w v L_i L_j| (2i+1)(2j+1): how far two summation
    orders of one coefficient may part once each is rounded to a double (the
    long-double sums part by far less)."""
    eps = np.finfo(float).eps
    return {(i, j): eps * float(np.sum(np.abs(t))) * ((2 * i + 1) * (2 * j + 1))
            for (i, j), t in _projector_terms(proj, w).items()}


def _eval_legendre_sum(coeffs: dict, x, y):
    """sum c L_i(x) L_j(y) on the broadcast shape of x, y; the recurrences run on x, y."""
    out = np.zeros(np.broadcast(x, y).shape)
    if not coeffs:
        return out
    nmax = max(max(i, j) for i, j in coeffs)
    Lx = legendre.values(nmax, np.asarray(x))
    Ly = legendre.values(nmax, np.asarray(y))
    for (i, j), c in sorted(coeffs.items()):
        out = out + c * (Lx[i] * Ly[j])
    return out
