"""Degree-of-freedom functionals for the reference element spaces.

Three kinds of moments:

    edge_moment      int_F (w . n) q(t) dt     q in P_k of the edge parameter
    interior_moment  int_K w_c q               vector tests (q,0) / (0,q)
    div_moment       int_K (div w) q           ABF only, q = x^i y^{k+1} or
                                               x^{k+1} y^j with i, j <= k

Ordering is deterministic: edges left, right, bottom, top with test
degree ascending, then interior moments (component 0 before 1, tests in
lexicographic (i, j) order), then divergence moments.  Edge and interior
tests are shifted-Legendre (same spans as the defining monomial test
spaces, far better conditioning); divergence tests are the exact
monomials, which the commuting property needs verbatim.

A whole DOF set is applied through a plan: interpolation points plus
weights, as Basix encodes DOFs and FIAT its point/weight functionals.
The points are the n Gauss points of each edge and one n x n tensor
grid; the weights are separable, so the plan stores only n-column 1-D
matrices (w L_i(t) for edge and interior tests, w t^a for divergence
tests) and applies them by contraction.  A DOF vector therefore costs
one field evaluation at all points (4n + n^2, or 4n when the set has no
interior moments), plus one divergence evaluation on the n^2 grid
points for ABF.  The rule size n is

    NONPOLY_POINTS (20)            non-polynomial fields
    n_for_degree(d + k + 1)        polynomial fields of maximal
                                   component degree d: every moment
                                   integrand has degree <= d + k + 1
                                   per direction, so the rule is exact

dof_matrix_ld applies the same plan to the tabulated basis.  Matrix and
member DOF vectors then share one rule, so M c and the DOF vector of
the member with coefficients c agree to roundoff and members are
reproduced to the extended-precision floor.  Plans are cached by value
on (family, k, div_moments_replaced, n); n takes a handful of values
per (family, k), so the cache stays bounded however many spaces and
DOF sets are built.  apply_dof / apply_dof_ld keep the per-functional
quadrature as an independent reference.

All quadrature in this module runs in extended precision: the DOF
matrices reach condition 1e6 at k = 4 and the projection property at
1e-12 leaves no budget for double-rounded right-hand sides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import legendre
from .elements import (
    ElementFamily, ElementSpace, SpaceMember, _as_family, _validate_degree, space_dimension,
)
from .poly import Polynomial2D, VectorPoly2D
from .quadrature import NONPOLY_POINTS, gauss_legendre_01, n_for_degree, tensor_rule

EDGE_ORDER = ("left", "right", "bottom", "top")

# outward normals: left (-1,0), right (1,0), bottom (0,-1), top (0,1)
_EDGE_SIGN = {"left": -1, "right": 1, "bottom": -1, "top": 1}
_EDGE_COMPONENT = {"left": 0, "right": 0, "bottom": 1, "top": 1}


@dataclass(frozen=True, eq=False)
class DofFunctional:
    kind: str
    test: Polynomial2D
    edge: Optional[str] = None
    normal_sign: int = 0
    component: Optional[int] = None
    # stable-evaluation hint: ("t", n) edge Legendre, ("xy", i, j) product
    leg: Optional[tuple] = None

    def describe(self) -> str:
        if self.kind == "edge_moment":
            return f"edge_moment({self.edge}, deg {self.leg[1]})"
        if self.kind == "interior_moment":
            return f"interior_moment(comp {self.component})"
        return "div_moment"


@dataclass(frozen=True, eq=False)
class DofSet:
    """An ordered DOF list; make it with build_dofs.

    dof_vector_ld and dof_matrix_ld apply a set through the plan of
    build_dofs(family, k, div_moments_replaced) and raise ValueError
    for a set whose functionals differ from that one.
    """

    family: ElementFamily
    k: int
    functionals: Tuple[DofFunctional, ...]
    div_moments_replaced: bool = False

    @property
    def count(self) -> int:
        return len(self.functionals)

    @functools.cached_property
    def canonical(self) -> bool:
        """Whether the functionals are those build_dofs makes for this key."""
        ref = _canonical_signature(self.family, self.k, self.div_moments_replaced)
        return _signature(self.functionals) == ref

    def count_by_kind(self) -> dict:
        out = {"edge_moment": 0, "interior_moment": 0, "div_moment": 0}
        for f in self.functionals:
            out[f.kind] += 1
        return out


def build_dofs(family, k: int, replace_div_moments: bool = False) -> DofSet:
    """The family's DOF list; count always equals the space dimension.

    replace_div_moments swaps the ABF divergence moments for plain
    component moments against L_k(x) L_j(y) / L_i(x) L_k(y).  The swap
    keeps the set unisolvent but severs the divergence coupling, so the
    commuting property must fail: it exists as a negative control.
    """
    family = _as_family(family)
    _validate_degree(family, k)
    fns = []
    for edge in EDGE_ORDER:
        for deg in range(k + 1):
            fns.append(
                DofFunctional(
                    kind="edge_moment",
                    test=legendre.as_poly(deg, "x"),
                    edge=edge,
                    normal_sign=_EDGE_SIGN[edge],
                    leg=("t", deg),
                )
            )
    if family is ElementFamily.BDM:
        for comp in (0, 1):
            for i in range(k - 1):
                for j in range(k - 1 - i):
                    fns.append(_interior(comp, i, j))
    else:
        for i in range(k):
            for j in range(k + 1):
                fns.append(_interior(0, i, j))
        for i in range(k + 1):
            for j in range(k):
                fns.append(_interior(1, i, j))
    if family is ElementFamily.ABF:
        if replace_div_moments:
            for j in range(k + 1):
                fns.append(_interior(0, k, j))
            for i in range(k + 1):
                fns.append(_interior(1, i, k))
        else:
            for i in range(k + 1):
                fns.append(
                    DofFunctional(kind="div_moment", test=Polynomial2D.monomial(i, k + 1))
                )
            for j in range(k + 1):
                fns.append(
                    DofFunctional(kind="div_moment", test=Polynomial2D.monomial(k + 1, j))
                )
    dofset = DofSet(family, int(k), tuple(fns), div_moments_replaced=replace_div_moments)
    assert dofset.count == space_dimension(family, k)
    return dofset


def _signature(functionals) -> tuple:
    """What a plan reads of each functional, comparable by value."""
    return tuple(
        (f.kind, f.edge, f.normal_sign, f.component, f.leg,
         f.test.coeffs.shape, f.test.coeffs.tobytes())
        for f in functionals
    )


@functools.lru_cache(maxsize=None)
def _canonical_signature(family: ElementFamily, k: int, div_moments_replaced: bool) -> tuple:
    return _signature(build_dofs(family, k, div_moments_replaced).functionals)


def _interior(comp: int, i: int, j: int) -> DofFunctional:
    return DofFunctional(
        kind="interior_moment",
        test=legendre.product_poly(i, j),
        component=comp,
        leg=("xy", i, j),
    )


def _component_degrees(field):
    if isinstance(field, SpaceMember):
        return field.degree_bounds  # from the labels, no grid build
    if isinstance(field, VectorPoly2D):
        return (field.u.dx, field.u.dy), (field.v.dx, field.v.dy)
    return None


def _edge_nodes(edge: str, n: int):
    r = gauss_legendre_01(n)
    t = r.nodes_ld
    w = r.weights_ld
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    if edge == "left":
        return zero, t, t, w
    if edge == "right":
        return one, t, t, w
    if edge == "bottom":
        return t, zero, t, w
    if edge == "top":
        return t, one, t, w
    raise ValueError(f"unknown edge {edge!r}")


def _test_values_1d(fn: DofFunctional, t):
    if fn.leg is not None and fn.leg[0] == "t":
        return legendre.values(fn.leg[1], t)[fn.leg[1]]
    return fn.test.eval(t, np.zeros_like(t))


def _test_values_2d(fn: DofFunctional, x, y):
    if fn.leg is not None and fn.leg[0] == "xy":
        i, j = fn.leg[1], fn.leg[2]
        return legendre.values(i, x)[i] * legendre.values(j, y)[j]
    return fn.test.eval(x, y)


def apply_dof_ld(fn: DofFunctional, field) -> np.longdouble:
    """One functional applied to a field, in extended precision."""
    degs = _component_degrees(field)
    if fn.kind == "edge_moment":
        comp = _EDGE_COMPONENT[fn.edge]
        tdeg = fn.test.dx
        if degs is None:
            n = NONPOLY_POINTS
        else:
            along = degs[comp][1] if comp == 0 else degs[comp][0]
            n = n_for_degree(along + tdeg)
        x, y, t, w = _edge_nodes(fn.edge, n)
        U, V = field.uv(x, y)
        vals = U if comp == 0 else V
        return np.longdouble(fn.normal_sign) * np.sum(w * vals * _test_values_1d(fn, t))
    if fn.kind == "interior_moment":
        if degs is None:
            nx = ny = NONPOLY_POINTS
        else:
            dx, dy = degs[fn.component]
            nx = n_for_degree(dx + fn.test.dx)
            ny = n_for_degree(dy + fn.test.dy)
        rule = tensor_rule(nx, ny)
        U, V = field.uv(rule.xs_ld, rule.ys_ld)
        vals = U if fn.component == 0 else V
        return np.sum(rule.ws_ld * vals * _test_values_2d(fn, rule.xs_ld, rule.ys_ld))
    if fn.kind == "div_moment":
        if degs is None:
            nx = ny = NONPOLY_POINTS
        else:
            (dx0, dy0), (dx1, dy1) = degs
            nx = n_for_degree(max(dx0 - 1, dx1, 0) + fn.test.dx)
            ny = n_for_degree(max(dy0, dy1 - 1, 0) + fn.test.dy)
        rule = tensor_rule(nx, ny)
        vals = field.div_values(rule.xs_ld, rule.ys_ld)
        return np.sum(rule.ws_ld * vals * _test_values_2d(fn, rule.xs_ld, rule.ys_ld))
    raise ValueError(f"unknown DOF kind {fn.kind!r}")


def apply_dof(fn: DofFunctional, field) -> float:
    return float(apply_dof_ld(fn, field))


def _weighted_legendre(deg: int, t, w) -> np.ndarray:
    """Rows w L_i(t) for i = 0..deg; no rows when deg < 0."""
    return w * np.array(legendre.values(max(deg, 0), t)[: deg + 1]).reshape(deg + 1, len(t))


class DofPlan:
    """One quadrature rule and separable weights for a whole DOF set.

    Points: the n Gauss points of each edge (EDGE_ORDER), then the n x n
    tensor grid, x-major, when there are interior moments; divergences
    are sampled on the grid alone.  Weights are 1-D matrices over the n nodes:
    ``edge[d] = w L_d(t)`` and ``interior[i] = w L_i(t)`` for the
    Legendre tests, ``div[a] = w t^a`` for the monomial divergence tests.
    A plan turns point values into the DOF vector by contraction: one
    ``edge @ vals`` per edge and ``A G A^T`` on the tensor grid, where G
    holds the grid values.  Moments land in one raw vector that
    ``index`` reorders into functional order.
    """

    def __init__(self, functionals, n: int):
        rule = gauss_legendre_01(n)
        t, w = rule.nodes_ld, rule.weights_ld
        self.n = n
        edge_deg = max((f.leg[1] for f in functionals if f.kind == "edge_moment"), default=-1)
        int_deg = max((max(f.leg[1:]) for f in functionals if f.kind == "interior_moment"),
                      default=-1)
        div_deg = max((max(f.test.dx, f.test.dy) for f in functionals
                       if f.kind == "div_moment"), default=-1)
        self.edge = _weighted_legendre(edge_deg, t, w)
        self.interior = _weighted_legendre(int_deg, t, w)
        self.div = w * t ** np.arange(div_deg + 1)[:, None]
        self.has_interior = int_deg >= 0
        self.has_div = div_deg >= 0
        grid = tensor_rule(n, n)
        self.grid_xs, self.grid_ys = grid.xs_ld, grid.ys_ld
        # the grid carries field values only when there are interior moments
        parts = [_edge_nodes(edge, n) for edge in EDGE_ORDER]
        if self.has_interior:
            parts.append((grid.xs_ld, grid.ys_ld))
        self.xs = np.concatenate([p[0] for p in parts])
        self.ys = np.concatenate([p[1] for p in parts])
        ne, na, nd = edge_deg + 1, int_deg + 1, div_deg + 1
        index, signs = [], []
        for f in functionals:
            if f.kind == "edge_moment":
                index.append(EDGE_ORDER.index(f.edge) * ne + f.leg[1])
                signs.append(f.normal_sign)
            elif f.kind == "interior_moment":
                index.append(4 * ne + (f.component * na + f.leg[1]) * na + f.leg[2])
                signs.append(1)
            else:
                index.append(4 * ne + 2 * na * na + f.test.dx * nd + f.test.dy)
                signs.append(1)
        self.index = np.array(index)
        self.signs = np.array(signs, dtype=np.longdouble)

    def apply(self, U, V, D=None) -> np.ndarray:
        """DOF values from point values; leading axes of U, V, D batch."""
        n = self.n
        batch = U.shape[:-1]
        parts = []
        for e, edge in enumerate(EDGE_ORDER):
            vals = U if _EDGE_COMPONENT[edge] == 0 else V
            parts.append(vals[..., e * n:(e + 1) * n] @ self.edge.T)
        if self.has_interior:
            for vals in (U, V):
                G = vals[..., 4 * n:].reshape(batch + (n, n))
                parts.append((self.interior @ G @ self.interior.T).reshape(batch + (-1,)))
        if self.has_div:
            G = D.reshape(batch + (n, n))
            parts.append((self.div @ G @ self.div.T).reshape(batch + (-1,)))
        return self.signs * np.concatenate(parts, axis=-1)[..., self.index]


@functools.lru_cache(maxsize=None)
def dof_plan(family: ElementFamily, k: int, div_moments_replaced: bool, n: int) -> DofPlan:
    """The cached plan of build_dofs(family, k, div_moments_replaced) at n points.

    _plan_for rejects any other DOF set, so the key names the functionals.
    """
    return DofPlan(build_dofs(family, k, div_moments_replaced).functionals, n)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    if not dofset.canonical:
        raise ValueError(
            "DOF set differs from build_dofs(family, k, div_moments_replaced); "
            "only those sets can be applied"
        )
    # exact for component degree max_degree against tests up to degree k + 1
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + dofset.k + 1)
    return dof_plan(dofset.family, dofset.k, dofset.div_moments_replaced, n)


def dof_vector_ld(dofset: DofSet, field) -> np.ndarray:
    """The field's DOF vector: one uv call, plus one div_values call for div moments."""
    degs = _component_degrees(field)
    plan = _plan_for(dofset, None if degs is None else max(max(d) for d in degs))
    U, V = (np.broadcast_to(a, plan.xs.shape) for a in field.uv(plan.xs, plan.ys))
    D = None
    if plan.has_div:
        D = np.broadcast_to(field.div_values(plan.grid_xs, plan.grid_ys), plan.grid_xs.shape)
    return plan.apply(U, V, D)


def dof_vector(dofset: DofSet, field) -> np.ndarray:
    return dof_vector_ld(dofset, field).astype(float)


def dof_matrix_ld(dofset: DofSet, space: ElementSpace) -> np.ndarray:
    """M[a, b] = functional a applied to basis member b, extended precision.

    The basis is tabulated once at the points of the plan that every
    member's DOF vector uses, so M c and the DOF vector of the member
    with coefficients c come from the same quadrature.
    """
    plan = _plan_for(dofset, space._maxdeg)
    U, V = space.tabulate(plan.xs, plan.ys)
    D = space.tabulate_div(plan.grid_xs, plan.grid_ys) if plan.has_div else None
    return plan.apply(U, V, D).T
