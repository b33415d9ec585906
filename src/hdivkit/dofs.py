"""Degree-of-freedom functionals for the reference element spaces.

Three kinds of moments:

    edge_moment      int_F (w . n) L_i(t) dt   i <= k, t the edge parameter
    interior_moment  int_K w_c L_i(x) L_j(y)   component c = 0 or 1
    div_moment       int_K (div w) x^i y^j     ABF only, (i, k+1) and (k+1, j)
                                               with i, j <= k

A functional is plain index data, (kind, i, j, edge, component), equal
and hashable by value.  Ordering is deterministic: edges left, right,
bottom, top (quadrature.EDGES) with test degree ascending, then interior
moments (component 0 before 1, tests in lexicographic (i, j) order),
then divergence moments.  Edge and interior tests are shifted-Legendre
(same spans as the defining monomial test spaces, far better
conditioning); divergence tests are the exact monomials, which the
commuting property needs verbatim.

A whole DOF set is applied through a plan: interpolation points plus
weights, as Basix encodes DOFs and FIAT its point/weight functionals.
The points are the n Gauss points of each edge (quadrature.edge_rule)
and one n x n tensor grid; the weights are separable, so the plan
stores only n-column 1-D matrices (w L_i(t) for edge and interior tests,
w t^a for divergence tests) and applies them by contraction.  A DOF
vector therefore costs one field evaluation at all points (4n + n^2, or
4n when the set has no interior moments), plus one divergence
evaluation on the n^2 grid points when the set has divergence moments.
The rule size n is

    NONPOLY_POINTS (20)            non-polynomial fields
    n_for_degree(d + t)            polynomial fields of maximal
                                   component degree d, t the set's
                                   DofSet.test_degree (k + 1 for every
                                   standard set): every moment integrand
                                   has degree <= d + t per direction, so
                                   the rule is exact

dof_matrix_ld applies the same plan to the tabulated basis.  Matrix and
member DOF vectors then share one rule, so M c and the DOF vector of
the member with coefficients c agree to roundoff and members are
reproduced to the extended-precision floor.  Plans are built from the
set's own functionals and cached by value on (functionals, n), so any
DOF set applies, reordered ones included; n takes a handful of values
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
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import legendre
from .elements import (
    ElementFamily, ElementSpace, SpaceMember, _as_family, family_sets, space_dimension,
)
from .poly import VectorPoly2D
from .quadrature import (
    EDGES, NONPOLY_POINTS, edge_rule, gauss_legendre_01, n_for_degree, tensor_rule,
)

# outward normals: left (-1,0), right (1,0), bottom (0,-1), top (0,1)
_EDGE_SIGN = {"left": -1, "right": 1, "bottom": -1, "top": 1}
_EDGE_COMPONENT = {"left": 0, "right": 0, "bottom": 1, "top": 1}


class DofFunctional(NamedTuple):
    """One moment as index data, equal and hashable by value.

    The test is L_i(t) on an edge, L_i(x) L_j(y) against a component, or
    x^i y^j against the divergence.
    """

    kind: str
    i: int
    j: int = 0
    edge: Optional[str] = None
    component: Optional[int] = None


@dataclass(frozen=True, eq=False)
class DofSet:
    """An ordered DOF list; build_dofs makes the family's standard one.

    Any set applies: its plan is built from its own functionals.
    """

    family: ElementFamily
    k: int
    functionals: Tuple[DofFunctional, ...]

    @functools.cached_property
    def test_degree(self) -> int:
        """Test degree the plan's rule covers: k + 1 (the ABF divergence
        tests reach it) for every standard set, more for higher tests."""
        return max(self.k + 1, max((max(f.i, f.j) for f in self.functionals), default=0))

    @property
    def count(self) -> int:
        return len(self.functionals)

    def count_by_kind(self) -> dict:
        out = {"edge_moment": 0, "interior_moment": 0, "div_moment": 0}
        for f in self.functionals:
            out[f.kind] += 1
        return out


def _interior(comp: int, i: int, j: int) -> DofFunctional:
    return DofFunctional("interior_moment", i, j, component=comp)


def build_dofs(family, k: int, replace_div_moments: bool = False) -> DofSet:
    """The family's DOF list; count always equals the space dimension.

    replace_div_moments swaps the ABF divergence moments for plain
    component moments against L_k(x) L_j(y) / L_i(x) L_k(y).  The swap
    keeps the set unisolvent but severs the divergence coupling, so the
    commuting property must fail: it exists as a negative control.
    """
    sets = family_sets(family, k)
    fns = [DofFunctional("edge_moment", deg, edge=edge) for edge in EDGES for deg in range(k + 1)]
    fns += [_interior(comp, i, j) for comp, tests in enumerate(sets.tests) for i, j in tests]
    if sets.div_tests and replace_div_moments:
        fns += [_interior(0, k, j) for j in range(k + 1)]
        fns += [_interior(1, i, k) for i in range(k + 1)]
    else:
        fns += [DofFunctional("div_moment", i, j) for i, j in sets.div_tests]
    dofset = DofSet(_as_family(family), int(k), tuple(fns))
    assert dofset.count == space_dimension(family, k)
    return dofset


def _component_degrees(field):
    if isinstance(field, SpaceMember):
        return field.degree_bounds  # from the labels, no grid build
    if isinstance(field, VectorPoly2D):
        return (field.u.dx, field.u.dy), (field.v.dx, field.v.dy)
    return None


def apply_dof_ld(fn: DofFunctional, field) -> np.longdouble:
    """One functional applied to a field, in extended precision."""
    degs = _component_degrees(field)
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


def apply_dof(fn: DofFunctional, field) -> float:
    return float(apply_dof_ld(fn, field))


def _weighted_legendre(deg: int, t, w) -> np.ndarray:
    """Rows w L_i(t) for i = 0..deg; no rows when deg < 0."""
    return w * np.array(legendre.values(max(deg, 0), t)[: deg + 1]).reshape(deg + 1, len(t))


def _max_index(functionals, kind: str) -> int:
    """Largest test index of the functionals of one kind; -1 when there are none."""
    return max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)


class DofPlan:
    """One quadrature rule and separable weights for a whole DOF set.

    Points: the n Gauss points of each edge (EDGES), then the n x n
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
        edge_deg = _max_index(functionals, "edge_moment")
        int_deg = _max_index(functionals, "interior_moment")
        div_deg = _max_index(functionals, "div_moment")
        self.edge = _weighted_legendre(edge_deg, t, w)
        self.interior = _weighted_legendre(int_deg, t, w)
        self.div = w * t ** np.arange(div_deg + 1)[:, None]
        self.has_interior = int_deg >= 0
        self.has_div = div_deg >= 0
        grid = tensor_rule(n, n)
        self.grid_xs, self.grid_ys = grid.xs_ld, grid.ys_ld
        # the grid carries field values only when there are interior moments
        parts = [edge_rule(edge, n) for edge in EDGES]
        if self.has_interior:
            parts.append((grid.xs_ld, grid.ys_ld))
        self.xs = np.concatenate([p[0] for p in parts])
        self.ys = np.concatenate([p[1] for p in parts])
        ne, na, nd = edge_deg + 1, int_deg + 1, div_deg + 1
        index, signs = [], []
        for f in functionals:
            if f.kind == "edge_moment":
                index.append(EDGES.index(f.edge) * ne + f.i)
                signs.append(_EDGE_SIGN[f.edge])
            elif f.kind == "interior_moment":
                index.append(4 * ne + (f.component * na + f.i) * na + f.j)
                signs.append(1)
            elif f.kind == "div_moment":
                index.append(4 * ne + 2 * na * na + f.i * nd + f.j)
                signs.append(1)
            else:
                raise ValueError(f"unknown DOF kind {f.kind!r}")
        self.index = np.array(index)
        self.signs = np.array(signs, dtype=np.longdouble)

    def apply(self, U, V, D=None) -> np.ndarray:
        """DOF values from point values; leading axes of U, V, D batch."""
        n = self.n
        batch = U.shape[:-1]
        parts = []
        for e, edge in enumerate(EDGES):
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
def dof_plan(functionals: Tuple[DofFunctional, ...], n: int) -> DofPlan:
    """The cached plan of these functionals at n points per direction."""
    return DofPlan(functionals, n)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    # exact for component degree max_degree against the set's tests
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + dofset.test_degree)
    return dof_plan(dofset.functionals, n)


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
