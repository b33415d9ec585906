"""Degree-of-freedom functionals for the reference element spaces.

Three kinds of moments:

    edge_moment      int_F (w . n) L_i(t) dt   i <= k, t the edge parameter
    interior_moment  int_K w_c L_i(x) L_j(y)   component c = 0 or 1
    div_moment       int_K (div w) L_i(x) L_j(y)  ABF only, (i, k+1) and
                                                  (k+1, j) with i, j <= k

A functional is plain index data, (kind, i, j, edge, component), equal
and hashable by value.  Ordering is deterministic: edges left, right,
bottom, top (quadrature.EDGES) with test degree ascending, then interior
moments (component 0 before 1, tests in lexicographic (i, j) order),
then divergence moments.  Every test is shifted-Legendre: the spans of
the defining monomial tests, far better conditioned.  ABF's divergence
tests change the functionals, not their span (for a, b <= k, int (div w)
x^a y^b is an edge moment minus interior moments), nor the interpolant.

A whole DOF set is applied through a plan: an axis pair plus separable
weights, as Basix encodes DOFs and FIAT its point/weight functionals,
with the points given as a tensor product.  The axes are a column x and
a row y with the nodes {0, t_1 ... t_n, 1}, t the n nodes of
gauss_legendre_01(n), so the (n + 2)^2 grid they span holds the four
edges and the interior n x n grid.  The weights are n-column 1-D
matrices of rows w L_i(t), one per kind of moment, applied by
contraction.  A DOF vector therefore costs one field
evaluation on the axes, plus one divergence evaluation on the inner
axes (t, t) when the set has divergence moments; fields broadcast the
axes, so transcendental factors and Legendre recurrences run once per
distinct coordinate.  The values are those of the enumerated points bit
for bit, and the contractions sum in the same order.  Values with
leading axes (a study's (levels, 1, 1) sides, a SpaceMember's (m, dim)
coefficient stack, a FieldStack) give one DOF vector per row from that
one evaluation, each bit for bit the one its row gets alone when the
rule is the same (a stack's degree_bounds cover all rows).
The rule size n is

    NONPOLY_POINTS (20)            fields without degree_bounds
    n_for_degree(d + t)            polynomial fields, whose
                                   degree_bounds give the maximal
                                   component degree d, t the set's
                                   DofSet.test_degree (k + 1 for every
                                   standard set): every moment integrand
                                   has degree <= d + t per direction, so
                                   the rule is exact

dof_matrix_ld tabulates no basis.  Every basis label and every test
is a product X(x) Y(y), so each entry of M is a product of two 1-D
moments (sum factorisation): a plan's weight rows contracted with the
rows of elements.factor_values (L_m, L_m', -L_m', zero) on the plan's
own n nodes, and those rows' values at 0 and 1 for the edges.
moment_tables holds them per plan and trial degree, and M is filled by
outer products of the rows the space's factor rows (space._rows) name.
M c and the DOF vector of the member with coefficients c take the same
rule, nodes and weights, so they are the same quadrature sums evaluated
in another order: they agree to roundoff, and members are reproduced to
the extended-precision floor.  Plans are built from the set's own
functionals and cached by value on (functionals, n), so any DOF set
applies, reordered ones included; n takes a handful of values per
(family, k), so the plan and moment-table caches stay bounded however
many spaces and DOF sets are built.  The plan is the one way to apply a
functional to a field; tests/reference_oracle.py keeps the
per-functional quadrature (apply_dof_ld) as an independent reference.

All quadrature in this module runs in extended precision.  The DOF
conditions stay at or below 504 up to k = 4, but a study compares pushed
members, whose roundoff grows with the 1/h Piola factors, against the
absolute 1e-12 reproduction bound, and fine levels spend that budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import legendre
from .elements import (ElementFamily, ElementSpace, _as_family, factor_values, family_sets,
                       space_dimension)
from .quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01, n_for_degree

# outward normals: left (-1,0), right (1,0), bottom (0,-1), top (0,1)
_EDGE_SIGN = {"left": -1, "right": 1, "bottom": -1, "top": 1}


class DofFunctional(NamedTuple):
    """One moment as index data, equal and hashable by value.

    The test is L_i(t) on an edge, or L_i(x) L_j(y) against a component
    or the divergence.
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


def _weighted_legendre(deg: int, t, w) -> np.ndarray:
    """Rows w L_i(t) for i = 0..deg; no rows when deg < 0."""
    return w * np.array(legendre.values(max(deg, 0), t)[: deg + 1]).reshape(deg + 1, len(t))


def _max_index(functionals, kind: str) -> int:
    """Largest test index of the functionals of one kind; -1 when there are none."""
    return max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)


class DofPlan:
    """One axis pair and separable weights for a whole DOF set.

    The axes (plan_axes(n), shared by every plan at n points) are x of shape
    (n + 2, 1) and y of shape (1, n + 2), both with nodes {0, t_1 ... t_n, 1}
    for the n Gauss nodes t of gauss_legendre_01(n), so the grid they span
    holds the four edges and the interior n x n tensor grid; ``inner`` is
    the pair without the end nodes, where divergences are sampled.  Weights
    are 1-D matrices over the n nodes, ``edge[d]``, ``interior[i]`` and
    ``div[i]`` all ``w L_i(t)``.  ``apply`` reads each edge as one row or
    column of the (n + 2, n + 2) values (``edge @ vals``) and the interior
    and divergence blocks as G in ``A G A^T``; moments land in one raw
    vector that ``index`` reorders into functional order.
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
        self.div = _weighted_legendre(div_deg, t, w)
        self.has_div = div_deg >= 0
        self.x, self.y, self.inner = plan_axes(n)
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
        """DOF values from values on the axes, U and V of shape batch + (n + 2, n + 2),
        and on the inner axes, D of shape batch + (n, n); the batch axes lead."""
        batch = U.shape[:-2]
        # the edges as rows of one (..., 4, n) array: left (0, t), right (1, t),
        # bottom (t, 0), top (t, 1), as EDGES
        sides = np.concatenate([U[..., [0, -1], 1:-1],
                                np.swapaxes(V[..., 1:-1, [0, -1]], -1, -2)], axis=-2)
        blocks = ((self.interior, U[..., 1:-1, 1:-1]), (self.interior, V[..., 1:-1, 1:-1]),
                  (self.div, D))
        parts = [(sides @ self.edge.T).reshape(batch + (-1,))]
        parts += [(A @ G @ A.T).reshape(batch + (-1,)) for A, G in blocks if len(A)]
        return self.signs * np.concatenate(parts, axis=-1)[..., self.index]


@functools.lru_cache(maxsize=None)
def plan_axes(n: int) -> tuple:
    """The read-only axes of every plan at n points: x, y with the nodes
    {0, t_1 ... t_n, 1}, and the inner pair (t, t) without the end nodes."""
    t = gauss_legendre_01(n).nodes_ld
    nodes = np.concatenate([[np.longdouble(0)], t, [np.longdouble(1)]])
    axes = nodes[:, None], nodes[None, :], t[:, None], t[None, :]
    for a in axes:
        a.setflags(write=False)
    return axes[0], axes[1], axes[2:]


@functools.lru_cache(maxsize=None)
def dof_plan(functionals: Tuple[DofFunctional, ...], n: int) -> DofPlan:
    """The cached plan of these functionals at n points per direction."""
    return DofPlan(functionals, n)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    # exact for component degree max_degree against the set's tests
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + dofset.test_degree)
    return dof_plan(dofset.functionals, n)


def dof_vector_ld(dofset: DofSet, field) -> np.ndarray:
    """The field's DOF vector: one uv call on the plan's axes, plus one
    div_values call on the inner axes for div moments.  Values with
    leading axes give one vector per row."""
    degs = getattr(field, "degree_bounds", None)
    plan = _plan_for(dofset, None if degs is None else max(max(d) for d in degs))
    U, V = field.uv(plan.x, plan.y)
    grid = np.broadcast(U, V, plan.x, plan.y).shape
    U, V = (np.broadcast_to(vals, grid) for vals in (U, V))
    D = None
    if plan.has_div:
        D = np.broadcast_to(field.div_values(*plan.inner), grid[:-2] + (plan.n,) * 2)
    return plan.apply(U, V, D)


@functools.lru_cache(maxsize=None)
def moment_tables(plan: DofPlan, deg: int) -> tuple:
    """(ends, edge, interior, div): the plan's 1-D moments against the trial
    factors of degree <= deg, cached per plan (one per (functionals, n)) and deg.

    Rows are those of elements.factor_values.  ends holds each factor at 0
    and 1; edge, interior and div hold the plan's weight rows contracted
    with each factor on its n nodes.
    """
    F = factor_values(deg, gauss_legendre_01(plan.n).nodes_ld)
    tables = (factor_values(deg, np.array([0, 1], dtype=np.longdouble)),) + tuple(
        F @ W.T for W in (plan.edge, plan.interior, plan.div))
    for a in tables:
        a.setflags(write=False)
    return tables


def dof_matrix_ld(dofset: DofSet, space: ElementSpace) -> np.ndarray:
    """M[a, b] = functional a applied to basis member b, extended precision.

    Each entry is a product of two 1-D moments of the plan that every
    member's DOF vector uses: an edge moment is one factor's value at the
    edge's end node times the other's edge moment, and an interior or
    divergence moment the product of the two factors' weighted sums.
    Outer products of moment_tables' rows fill the raw moments, which the
    plan's index and signs put in functional order, as DofPlan.apply does.
    """
    plan = _plan_for(dofset, space._maxdeg)
    ends, edge, interior, div = moment_tables(plan, space._maxdeg)
    (ux, uy), (vx, vy), (dx, dy) = space._rows
    # edges left (0, t) and right (1, t), then bottom (t, 0) and top (t, 1), as EDGES
    blocks = ((ends, edge, ux, uy), (ends, edge, vy, vx), (interior, interior, ux, uy),
              (interior, interior, vx, vy), (div, div, dx, dy))
    raw = np.concatenate([(A[fa][:, :, None] * B[fb][:, None, :]).reshape(space.dim, -1)
                          for A, B, fa, fb in blocks], axis=1)
    return (plan.signs * raw[:, plan.index]).T
