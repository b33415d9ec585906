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

A whole DOF set is applied through a plan: one node axis {0, t_1 ... t_n,
1}, t the nodes of gauss_legendre_01(n), and weight rows w L_i(t), one
matrix per kind of moment.  Every test is a product L_i(x) L_j(y), and
whatever the plan is applied to is a sum of r products X(x) Y(y) sampled
on the nodes (a factor sample, fields.py), so every functional is sum
factorised (Orszag 1980): per term, a product of two 1-D moments.  An
edge moment is one factor's value at 0 or 1 times the other's weighted
sum over t, an interior or divergence moment the product of the two
weighted sums.  _dof_values is the one contraction, from 1-D moments to
DOF values in functional order with a trailing axis of the r terms.
dof_matrix_ld reads it with the basis labels as the terms (their factor
rows, whose moments moment_tables caches), so no basis is tabulated;
dof_vector_ld reads it with a field's factor sample and sums the terms,
or takes M c for a SpaceMember, M the DOF matrix (an operator passes the
one it holds, so it is not assembled again).  No field is sampled on a
grid.  Leading axes of a sample (a study's (levels, 1, 1) sides, an
(m, dim) coefficient stack, a FieldStack) give one DOF vector per row,
each bit for bit its own.
The rule size n is NONPOLY_POINTS (20) for a field's factor sample.  The
DOF matrix, and so a member's M c, takes n_for_degree(d + t), d the
space's maximal factor degree and t the set's DofSet.test_degree (k + 1
for every standard set): every moment integrand has degree <= d + t per
direction, so the rule is exact.

Plans are built from the set's own functionals and cached by value on
(functionals, n), so any DOF set applies, reordered ones included, and
the plan and moment-table caches stay bounded.  tests/reference_oracle.py
keeps the per-functional quadrature (apply_dof_ld) as an independent
reference.

All quadrature in this module runs in extended precision, and every
long-double product is np.dot: it sums in index order from zero, as
matmul does, so the bits are the same, but in a register.  The DOF
conditions stay at or below 504 up to k = 4, but a study compares pushed
members, whose roundoff grows with the 1/h Piola factors, against the
absolute 1e-12 reproduction bound, and fine levels spend that budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .elements import (ElementFamily, ElementSpace, SpaceMember, _as_family, factor_values,
                       family_sets, space_dimension)
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


class DofPlan:
    """The nodes (plan_nodes(n)) and weight rows of a whole DOF set.

    weights holds the edge, interior and div rows w L_i(t) over the inner
    nodes t, applied by moment.  index reorders the raw moments of
    _dof_values into functional order, and signs gives the edges their
    outward normals.
    """

    def __init__(self, functionals, n: int):
        rule = gauss_legendre_01(n)
        self.n, self.nodes = n, plan_nodes(n)
        # the largest test index per kind, -1 (no rows) where a kind is absent
        degs = [max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)
                for kind in ("edge_moment", "interior_moment", "div_moment")]
        self.weights = [rule.weights_ld * factor_values(max(d, 0), rule.nodes_ld)[: d + 1]
                        for d in degs]
        ne, na, nd = (d + 1 for d in degs)
        raw = {"edge_moment": lambda f: EDGES.index(f.edge) * ne + f.i,
               "interior_moment": lambda f: 4 * ne + (f.component * na + f.i) * na + f.j,
               "div_moment": lambda f: 4 * ne + 2 * na * na + f.i * nd + f.j}
        for f in functionals:
            if f.kind not in raw:
                raise ValueError(f"unknown DOF kind {f.kind!r}")
        self.index = np.array([raw[f.kind](f) for f in functionals])
        self.signs = np.array([_EDGE_SIGN.get(f.edge, 1) for f in functionals], np.longdouble)

    def moment(self, F, kind: int) -> np.ndarray:
        """1-D moments of factors F (..., n + 2) on the nodes: kind 0 their values
        at 0 and 1, kinds 1, 2, 3 the weighted sums of weights[kind - 1]."""
        return F[..., [0, -1]] if kind == 0 else np.dot(F[..., 1:-1], self.weights[kind - 1].T)


@functools.lru_cache(maxsize=None)
def plan_nodes(n: int) -> np.ndarray:
    """The read-only nodes {0, t_1 ... t_n, 1} of every plan at n points."""
    nodes = np.concatenate([[np.longdouble(0)], gauss_legendre_01(n).nodes_ld, [np.longdouble(1)]])
    nodes.setflags(write=False)
    return nodes


@functools.lru_cache(maxsize=None)
def dof_plan(functionals: Tuple[DofFunctional, ...], n: int) -> DofPlan:
    """The cached plan of these functionals at n points per direction."""
    return DofPlan(functionals, n)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    # exact for component degree max_degree against the set's tests
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + dofset.test_degree)
    return dof_plan(dofset.functionals, n)


def _dof_values(plan: DofPlan, moment, sample) -> np.ndarray:
    """The one contraction: DOF values of r terms, batch + (functionals, r).

    sample holds the (x, y) factors of u, v and div, and moment(F, kind) reads
    their 1-D moments.
    """
    (ux, uy), (vx, vy), (dx, dy) = sample
    # edges left (0, t) and right (1, t), then bottom (t, 0) and top (t, 1), as EDGES
    blocks = ((ux, 0, uy, 1), (vy, 0, vx, 1), (ux, 2, uy, 2), (vx, 2, vy, 2), (dx, 3, dy, 3))
    parts = [moment(X, a)[..., :, None] * moment(Y, b)[..., None, :] for X, a, Y, b in blocks]
    raw = np.concatenate([p.reshape(p.shape[:-2] + (p.shape[-2] * p.shape[-1],)) for p in parts],
                         axis=-1)
    return np.swapaxes(plan.signs * raw[..., plan.index], -1, -2)
def _basis_matrix(plan: DofPlan, space: ElementSpace) -> np.ndarray:
    """The DOF matrix under plan: the contraction with the space's labels as its terms."""
    tables = moment_tables(plan, space._maxdeg)
    return _dof_values(plan, lambda rows, kind: tables[kind][rows], space._rows)


def dof_vector_ld(dofset: DofSet, field, M: Optional[np.ndarray] = None) -> np.ndarray:
    """The field's DOF vector: M c for a member, M its space's DOF matrix
    (dof_matrix_ld unless the caller holds it), else its factor sample on the
    20-point plan's nodes contracted and summed over its terms.  Leading axes
    give one vector per row."""
    if isinstance(field, SpaceMember):
        M = dof_matrix_ld(dofset, field.space) if M is None else M
        return np.dot(field.coeffs.astype(np.longdouble), M.T)
    plan = _plan_for(dofset, None)
    return _dof_values(plan, plan.moment, field.factor_sample(plan.nodes, plan.nodes)).sum(-1)


@functools.lru_cache(maxsize=None)
def moment_tables(plan: DofPlan, deg: int) -> tuple:
    """plan.moment of every kind of the rows of factor_values(deg) on the plan's
    nodes, read-only, cached per plan and trial degree."""
    F = factor_values(deg, plan.nodes)
    tables = tuple(plan.moment(F, kind) for kind in range(4))
    for a in tables:
        a.setflags(write=False)
    return tables


def dof_matrix_ld(dofset: DofSet, space: ElementSpace) -> np.ndarray:
    """M[a, b] = functional a applied to basis member b, extended precision,
    under the plan every member's DOF vector uses."""
    return _basis_matrix(_plan_for(dofset, space._maxdeg), space)
