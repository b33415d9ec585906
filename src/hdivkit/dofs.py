"""Degree-of-freedom functionals for the reference element spaces.

Three kinds of moments:

    edge_moment      int_F (w . n) L_i(t) dt   i <= k, t the edge parameter
    interior_moment  int_K w_c L_i(x) L_j(y)   component c = 0 or 1
    div_moment       int_K (div w) L_i(x) L_j(y)  ABF only, (i, k+1) and
                                                  (k+1, j) with i, j <= k

A functional is index data, (kind, i, j, edge, component), equal and
hashable by value, in a fixed order: edges left, right, bottom, top
(quadrature.EDGES), test degree ascending, then interior moments
(component 0 first, (i, j) lexicographic), then divergence moments.  The
shifted-Legendre tests span what the defining monomials span, far better
conditioned; ABF's divergence tests change the functionals, not their
span (for a, b <= k, int (div w) x^a y^b is an edge moment minus interior
moments), nor the interpolant.

A DOF set is applied through a plan: the nodes {0, t_1 ... t_n, 1}, t
those of gauss_legendre_01(n), and weight rows w L_i(t) per kind.  Tests
are products L_i(x) L_j(y), and a factor sample (fields.py) is r products
X(x) Y(y) on the nodes, so per term a functional is the product of two
1-D moments (sum factorisation, Orszag 1980): on an edge one factor's
value at 0 or 1 and the other's weighted sum, else both weighted sums.
The plan names each functional's two moments by columns, ca and cb, of
the block-ordered moments of _block_moments; _dof_values, the one
contraction, multiplies each pair and signs it, and no other pairing is
formed.  dof_vector_ld sums a field's r terms, or takes M c for a
SpaceMember (an operator passes the M it holds); dof_matrix_ld takes the
labels as the terms, both moments read from block_tables at the factor
rows they name, so no basis is tabulated, and no field is sampled on a
grid.  Leading axes of a sample (a study's (levels, 1, 1) sides, an (m,
dim) stack, a FieldStack) give one DOF vector per row, each bit for bit
its own.

A factor sample takes n = NONPOLY_POINTS (20).  The DOF matrix, and so
M c, takes n_for_degree(d + t), d the space's highest factor degree and t
the set's DofSet.test_degree (k + 1 for every standard set), which
integrates every moment exactly.  Plans check their functionals and are
cached by value on (functionals, n), so any set applies, reordered ones
included, and the caches stay bounded.  tests/reference_oracle.py keeps
the per-functional quadrature (apply_dof_ld) and the outer-product
contraction as references.

Quadrature here runs in extended precision, every long-double product in
np.dot, which sums in index order from zero as matmul does, in a register:
the DOF conditions stay at or below 504 up to k = 4, but a study's pushed
members, whose roundoff grows with the 1/h Piola factors, meet the
absolute 1e-12 reproduction bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .elements import (ElementFamily, ElementSpace, SpaceMember, _as_family, factor_values,
                       family_sets, space_dimension)
from .quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01, n_for_degree

# per kind of functional, the edges and the components it may name
_KINDS = {"edge_moment": (EDGES, (None,)), "interior_moment": ((None,), (0, 1)),
          "div_moment": ((None,), (None,))}


class DofFunctional(NamedTuple):
    """One moment as index data, equal and hashable by value: the test L_i(t)
    on an edge, or L_i(x) L_j(y) against a component or the divergence."""

    kind: str
    i: int
    j: int = 0
    edge: Optional[str] = None
    component: Optional[int] = None


@dataclass(frozen=True, eq=False)
class DofSet:
    """An ordered DOF list, applied through a plan of its own functionals;
    build_dofs makes the family's standard one."""

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
        return {kind: sum(f.kind == kind for f in self.functionals) for kind in _KINDS}


def build_dofs(family, k: int, replace_div_moments: bool = False) -> DofSet:
    """The family's DOF list; count always equals the space dimension.

    replace_div_moments swaps the ABF divergence moments for plain
    component moments against L_k(x) L_j(y) / L_i(x) L_k(y).  The swap
    keeps the set unisolvent but severs the divergence coupling, so the
    commuting property must fail: it exists as a negative control.
    """
    sets = family_sets(family, k)
    fns = [DofFunctional("edge_moment", deg, edge=edge) for edge in EDGES for deg in range(k + 1)]
    tests = [(comp, i, j) for comp, ts in enumerate(sets.tests) for i, j in ts]
    if sets.div_tests and replace_div_moments:
        tests += [(0, k, j) for j in range(k + 1)] + [(1, i, k) for i in range(k + 1)]
    fns += [DofFunctional("interior_moment", i, j, component=comp) for comp, i, j in tests]
    fns += [DofFunctional("div_moment", i, j) for i, j in sets.div_tests if not replace_div_moments]
    dofset = DofSet(_as_family(family), int(k), tuple(fns))
    assert dofset.count == space_dimension(family, k)
    return dofset


# The five blocks in functional order: left and right edges (u's x factor at 0 and 1,
# its y factor's edge moments), bottom and top (v's, axes swapped), u's and v's interior
# moments, div moments; per block its component, per factor (row) its kind and axis.
_COMPONENT = (0, 1, 0, 1, 2)
_MOMENT = ((0, 0, 2, 2, 3), (1, 1, 2, 2, 3))
_AXIS = ((0, 1, 0, 0, 0), (1, 0, 1, 1, 1))


def _place(f: DofFunctional) -> tuple:
    """(block, a, b): f's block and its two moments' places in the block's first
    and second factor moments; a ValueError naming f if it is malformed."""
    if f.kind not in _KINDS:
        raise ValueError(f"unknown DOF kind {f.kind!r} in {f}")
    edges, components = _KINDS[f.kind]
    if (f.edge not in edges or f.component not in components or f.edge and f.j
            or not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (f.i, f.j))):
        raise ValueError(f"malformed DOF functional {f}")
    if f.edge:
        return (*divmod(EDGES.index(f.edge), 2), f.i)
    return 4 if f.component is None else 2 + f.component, f.i, f.j


class DofPlan:
    """The nodes (plan_nodes(n)) and weights of a whole DOF set: the edge, interior
    and div rows w L_i(t) on the inner nodes t, read by moment.  Per functional:
    comp and axes, the component and factor axes of its block, ca and cb, the
    columns of its two moments in _block_moments, and signs, an edge's normal."""

    def __init__(self, functionals, n: int):
        blk, a, b = np.array([_place(f) for f in functionals], int).reshape(-1, 3).T
        rule = gauss_legendre_01(n)
        self.n, self.nodes = n, plan_nodes(n)
        # the largest test index per kind, -1 (no rows) where a kind is absent
        degs = [max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)
                for kind in _KINDS]
        self.weights = [rule.weights_ld * factor_values(max(d, 0), rule.nodes_ld)[: d + 1]
                        for d in degs]
        widths = np.array([2] + [d + 1 for d in degs])[np.array(_MOMENT)]
        starts = np.cumsum(widths, axis=1) - widths
        self.comp, self.axes = np.array(_COMPONENT)[blk], np.array(_AXIS)[:, blk]
        self.ca, self.cb = starts[0, blk] + a, starts[1, blk] + b
        # the outward normal of an edge: -1 at x = 0 and y = 0 (left, bottom), else 1
        self.signs = np.where(blk < 2, 2 * a - 1, 1).astype(np.longdouble)

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


# the plan of a tuple of functionals at n points per direction, cached by value
dof_plan = functools.lru_cache(maxsize=None)(DofPlan)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    # exact for component degree max_degree against the set's tests
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + dofset.test_degree)
    return dof_plan(dofset.functionals, n)


def _block_moments(plan: DofPlan, factor) -> tuple:
    """Both factors' 1-D moments of every block, each side concatenated in block
    order over the factors' common batch; factor(q, axis) is what a block reads."""
    sides = [[plan.moment(factor(q, ax), kind) for q, kind, ax in zip(_COMPONENT, kinds, axes)]
             for kinds, axes in zip(_MOMENT, _AXIS)]
    batch = np.broadcast_shapes(*{m.shape[:-1] for ms in sides for m in ms})
    return tuple(np.concatenate([m if m.shape[:-1] == batch else
                                 np.broadcast_to(m, batch + m.shape[-1:]) for m in ms], -1)
                 for ms in sides)


def _dof_values(plan: DofPlan, A, B) -> np.ndarray:
    """The one contraction: DOF values of r terms, batch + (functionals, r), from
    each functional's two 1-D moments A and B, batch + (r, functionals)."""
    return np.swapaxes(plan.signs * (A * B), -1, -2)


def dof_vector_ld(dofset: DofSet, field, M: Optional[np.ndarray] = None) -> np.ndarray:
    """The field's DOF vector: M c for a member, M its space's DOF matrix
    (dof_matrix_ld unless the caller holds it), else its factor sample on the
    20-point plan's nodes contracted and summed over its terms.  Leading axes
    give one vector per row."""
    if isinstance(field, SpaceMember):
        M = dof_matrix_ld(dofset, field.space) if M is None else M
        return np.dot(field.coeffs.astype(np.longdouble), M.T)
    plan = _plan_for(dofset, None)
    sample = field.factor_sample(plan.nodes, plan.nodes)
    A, B = _block_moments(plan, lambda q, axis: sample[q][axis])
    return _dof_values(plan, A[..., plan.ca], B[..., plan.cb]).sum(-1)


@functools.lru_cache(maxsize=None)
def block_tables(plan: DofPlan, deg: int) -> tuple:
    """_block_moments of the rows of factor_values(deg) on the plan's nodes, every
    block reading all of them, read-only, cached per plan and trial degree."""
    F = factor_values(deg, plan.nodes)
    tables = _block_moments(plan, lambda q, axis: F)
    for a in tables:
        a.setflags(write=False)
    return tables


def dof_matrix_ld(dofset: DofSet, space: ElementSpace) -> np.ndarray:
    """M[a, b] = functional a applied to basis member b, extended precision,
    under the plan every member's DOF vector uses: the labels are the terms, both
    moments read from the block tables at the factor rows the labels name."""
    plan = _plan_for(dofset, space._maxdeg)
    (TA, TB), (RA, RB) = block_tables(plan, space._maxdeg), space._rows[plan.comp, plan.axes]
    return _dof_values(plan, TA[RA.T, plan.ca], TB[RB.T, plan.cb])
