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
those of gauss_legendre_01(n), and one weight matrix, the rows w L_i(t) of
the edge, interior and div tests stacked.  Tests are products L_i(x)
L_j(y), and a factor sample (fields.py) is r products X(x) Y(y) per
component, so per term every functional is its x moment times its y
moment (sum factorisation, Orszag 1980): on an edge one factor's value at
0 or 1 and the other's weighted sum, else both weighted sums.
DofPlan.moments takes all of them, and the plan names each functional's
component and its two moments' columns; _dof_values, the one
contraction, multiplies each pair and signs it.  dof_vector_ld gathers
the pairs from a field's sample and sums its r terms, or takes M c for a
SpaceMember (an operator passes the M it holds); dof_matrix_ld takes the
labels as the terms, the pairs read from one moment_table at the factor
rows they name, so no basis is tabulated, and no field is sampled on a grid.
Leading axes of a sample (a study's (levels, 1, 1) sides, an (m, dim)
stack, a FieldStack) give one DOF vector per row, each bit for bit its own.

A factor sample takes n = NONPOLY_POINTS (20).  The DOF matrix, and so
M c, takes n_for_degree(d + t), d the space's highest factor degree and t
the set's DofSet.test_degree (k + 1 for every standard set), which
integrates every moment exactly.  A set checks its functionals before a
plan is sized; plans are cached by value on (functionals, n), so any set
applies, reordered ones included, and the caches stay bounded.
tests/reference_oracle.py keeps the per-functional quadrature
(apply_dof_ld) and the outer-product contraction as references.

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
_XY = np.array([[0], [1]])  # a label's x and y factor rows; a list is converted per call


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
        tests reach it) for every standard set, more for higher tests.  Each
        functional is checked on the way, so every plan of the set refuses a
        malformed one by name before a rule is sized."""
        return max(self.k + 1, max(map(_check, self.functionals), default=0))

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


def _check(f: DofFunctional) -> int:
    """f's highest test index; a ValueError naming f if it is malformed.  An index
    is an int or a NumPy integer, exactly: a bool (True == 1) would alias one."""
    kind, i, j, edge, comp = f
    if kind not in _KINDS:
        raise ValueError(f"unknown DOF kind {kind!r} in {f}")
    edges, components = _KINDS[kind]
    if (edge not in edges or comp not in components or edge and j
            or not (type(i) is int or isinstance(i, np.integer))
            or not (type(j) is int or isinstance(j, np.integer)) or i < 0 or j < 0
            or not (comp is None or type(comp) is int or isinstance(comp, np.integer))):
        raise ValueError(f"malformed DOF functional {f}")
    return i if i > j else j


def _place(f: DofFunctional) -> tuple:
    """(comp, kx, ix, ky, iy): f's component, then its x and its y moment as a
    kind (0 the values at 0 and 1, 1, 2, 3 the edge, interior and div rows)
    and an index in it, once _check passes it."""
    _check(f)
    if f.edge:  # left and right: u's x factor at 0 or 1; bottom and top: v's y factor
        e = EDGES.index(f.edge)
        return (0, 0, e, 1, f.i) if e < 2 else (1, 1, f.i, 0, e - 2)
    return (2, 3, f.i, 3, f.j) if f.component is None else (f.component, 2, f.i, 2, f.j)


class DofPlan:
    """The nodes (plan_nodes(n)) and weights of a whole DOF set: one matrix of
    rows w L_i(t) on the inner nodes t, the edge, interior and div tests
    stacked.  Per functional: comp, its component, cx and cy, the columns of
    its x and y moments in moments(F), and signs, an edge's outward normal."""

    def __init__(self, functionals, n: int):
        comp, kx, ix, ky, iy = np.array([_place(f) for f in functionals], int).reshape(-1, 5).T
        rule = gauss_legendre_01(n)
        self.n, self.nodes = n, plan_nodes(n)
        # the largest test index per kind, -1 (no rows) where a kind is absent
        degs = [max((max(f.i, f.j) for f in functionals if f.kind == kind), default=-1)
                for kind in _KINDS]
        wL = rule.weights_ld * factor_values(max(*degs, 0), rule.nodes_ld)
        self.weights = np.concatenate([wL[: d + 1] for d in degs])
        starts = np.cumsum([0, 2] + [d + 1 for d in degs])
        self.comp, self.cx, self.cy = comp, starts[kx] + ix, starts[ky] + iy
        # -1 where a functional reads a value at x = 0 or y = 0 (left, bottom), else 1
        self.signs = np.where(np.minimum(self.cx, self.cy) == 0, -1, 1).astype(np.longdouble)

    def moments(self, F) -> np.ndarray:
        """The 1-D moments of factors F (..., n + 2) on the nodes, ordered by kind:
        their values at 0 and 1, then their weighted sums against every row."""
        return np.concatenate([F[..., [0, -1]], np.dot(F[..., 1:-1], self.weights.T)], axis=-1)


@functools.lru_cache(maxsize=None)
def plan_nodes(n: int) -> np.ndarray:
    """The read-only nodes {0, t_1 ... t_n, 1} of every plan at n points."""
    nodes = np.concatenate([[np.longdouble(0)], gauss_legendre_01(n).nodes_ld, [np.longdouble(1)]])
    nodes.setflags(write=False)
    return nodes


# the plan of a tuple of functionals at n points per direction, cached by value
dof_plan = functools.lru_cache(maxsize=None)(DofPlan)


def _plan_for(dofset: DofSet, max_degree: Optional[int]) -> DofPlan:
    # exact for component degree max_degree against the set's tests (checked first)
    t = dofset.test_degree
    n = NONPOLY_POINTS if max_degree is None else n_for_degree(max_degree + t)
    return dof_plan(dofset.functionals, n)


def _dof_values(plan: DofPlan, X, Y) -> np.ndarray:
    """The one contraction: DOF values of r terms, batch + (functionals, r), from
    each functional's x and y moments X and Y, batch + (r, functionals)."""
    return np.swapaxes(plan.signs * (X * Y), -1, -2)


def dof_vector_ld(dofset: DofSet, field, M: Optional[np.ndarray] = None) -> np.ndarray:
    """The field's DOF vector: M c for a member, M its space's DOF matrix
    (dof_matrix_ld unless the caller holds it), else its factor sample on the
    20-point plan's nodes contracted and summed over its terms.  Leading axes
    give one vector per row."""
    if isinstance(field, SpaceMember):
        M = dof_matrix_ld(dofset, field.space) if M is None else M
        return np.dot(field.coeffs.astype(np.longdouble), M.T)
    plan = _plan_for(dofset, None)
    X, Y = (plan.moments(F) for F in field.factor_sample(plan.nodes, plan.nodes))
    return _dof_values(plan, X[..., plan.comp, plan.cx], Y[..., plan.comp, plan.cy]).sum(-1)


@functools.lru_cache(maxsize=None)
def moment_table(plan: DofPlan, deg: int) -> np.ndarray:
    """The plan's moments of the rows of factor_values(deg), read-only, cached
    per plan and trial degree."""
    T = plan.moments(factor_values(deg, plan.nodes))
    T.setflags(write=False)
    return T


def dof_matrix_ld(dofset: DofSet, space: ElementSpace) -> np.ndarray:
    """M[a, b] = functional a applied to basis member b, extended precision,
    under the plan every member's DOF vector uses: the labels are the terms, both
    moments read from the moment table at the factor rows the labels name."""
    plan = _plan_for(dofset, space._maxdeg)
    T, (RX, RY) = moment_table(plan, space._maxdeg), space._rows[plan.comp, _XY]
    return _dof_values(plan, T[RX.T, plan.cx], T[RY.T, plan.cy])
