"""Interpolation operators and the L2 projector onto the divergence image.

The interpolation operator solves M c = F(field) where M is the
DOF-matrix of the element basis and F the field's DOF vector.  M is
assembled in extended precision from products of 1-D moments of the DOF
plan, with no basis tabulated (dofs.dof_matrix_ld), and inverted once, in
doubles, when the operator is built; that inverse also gives `condition`,
the exact 1-norm condition number ||M||_1 ||M^-1||_1 (not an estimate).
Every solve is x0 = M^-1 b by the cached inverse plus one extended-precision
residual correction x = x0 + M^-1 (b - M x0) (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12): as ||I - M^-1 M|| <= cond u_d
(504 * 1.1e-16 at most up to k = 4), it reaches the extended floor, where
more sweeps would only redraw roundoff, so a study's pushed members, whose
roundoff grows with the 1/h Piola factors, stay within 1e-12.  A member of
the operator's space takes its DOF vector M c from the M held.  `solve`
takes DOF vectors with leading axes (a study's levels, a member stack or
a FieldStack) row by row: matmul applies the inverse to single columns
and one np.dot (see dofs) gives b - M x, so a row keeps a lone solve's
bits and `interpolate` of a stacked field is a stacked member, one row
per field.  An operator keeps its basis on the studies' error rule, U, V
and div in one table (rule_tables), the products of its labels' factor
rows on the rule's nodes.

The projector works in an orthogonal Legendre-product basis of the same
span as the declared monomial basis (all divergence index sets are
downward closed, so the spans coincide).  It integrates values V on one
fixed 20 x 20 Gauss rule in extended precision, on the inner nodes of
every 20-point DOF plan, sum factorised (Orszag 1980): (2i+1)(2j+1)
(W V W^T)[i, j], W = w L the weighted Legendre rows.  `coefficients` takes
a stack of values, one row per field, and `coeffs_internal` any callable
w(x, y), even one giving a scalar or a single axis.  The commuting check
caches its fields' factor sample on those plans' nodes once per process
(cached_sample): the DOF vectors read it, the projector the divergence
grid_values sums on its inner nodes, the rule, and the residuals tabulate
no basis.
"""

from __future__ import annotations

import functools
import warnings
from typing import Optional, Tuple

import numpy as np

from .dofs import DofSet, build_dofs, dof_vector_ld, dof_matrix_ld, plan_nodes
from .elements import (
    ElementFamily, ElementSpace, ScalarSpace, SpaceMember, _as_family, _validate_degree,
    build_div_space, build_space, factor_values,
)
from .fields import FieldStack, commuting_battery, grid_values
from .quadrature import NONPOLY_POINTS, gauss_legendre_01

COND_FAIL = 1e12
COND_WARN = 1e9
# the commuting-diagram guarantee: max |div(I u) - P(div u)| on the sample grid
COMMUTING_TOL = 1e-10
# the reproduction guarantee: a space member is interpolated to this relative accuracy
REPRO_TOL = 1e-12


class OperatorConstructionError(RuntimeError):
    """DOF matrix singular or too ill-conditioned to trust."""


class InterpolationOperator:
    """Moment interpolation onto one element space.

    dofs may be any DOF set whose count matches space.dim, in any order;
    the default is build_dofs(space.family, space.k).
    """

    def __init__(self, space: ElementSpace, dofs: Optional[DofSet] = None):
        if dofs is None:
            dofs = build_dofs(space.family, space.k)
        if dofs.count != space.dim:
            raise ValueError("DOF count does not match space dimension")
        self.space = space
        self.dofs = dofs
        self._M_ld = dof_matrix_ld(dofs, space)
        self.dof_matrix = self._M_ld.astype(float)
        tag = f"{space.family.value}_{space.k}"
        # np.linalg.cond(M, 1) to the bit, keeping the inverse it builds; as
        # there, nan for an M with a nan entry and inf for any other singular one
        try:
            self._inverse = np.linalg.inv(self.dof_matrix)
            self.condition = float(np.linalg.norm(self.dof_matrix, 1)
                                   * np.linalg.norm(self._inverse, 1))
        except np.linalg.LinAlgError:
            self.condition = np.nan
        if np.isnan(self.condition) and not np.isnan(self.dof_matrix).any():
            self.condition = np.inf
        if not np.isfinite(self.condition) or self.condition > COND_FAIL:
            raise OperatorConstructionError(
                f"{tag}: DOF matrix singular or ill-conditioned (cond {self.condition:.3e})"
            )
        if self.condition > COND_WARN:
            warnings.warn(f"{tag}: DOF matrix condition {self.condition:.3e}", RuntimeWarning)

    @functools.cached_property
    def rule_tables(self) -> np.ndarray:
        """The basis U, V and div on the axes of the 20 x 20 error rule, one table of
        shape (dim, 3, 20, 20), filled on first use from one factor_values pass over
        the rule's nodes: label b's x rows times its y rows, at space._rows."""
        F = factor_values(self.space._maxdeg, gauss_legendre_01(NONPOLY_POINTS).nodes)
        rows = self.space._rows.transpose(2, 0, 1)  # (dim, 3, axis)
        return F[rows[..., 0], :, None] * F[rows[..., 1], None, :]

    def solve(self, b) -> np.ndarray:
        """Coefficients of extended-precision DOF vectors; leading axes batch.

        The cached inverse's product, on a stack of single columns, never one
        matrix of many, plus one residual correction, b - M x by one np.dot
        summed in index order, so a row keeps a lone solve's bits.
        """
        if not np.all(np.isfinite(b)):
            raise ValueError("DOF vector is not finite")
        x = np.longdouble(self._inverse @ b.astype(float)[..., None])[..., 0]
        r = (b - np.dot(x, self._M_ld.T)).astype(float)
        return (x + (self._inverse @ r[..., None])[..., 0]).astype(float)

    def solve_coefficients(self, field) -> np.ndarray:
        """The interpolant's coefficients; one row per leading-axis row of values."""
        own = isinstance(field, SpaceMember) and field.space.labels == self.space.labels
        return self.solve(dof_vector_ld(self.dofs, field, self._M_ld if own else None))

    def interpolate(self, field) -> SpaceMember:
        return self.space.member(self.solve_coefficients(field))

    def __repr__(self):
        return (f"InterpolationOperator({self.space.family.value}, k={self.space.k}, "
                f"cond={self.condition:.3e})")


def reference_operator(family, k: int,
                       replace_div_moments: bool = False) -> InterpolationOperator:
    """The cached operator of build_space(family, k) and build_dofs(family, k, ...).

    replace_div_moments=True gives the negative-control operator whose
    ABF divergence moments are swapped out (see build_dofs).  (family, k) is
    checked before the cache, where a bool k would hit its integer's entry.
    """
    family = _as_family(family)
    _validate_degree(family, k)
    return _reference_operator(family, k, replace_div_moments)


@functools.lru_cache(maxsize=None)
def _reference_operator(family: ElementFamily, k: int, replace: bool) -> InterpolationOperator:
    return InterpolationOperator(build_space(family, k), build_dofs(family, k, replace))


def unisolvence_report(family, k: int, replace_div_moments: bool = False) -> dict:
    """The DOF matrix's condition; ok when it is nonsingular with condition <= COND_WARN."""
    space = build_space(family, k)
    report = {"family": space.family.value, "k": space.k}
    try:
        op = InterpolationOperator(space, build_dofs(space.family, k, replace_div_moments))
    except OperatorConstructionError as exc:
        report.update(condition=np.inf, nonsingular=False, ok=False, warn=True,
                      detail=str(exc))
        return report
    # construction succeeds only for a finite condition <= COND_FAIL
    report.update(condition=op.condition, nonsingular=True, ok=op.condition <= COND_WARN,
                  warn=op.condition > COND_WARN)
    return report


class L2Projector:
    """Best L2(K) approximation in a divergence-image scalar space."""

    def __init__(self, scalar_space: ScalarSpace):
        self.scalar_space = scalar_space
        self._index = scalar_space.exponents

    @functools.cached_property
    def _rule_tables(self) -> tuple:
        """The fixed rule's long-double axes x (20, 1) and y (1, 20), W = w L, the
        rule weights times the Legendre rows up to the index set's top degree, and
        the index set as row and column arrays (i, j)."""
        rule = gauss_legendre_01(NONPOLY_POINTS)  # the inner nodes of every 20-point DOF plan
        t, (i, j), d = rule.nodes_ld, np.array(self._index).T, int(np.max(self._index))
        W = rule.weights_ld * factor_values(d, t)[: d + 1]
        return t[:, None], t[None, :], W, (i, j)

    def coefficients(self, vals) -> np.ndarray:
        """Projection coefficients of values on the rule's grid, broadcast to
        (..., 20, 20), one column per (i, j), leading axes batching: (2i+1)(2j+1)
        (W V W^T)[i, j] in extended precision, each row's bits as if alone."""
        _, _, W, (i, j) = self._rule_tables
        V = np.asarray(vals, dtype=np.longdouble)
        V = np.broadcast_to(V, np.broadcast_shapes(V.shape, (NONPOLY_POINTS,) * 2))
        C = np.dot(np.moveaxis(np.dot(W, V), 0, -2), W.T)
        return (C[..., i, j] * ((2 * i + 1) * (2 * j + 1))).astype(float)

    def coeffs_internal(self, w) -> dict:
        """Legendre-product coefficients of the projection of w(x, y), keyed (i, j)."""
        return dict(zip(self._index, self.coefficients(w(*self._rule_tables[:2])).tolist()))

    def __repr__(self):
        return f"L2Projector({self.scalar_space.description})"


def reference_projector(family, k: int) -> L2Projector:
    """The cached projector onto build_div_space(family, k); (family, k) is
    checked before the cache, as in reference_operator."""
    family = _as_family(family)
    _validate_degree(family, k)
    return _reference_projector(family, k)


@functools.lru_cache(maxsize=None)
def _reference_projector(family: ElementFamily, k: int) -> L2Projector:
    return L2Projector(build_div_space(family, k))


SAMPLE_GRID = 21


class _Sampled:
    """Fields known only by their factor sample, its two arrays taken once,
    read-only, on the nodes of every 20-point DOF plan, whatever nodes are asked
    for; div holds their divergences, the grid_values component 2 of the inner
    nodes, the projector's rule."""

    def __init__(self, fields):
        nodes = plan_nodes(NONPOLY_POINTS)
        self.sample = FieldStack(fields).factor_sample(nodes, nodes)
        self.div = grid_values(tuple(F[..., 1:-1] for F in self.sample))[2]
        for a in (*self.sample, self.div):
            a.setflags(write=False)

    def factor_sample(self, x, y):
        return self.sample


# the cached sample of a tuple of fields, filled on first use
cached_sample = functools.lru_cache(maxsize=8)(_Sampled)


@functools.lru_cache(maxsize=None)
def axis_table(deg: int) -> np.ndarray:
    """factor_values(deg) on the sample grid's axis, read-only, one per degree."""
    F = factor_values(deg, np.linspace(0.0, 1.0, SAMPLE_GRID))
    F.setflags(write=False)
    return F


def commuting_residuals(family, k: int, fields, replace_div_moments: bool = False) -> np.ndarray:
    """Per field, max over a 21 x 21 grid of |div(I field) - P(div field)|.

    Both sides read one cached_sample: one DOF-vector call and one stacked
    solve interpolate it, and one stacked projector pass integrates the
    sample's divergences.  Both are then evaluated on the grid's axis s from
    1-D factors, one matrix product per field: div I u as X^T Y, X the x rows
    of the basis divergences (the space's div factor rows of axis_table)
    weighted by the interpolant's coefficients and Y their y rows, and P div u
    as L(s)^T C L(s), L the table's first Legendre rows and C the projector's
    coefficients on their index set.  No basis table fills the grid, no table
    is recomputed, and every residual keeps a lone field's bits.  Both sides
    use the Legendre recurrence; a monomial grid would cost two digits at k >= 3.
    """
    sample = cached_sample(tuple(fields))
    op = reference_operator(family, k, replace_div_moments)
    proj = reference_projector(family, k)
    F, (rx, ry) = axis_table(op.space._maxdeg), op.space._rows[2]
    X, Y = op.solve_coefficients(sample)[..., None] * F[rx], F[ry]
    _, _, W, (i, j) = proj._rule_tables
    L = F[: len(W)]
    C = np.zeros((len(X), len(W), len(W)))
    C[:, i, j] = proj.coefficients(sample.div)
    return np.max(np.abs(np.swapaxes(X, -1, -2) @ Y - L.T @ C @ L), axis=(1, 2))


def judge_commuting(family, k: int, replace_div_moments: bool = False) -> Tuple[float, bool]:
    """The largest commuting residual over commuting_battery(), and whether
    it is <= COMMUTING_TOL; np.max lets a NaN residual through, so it fails."""
    worst = float(np.max(commuting_residuals(family, k, commuting_battery(),
                                             replace_div_moments)))
    return worst, worst <= COMMUTING_TOL

