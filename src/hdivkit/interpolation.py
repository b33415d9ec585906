"""Interpolation operators and the L2 projector onto the divergence image.

The interpolation operator solves M c = F(field) where M is the
DOF-matrix of the element basis and F the field's DOF vector.  M is
assembled in extended precision and inverted once, in doubles, when the
operator is built; that inverse also gives `condition`, the exact 1-norm
condition number ||M||_1 ||M^-1||_1 (not an estimate).  Every solve is
the product with the cached inverse, polished by three extended-precision
residual-correction sweeps x <- x + M^-1 (b - M x): iterative refinement
with an approximate inverse, which converges while ||I - M^-1 M|| < 1
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).  The
coefficient error then tracks the extended epsilon rather than the double
one, which is what keeps space members reproducible to 1e-12 through
condition numbers around 1e6.  `solve` takes DOF vectors with leading
axes (a study's levels, the rows of a member stack or a FieldStack) as a
stack of single columns: numpy's matmul runs the same matrix-vector
product for each column, which keeps the bits of a lone solve; one
product with a matrix of many columns may sum in another order.  So
`interpolate` of a stacked field is a stacked member, one row per field.
An operator keeps its basis on the studies' error rule (rule_tables).

The projector works in an orthogonal Legendre-product basis of the same
span as the declared monomial basis (all divergence index sets are
downward closed, so the spans coincide).  It takes any callable w(x, y),
a field's div_values or a polynomial's eval alike, and integrates it on
one fixed 20 x 20 Gauss rule in extended precision.
"""

from __future__ import annotations

import functools
import warnings
from typing import Optional, Tuple

import numpy as np

from . import legendre
from .dofs import DofSet, build_dofs, dof_vector_ld, dof_matrix_ld
from .elements import (
    ElementFamily, ElementSpace, ScalarSpace, SpaceMember, _as_family, build_div_space,
    build_space,
)
from .fields import FieldStack, commuting_battery
from .quadrature import NONPOLY_POINTS, gauss_legendre_01, tensor_rule

COND_FAIL = 1e12
COND_WARN = 1e9
REFINE_SWEEPS = 3
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
    def rule_tables(self) -> tuple:
        """The basis (U, V, div) on the axes of the 20 x 20 error rule, each of shape
        (dim, 20, 20), tabulated on first use."""
        t = gauss_legendre_01(NONPOLY_POINTS).nodes
        x, y = t[:, None], t[None, :]
        return (*self.space.tabulate(x, y), self.space.tabulate_div(x, y))

    def solve(self, b) -> np.ndarray:
        """Coefficients of extended-precision DOF vectors; leading axes batch.

        The cached inverse's product plus REFINE_SWEEPS extended-precision
        residual corrections, each applied to a stack of single columns,
        never to one matrix of many columns, so a row keeps a lone solve's bits.
        """
        if not np.all(np.isfinite(b)):
            raise ValueError("DOF vector is not finite")
        b = b[..., None]
        x = np.longdouble(self._inverse @ b.astype(float))
        for _ in range(REFINE_SWEEPS):
            x = x + self._inverse @ (b - self._M_ld @ x).astype(float)
        return x[..., 0].astype(float)

    def solve_coefficients(self, field) -> np.ndarray:
        """The interpolant's coefficients; one row per leading-axis row of values."""
        return self.solve(dof_vector_ld(self.dofs, field))

    def interpolate(self, field) -> SpaceMember:
        return self.space.member(self.solve_coefficients(field))

    def __repr__(self):
        return (f"InterpolationOperator({self.space.family.value}, k={self.space.k}, "
                f"cond={self.condition:.3e})")


def reference_operator(family, k: int,
                       replace_div_moments: bool = False) -> InterpolationOperator:
    """The cached operator of build_space(family, k) and build_dofs(family, k, ...).

    replace_div_moments=True gives the negative-control operator whose
    ABF divergence moments are swapped out (see build_dofs).
    """
    return _reference_operator(_as_family(family), k, replace_div_moments)


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
        """The fixed rule's long-double axes, (20, 20) weights and Legendre values."""
        n = NONPOLY_POINTS
        t = gauss_legendre_01(n).nodes_ld
        x, y = t[:, None], t[None, :]
        nmax = max(max(i, j) for i, j in self._index)
        return (x, y, tensor_rule(n, n).ws_ld.reshape(n, n),
                legendre.values(nmax, x), legendre.values(nmax, y))

    def coeffs_internal(self, w) -> dict:
        """Legendre-product coefficients of the projection of w(x, y), keyed (i, j)."""
        x, y, ws, Lx, Ly = self._rule_tables
        vals = np.asarray(w(x, y), dtype=np.longdouble)
        out = {}  # each sum runs over the contiguous grid in x-major order
        for i, j in self._index:
            c = np.sum(ws * vals * Lx[i] * Ly[j]) * ((2 * i + 1) * (2 * j + 1))
            out[(i, j)] = float(c)
        return out

    def __repr__(self):
        return f"L2Projector({self.scalar_space.description})"


def reference_projector(family, k: int) -> L2Projector:
    """The cached projector onto build_div_space(family, k)."""
    return _reference_projector(_as_family(family), k)


@functools.lru_cache(maxsize=None)
def _reference_projector(family: ElementFamily, k: int) -> L2Projector:
    return L2Projector(build_div_space(family, k))


SAMPLE_GRID = 21


def commuting_residuals(family, k: int, fields, replace_div_moments: bool = False) -> np.ndarray:
    """Per field, max over a 21 x 21 grid of |div(I field) - P(div field)|.

    The fields are interpolated as one FieldStack: one DOF-vector call,
    one stacked solve and one tabulation of the basis divergences on the
    grid.  The stacked member contracts each field's coefficients with
    that table by their own gemv (elements.contract: one product over
    all rows would be a gemm, whose sums may round apart from a lone
    field's), so every residual keeps the bits of a lone field.  Both sides are
    sampled through the Legendre recurrence; expanding either to a
    monomial grid first would cost two digits at k >= 3.
    """
    fields = tuple(fields)
    op = reference_operator(family, k, replace_div_moments)
    proj = reference_projector(family, k)
    s = np.linspace(0.0, 1.0, SAMPLE_GRID)
    x, y = s[:, None], s[None, :]
    lhs = op.interpolate(FieldStack(fields)).div_values(x, y)
    rhs = [_eval_legendre_sum(proj.coeffs_internal(f.div_values), x, y) for f in fields]
    return np.array([np.max(np.abs(a - b)) for a, b in zip(lhs, rhs)])


def judge_commuting(family, k: int, replace_div_moments: bool = False) -> Tuple[float, bool]:
    """The largest commuting residual over commuting_battery(), and whether
    it is <= COMMUTING_TOL; np.max lets a NaN residual through, so it fails."""
    worst = float(np.max(commuting_residuals(family, k, commuting_battery(),
                                             replace_div_moments)))
    return worst, worst <= COMMUTING_TOL


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
