"""Interpolation operators and the L2 projector onto the divergence image.

The interpolation operator solves M c = F(field) where M is the
DOF-matrix of the element basis and F the field's DOF vector.  M is
assembled in extended precision; every solve goes through numpy's LAPACK
gesv in doubles and is polished with three extended-precision
residual-correction sweeps.  The coefficient error then tracks the
extended epsilon rather than the double one, which is what keeps space
members reproducible to 1e-12 through condition numbers around 1e6.
`condition` is the exact 1-norm condition number of M, not an estimate.

The projector works in an orthogonal Legendre-product basis of the same
span as the declared monomial basis (all divergence index sets are
downward closed, so the spans coincide).  Polynomial inputs are expanded
exactly in rational arithmetic; only genuinely non-polynomial inputs go
through quadrature.
"""

from __future__ import annotations

import functools
import warnings
from typing import Optional

import numpy as np

from . import legendre
from .dofs import DofSet, build_dofs, dof_vector_ld, dof_matrix_ld
from .elements import (
    ElementFamily, ElementSpace, ScalarSpace, SpaceMember, _as_family, build_div_space,
    build_space,
)
from .poly import Polynomial2D
from .quadrature import NONPOLY_POINTS, tensor_rule

COND_FAIL = 1e12
COND_WARN = 1e9
REFINE_SWEEPS = 3
# the commuting-diagram guarantee: max |div(I u) - P(div u)| on the sample grid
COMMUTING_TOL = 1e-10


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
        # inf for a singular M, nan for a non-finite one
        self.condition = float(np.linalg.cond(self.dof_matrix, 1))
        if not np.isfinite(self.condition) or self.condition > COND_FAIL:
            raise OperatorConstructionError(
                f"{tag}: DOF matrix singular or ill-conditioned (cond {self.condition:.3e})"
            )
        self.det_sign = int(np.linalg.slogdet(self.dof_matrix)[0])
        if self.condition > COND_WARN:
            warnings.warn(f"{tag}: DOF matrix condition {self.condition:.3e}", RuntimeWarning)

    def solve_coefficients(self, field) -> np.ndarray:
        b = dof_vector_ld(self.dofs, field)
        if not np.all(np.isfinite(b)):
            raise ValueError("DOF vector is not finite")
        x = np.longdouble(np.linalg.solve(self.dof_matrix, b.astype(float)))
        for _ in range(REFINE_SWEEPS):
            r = b - self._M_ld @ x
            x = x + np.linalg.solve(self.dof_matrix, r.astype(float))
        return x.astype(float)

    def interpolate(self, field) -> SpaceMember:
        return self.space.member(self.solve_coefficients(field))

    def __repr__(self):
        return (f"InterpolationOperator({self.space.family.value}, k={self.space.k}, "
                f"cond={self.condition:.3e})")


def interpolate(op: InterpolationOperator, field) -> SpaceMember:
    return op.interpolate(field)


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
    space = build_space(family, k)
    report = {"family": space.family.value, "k": space.k}
    try:
        op = InterpolationOperator(space, build_dofs(space.family, k, replace_div_moments))
    except OperatorConstructionError as exc:
        report.update(det_sign=0, condition=np.inf, nonsingular=False, ok=False,
                      warn=True, detail=str(exc))
        return report
    report.update(
        det_sign=op.det_sign,
        condition=op.condition,
        nonsingular=op.det_sign != 0,
        ok=op.det_sign != 0 and op.condition <= COND_FAIL,
        warn=op.condition > COND_WARN,
    )
    return report


class L2Projector:
    """Best L2(K) approximation in a divergence-image scalar space."""

    def __init__(self, scalar_space: ScalarSpace):
        self.scalar_space = scalar_space
        self._index = scalar_space.exponents

    def coeffs_internal(self, w) -> dict:
        """Legendre-product coefficients of the projection, keyed (i, j)."""
        if isinstance(w, Polynomial2D):
            exact = legendre.grid_to_basis_exact(w.coeffs)
            return {ij: float(c) for ij, c in exact.items() if ij in self.scalar_space._expset}
        n = NONPOLY_POINTS
        rule = tensor_rule(n, n)
        xs, ys, ws = rule.xs_ld, rule.ys_ld, rule.ws_ld
        vals = np.asarray(w(xs, ys), dtype=np.longdouble)
        nmax = max(max(i, j) for i, j in self._index)
        Lx = legendre.values(nmax, xs)
        Ly = legendre.values(nmax, ys)
        out = {}
        for i, j in self._index:
            c = np.sum(ws * vals * Lx[i] * Ly[j]) * ((2 * i + 1) * (2 * j + 1))
            out[(i, j)] = float(c)
        return out

    def project(self, w) -> Polynomial2D:
        coeffs = self.coeffs_internal(w)
        out = Polynomial2D.zero()
        for (i, j) in sorted(coeffs):
            c = coeffs[(i, j)]
            if c != 0.0:
                out = out + legendre.product_poly(i, j) * c
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


def commuting_residual(family, k: int, field, replace_div_moments: bool = False) -> float:
    """max over a 21 x 21 grid of |div(I field) - P(div field)|.

    Both sides are sampled through the Legendre recurrence; expanding
    either to a monomial grid first would cost two digits at k >= 3.
    """
    op = reference_operator(family, k, replace_div_moments)
    proj = reference_projector(family, k)
    m = op.interpolate(field)
    coeffs = proj.coeffs_internal(field.div_values)
    s = np.linspace(0.0, 1.0, SAMPLE_GRID)
    X, Y = np.meshgrid(s, s, indexing="ij")
    lhs = m.div_values(X, Y)
    rhs = _eval_legendre_sum(coeffs, X, Y)
    return float(np.max(np.abs(lhs - rhs)))


def _eval_legendre_sum(coeffs: dict, x, y):
    if not coeffs:
        return np.zeros_like(np.asarray(x, dtype=float))
    nmax = max(max(i, j) for i, j in coeffs)
    Lx = legendre.values(nmax, np.asarray(x))
    Ly = legendre.values(nmax, np.asarray(y))
    out = np.zeros_like(Lx[0])
    for (i, j), c in sorted(coeffs.items()):
        out = out + c * (Lx[i] * Ly[j])
    return out
