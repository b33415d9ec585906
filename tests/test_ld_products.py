"""Extended-precision products: each np.dot equals the `@` form it replaced.

numpy runs long-double `@` in its no-BLAS matmul loop and `np.dot` in the
dtype's dot loop; both add the products in index order from zero, so they
give the same bits, and the program takes the faster np.dot.  The `@`
forms live here only, as oracles, and every comparison is ==.  A failure
names the platform where the two loops sum apart.
"""

import platform

import numpy as np
import pytest

from hdivkit.dofs import _plan_for, dof_vector_ld, moment_table
from hdivkit.elements import FAMILIES, MAX_DEGREE, degree_range, factor_values
from hdivkit.fields import FieldStack, commuting_battery
from hdivkit.interpolation import reference_operator, reference_projector
from hdivkit.quadrature import NONPOLY_POINTS
from reference_oracle import kind_weights

PAIRS = [(f, k) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)]
# the 14 standard operators and the 5 ABF negative controls
OPERATORS = [(f, k, False) for f, k in PAIRS] + [("ABF", k, True)
                                                 for k in degree_range("ABF", MAX_DEGREE)]
STACKS = [(), (1,), (8,), (20,), (3, 4)]
PLATFORM = f"{platform.machine()} {platform.system()}, numpy {np.__version__}"


def _same(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.array_equal(got, want), f"{what}: np.dot and @ sum apart on {PLATFORM}"


def _coeffs(rng, shape, dim):
    """Coefficients of magnitudes 1e-8 to 1e8, shape + (dim,)."""
    return rng.standard_normal(shape + (dim,)) * 10.0 ** rng.uniform(-8, 8, shape + (dim,))


def _matmul_solve(op, b):
    b = b[..., None]
    x = np.longdouble(op._inverse @ b.astype(float))
    x = x + op._inverse @ (b - op._M_ld @ x).astype(float)
    return x[..., 0].astype(float)


@pytest.mark.parametrize("family,k,replace", OPERATORS)
def test_member_dof_vectors_and_solves_match_matmul(family, k, replace):
    op = reference_operator(family, k, replace)
    rng = np.random.default_rng(k + 10 * FAMILIES.index(family) + 100 * replace)
    for shape in STACKS:
        c = _coeffs(rng, shape, op.space.dim)
        want = (op._M_ld @ c.astype(np.longdouble)[..., None])[..., 0]
        # a member holds at most one stack axis; (3, 4) goes in as 12 rows
        got = dof_vector_ld(op.dofs, op.space.member(c.reshape(-1, op.space.dim) if shape else c))
        _same(got.reshape(want.shape), want, f"{family}_{k} M c, stack {shape}")
        _same(op.solve(want), _matmul_solve(op, want), f"{family}_{k} solve, stack {shape}")
    b = dof_vector_ld(op.dofs, FieldStack(commuting_battery()))
    _same(op.solve(b), _matmul_solve(op, b), f"{family}_{k} solve of the battery")


def _columns_match(got, F, weights, what):
    """Every column of got, the moments of factors F ordered by kind, against F's
    values at 0 and 1 or its @ weighted sums of one kind's rows; the oracle's own
    weights, from gauss_legendre_01 and factor_values, not read off the plan."""
    start = 0
    for kind, want in enumerate([F[..., [0, -1]]] + [F[..., 1:-1] @ w.T for w in weights]):
        _same(got[..., start: start + want.shape[-1]], want, f"{what}, kind {kind}")
        start += want.shape[-1]
    assert start == got.shape[-1], what


@pytest.mark.parametrize("family,k,replace", OPERATORS)
def test_dof_plan_moments_match_matmul(family, k, replace):
    op = reference_operator(family, k, replace)
    # the basis rows the DOF matrix reads, and every column of its cached moment table
    plan, deg = _plan_for(op.dofs, op.space._maxdeg), op.space._maxdeg
    F, weights = factor_values(deg, plan.nodes), kind_weights(op.dofs.functionals, plan.n)
    _columns_match(plan.moments(F), F, weights, f"{family}_{k} basis moments")
    _columns_match(moment_table(plan, deg), F, weights, f"{family}_{k} moment table")
    # both arrays of a field stack's factor sample, (fields, terms, 3, n + 2) each
    plan = _plan_for(op.dofs, None)
    weights = kind_weights(op.dofs.functionals, plan.n)
    for F in FieldStack(commuting_battery()).factor_sample(plan.nodes, plan.nodes):
        _columns_match(plan.moments(F), F, weights, f"{family}_{k} field moments {F.shape}")


@pytest.mark.parametrize("family,k", PAIRS)
def test_projector_coefficients_match_matmul(family, k):
    proj = reference_projector(family, k)
    _, _, W, (i, j) = proj._rule_tables
    rng = np.random.default_rng(k + 10 * FAMILIES.index(family))
    n = NONPOLY_POINTS
    for shape in [(n, n), (5, n, n), (), (n, 1), (1, n), (2, 3, n, n)]:
        vals = _coeffs(rng, shape, 1)[..., 0]
        V = np.broadcast_to(np.asarray(vals, np.longdouble), np.broadcast_shapes(shape, (n, n)))
        C = W @ V @ W.T
        want = (C[..., i, j] * ((2 * i + 1) * (2 * j + 1))).astype(float)
        _same(proj.coefficients(vals), want, f"{family}_{k} projector, values {shape}")
