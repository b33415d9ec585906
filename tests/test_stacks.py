"""Member and field stacks: the batched check judges against per-row loops.

`check` interpolates its 20 projection members and the 5 commuting
fields as stacks.  The oracles here keep the one-at-a-time code, and a
stack must match it bit for bit (==, not isclose).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit import cli
from hdivkit.dofs import _plan_for, build_dofs, dof_vector_ld
from hdivkit.elements import FAMILIES, MAX_DEGREE, build_space, degree_range
from hdivkit.fields import FieldStack, ReproductionField, commuting_battery, env_seed
from hdivkit.harness import PhysicalRect, piola_push
from hdivkit.interpolation import (
    COMMUTING_TOL, SAMPLE_GRID, _eval_legendre_sum, commuting_residuals, judge_commuting,
    reference_operator, reference_projector,
)

# every (family, k, replace) that check --kmax 4 and its negative control judge
PROJECTION_CASES = [(f, k, r) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)
                    for r in (False, True)]
COMMUTING_CASES = [(f, k, r) for f, k, r in PROJECTION_CASES if k <= cli.COMMUTING_KMAX]


def _members_one_at_a_time(family, k, replace):
    """The projection members, each with its own DOF vector and solve."""
    op = reference_operator(family, k, replace)
    rng = np.random.default_rng(env_seed())
    members = [op.space.random_member(rng) for _ in range(cli.PROJECTION_MEMBERS)]
    dofs = np.stack([dof_vector_ld(op.dofs, m) for m in members])
    coeffs = np.stack([op.solve(d) for d in dofs])
    exact = np.stack([m.coeffs for m in members])
    worst = np.max(np.abs(coeffs - exact).max(axis=1) / np.abs(exact).max(axis=1))
    return exact, dofs, coeffs, worst


@pytest.mark.parametrize("family,k,replace", PROJECTION_CASES)
def test_projection_stack_matches_the_member_loop(family, k, replace):
    exact, dofs, coeffs, worst = _members_one_at_a_time(family, k, replace)
    op = reference_operator(family, k, replace)
    stack = op.space.member(exact)
    assert np.array_equal(dof_vector_ld(op.dofs, stack), dofs)
    assert np.array_equal(op.solve_coefficients(stack), coeffs)
    assert cli._judge_projection(family, k, replace) == (worst, worst <= cli.REPRO_TOL)


def _residual_one_field(family, k, fld, replace):
    """The per-field commuting residual: its own interpolant and tabulation."""
    op = reference_operator(family, k, replace)
    m = op.interpolate(fld)
    s = np.linspace(0.0, 1.0, SAMPLE_GRID)
    X, Y = np.meshgrid(s, s, indexing="ij")
    lhs = m.div_values(X, Y)
    rhs = _eval_legendre_sum(reference_projector(family, k).coeffs_internal(fld.div_values), X, Y)
    return m.coeffs, float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("family,k,replace", COMMUTING_CASES)
def test_commuting_stack_matches_the_field_loop(family, k, replace):
    battery = commuting_battery()
    coeffs, residuals = zip(*(_residual_one_field(family, k, f, replace) for f in battery))
    op = reference_operator(family, k, replace)
    assert np.array_equal(op.solve_coefficients(FieldStack(battery)), np.stack(coeffs))
    assert np.array_equal(commuting_residuals(family, k, battery, replace), residuals)
    worst = max(residuals)
    assert judge_commuting(family, k, replace) == (worst, worst <= COMMUTING_TOL)


@pytest.mark.parametrize("rows", [1, 2, 8, 20, 22, "dim", "dim + 1"])
@pytest.mark.parametrize("family,k", [("RT", 4), ("BDM", 4), ("ABF", 4)])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_stacked_solve_matches_lone_solves(family, k, rows, seed, scale):
    # solve multiplies each column of the stack by the cached inverse on its
    # own, so a row's coefficients never depend on the stack around it
    op = reference_operator(family, k)
    n = {"dim": op.space.dim, "dim + 1": op.space.dim + 1}.get(rows, rows)
    rng = np.random.default_rng(seed)
    b = dof_vector_ld(op.dofs, op.space.member(scale * rng.standard_normal((n, op.space.dim))))
    assert np.array_equal(op.solve(b), np.stack([op.solve(row) for row in b]))


ALL_PAIRS = [(f, k) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)]


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       sparsity=st.floats(0.0, 0.9),
       points=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)), min_size=1,
                       max_size=12))
def test_stack_rows_evaluate_as_single_members(pair, rows, seed, sparsity, points):
    space = build_space(*pair)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((rows, space.dim)) * (rng.random((rows, space.dim)) >= sparsity)
    stack = space.member(coeffs)
    singles = [space.member(c) for c in coeffs]
    plan = _plan_for(build_dofs(*pair), space._maxdeg)
    x, y = np.array(points).T
    for xs, ys in ((plan.x, plan.y), plan.inner, (x, y)):
        U, V = stack.uv(xs, ys)
        D = stack.div_values(xs, ys)
        for r, m in enumerate(singles):
            u, v = m.uv(xs, ys)
            assert np.array_equal(U[r], u) and np.array_equal(V[r], v)
            assert np.array_equal(D[r], m.div_values(xs, ys))
    bounds = np.array([m.degree_bounds for m in singles]).max(axis=0)
    assert np.array_equal(np.array(stack.degree_bounds), bounds)


# --- guards: a stack never reaches code that takes one member ---------------

def _stack(rows=3):
    space = build_space("RT", 1)
    return space.member(np.random.default_rng(0).standard_normal((rows, space.dim)))


@pytest.mark.parametrize("view", [lambda m: m.u, lambda m: m.v, lambda m: m.divergence()],
                         ids=["u", "v", "divergence"])
def test_a_member_has_no_monomial_view(view):
    # single or stacked, a member is its space and its coefficients
    single = build_space("RT", 1).random_member(np.random.default_rng(0))
    for member in (single, _stack()):
        with pytest.raises(AttributeError):
            view(member)
        assert repr(member).startswith("SpaceMember(ElementSpace(RT, k=1, dim=12), coeffs=")


@pytest.mark.parametrize("operation,error,message", [
    (lambda m: m.divergence(), AttributeError, r"no attribute 'divergence'"),
    (lambda m: m + m, TypeError, r"unsupported operand .* for \+: 'SpaceMember'"),
    (lambda m: m - m, TypeError, r"unsupported operand .* for -: 'SpaceMember'"),
    (lambda m: m * 2.0, TypeError, r"unsupported operand .* for \*: 'SpaceMember'"),
    (lambda m: 2.0 * m, TypeError, r"unsupported operand .* for \*: 'float' and 'SpaceMember'"),
], ids=["divergence", "add", "sub", "mul", "rmul"])
def test_member_algebra_names_the_operation(operation, error, message):
    # a member has no algebra of its own (it combines by its coefficients), so
    # Python's own errors name the operation
    single = build_space("RT", 1).random_member(np.random.default_rng(0))
    for member in (single, _stack()):
        with pytest.raises(error, match=message):
            operation(member)


def test_reproduction_field_rejects_a_stack():
    with pytest.raises(ValueError, match="ReproductionField takes one member"):
        ReproductionField(_stack())


def test_piola_push_rejects_a_stack():
    with pytest.raises(ValueError, match="piola_push takes one member"):
        piola_push(PhysicalRect(0.5, 0.25), _stack())


@pytest.mark.parametrize("shape", [(11,), (3, 13), (0, 12), (2, 3, 12), ()])
def test_a_wrong_coefficient_shape_names_the_dimension(shape):
    with pytest.raises(ValueError, match=r"expected 12 coefficients, got \("):
        build_space("RT", 1).member(np.zeros(shape))
