"""Member and field stacks: the batched check judges against per-row loops.

`check` interpolates its 20 projection members and the 5 commuting
fields as stacks, and projects the fields' divergences as one stack from
one cached factor sample.  The oracles here keep the one-at-a-time code, and a
stack must match it bit for bit (==, not isclose).  The commuting check's
1-D factor products are held to the 2-D references they replaced
(reference_oracle) within the rounding of either summation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit import cli, interpolation, legendre
from hdivkit.dofs import _plan_for, build_dofs, dof_vector_ld
from hdivkit.elements import (
    FAMILIES, MAX_DEGREE, ElementSpace, SpaceMember, build_space, degree_range,
)
from hdivkit.fields import (
    FieldStack, ManufacturedField, ReproductionField, commuting_battery, env_seed, grid_values,
)
from hdivkit.harness import PhysicalRect, piola_push
from hdivkit.interpolation import (
    COMMUTING_TOL, SAMPLE_GRID, InterpolationOperator, cached_sample, commuting_residuals,
    judge_commuting, reference_operator, reference_projector,
)
from hdivkit.quadrature import NONPOLY_POINTS
from reference_oracle import (
    _eval_legendre_sum, coeffs_internal_bound, coeffs_internal_reference, degree_bounds,
    point_values,
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
    """The per-field commuting residual in the check's order: its own
    interpolant's div factors X^T Y and its own projection L^T C L on the grid's axis."""
    op = reference_operator(family, k, replace)
    proj = reference_projector(family, k)
    m = op.interpolate(fld)
    s = np.linspace(0.0, 1.0, SAMPLE_GRID)
    X, Y = (F[:, 2] for F in m.factor_sample(s, s))  # the div component's terms
    n = max(max(ij) for ij in proj._index) + 1
    C = np.zeros((n, n))
    for ij, c in proj.coeffs_internal(fld.partial(0, 0, 2)).items():
        C[ij] = c
    L = np.array(legendre.values(n - 1, s))
    return m.coeffs, float(np.max(np.abs(X.T @ Y - L.T @ C @ L)))


@pytest.mark.parametrize("family,k,replace", COMMUTING_CASES)
def test_commuting_stack_matches_the_field_loop(family, k, replace):
    battery = commuting_battery()
    coeffs, residuals = zip(*(_residual_one_field(family, k, f, replace) for f in battery))
    op = reference_operator(family, k, replace)
    assert np.array_equal(op.solve_coefficients(FieldStack(battery)), np.stack(coeffs))
    assert np.array_equal(commuting_residuals(family, k, battery, replace), residuals)
    worst = max(residuals)
    assert judge_commuting(family, k, replace) == (worst, worst <= COMMUTING_TOL)


def test_an_empty_field_stack_is_refused():
    # a stack of no fields has no factor sample to take, so it is refused when built
    for fields in ([], (), iter([])):
        with pytest.raises(ValueError, match="at least one field, got none"):
            FieldStack(fields)



@pytest.mark.parametrize("family,k,replace", COMMUTING_CASES)
def test_commuting_sides_match_the_2d_references(family, k, replace):
    # each side of the residual against the 2-D path it replaced: the
    # interpolant's divergence at the 21 x 21 grid's points (point_values, from
    # its exact Legendre coordinates), one x-major sum per projector
    # coefficient and the (i, j) loop of the Legendre sum; the gaps stay within
    # the rounding either order allows (gamma_n bounds of the float64 sums,
    # coeffs_internal_bound for the long-double ones)
    eps = np.finfo(float).eps
    proj = reference_projector(family, k)
    s = np.linspace(0.0, 1.0, SAMPLE_GRID)
    x, y = s[:, None], s[None, :]
    n = max(max(ij) for ij in proj._index) + 1
    L = np.array(legendre.values(n - 1, s))
    for fld in commuting_battery():
        m = reference_operator(family, k, replace).interpolate(fld)
        X, Y = (F[:, 2] for F in m.factor_sample(s, s))
        gap = np.abs(X.T @ Y - point_values(m, x, y)[2])
        assert np.all(gap <= 2 * (m.space.dim + 1) * eps * (np.abs(X).T @ np.abs(Y)))
        div = fld.partial(0, 0, 2)
        got = proj.coeffs_internal(div)
        ref = coeffs_internal_reference(proj, div)
        bound = coeffs_internal_bound(proj, div)
        assert all(abs(got[ij] - ref[ij]) <= bound[ij] for ij in proj._index)
        C, B = np.zeros((n, n)), np.zeros((n, n))
        for ij in proj._index:
            C[ij], B[ij] = got[ij], bound[ij] + 2 * (len(got) + 1) * eps * abs(got[ij])
        gap = np.abs(L.T @ C @ L - _eval_legendre_sum(ref, x, y))
        assert np.all(gap <= np.abs(L).T @ B @ np.abs(L))


@pytest.mark.parametrize("family,k,replace", COMMUTING_CASES)
def test_commuting_check_fills_no_grid_table(monkeypatch, family, k, replace):
    # both sides come from 1-D factors: the operator's basis table on the error
    # rule is not read, and the interpolant is never sampled, so its u and v
    # factor terms are never formed (div I u reads the space's div rows only)
    want = commuting_residuals(family, k, commuting_battery(), replace)

    def refuse(*args):
        raise AssertionError("the commuting check formed a table it does not read")

    monkeypatch.setattr(InterpolationOperator, "rule_tables", property(refuse))
    monkeypatch.setattr(SpaceMember, "factor_sample", refuse)
    assert np.array_equal(commuting_residuals(family, k, commuting_battery(), replace), want)


@pytest.mark.parametrize("family,k", [(f, k) for f, k, r in COMMUTING_CASES if not r])
def test_commuting_check_reuses_its_tables(monkeypatch, family, k):
    # a second check recomputes no table: the grid axis's factor rows (the
    # interpolant's div factors and the projector's Legendre rows) are one
    # read-only axis_table per degree, the rule's W the cached projector's
    want = judge_commuting(family, k)

    def refuse(*args):
        raise AssertionError("the commuting check recomputed a cached table")

    monkeypatch.setattr(interpolation, "factor_values", refuse)
    monkeypatch.setattr(legendre, "values", refuse)
    assert judge_commuting(family, k) == want
    table = interpolation.axis_table(reference_operator(family, k).space._maxdeg)
    assert not table.flags.writeable


ALL_PAIRS = [(f, k) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)]


@pytest.mark.parametrize("family,k,replace", PROJECTION_CASES)
def test_member_solve_assembles_nothing(monkeypatch, family, k, replace):
    # a member of the operator's own space, even one built apart as MS-P's is,
    # takes its DOF vector from the M the operator holds: solving a 20-member
    # stack assembles no DOF matrix and reads no moment table
    op = reference_operator(family, k, replace)
    exact = np.random.default_rng(env_seed()).standard_normal((cli.PROJECTION_MEMBERS,
                                                                op.space.dim))
    # a member of another space, RT_0 (in every space), still gets its own matrix
    rt0 = build_space("RT", 0).member(np.arange(1.0, 5.0))
    s = np.linspace(0.0, 1.0, 7)
    got, want = (grid_values(m.factor_sample(s, s)) for m in (op.interpolate(rt0), rt0))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def refuse(*args):
        raise AssertionError("a member's solve assembled")

    monkeypatch.setattr("hdivkit.dofs.dof_matrix_ld", refuse)
    monkeypatch.setattr("hdivkit.dofs.moment_table", refuse)
    want = op.solve((op._M_ld @ exact.astype(np.longdouble)[..., None])[..., 0])
    for space in (op.space, build_space(family, k)):
        assert np.array_equal(op.solve_coefficients(space.member(exact)), want)


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_projection_draw_matches_the_member_loop(family, k, monkeypatch):
    # one standard_normal((20, dim)) draw is the 20 random_member calls it replaced
    drawn = []
    member = ElementSpace.member
    monkeypatch.setattr(ElementSpace, "member", lambda self, c: drawn.append(c) or member(self, c))
    space = build_space(family, k)
    for seed in range(10):
        monkeypatch.setenv("HDIV_SEED", str(seed))
        rng = np.random.default_rng(seed)
        loop = [space.random_member(rng).coeffs for _ in range(cli.PROJECTION_MEMBERS)]
        drawn.clear()
        cli._judge_projection(family, k, False)
        assert np.array_equal(drawn[0], np.stack(loop))


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_stacked_projection_matches_lone_coefficients(family, k):
    proj = reference_projector(family, k)
    x, y = proj._rule_tables[:2]
    battery = commuting_battery()
    # long-double values with bits below the double mantissa
    noise = np.random.default_rng(7).standard_normal((4, 20, 20)).astype(np.longdouble) / 3
    for fns in ([f.partial(0, 0, 2) for f in battery], [lambda x, y, v=v: v for v in noise]):
        stack = proj.coefficients(np.stack([fn(x, y) for fn in fns]))
        for row, fn in zip(stack, fns):
            lone = proj.coeffs_internal(fn)
            assert list(lone) == list(proj._index)
            assert row.tolist() == list(lone.values())
            ref = coeffs_internal_reference(proj, fn)
            bound = coeffs_internal_bound(proj, fn)
            assert all(abs(lone[ij] - ref[ij]) <= bound[ij] for ij in proj._index)


def test_one_check_samples_each_battery_field_once(monkeypatch, capsys, fresh_field_sides):
    # the factor sample is filled outside any DOF vector and shared by every
    # (family, k): one factor_sample call per battery field, not one per pair
    # and side, and no closed-form partial at all
    calls = {}
    for name in ("partial", "factor_sample"):
        def counted(self, *args, real=getattr(ManufacturedField, name), name=name):
            calls[self.id, name] = calls.get((self.id, name), 0) + 1
            return real(self, *args)
        monkeypatch.setattr(ManufacturedField, name, counted)
    interpolation.cached_sample.cache_clear()
    assert cli.main(["check", "--kmax", "4"]) == 0
    assert calls == {(f.id, "factor_sample"): 1 for f in commuting_battery()}


def test_the_cached_sample_is_read_only():
    # 1-D factors on the nodes {0, t, 1} of every 20-point plan, two arrays of
    # (fields, terms, components, nodes), with as many terms as the most any
    # battery field needs (B-5's div: 4), and the div values on the projector's
    # inner 20 x 20 rule
    battery = tuple(commuting_battery())
    sample = cached_sample(battery)
    assert cached_sample(battery) is sample
    factors = sample.factor_sample(None, None)
    assert [F.shape for F in factors] == [(5, 4, 3, NONPOLY_POINTS + 2)] * 2
    assert sample.div.shape == (5, NONPOLY_POINTS, NONPOLY_POINTS)
    for values in factors + (sample.div,):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0, 0] = 0.0
    # the cached div values are each field's own div partial on the rule, bit for bit
    x, y = reference_projector("RT", 0)._rule_tables[:2]
    for row, fld in zip(sample.div, battery):
        assert np.array_equal(row, fld.partial(0, 0, 2)(x, y)), fld


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
    nodes = _plan_for(build_dofs(*pair), space._maxdeg).nodes
    x, y = np.array(points).T
    for xs, ys in ((nodes, nodes), (nodes[1:-1], nodes[1:-1]), (x, y)):
        values = grid_values(stack.factor_sample(xs, ys))
        for r, m in enumerate(singles):
            assert np.array_equal(values[:, r], grid_values(m.factor_sample(xs, ys)))
    # the factor samples on the plan's nodes: one row per member, each its own
    # (only X carries the stack's rows)
    SX, SY = stack.factor_sample(nodes, nodes)
    for r, m in enumerate(singles):
        X, Y = m.factor_sample(nodes, nodes)
        assert np.array_equal(SX[r], X) and np.array_equal(SY, Y)
    bounds = np.array([degree_bounds(m) for m in singles]).max(axis=0)
    assert np.array_equal(np.array(degree_bounds(stack)), bounds)


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
