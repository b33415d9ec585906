"""Degree-of-freedom functionals: counts, ordering, pinned values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit.dofs import (
    DofFunctional,
    DofSet,
    build_dofs,
    dof_matrix_ld,
    dof_plan,
    dof_vector_ld,
)
from hdivkit.elements import build_space
from hdivkit.fields import MS_G, CallableField
from hdivkit.harness import PulledBackField
from hdivkit.interpolation import InterpolationOperator
from hdivkit.poly import Polynomial2D, VectorPoly2D
from hdivkit.quadrature import EDGES
from reference_oracle import apply_dof, apply_dof_ld


def _field(ux, uy, vx, vy, cu=1.0, cv=1.0):
    return VectorPoly2D(
        Polynomial2D.monomial(ux, uy, cu), Polynomial2D.monomial(vx, vy, cv)
    )


@pytest.mark.parametrize(
    "family,k,edge,interior,div",
    [
        ("RT", 0, 4, 0, 0),
        ("RT", 1, 8, 4, 0),
        ("RT", 2, 12, 12, 0),
        ("RT", 4, 20, 40, 0),
        ("BDM", 1, 8, 0, 0),
        ("BDM", 2, 12, 2, 0),
        ("BDM", 3, 16, 6, 0),
        ("BDM", 4, 20, 12, 0),
        ("ABF", 0, 4, 0, 2),
        ("ABF", 1, 8, 4, 4),
        ("ABF", 2, 12, 12, 6),
        ("ABF", 4, 20, 40, 10),
    ],
)
def test_counts_by_kind(family, k, edge, interior, div):
    dofset = build_dofs(family, k)
    counts = dofset.count_by_kind()
    assert counts == {"edge_moment": edge, "interior_moment": interior, "div_moment": div}
    assert dofset.count == build_space(family, k).dim


def test_edge_ordering():
    dofset = build_dofs("RT", 2)
    head = dofset.functionals[:12]
    assert all(f.kind == "edge_moment" for f in head)
    # left, right, bottom, top blocks; test degree ascends inside each
    for b, edge in enumerate(EDGES):
        block = head[3 * b : 3 * b + 3]
        assert [f.edge for f in block] == [edge] * 3
        assert [f.i for f in block] == [0, 1, 2]
    tail = dofset.functionals[12:]
    assert [f.kind for f in tail] == ["interior_moment"] * 12
    assert [f.component for f in tail] == [0] * 6 + [1] * 6


def test_edge_sign_convention():
    # constant field (1, 0): outward flux is -1 on the left, +1 on the right
    dofset = build_dofs("RT", 0)
    fld = _field(0, 0, 0, 0, cv=0.0)
    got = [apply_dof(fn, fld) for fn in dofset.functionals]
    np.testing.assert_allclose(got, [-1.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_edge_moment_pinned():
    # w = (x^2, 0): on the right edge w.n = 1, on the left it vanishes
    dofset = build_dofs("RT", 1)
    fld = _field(2, 0, 0, 0, cv=0.0)
    left0, left1, right0, right1 = (apply_dof(f, fld) for f in dofset.functionals[:4])
    assert left0 == pytest.approx(0.0, abs=1e-16)
    assert left1 == pytest.approx(0.0, abs=1e-16)
    assert right0 == pytest.approx(1.0, rel=1e-14)
    # degree-1 edge test has zero mean against a constant trace
    assert right1 == pytest.approx(0.0, abs=1e-15)


def test_interior_moment_pinned():
    # RT_1 interior tests for component 0 are L_0(x) L_j(y), j = 0, 1
    dofset = build_dofs("RT", 1)
    interior = [f for f in dofset.functionals if f.kind == "interior_moment"]
    fld = _field(0, 1, 0, 0, cv=0.0)  # w = (y, 0)
    vals = [apply_dof(fn, fld) for fn in interior]
    # int y dA = 1/2; int y L_1(y) dA = int y (2y-1) = 1/6
    np.testing.assert_allclose(vals, [0.5, 1.0 / 6.0, 0.0, 0.0], atol=1e-15)


def test_div_moment_pinned():
    # ABF_0 divergence tests are y then x; w = (x, 0) has div = 1
    dofset = build_dofs("ABF", 0)
    divs = [f for f in dofset.functionals if f.kind == "div_moment"]
    assert len(divs) == 2
    fld = _field(1, 0, 0, 0, cv=0.0)
    assert apply_dof(divs[0], fld) == pytest.approx(0.5, rel=1e-14)
    assert apply_dof(divs[1], fld) == pytest.approx(0.5, rel=1e-14)
    # w = (x^2, 0): div = 2x, moments int 2xy = 1/2 and int 2x^2 = 2/3
    fld2 = _field(2, 0, 0, 0, cv=0.0)
    assert apply_dof(divs[0], fld2) == pytest.approx(0.5, rel=1e-14)
    assert apply_dof(divs[1], fld2) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_dof_vector_matches_loop():
    dofset = build_dofs("BDM", 2)
    space = build_space("BDM", 2)
    member = space.random_member(np.random.default_rng(3))
    vec = dof_vector_ld(dofset, member).astype(float)
    loop = np.array([apply_dof(fn, member) for fn in dofset.functionals])
    np.testing.assert_array_equal(vec, loop)
    assert vec.dtype == np.float64


PAIRS = [("RT", k) for k in range(5)] + [("BDM", k) for k in range(1, 5)] + \
    [("ABF", k) for k in range(5)]


@pytest.mark.parametrize(
    "family,k,replace",
    [pytest.param(f, k, False, id=f"{f}-{k}") for f, k in PAIRS]
    + [pytest.param("ABF", 2, True, id="ABF-2-replaced")],
)
def test_dof_matrix_matches_per_entry(family, k, replace):
    space = build_space(family, k)
    dofset = build_dofs(family, k, replace_div_moments=replace)
    M = dof_matrix_ld(dofset, space)
    assert M.shape == (space.dim, space.dim)
    for b in range(space.dim):
        member = space.basis[b]
        col = np.array([float(apply_dof_ld(fn, member)) for fn in dofset.functionals])
        np.testing.assert_allclose(M[:, b].astype(float), col, atol=1e-14)


@pytest.mark.parametrize("family,k", PAIRS)
def test_dof_vector_matches_loop_nonpolynomial(family, k):
    # MS-G pulled back to a 1 x 1/64 rectangle: the plan's one evaluation
    # at all points against one quadrature per functional
    dofset = build_dofs(family, k)
    fld = PulledBackField(MS_G, 1.0, 1.0 / 64.0)
    vec = dof_vector_ld(dofset, fld)
    loop = np.array([apply_dof_ld(fn, fld) for fn in dofset.functionals])
    assert vec.dtype == np.longdouble
    assert np.max(np.abs(vec - loop)) <= 1e-15 * np.max(np.abs(loop))


def test_dof_vector_scalar_valued_field():
    # a callable may return plain numbers; the plan broadcasts them
    dofset = build_dofs("ABF", 1)
    fld = CallableField(lambda x, y: (1.0, 2.0), lambda x, y: 0.5)
    loop = np.array([apply_dof_ld(fn, fld) for fn in dofset.functionals])
    np.testing.assert_allclose(dof_vector_ld(dofset, fld).astype(float), loop.astype(float),
                               rtol=0, atol=1e-15)


def test_plan_cache_bounded():
    # plans are keyed by value, never by the identity of a space or DOF set
    for family, k in PAIRS:
        InterpolationOperator(build_space(family, k))
    size = dof_plan.cache_info().currsize
    for i in range(50):
        InterpolationOperator(build_space(*PAIRS[i % len(PAIRS)]))
    assert dof_plan.cache_info().currsize == size


def _permuted(dofset, perm):
    return DofSet(dofset.family, dofset.k, tuple(dofset.functionals[i] for i in perm))


CASES = [pytest.param(f, k, False, id=f"{f}-{k}") for f, k in PAIRS] + [
    pytest.param("ABF", 2, True, id="ABF-2-replaced")
]


@pytest.mark.parametrize("family,k,replace", CASES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_permuted_dofset_permutes_matrix_and_vector(family, k, replace, data):
    # a reordered set is applied as itself: rows and entries follow the order
    dofset = build_dofs(family, k, replace_div_moments=replace)
    perm = data.draw(st.permutations(range(dofset.count)))
    permuted = _permuted(dofset, perm)
    space = build_space(family, k)
    np.testing.assert_array_equal(dof_matrix_ld(permuted, space),
                                  dof_matrix_ld(dofset, space)[perm])
    member = space.random_member(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    for fld in (member, PulledBackField(MS_G, 1.0, 1.0 / 64.0)):
        np.testing.assert_array_equal(dof_vector_ld(permuted, fld),
                                      dof_vector_ld(dofset, fld)[perm])


@pytest.mark.parametrize("family,k,replace", CASES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_permuted_dofset_reproduces_members(family, k, replace, data):
    dofset = build_dofs(family, k, replace_div_moments=replace)
    perm = data.draw(st.permutations(range(dofset.count)))
    op = InterpolationOperator(build_space(family, k), _permuted(dofset, perm))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(3):
        member = op.space.random_member(rng)
        back = op.solve_coefficients(member)
        assert np.max(np.abs(back - member.coeffs)) <= 1e-12 * np.max(np.abs(member.coeffs))


def test_high_degree_functional_sizes_the_rule():
    # a hand-made set with a test above degree k + 1 is integrated exactly
    dofset = build_dofs("RT", 1)
    high = DofSet(dofset.family, dofset.k,
                  dofset.functionals[:-1] + (DofFunctional("interior_moment", 6, 6, component=1),))
    fld = _field(0, 0, 6, 6, cu=0.0)
    vec = dof_vector_ld(high, fld)
    loop = np.array([apply_dof_ld(fn, fld) for fn in high.functionals])
    assert loop[-1] > 1e-9
    assert np.max(np.abs(vec - loop)) <= 1e-15 * np.max(np.abs(loop))


def test_unknown_kind_rejected():
    dofset = build_dofs("RT", 1)
    bad = DofSet(dofset.family, dofset.k,
                 dofset.functionals[:-1] + (DofFunctional("interior_momnet", 0, 0, component=1),))
    with pytest.raises(ValueError, match="unknown DOF kind"):
        dof_vector_ld(bad, _field(1, 0, 0, 1))


def test_functionals_are_values():
    # equal and hashable by value: two builds of a set share one plan key
    a, b = build_dofs("ABF", 2), build_dofs("ABF", 2)
    assert a.functionals == b.functionals
    assert hash(a.functionals) == hash(b.functionals)
    assert len(set(a.functionals)) == a.count


def test_replace_div_moments_abf_only():
    plain = build_dofs("ABF", 1)
    swapped = build_dofs("ABF", 1, replace_div_moments=True)
    assert swapped.count == plain.count
    assert swapped.count_by_kind() == {"edge_moment": 8, "interior_moment": 8, "div_moment": 0}
    # the first 12 functionals (edges + regular interior) are unchanged in kind
    for a, b in zip(plain.functionals[:12], swapped.functionals[:12]):
        assert a == b
    for family in ("RT", "BDM"):
        p = build_dofs(family, 2)
        s = build_dofs(family, 2, replace_div_moments=True)
        assert [f.kind for f in p.functionals] == [f.kind for f in s.functionals]


def test_nonpolynomial_field_path():
    # generic callables hit the fixed high-order rules
    class Sine:
        def uv(self, x, y):
            return np.sin(np.pi * x) + 0.0 * y, 0.0 * x

        def div_values(self, x, y):
            return np.pi * np.cos(np.pi * x) + 0.0 * y

    dofset = build_dofs("ABF", 0)
    fld = Sine()
    right0 = apply_dof(dofset.functionals[1], fld)
    assert right0 == pytest.approx(np.sin(np.pi), abs=1e-15)
    bottom0 = apply_dof(dofset.functionals[2], fld)
    assert bottom0 == pytest.approx(0.0, abs=1e-15)
    div_y = apply_dof(dofset.functionals[4], fld)
    # int pi cos(pi x) y dA = [sin(pi x)]_0^1 * 1/2 = 0
    assert div_y == pytest.approx(0.0, abs=1e-14)


def test_degree_bounds():
    with pytest.raises(ValueError):
        build_dofs("BDM", 0)
    with pytest.raises(ValueError):
        build_dofs("RT", -1)
