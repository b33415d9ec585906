"""Degree-of-freedom functionals: counts, ordering, pinned values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit import fields, harness, interpolation
from hdivkit.dofs import (
    DofFunctional,
    DofSet,
    _plan_for,
    build_dofs,
    dof_matrix_ld,
    dof_plan,
    dof_vector_ld,
    moment_table,
)
from hdivkit.elements import build_space, factor_rows
from hdivkit.fields import (
    MS_G, MS_X, MS_Y, CallableField, FieldStack, ManufacturedField, commuting_battery, get_field,
)
from hdivkit.harness import PulledBackField
from hdivkit.interpolation import InterpolationOperator
from hdivkit.quadrature import EDGES
from monomial_oracle import Polynomial2D, VectorPoly2D
from reference_oracle import (
    apply_dof, apply_dof_ld, outer_product_dof_matrix, outer_product_dof_vector,
)
from test_harness import REFINE_BATTERY, _sides


PAIRS = [("RT", k) for k in range(5)] + [("BDM", k) for k in range(1, 5)] + \
    [("ABF", k) for k in range(5)]


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
    # ABF_0 divergence tests are L_1(y) then L_1(x); w = (x, 0) has div = 1,
    # which both annihilate
    dofset = build_dofs("ABF", 0)
    divs = [f for f in dofset.functionals if f.kind == "div_moment"]
    assert [(f.i, f.j) for f in divs] == [(0, 1), (1, 0)]
    fld = _field(1, 0, 0, 0, cv=0.0)
    assert apply_dof(divs[0], fld) == pytest.approx(0.0, abs=1e-15)
    assert apply_dof(divs[1], fld) == pytest.approx(0.0, abs=1e-15)
    # w = (x^2, 0): div = 2x, moments int 2x L_1(y) = 0 and int 2x (2x - 1) = 1/3
    fld2 = _field(2, 0, 0, 0, cv=0.0)
    assert apply_dof(divs[0], fld2) == pytest.approx(0.0, abs=1e-15)
    assert apply_dof(divs[1], fld2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # w = (x y, 0): div = y, moments int y (2y - 1) = 1/6 and int y L_1(x) = 0
    fld3 = _field(1, 1, 0, 0, cv=0.0)
    assert apply_dof(divs[0], fld3) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert apply_dof(divs[1], fld3) == pytest.approx(0.0, abs=1e-15)


def test_dof_vector_matches_loop():
    # the plan and the per-functional quadrature size their rules apart, so
    # they agree to the extended-precision roundoff of the vector's scale
    # (the bound of the non-polynomial case below), not bit for bit
    for family, k in PAIRS:
        dofset = build_dofs(family, k)
        space = build_space(family, k)
        for seed in range(10):
            member = space.random_member(np.random.default_rng(seed))
            vec = dof_vector_ld(dofset, member)
            loop = np.array([apply_dof_ld(fn, member) for fn in dofset.functionals])
            assert vec.dtype == np.longdouble
            assert np.max(np.abs(vec - loop)) <= 1e-15 * np.max(np.abs(loop)), (family, k, seed)


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
        member = space.member(np.eye(space.dim)[b])
        col = np.array([float(apply_dof_ld(fn, member)) for fn in dofset.functionals])
        np.testing.assert_allclose(M[:, b].astype(float), col, atol=1e-14)


# the sides of an 8-level fixed_aspect(64) study, h0 = 0.5, as (8, 1, 1) stacks
STUDY_HX = 0.5 * 2.0 ** -np.arange(8.0)
STUDY_SIDES = STUDY_HX.reshape(-1, 1, 1), (STUDY_HX / 64.0).reshape(-1, 1, 1)


@pytest.mark.parametrize("family,k", PAIRS)
def test_dof_vector_matches_loop_nonpolynomial(family, k):
    # every study and battery field pulled back to a 1 x 1/64 rectangle, and
    # stacked to the levels of a fixed_aspect(64) study: the sum-factorised DOF
    # vector against one quadrature per functional (row by row for a stack)
    dofset = build_dofs(family, k)
    for base in [MS_G, MS_X, MS_Y] + commuting_battery()[1:]:
        fld = PulledBackField(base, 1.0, 1.0 / 64.0)
        vec = dof_vector_ld(dofset, fld)
        loop = np.array([apply_dof_ld(fn, fld) for fn in dofset.functionals])
        assert vec.dtype == np.longdouble
        assert np.max(np.abs(vec - loop)) <= 1e-15 * np.max(np.abs(loop)), base
        stacked = dof_vector_ld(dofset, PulledBackField(base, *STUDY_SIDES))
        assert stacked.shape == (8, dofset.count)
        for row, hx in zip(stacked, STUDY_HX):
            level = PulledBackField(base, hx, hx / 64.0)
            loop = np.array([apply_dof_ld(fn, level) for fn in dofset.functionals])
            assert np.max(np.abs(row - loop)) <= 1e-15 * np.max(np.abs(loop)), (base, hx)


@pytest.mark.parametrize("family,k", PAIRS)
def test_dof_vectors_sample_no_grid(family, k, monkeypatch, fresh_field_sides):
    # DOF vectors read 1-D factor samples only: no sample is summed on a grid, no
    # closed-form partial is evaluated and no basis is tabulated on the error rule,
    # even for RT_0, BDM_1 and ABF_0, whose functionals read only the edges and
    # the divergence
    def refuse(*args, **kwargs):
        raise AssertionError("a DOF vector sampled a 2-D grid")

    for module in (fields, harness, interpolation):
        monkeypatch.setattr(module, "grid_values", refuse)
    monkeypatch.setattr(ManufacturedField, "partial", refuse)
    monkeypatch.setattr(InterpolationOperator, "rule_tables", property(refuse))
    dofset, space = build_dofs(family, k), build_space(family, k)
    battery = [MS_G, MS_X, MS_Y] + commuting_battery()
    for fld in battery + [PulledBackField(f, *STUDY_SIDES) for f in battery]:
        assert np.all(np.isfinite(dof_vector_ld(dofset, fld))), fld
    members = space.member(np.random.default_rng(k).standard_normal((20, space.dim)))
    assert dof_vector_ld(dofset, members).shape == (20, dofset.count)


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


def test_moment_table_cache_bounded():
    # moment tables are keyed by the cached plan and the trial degree, and the
    # factor rows by the labels, so more operators of the same pairs add none
    caches = (moment_table, factor_rows)
    for family, k in PAIRS:
        InterpolationOperator(build_space(family, k))
    sizes = [c.cache_info().currsize for c in caches]
    for i in range(50):
        InterpolationOperator(build_space(*PAIRS[i % len(PAIRS)]))
    assert [c.cache_info().currsize for c in caches] == sizes


def test_moment_tables_hold_each_column_once():
    # one read-only table per plan and trial degree, each factor row's end values
    # and moments held once: the 19 operators' tables (the 14 standard sets and
    # the 5 ABF negative controls) take at most 0.05 MB together
    sets = [(f, k, False) for f, k in PAIRS] + [("ABF", k, True) for k in range(5)]
    total = 0
    for family, k, replace in sets:
        deg = build_space(family, k)._maxdeg
        table = moment_table(_plan_for(build_dofs(family, k, replace), deg), deg)
        assert not table.flags.writeable
        total += table.nbytes
    assert total <= 0.05e6


@pytest.mark.parametrize("family,k", PAIRS)
def test_matrix_product_matches_member_dof_vectors(family, k):
    # a member's DOF vector is M c under the operator's own plan; a stack of 50
    # members agrees with C M^T to 32 extended ulps
    space, dofs = build_space(family, k), build_dofs(family, k)
    M = dof_matrix_ld(dofs, space)
    C = np.random.default_rng(k).standard_normal((50, space.dim))
    F = dof_vector_ld(dofs, space.member(C))
    err = np.abs(F - C @ M.T).max()
    assert err <= 32 * np.finfo(np.longdouble).eps * np.abs(M).max() * np.abs(C).max()


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


# ------------------------------------ the gather against the all-pairs contraction

# the 14 standard sets and the 5 ABF negative controls
SETS = [(f, k, False) for f, k in PAIRS] + [("ABF", k, True) for k in range(5)]


def _same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: sign bits"


def _hand_made_sets():
    """A reversed ABF_2 set and test_high_degree_functional_sizes_the_rule's degree-6 set."""
    abf2, rt1 = build_dofs("ABF", 2), build_dofs("RT", 1)
    high = rt1.functionals[:-1] + (DofFunctional("interior_moment", 6, 6, component=1),)
    return [(DofSet(abf2.family, abf2.k, abf2.functionals[::-1]), build_space("ABF", 2)),
            (DofSet(rt1.family, rt1.k, high), build_space("RT", 1))]


def _vector_fields():
    """The refine battery's field sides (each distinct manufactured field and stack),
    the commuting battery as one FieldStack, a CallableField (the full-rank case),
    and a member stack pulled back, whose x and y factors differ in batch shape."""
    sides = {(c.field, _sides(c)) for c in REFINE_BATTERY if c.field != "MS-P"}
    space = build_space("ABF", 2)
    members = space.member(np.random.default_rng(7).standard_normal((3, space.dim)))
    return [harness._FieldSide(get_field(fid), *hs) for fid, hs in sorted(sides)] + [
        FieldStack(commuting_battery()),
        CallableField(lambda x, y: (np.sin(x + 2 * y), x * np.exp(y)), lambda x, y: x - y),
        PulledBackField(members, 0.5, 0.125)]


@pytest.mark.parametrize("family,k,replace", SETS)
def test_dof_matrix_is_the_outer_product_contraction(family, k, replace):
    # each functional's two moments, gathered from the block tables, are the pair
    # the all-pairs outer products picked out: the same bits, sign bits included
    dofset, space = build_dofs(family, k, replace), build_space(family, k)
    _same_bits(dof_matrix_ld(dofset, space), outer_product_dof_matrix(dofset, space),
               f"{family}_{k} replaced={replace}")


def test_hand_made_dof_matrices_are_the_outer_product_contraction():
    for dofset, space in _hand_made_sets():
        _same_bits(dof_matrix_ld(dofset, space), outer_product_dof_matrix(dofset, space),
                   dofset.functionals[-1])
        vec = dof_vector_ld(dofset, _field(0, 0, 6, 6, cu=0.0))
        _same_bits(vec, outer_product_dof_vector(dofset, _field(0, 0, 6, 6, cu=0.0)),
                   dofset.functionals[-1])


@pytest.mark.parametrize("family,k,replace", SETS)
def test_dof_vectors_are_the_outer_product_contraction(family, k, replace):
    dofset = build_dofs(family, k, replace)
    for fld in _vector_fields():
        vec = dof_vector_ld(dofset, fld)
        assert vec.shape[-1] == dofset.count
        _same_bits(vec, outer_product_dof_vector(dofset, fld), f"{family}_{k} {fld!r}")


def _malformed(kind, i=0, j=0, edge=None, component=None):
    return DofFunctional(kind, i, j, edge, component)


# functionals the plan refuses, each naming itself: an unknown kind, an interior
# component other than 0 or 1, an edge not in EDGES, a negative or non-integer
# test index, a nonzero j on an edge, an edge or component on a kind without one,
# a missing index (which sized no rule), and a bool or float where an index goes
# (True == 1, so these are equal to integer functionals)
MALFORMED = [_malformed("interior_momnet", component=1),
             _malformed("interior_moment", None, 0, component=0),
             _malformed("interior_moment", True, 0, component=0),
             *(_malformed("interior_moment", component=c) for c in (True, 0.0)),
             _malformed("edge_moment", False, edge="left"),
             *(_malformed("interior_moment", component=c) for c in (2, -1, None)),
             *(_malformed("edge_moment", edge=e) for e in (None, "Left", "middle")),
             _malformed("edge_moment", -1, edge="left"), _malformed("edge_moment", 0, 1, "top"),
             _malformed("edge_moment", 1.5, edge="left"),
             _malformed("interior_moment", -1, 0, component=0),
             _malformed("interior_moment", 0, -1, component=1),
             _malformed("div_moment", -1, 0), _malformed("div_moment", 0, -2),
             _malformed("edge_moment", 0, edge="right", component=0),
             _malformed("interior_moment", 0, 0, "left", 0), _malformed("div_moment", 0, 0, "top"),
             _malformed("div_moment", 0, 0, component=1)]


def test_unknown_kind_rejected():
    # with the last functional of RT_1 or ABF_1 swapped for a malformed one, the DOF
    # vector, the DOF matrix and the operator all refuse it by name
    for family in ("RT", "ABF"):
        dofset, space = build_dofs(family, 1), build_space(family, 1)
        for fn in MALFORMED:
            bad = DofSet(dofset.family, dofset.k, dofset.functionals[:-1] + (fn,))
            match = "unknown DOF kind" if fn.kind == "interior_momnet" else "malformed DOF"
            for use in (lambda: dof_vector_ld(bad, _field(1, 0, 0, 1)),
                        lambda: dof_vector_ld(bad, MS_G), lambda: dof_matrix_ld(bad, space),
                        lambda: InterpolationOperator(space, bad)):
                with pytest.raises(ValueError, match=match) as err:
                    use()
                assert str(fn) in str(err.value), (family, fn)


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
