"""Element spaces: dimensions, inclusions, divergence images."""

import numpy as np
import pytest

from hdivkit import elements, legendre
from hdivkit.dofs import build_dofs, dof_vector_ld
from hdivkit.elements import (
    ElementFamily,
    MAX_DEGREE,
    ScalarSpace,
    build_div_space,
    build_space,
    component_degrees,
    degree_range,
    gram_matrix,
    space_dimension,
    span_check,
)
from hdivkit.poly import Polynomial2D, VectorPoly2D, curl_scalar, divergence, integrate_rect

RNG = np.random.default_rng(11)

DIM_CASES = [
    ("RT", 0, 4), ("RT", 1, 12), ("RT", 2, 24), ("RT", 3, 40), ("RT", 4, 60),
    ("BDM", 1, 8), ("BDM", 2, 14), ("BDM", 3, 22), ("BDM", 4, 32),
    ("ABF", 0, 6), ("ABF", 1, 16), ("ABF", 2, 30), ("ABF", 3, 48), ("ABF", 4, 70),
]
ALL_PAIRS = [(family, k) for family, k, _ in DIM_CASES]


@pytest.mark.parametrize("family,k,dim", DIM_CASES)
def test_space_dimensions(family, k, dim):
    assert space_dimension(family, k) == dim
    space = build_space(family, k)
    assert space.dim == dim
    assert len(space.basis) == dim


def test_component_degrees():
    assert component_degrees("RT", 2) == ((3, 2), (2, 3))
    assert component_degrees("BDM", 2) == ((3, 2), (2, 3))
    assert component_degrees("ABF", 2) == ((4, 2), (2, 4))


def test_bdm_degree_zero_rejected():
    with pytest.raises(ValueError, match="BDM requires k >= 1"):
        build_space("BDM", 0)


def test_degree_bounds_rejected():
    with pytest.raises(ValueError):
        build_space("RT", -1)
    with pytest.raises(ValueError):
        build_space("RT", MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        build_space("XF", 1)


def test_degree_range_is_the_verified_range():
    assert [(f, k) for f in ("RT", "BDM", "ABF") for k in degree_range(f)] == ALL_PAIRS
    assert list(degree_range("bdm", 2)) == [1, 2]
    # ABF_6 reproduces members only to ~1e-11, ABF_7 has DOF condition ~2e10
    for family, k in (("ABF", 6), ("ABF", 7), ("RT", MAX_DEGREE + 1)):
        with pytest.raises(ValueError, match="k must be between 0 and 4"):
            build_space(family, k)
    with pytest.raises(ValueError, match="k must be between 0 and 4"):
        build_dofs("RT", 5)
    with pytest.raises(ValueError, match="k must be between 0 and 4"):
        build_div_space("ABF", 5)


def _span_residual(space, target: VectorPoly2D) -> float:
    # least-squares fit of the target against basis samples on a grid
    xs = np.linspace(0.0, 1.0, 13)
    X, Y = np.meshgrid(xs, xs)
    cols = []
    for b in space.basis:
        U, V = b.uv(X, Y)
        cols.append(np.concatenate([U.ravel(), V.ravel()]))
    A = np.column_stack(cols)
    tu, tv = target.uv(X, Y)
    rhs = np.concatenate([np.broadcast_to(tu, X.shape).ravel(),
                          np.broadcast_to(tv, X.shape).ravel()])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(np.max(np.abs(A @ sol - rhs)))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_q_tensor_fields_inside_rt(k):
    for i in range(k + 1):
        for j in range(k + 1):
            w = VectorPoly2D(Polynomial2D.monomial(i, j), Polynomial2D.monomial(j, i))
            assert _span_residual(build_space("RT", k), w) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_p_total_degree_fields_inside_bdm(k):
    for i in range(k + 1):
        for j in range(k + 1 - i):
            w = VectorPoly2D(Polynomial2D.monomial(i, j), Polynomial2D.monomial(j, i))
            assert _span_residual(build_space("BDM", k), w) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_rt_inside_abf(k):
    rt = build_space("RT", k)
    abf = build_space("ABF", k)
    coeffs = RNG.standard_normal(rt.dim)
    assert _span_residual(abf, rt.member(coeffs)) <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_bdm_inside_rt(k):
    bdm = build_space("BDM", k)
    rt = build_space("RT", k)
    coeffs = RNG.standard_normal(bdm.dim)
    assert _span_residual(rt, bdm.member(coeffs)) <= 1e-11


DIV_CASES = [
    ("RT", 0, "Q_0", 1), ("RT", 2, "Q_2", 9),
    ("BDM", 1, "P_0", 1), ("BDM", 3, "P_2", 6),
    ("ABF", 0, "Q_1-minus-corner", 3), ("ABF", 1, "Q_2-minus-corner", 8),
]


@pytest.mark.parametrize("family,k,name,dim", DIV_CASES)
def test_div_space_shapes(family, k, name, dim):
    ds = build_div_space(family, k)
    assert ds.description == name
    assert ds.dim == dim
    assert len(ds.basis) == dim


def test_abf_div_space_excludes_corner():
    ds = build_div_space("ABF", 1)
    assert not ds.contains_exponent(2, 2)
    assert ds.contains_exponent(2, 1) and ds.contains_exponent(1, 2)


@pytest.mark.parametrize("family,kmax", [("RT", 3), ("BDM", 3), ("ABF", 3)])
def test_span_check_exact(family, kmax):
    for k in range(1 if family == "BDM" else 0, kmax + 1):
        report = span_check(build_space(family, k))
        assert report["ok"], report
        assert report["max_residual"] == 0.0
        assert report["surjective"]
        assert report["rank"] == report["div_dim"]


def test_span_check_detects_missing_direction(monkeypatch):
    # negative control: RT_2 against Q_2 without x^2 y^2 must fail
    q2 = build_div_space("RT", 2)
    smaller = ScalarSpace("Q_2-minus-corner", [e for e in q2.exponents if e != (2, 2)])
    monkeypatch.setattr(elements, "build_div_space", lambda family, k: smaller)
    report = span_check(build_space("RT", 2))
    assert not report["ok"]
    assert report["max_residual"] > 0.0
    assert any("leaves the scalar space" in f for f in report["failures"])


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_gram_matrix_spd(family, k):
    G = gram_matrix(build_space(family, k))
    np.testing.assert_allclose(G, G.T, atol=1e-15)
    assert np.linalg.eigvalsh(G).min() > 0


def _reference_gram(space):
    """Monomial-product Gram matrix and, per entry, the absolute sum of its terms."""
    n = space.dim
    G = np.empty((n, n))
    S = np.empty((n, n))
    N = np.empty((n, n))
    for a in range(n):
        ua, va = space.basis[a].u, space.basis[a].v
        for b in range(a, n):
            ub, vb = space.basis[b].u, space.basis[b].v
            pu, pv = ua * ub, va * vb
            G[a, b] = G[b, a] = integrate_rect(pu, 1.0, 1.0) + integrate_rect(pv, 1.0, 1.0)
            S[a, b] = S[b, a] = (integrate_rect(Polynomial2D(np.abs(pu.coeffs)), 1.0, 1.0)
                                 + integrate_rect(Polynomial2D(np.abs(pv.coeffs)), 1.0, 1.0))
            N[a, b] = N[b, a] = pu.coeffs.size + pv.coeffs.size
    return G, S, N


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_gram_closed_form_matches_monomial_products(family, k):
    # The reference sums N terms c / ((i+1)(j+1)) of integer product grids,
    # each rounded about 4 times, with cancellation: its error is at most
    # (N + 4) eps S, S the absolute sum of its terms (up to 1e11 at ABF_4,
    # where entries are below 1).  The closed form adds a few eps |G| from
    # rounding the curl members' Legendre coordinates.
    space = build_space(family, k)
    G = gram_matrix(space)
    R, S, N = _reference_gram(space)
    eps = np.finfo(float).eps
    assert np.all(np.abs(G - R) <= (N + 4) * eps * S + 4 * eps * np.abs(G))


def _reference_grids(space, coeffs):
    """Sum of c_b times the monomial grid of label b, in label order."""
    u = v = Polynomial2D.zero()
    for c, lab in zip(coeffs, space.labels):
        if c == 0.0:
            continue
        if lab[0] == "x":
            u = u + legendre.product_poly(lab[1], lab[2]) * float(c)
        elif lab[0] == "y":
            v = v + legendre.product_poly(lab[1], lab[2]) * float(c)
        else:
            exps = (space.k + 1, 1) if lab[1] == 1 else (1, space.k + 1)
            w = curl_scalar(Polynomial2D.monomial(*exps))
            u = u + w.u * float(c)
            v = v + w.v * float(c)
    return u, v


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_member_views_match_label_grids(family, k):
    space = build_space(family, k)
    rng = np.random.default_rng(17)
    dense = rng.standard_normal(space.dim)
    sparse = np.where(rng.random(space.dim) < 0.3, dense, 0.0)
    for coeffs in (dense, sparse, np.zeros(space.dim)):
        member = space.member(coeffs)
        u, v = _reference_grids(space, coeffs)
        assert member.degree_bounds == ((u.dx, u.dy), (v.dx, v.dy))
        np.testing.assert_array_equal(member.u.coeffs, u.coeffs)
        np.testing.assert_array_equal(member.v.coeffs, v.coeffs)
        np.testing.assert_array_equal(member.divergence().coeffs,
                                      divergence(VectorPoly2D(u, v)).coeffs)


def test_member_dof_vectors_build_no_grids(monkeypatch):
    space = build_space("ABF", 4)
    dofs = build_dofs("ABF", 4)
    calls = []
    mul = Polynomial2D.__mul__
    monkeypatch.setattr(Polynomial2D, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    rng = np.random.default_rng(23)
    for _ in range(20):
        dof_vector_ld(dofs, space.random_member(rng))
    assert calls == []


def test_member_eval_matches_grid_polynomials():
    space = build_space("RT", 2)
    member = space.random_member(np.random.default_rng(3))
    X, Y = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    U, V = member.uv(X, Y)
    # the inherited coefficient grids are the ground truth
    np.testing.assert_allclose(U, member.u.eval(X, Y), atol=1e-13)
    np.testing.assert_allclose(V, member.v.eval(X, Y), atol=1e-13)
    np.testing.assert_allclose(
        member.div_values(X, Y), member.divergence().eval(X, Y), atol=1e-12
    )


@pytest.mark.parametrize("family,k", [("RT", 1), ("BDM", 2), ("ABF", 1)])
def test_member_eval_broadcasts(family, k):
    # points given as a column and a row evaluate on their outer grid
    member = build_space(family, k).random_member(np.random.default_rng(5))
    x = np.linspace(0, 1, 4)[:, None]
    y = np.linspace(0, 1, 3)[None, :]
    X, Y = np.broadcast_arrays(x, y)
    for a, b in zip(member.uv(x, y), member.uv(X, Y)):
        assert a.shape == (4, 3)
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(member.div_values(x, y), member.div_values(X, Y))
    u, v = member.uv(0.3, np.linspace(0, 1, 5))
    assert u.shape == v.shape == (5,)


def test_member_linear_in_coefficients():
    space = build_space("ABF", 1)
    c1 = RNG.standard_normal(space.dim)
    c2 = RNG.standard_normal(space.dim)
    m1, m2, msum = space.member(c1), space.member(c2), space.member(c1 + c2)
    x, y = 0.63, 0.18
    assert msum.uv(x, y)[0] == pytest.approx(m1.uv(x, y)[0] + m2.uv(x, y)[0], rel=1e-12, abs=1e-14)
    assert msum.uv(x, y)[1] == pytest.approx(m1.uv(x, y)[1] + m2.uv(x, y)[1], rel=1e-12, abs=1e-14)


def test_member_coefficient_length_enforced():
    space = build_space("RT", 0)
    with pytest.raises(ValueError):
        space.member(np.zeros(space.dim + 1))


def test_random_member_deterministic():
    space = build_space("BDM", 2)
    a = space.random_member(np.random.default_rng(5))
    b = space.random_member(np.random.default_rng(5))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_family_enum_round_trip():
    assert ElementFamily("RT").value == "RT"
    assert build_space(ElementFamily.ABF, 0).family is ElementFamily.ABF
