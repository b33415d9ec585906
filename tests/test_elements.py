"""Element spaces: dimensions, inclusions, divergence images."""

import numpy as np
import pytest

from hdivkit import dofs, elements, fields, legendre
from hdivkit.dofs import build_dofs, dof_matrix_ld, dof_vector_ld
from hdivkit.elements import (
    _legendre_coordinates,
    ElementFamily,
    MAX_DEGREE,
    ScalarSpace,
    build_div_space,
    build_space,
    degree_range,
    space_dimension,
    span_check,
)
from hdivkit.fields import grid_values
from monomial_oracle import (
    Polynomial2D, VectorPoly2D, curl_scalar, divergence, grid_to_basis_exact, integrate_rect,
    reference_field, reference_grids,
)
from reference_oracle import component_degrees, degree_bounds, gram_matrix, point_values

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
    sample = space.member(np.eye(dim)).factor_sample(np.array([0.3]), np.array([0.7]))
    assert grid_values(sample).shape == (3, dim, 1, 1)


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
    # bool is an int subclass, but True is not a degree: it used to build RT_1
    for k in (True, False):
        with pytest.raises(TypeError, match="degree k must be an integer"):
            build_space("RT", k)


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


def _span_residual(space, target) -> float:
    # least-squares fit of the target against basis samples on a grid
    xs = np.linspace(0.0, 1.0, 13)
    X, Y = xs[:, None], xs[None, :]
    # one row per basis member, on the x-major grid of the sample's nodes
    U, V, _ = grid_values(space.member(np.eye(space.dim)).factor_sample(xs, xs))
    A = np.concatenate([U.reshape(space.dim, -1), V.reshape(space.dim, -1)], axis=1).T
    tu, tv, _ = point_values(target, X, Y)
    rhs = np.concatenate([tu.ravel(), tv.ravel()])
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
    assert len(set(ds.exponents)) == dim


def test_abf_div_space_excludes_corner():
    ds = build_div_space("ABF", 1)
    assert (2, 2) not in ds.exponents
    assert (2, 1) in ds.exponents and (1, 2) in ds.exponents


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


def test_span_check_names_unreached_directions():
    # RT_1 cut to its ("x", i, j) labels with i <= 1: the divergences L_1'(x) L_j(y)
    # span L_0(x) L_0(y) and L_0(x) L_1(y) of Q_1 and reach no L_1(x) direction
    space = build_space("RT", 1)
    keep = [b for b, (kind, i, _) in enumerate(space.labels) if kind == "x" and i <= 1]
    space.labels = tuple(space.labels[b] for b in keep)
    space.dim, space._rows = len(keep), space._rows[..., keep]
    report = span_check(space)
    assert (report["rank"], report["div_dim"], report["surjective"]) == (2, 4, False)
    assert report["failures"] == ["scalar direction L_1(x) L_0(y) not reached",
                                  "scalar direction L_1(x) L_1(y) not reached"]
    assert not report["ok"]


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_gram_matrix_spd(family, k):
    G = gram_matrix(build_space(family, k))
    np.testing.assert_allclose(G, G.T, atol=1e-15)
    assert np.linalg.eigvalsh(G).min() > 0
    assert np.linalg.cond(G) < 1e6


def _reference_gram(space):
    """Monomial-product Gram matrix and, per entry, the absolute sum of its terms."""
    n = space.dim
    G = np.empty((n, n))
    S = np.empty((n, n))
    N = np.empty((n, n))
    grids = [reference_grids(space, e) for e in np.eye(n)]
    for a in range(n):
        ua, va = grids[a]
        for b in range(a, n):
            ub, vb = grids[b]
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
    # its own sums of exact integer coordinates.
    space = build_space(family, k)
    G = gram_matrix(space)
    R, S, N = _reference_gram(space)
    eps = np.finfo(float).eps
    assert np.all(np.abs(G - R) <= (N + 4) * eps * S + 4 * eps * np.abs(G))


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_member_views_match_label_grids(family, k):
    space = build_space(family, k)
    rng = np.random.default_rng(17)
    dense = rng.standard_normal(space.dim)
    sparse = np.where(rng.random(space.dim) < 0.3, dense, 0.0)
    for coeffs in (dense, sparse, np.zeros(space.dim)):
        u, v = reference_grids(space, coeffs)
        assert degree_bounds(space.member(coeffs)) == ((u.dx, u.dy), (v.dx, v.dy))


def test_member_dof_vectors_build_no_grids(monkeypatch):
    # every DOF matrix, the 14 standard sets and ABF's replaced ones, is
    # assembled from the moment tables of 1-D factor rows, sampling no member
    # and filling no grid of basis values
    def refuse(*args):
        raise AssertionError("the basis was sampled to build a DOF matrix")

    monkeypatch.setattr(elements.SpaceMember, "factor_sample", refuse)
    monkeypatch.setattr(fields, "grid_values", refuse)
    sets = [(f, k, False) for f, k in ALL_PAIRS] + [("ABF", k, True) for k in degree_range("ABF")]
    matrices = [dof_matrix_ld(build_dofs(f, k, replace_div_moments=replace), build_space(f, k))
                for f, k, replace in sets]
    assert len(matrices) == 19 and all(np.isfinite(M).all() for M in matrices)
    monkeypatch.undo()
    # members are sampled on their nodes: every basis row, BDM's curl rows
    # included, is a product of Legendre recurrence values
    x = np.linspace(0.0, 1.0, 5, dtype=np.longdouble)
    rng = np.random.default_rng(23)
    for family, k in ALL_PAIRS:
        space = build_space(family, k)
        for xs, ys in ((x, x), (x.astype(float), np.array([0.25]))):
            X, Y = space.member(np.eye(space.dim)).factor_sample(xs, ys)
            assert X.shape == (space.dim, space.dim, 3, len(xs)) and X.dtype == xs.dtype
            assert Y.shape == (space.dim, 3, len(ys))
        dofs = build_dofs(family, k)
        for _ in range(3):
            dof_vector_ld(dofs, space.random_member(rng))
        assert span_check(space)["ok"]


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_the_factor_rows_are_the_one_basis_encoding(family, k):
    # evaluation, divergence, DOF moments, span coordinates and structural
    # flags all read ElementSpace._rows: no index arrays, no second factor table
    space = build_space(family, k)
    for name in ("_i", "_j", "_ci", "_cj", "_nx"):
        assert not hasattr(space, name), name
    assert not hasattr(dofs, "_factor_rows")
    assert space._rows is elements.factor_rows(space.labels, space._maxdeg + 1)


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_legendre_coordinates_are_the_exact_int64_integers(family, k):
    # the object-int products of the derivative matrix, entry for entry, for
    # all rows (the oracle's u and v coordinates) and span_check's div rows
    space = build_space(family, k)
    n = space._maxdeg + 1
    D = legendre.derivative_matrix(n)
    R = np.concatenate([np.eye(n, dtype=int).astype(object), D, -D, np.zeros((1, n), object)])
    for rows in (None, space._rows[2:]):
        got = _legendre_coordinates(space, rows)
        r = space._rows if rows is None else rows
        X, Y = R[r[:, 0]], R[r[:, 1]]
        want = (X[..., :, None] * Y[..., None, :]).transpose(1, 0, 2, 3)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert all(type(w) is int and int(g) == w for g, w in zip(got.flat, want.flat))
        assert np.array_equal(got.astype(float), want.astype(float))


@pytest.mark.parametrize("k", degree_range("BDM"))
def test_curl_labels_span_the_monomial_curls(k):
    # curl x^i y^j = c curl(L_i(x) L_j(y)) + a member of P_k^2, exactly, for
    # either curl label (i, j): the space spans what the monomial curls span
    space = build_space("BDM", k)
    C = _legendre_coordinates(space)[:, :2]
    n = C.shape[-1]
    high = np.add.outer(np.arange(n), np.arange(n)) > k
    for b in range(space.dim - 2, space.dim):
        kind, i, j = space.labels[b]
        assert kind == "curl"
        monomial = curl_scalar(Polynomial2D.monomial(i, j))
        R = np.zeros((2, n, n), dtype=object)
        for comp, p in enumerate((monomial.u, monomial.v)):
            for ij, val in grid_to_basis_exact(p.coeffs).items():
                R[(comp,) + ij] = val
        c = R[0, i, j - 1] / C[b, 0, i, j - 1]  # the top coordinate of u
        assert c != 0
        assert not (R - c * C[b])[:, high].any(), space.labels[b]


@pytest.mark.parametrize("k", degree_range("BDM"))
def test_curl_rows_match_monomial_curls(k):
    # curl label (i, j) against the monomial curl of L_i(x) L_j(y), both in
    # extended precision: Horner's error on a grid of absolute coefficient
    # sum S is below 2 (dx + dy) eps S, the recurrences' far below it
    space = build_space("BDM", k)
    rng = np.random.default_rng(29)
    x, y = (rng.random(64).astype(np.longdouble) for _ in range(2))
    eps = np.finfo(np.longdouble).eps
    nt = space.dim - 2
    assert [lab[0] for lab in space.labels[nt:]] == ["curl", "curl"]
    # the two curl rows' samples on the grid of the points
    U, V, _ = grid_values(space.member(np.eye(space.dim)[nt:]).factor_sample(x, y))
    for b in range(nt, space.dim):
        for got, want in zip((U[b - nt], V[b - nt]), reference_grids(space, np.eye(space.dim)[b])):
            bound = 2 * (want.dx + want.dy) * eps * np.sum(np.abs(want.coeffs))
            err = np.max(np.abs(got - want.eval(x[:, None], y[None, :])))
            assert err <= bound, (space.labels[b], bound)


def test_member_eval_matches_grid_polynomials():
    space = build_space("RT", 2)
    member = space.random_member(np.random.default_rng(3))
    s = np.linspace(0, 1, 9)
    X, Y = s[:, None], s[None, :]
    U, V, D = grid_values(member.factor_sample(s, s))
    # the label-by-label monomial grids are the ground truth
    exact = reference_field(member)
    np.testing.assert_allclose(U, exact.u.eval(X, Y), atol=1e-13)
    np.testing.assert_allclose(V, exact.v.eval(X, Y), atol=1e-13)
    np.testing.assert_allclose(D, divergence(exact).eval(X, Y), atol=1e-12)


@pytest.mark.parametrize("family,k", [("RT", 1), ("BDM", 2), ("ABF", 1)])
def test_member_eval_broadcasts(family, k):
    # nodes of two lengths sample to their outer grid, the points' values
    member = build_space(family, k).random_member(np.random.default_rng(5))
    x, y = np.linspace(0, 1, 4), np.linspace(0, 1, 3)
    got = grid_values(member.factor_sample(x, y))
    assert got.shape == (3, 4, 3)
    np.testing.assert_allclose(got, point_values(member, x[:, None], y[None, :]),
                               rtol=1e-13, atol=1e-13)
    assert grid_values(member.factor_sample(np.array([0.3]), np.linspace(0, 1, 5))).shape \
        == (3, 1, 5)


def test_member_linear_in_coefficients():
    space = build_space("ABF", 1)
    c1 = RNG.standard_normal(space.dim)
    c2 = RNG.standard_normal(space.dim)
    m1, m2, msum = space.member(c1), space.member(c2), space.member(c1 + c2)
    x, y = np.array([0.63]), np.array([0.18])
    one, two, both = (grid_values(m.factor_sample(x, y))[:, 0, 0] for m in (m1, m2, msum))
    assert both == pytest.approx(one + two, rel=1e-12, abs=1e-14)


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
