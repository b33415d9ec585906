"""The test oracle's monomial polynomials: evaluation, partials and exact grid algebra."""

import numpy as np
import pytest

from monomial_oracle import (
    Polynomial2D, VectorPoly2D, curl_scalar, divergence, integrate_rect, scale_arguments,
)

RNG = np.random.default_rng(42)


def test_monomial_eval():
    p = Polynomial2D.monomial(2, 1, 3.0)
    assert p.eval(0.5, 2.0) == pytest.approx(3.0 * 0.25 * 2.0, abs=1e-15)
    assert p.dx == 2 and p.dy == 1


def test_eval_matches_direct_sum():
    grid = RNG.standard_normal((4, 3))
    p = Polynomial2D(grid)
    x, y = 0.37, 0.81
    direct = sum(
        grid[i, j] * x**i * y**j
        for i in range(grid.shape[0])
        for j in range(grid.shape[1])
    )
    assert p.eval(x, y) == pytest.approx(direct, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    grid = RNG.standard_normal((3, 4))
    p = Polynomial2D(grid)
    xs = RNG.uniform(0, 1, size=7)
    ys = RNG.uniform(0, 1, size=7)
    vals = p.eval(xs, ys)
    for xi, yi, vi in zip(xs, ys, vals):
        assert vi == pytest.approx(p.eval(xi, yi), rel=1e-14)


def test_partial_derivatives():
    # d/dx x^3 y^2 = 3 x^2 y^2, d2/dy2 -> 2 x^3
    p = Polynomial2D.monomial(3, 2)
    px = p.partial("x")
    pyy = p.partial("y", 2)
    assert px.eval(0.5, 0.5) == pytest.approx(3 * 0.25 * 0.25, abs=1e-15)
    assert pyy.eval(0.5, 0.5) == pytest.approx(2 * 0.125, abs=1e-15)


def test_partial_order_zero_identity():
    grid = RNG.standard_normal((3, 3))
    p = Polynomial2D(grid)
    np.testing.assert_array_equal(p.partial("x", 0).coeffs, p.coeffs)


def test_algebra_add_sub_mul():
    a = Polynomial2D.monomial(1, 0)
    b = Polynomial2D.monomial(0, 1)
    s = a + b
    d = a - b
    prod = a * b
    assert s.eval(0.3, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert d.eval(0.3, 0.7) == pytest.approx(-0.4, abs=1e-15)
    assert prod.eval(0.3, 0.7) == pytest.approx(0.21, abs=1e-15)


def test_scale_arguments():
    # q(x, y) = p(ax x, ay y)
    p = Polynomial2D.monomial(2, 1)
    q = scale_arguments(p, 2.0, 3.0)
    assert q.eval(0.5, 0.5) == pytest.approx(p.eval(1.0, 1.5), rel=1e-15)


def test_divergence_matches_partials():
    u = Polynomial2D(RNG.standard_normal((3, 2)))
    v = Polynomial2D(RNG.standard_normal((2, 3)))
    w = VectorPoly2D(u, v)
    d = divergence(w)
    x, y = 0.42, 0.13
    expected = u.partial("x").eval(x, y) + v.partial("y").eval(x, y)
    assert d.eval(x, y) == pytest.approx(expected, rel=1e-14)


def test_div_of_curl_is_exactly_zero():
    for _ in range(5):
        phi = Polynomial2D(RNG.standard_normal((4, 4)))
        w = curl_scalar(phi)
        np.testing.assert_array_equal(divergence(w).coeffs, 0.0)


def test_curl_sign_convention():
    # curl phi = (phi_y, -phi_x) for phi = x y
    w = curl_scalar(Polynomial2D.monomial(1, 1))
    u, v = w.uv(0.3, 0.9)
    assert u == pytest.approx(0.3, abs=1e-15)
    assert v == pytest.approx(-0.9, abs=1e-15)


def test_integrate_rect_closed_form():
    # int_0^hx int_0^hy x^i y^j = hx^{i+1} hy^{j+1} / ((i+1)(j+1))
    for i in range(4):
        for j in range(4):
            p = Polynomial2D.monomial(i, j)
            got = integrate_rect(p, 2.0, 0.5)
            want = 2.0 ** (i + 1) * 0.5 ** (j + 1) / ((i + 1) * (j + 1))
            assert got == pytest.approx(want, rel=1e-14)


def test_vector_field_eval_and_div_values():
    u = Polynomial2D(RNG.standard_normal((2, 2)))
    v = Polynomial2D(RNG.standard_normal((2, 2)))
    w = VectorPoly2D(u, v)
    xs = RNG.uniform(0, 1, size=5)
    ys = RNG.uniform(0, 1, size=5)
    U, V = w.uv(xs, ys)
    np.testing.assert_allclose(U, u.eval(xs, ys), rtol=1e-14)
    np.testing.assert_allclose(V, v.eval(xs, ys), rtol=1e-14)
    np.testing.assert_allclose(w.div_values(xs, ys), divergence(w).eval(xs, ys), rtol=1e-13, atol=1e-15)


def test_vector_degree_bounds():
    w = VectorPoly2D(Polynomial2D.monomial(3, 1), Polynomial2D.monomial(0, 2))
    assert w.degree_bounds == ((3, 1), (0, 2))
    assert curl_scalar(Polynomial2D.monomial(2, 2)).degree_bounds == ((2, 1), (1, 2))


def test_zero_polynomial():
    z = Polynomial2D.zero()
    assert z.eval(0.7, 0.2) == 0.0
    assert integrate_rect(z, 1.0, 1.0) == 0.0
