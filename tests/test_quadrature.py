"""Gauss-Legendre rules on [0,1] and their tensor products."""

import numpy as np
import pytest

from hdivkit.poly import Polynomial2D, integrate_rect
from hdivkit.quadrature import (
    EDGES,
    MAX_POINTS,
    NONPOLY_POINTS,
    edge_rule,
    gauss_legendre_01,
    n_for_degree,
    tensor_rule,
)


@pytest.mark.parametrize("n", range(1, 13))
def test_nodes_weights_match_numpy_leggauss(n):
    # oracle: numpy's [-1,1] rule mapped affinely to [0,1]
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    rule = gauss_legendre_01(n)
    np.testing.assert_allclose(rule.nodes, (x_ref + 1.0) / 2.0, atol=1e-14)
    np.testing.assert_allclose(rule.weights, w_ref / 2.0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 11))
def test_exactness_through_degree_2n_minus_1(n):
    rule = gauss_legendre_01(n)
    for d in range(2 * n):
        got = float(np.sum(rule.weights * rule.nodes**d))
        assert got == pytest.approx(1.0 / (d + 1), abs=1e-14), (n, d)


@pytest.mark.parametrize("n", range(1, 21))
def test_weights_positive_and_sum_to_one(n):
    rule = gauss_legendre_01(n)
    assert np.all(rule.weights > 0)
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all((rule.nodes > 0) & (rule.nodes < 1))


def test_longdouble_twins_match_double():
    rule = gauss_legendre_01(8)
    np.testing.assert_allclose(rule.nodes_ld.astype(float), rule.nodes, atol=1e-16)
    np.testing.assert_allclose(rule.weights_ld.astype(float), rule.weights, atol=1e-16)
    assert rule.nodes_ld.dtype == np.longdouble


def test_tensor_rule_against_closed_form():
    rule = tensor_rule(4, 3)
    for i in range(5):
        for j in range(4):
            got = rule.integrate(lambda x, y, i=i, j=j: x**i * y**j)
            want = integrate_rect(Polynomial2D.monomial(i, j), 1.0, 1.0)
            assert got == pytest.approx(want, abs=1e-15), (i, j)


def test_tensor_rule_is_cached():
    assert tensor_rule(5, 2) is tensor_rule(5, 2)


def test_n_for_degree_sufficient():
    # n points integrate degree 2n-1, so 2*n_for_degree(d) - 1 >= d
    for d in range(0, 30):
        n = n_for_degree(d)
        assert 2 * n - 1 >= d
        assert n <= MAX_POINTS
    assert NONPOLY_POINTS >= 16


@pytest.mark.parametrize("edge", EDGES)
def test_edge_rule_geometry(edge):
    x, y, t, w = edge_rule(edge, 5)
    assert all(a.shape == (5,) and a.dtype == np.longdouble for a in (x, y, t, w))
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(t, gauss_legendre_01(5).nodes_ld)
    if edge == "left":
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(y, t)
    elif edge == "right":
        np.testing.assert_array_equal(x, 1.0)
        np.testing.assert_array_equal(y, t)
    elif edge == "bottom":
        np.testing.assert_array_equal(y, 0.0)
        np.testing.assert_array_equal(x, t)
    else:
        np.testing.assert_array_equal(y, 1.0)
        np.testing.assert_array_equal(x, t)


def test_edge_rule_integrates_edge_polynomial():
    # int_0^1 t^3 along the top edge, parametrized by x
    x, y, t, w = edge_rule("top", 4)
    got = float(np.sum(w * x**3))
    assert got == pytest.approx(0.25, abs=1e-14)


def test_invalid_requests_rejected():
    with pytest.raises(ValueError):
        gauss_legendre_01(0)
    with pytest.raises(ValueError):
        edge_rule("diagonal", 3)
