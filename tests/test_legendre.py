"""Shifted Legendre polynomials on [0,1]: exact coefficients and recurrences."""

from fractions import Fraction

import numpy as np
import pytest

from hdivkit import legendre
from monomial_oracle import (
    Polynomial2D, coeffs, coeffs_frac, grid_to_basis_exact, monomial_in_basis, power_moment, product_poly,
)

RNG = np.random.default_rng(7)


def _exact_integral_product(i, j):
    # int_0^1 L_i L_j via exact rational coefficient convolution
    ci = coeffs_frac(i)
    cj = coeffs_frac(j)
    total = Fraction(0)
    for a, ca in enumerate(ci):
        for b, cb in enumerate(cj):
            total += ca * cb * Fraction(1, a + b + 1)
    return total


@pytest.mark.parametrize("i", range(9))
@pytest.mark.parametrize("j", range(9))
def test_orthogonality_exact(i, j):
    got = _exact_integral_product(i, j)
    want = Fraction(1, 2 * i + 1) if i == j else Fraction(0)
    assert got == want


@pytest.mark.parametrize("n", range(9))
def test_endpoint_normalization(n):
    c = coeffs_frac(n)
    assert sum(c) == 1  # L_n(1) = 1
    assert c[0] == (-1) ** n  # L_n(0) = (-1)^n


def test_values_recurrence_matches_coefficient_eval():
    xs = RNG.uniform(0, 1, size=13)
    vals = legendre.values(8, xs)
    for n in range(9):
        direct = np.polyval(coeffs(n)[::-1], xs)
        np.testing.assert_allclose(vals[n], direct, atol=1e-12)


def test_derivative_matrix_exact():
    # sum_m D[a, m] L_m has the monomial coefficients of d/dt L_a, exactly
    D = legendre.derivative_matrix(9)
    for a in range(9):
        ca = coeffs_frac(a)
        want = [m * ca[m] for m in range(1, a + 1)] + [0] * (9 - a)
        got = [sum(D[a, m] * coeffs_frac(m)[p] for m in range(p, 9))
               for p in range(9)]
        assert got == want


def test_deriv_values_matches_polynomial_derivative():
    xs = RNG.uniform(0, 1, size=13)
    _, dvals = legendre.deriv_values(8, xs)
    for n in range(9):
        c = coeffs(n)
        dc = c[1:] * np.arange(1, len(c))
        direct = np.polyval(dc[::-1], xs) if len(dc) else np.zeros_like(xs)
        np.testing.assert_allclose(dvals[n], direct, atol=1e-11)


def test_values_preserve_longdouble():
    xs = np.linspace(0, 1, 5, dtype=np.longdouble)
    vals = legendre.values(4, xs)
    assert vals[3].dtype == np.longdouble


def test_power_moment_exact():
    # int_0^1 t^a L_n(t) dt against direct rational integration
    for a in range(7):
        for n in range(7):
            c = coeffs_frac(n)
            want = sum(cm * Fraction(1, a + m + 1) for m, cm in enumerate(c))
            assert power_moment(a, n) == want


def test_monomial_in_basis_round_trip():
    for a in range(8):
        expansion = monomial_in_basis(a)
        xs = RNG.uniform(0, 1, size=9)
        vals = legendre.values(a, xs)
        rebuilt = sum(float(c) * vals[n] for n, c in enumerate(expansion))
        np.testing.assert_allclose(rebuilt, xs**a, atol=1e-13)


def test_grid_to_basis_exact_round_trip():
    grid = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.25], [0.75, 2.0, 4.0]])
    expansion = grid_to_basis_exact(grid)
    X, Y = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
    rebuilt = np.zeros_like(X)
    nmax = max(i for i, _ in expansion)
    mmax = max(j for _, j in expansion)
    Lx = legendre.values(nmax, X)
    Ly = legendre.values(mmax, Y)
    for (i, j), c in expansion.items():
        rebuilt += float(c) * Lx[i] * Ly[j]
    direct = Polynomial2D(grid).eval(X, Y)
    np.testing.assert_allclose(rebuilt, direct, atol=1e-13)


def test_grid_to_basis_exact_is_rational():
    expansion = grid_to_basis_exact(np.array([[0.0, 1.0]]))
    # y = L_0/2 + L_1(y)/2 in shifted Legendre terms
    assert expansion[(0, 0)] == Fraction(1, 2)
    assert expansion[(0, 1)] == Fraction(1, 2)


def test_product_poly():
    x, y = 0.31, 0.77
    prod = product_poly(2, 3)
    want = float(legendre.values(2, x)[2]) * float(legendre.values(3, y)[3])
    assert prod.eval(x, y) == pytest.approx(want, rel=1e-13)


def test_integer_coefficients():
    for n in range(9):
        c = coeffs(n)
        np.testing.assert_array_equal(c, np.round(c))
