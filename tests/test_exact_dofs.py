"""Every DOF matrix in exact rationals, built from index data alone.

Members and tests are shifted-Legendre products, so each moment has a
closed form: int_0^1 L_a L_b = delta_ab / (2a + 1), L_n(0) = (-1)^n and
L_n(1) = 1 give the edge traces, and legendre.derivative_matrix gives
the divergences and BDM's curl members.  The exact matrices pin what
dofs.dof_matrix_ld approximates (ABF's sets with replaced divergence
moments included), prove unisolvence by a nonzero determinant, and give
the exact 1-norm condition that `check` prints.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from hdivkit import legendre
from hdivkit.dofs import build_dofs, dof_matrix_ld
from hdivkit.elements import build_space
from hdivkit.interpolation import reference_operator

PAIRS = [("RT", k) for k in range(5)] + [("BDM", k) for k in range(1, 5)] + \
    [("ABF", k) for k in range(5)]
IDS = [f"{f}-{k}" for f, k in PAIRS]


def _coordinates(label, n: int) -> tuple:
    """Integer coordinates (u, v) of one basis label over L_i(x) L_j(y), i, j < n."""
    kind, i, j = label
    u, v = (np.zeros((n, n), dtype=object) for _ in range(2))
    if kind == "x":
        u[i, j] = 1
    elif kind == "y":
        v[i, j] = 1
    else:  # curl(L_i(x) L_j(y)) = (L_i(x) L_j'(y), -L_i'(x) L_j(y))
        D = legendre.derivative_matrix(n)
        u[i, :] = D[j]
        v[:, j] = -D[i]
    return u, v


def _moment(fn, u, v, D) -> Fraction:
    """One functional of the member with coordinates (u, v), exactly."""
    if fn.kind == "edge_moment":
        # w . n on the edge, against L_i of the edge parameter
        end = 1 if fn.edge in ("right", "top") else 0
        sign = 1 if end else -1
        if fn.edge in ("left", "right"):
            trace = sum(u[a, fn.i] * (-1) ** (a * (1 - end)) for a in range(len(u)))
        else:
            trace = sum(v[fn.i, b] * (-1) ** (b * (1 - end)) for b in range(len(v)))
        return Fraction(sign * trace, 2 * fn.i + 1)
    if fn.kind == "interior_moment":
        c = (u, v)[fn.component][fn.i, fn.j]
    else:  # div_moment: d/dx acts on the x index, d/dy on the y index
        c = (D.T @ u + v @ D)[fn.i, fn.j]
    return Fraction(c, (2 * fn.i + 1) * (2 * fn.j + 1))


@functools.lru_cache(maxsize=None)
def exact_dof_matrix(family, k: int, replace_div_moments: bool = False) -> tuple:
    """M[a][b], functional a of build_dofs applied to basis label b, as Fractions."""
    space, dofs = build_space(family, k), build_dofs(family, k, replace_div_moments)
    n = 1 + max([max(i, j) for _, i, j in space.labels]
                + [max(f.i, f.j) for f in dofs.functionals])
    D = legendre.derivative_matrix(n)
    cols = [_coordinates(label, n) for label in space.labels]
    return tuple(tuple(_moment(fn, u, v, D) for u, v in cols) for fn in dofs.functionals)


@functools.lru_cache(maxsize=None)
def exact_inverse(family, k: int) -> tuple:
    """(determinant, inverse) of the exact DOF matrix by Gauss-Jordan over
    the rationals; the inverse is None when the determinant is 0."""
    M = exact_dof_matrix(family, k)
    m = len(M)
    rows = [list(r) + [Fraction(int(a == b)) for b in range(m)] for a, r in enumerate(M)]
    det = Fraction(1)
    for c in range(m):
        p = next((r for r in range(c, m) if rows[r][c]), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(m):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det, tuple(tuple(r[m:]) for r in rows)


def _rational(x) -> Fraction:
    return Fraction(*x.as_integer_ratio())


def _norm1(A) -> Fraction:
    """Largest column sum of absolute values."""
    return max(sum(abs(r[b]) for r in A) for b in range(len(A[0])))


# an entry is a product of two 1-D moments, each a sum of n products of Gauss
# weights and Legendre recurrence values a few extended ulps off; k <= 4
# reads at most 9
ULP_BOUND = 32

# the standard sets, and ABF's with the divergence moments replaced
MATRIX_CASES = [pytest.param(f, k, False, id=i) for (f, k), i in zip(PAIRS, IDS)] + [
    pytest.param("ABF", k, True, id=f"ABF-{k}-replaced") for k in range(5)]


@pytest.mark.parametrize("family,k,replace", MATRIX_CASES)
def test_dof_matrix_matches_the_exact_one(family, k, replace):
    exact = np.array(exact_dof_matrix(family, k, replace), dtype=object)
    M = dof_matrix_ld(build_dofs(family, k, replace), build_space(family, k))
    scale = max(abs(x) for x in exact.ravel())
    err = max(abs(_rational(x) - y) for x, y in zip(M.ravel(), exact.ravel()))
    assert err <= ULP_BOUND * _rational(np.finfo(np.longdouble).eps) * scale


@pytest.mark.parametrize("family,k", PAIRS, ids=IDS)
def test_dofs_are_exactly_unisolvent(family, k):
    det, inv = exact_inverse(family, k)
    assert det != 0 and inv is not None


@pytest.mark.parametrize("family,k", PAIRS, ids=IDS)
def test_condition_is_the_exact_one(family, k):
    _, inv = exact_inverse(family, k)
    exact = _norm1(exact_dof_matrix(family, k)) * _norm1(inv)
    assert reference_operator(family, k).condition == pytest.approx(float(exact), rel=1e-12)
