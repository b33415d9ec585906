"""Element spaces on the reference square and their divergence images.

Three H(div) families over K = [0,1]^2:

    RT_k  = Q_{k+1,k} x Q_{k,k+1}                  dim 2(k+1)(k+2)   div -> Q_k
    BDM_k = (P_k)^2 + span{curl L_{k+1}(x)L_1(y),
                           curl L_1(x)L_{k+1}(y)}  dim (k+1)(k+2)+2  div -> P_{k-1}
    ABF_k = Q_{k+2,k} x Q_{k,k+2}                  dim 2(k+1)(k+3)   div -> Q_{k+1}
                                                                     minus the corner
                                                                     monomial x^{k+1}y^{k+1}

The tensor components are spanned by shifted-Legendre products
L_i(x) L_j(y) rather than raw monomials: the same spaces (the index sets
are downward closed), but the orthogonal basis keeps the DOF matrices
well-conditioned at k = 4 where monomial bases are numerically singular.
BDM's curl label (i, j) is curl(L_i(x) L_j(y)) = (L_i(x) L_j'(y),
-L_i'(x) L_j(y)); with P_k^2 it spans what curl x^{k+1}y and curl x y^{k+1}
span.  family_sets(family, k) holds the table above as (i, j) index
sets.  The basis has one encoding: each label's u, v and div are
products X(x) Y(y) of two rows of factor_values (L_m, L_m', -L_m' or
zero), named by factor_rows.  A member's factor sample, the operator's
table on the error rule (interpolation), the DOF matrix's 1-D moments
(dofs.moment_table), the exact Legendre coordinates and the structural
degrees (_label_degrees) all read those rows, with no branch per kind of
label.  A member is its space and its coefficient vector; the package
has no other polynomial representation (monomial grids live in the
tests' oracle).  The Legendre products are orthogonal and differentiate
with integer coefficients, so the Gram matrix has a closed form and the
div-span certificate runs in exact arithmetic.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from . import legendre

# the verified range of `check`; the DOFs stay well conditioned beyond it, but
# studies at higher k reach the roundoff floor, which verdicts do not model yet
MAX_DEGREE = 4
# span_check: the largest L2 mass a basis divergence may leave outside the
# scalar space, and the least-squares residual of an unreached direction
SPAN_TOL = 1e-12
UNREACHED_TOL = 1e-18


class ElementFamily(enum.Enum):
    RT = "RT"
    BDM = "BDM"
    ABF = "ABF"


FAMILIES = tuple(f.value for f in ElementFamily)


def check_choice(kind: str, name: str, choices) -> str:
    """name, or a ValueError listing the choices of this kind."""
    if name not in choices:
        raise ValueError(f"unknown {kind} '{name}' (choose from {', '.join(choices)})")
    return name


def _as_family(family) -> ElementFamily:
    """A family, or its name in any case; an unknown name is quoted as given."""
    if isinstance(family, ElementFamily):
        return family
    name = str(family)
    if name.upper() not in FAMILIES:
        check_choice("family", name, FAMILIES)
    return ElementFamily(name.upper())


_KMIN = {ElementFamily.RT: 0, ElementFamily.BDM: 1, ElementFamily.ABF: 0}


def _validate_degree(family: ElementFamily, k: int) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise TypeError("degree k must be an integer")
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError(f"k must be between 0 and {MAX_DEGREE}")
    if k < _KMIN[family]:
        raise ValueError(f"{family.value} requires k >= {_KMIN[family]}")


def degree_range(family, kmax: int = MAX_DEGREE) -> range:
    """The degrees k <= kmax that family supports (BDM starts at 1)."""
    return range(_KMIN[_as_family(family)], kmax + 1)


def _box(nx: int, ny: int) -> tuple:
    """(i, j) with i <= nx and j <= ny, i-major; empty when nx or ny < 0."""
    return tuple((i, j) for i in range(nx + 1) for j in range(ny + 1))


def _triangle(n: int) -> tuple:
    """(i, j) with i + j <= n, i-major; empty when n < 0."""
    return tuple((i, j) for i in range(n + 1) for j in range(n + 1 - i))


class FamilySets(NamedTuple):
    """Every fact that tells the families apart, as (i, j) index sets for one k."""

    u: tuple  # L_i(x) L_j(y) spanning component u
    v: tuple  # ... and component v
    curls: tuple  # (i, j) of BDM's curl members curl(L_i(x) L_j(y)), after u and v
    div: tuple  # monomial exponents of the divergence image
    div_name: str
    tests: tuple  # per component, the Legendre tests of the interior moments
    div_tests: tuple  # the Legendre tests of the divergence moments


def family_sets(family, k: int) -> FamilySets:
    """The index sets of (family, k); one cached entry per family and degree."""
    family = _as_family(family)
    _validate_degree(family, k)
    return _family_sets(family, int(k))


@functools.lru_cache(maxsize=None)
def _family_sets(family: ElementFamily, k: int) -> FamilySets:
    if family is ElementFamily.BDM:
        return FamilySets(_triangle(k), _triangle(k), ((k + 1, 1), (1, k + 1)),
                          _triangle(k - 1), f"P_{k - 1}",
                          (_triangle(k - 2),) * 2, ())
    tests = (_box(k - 1, k), _box(k, k - 1))
    if family is ElementFamily.RT:
        return FamilySets(_box(k + 1, k), _box(k, k + 1), (), _box(k, k), f"Q_{k}", tests, ())
    div_tests = tuple((i, k + 1) for i in range(k + 1)) + tuple((k + 1, j) for j in range(k + 1))
    return FamilySets(_box(k + 2, k), _box(k, k + 2), (),
                      tuple(e for e in _box(k + 1, k + 1) if e != (k + 1, k + 1)),
                      f"Q_{k + 1}-minus-corner", tests, div_tests)


def space_dimension(family: ElementFamily, k: int) -> int:
    sets = family_sets(family, k)
    return len(sets.u) + len(sets.v) + len(sets.curls)


def factor_values(deg: int, t) -> np.ndarray:
    """The factor rows at t for degrees <= deg, from one recurrence pass: row m
    is L_m, nf + m is L_m', 2 nf + m is -L_m' (nf = deg + 1) and 3 nf is zero."""
    L, dL = (np.array(v) for v in legendre.deriv_values(deg, t))
    return np.concatenate([L, dL, -dL, np.zeros_like(L[:1])])


@functools.lru_cache(maxsize=None)
def factor_rows(labels: tuple, nf: int) -> np.ndarray:
    """Factor rows R[q, axis, b] of basis label b in factor_values of nf
    degrees: q = 0, 1, 2 for u, v and div, axis 0 for the x factor, 1 for y.

    Label ("x", i, j) is u = L_i(x) L_j(y) with div L_i'(x) L_j(y), ("y", i, j)
    its mirror in v, and ("curl", i, j) is (L_i(x) L_j'(y), -L_i'(x) L_j(y))
    with div zero.  Cached by value.
    """
    z = (3 * nf, 3 * nf)
    pairs = {"x": lambda i, j: ((i, j), z, (nf + i, j)),
             "y": lambda i, j: (z, (i, j), (i, nf + j)),
             "curl": lambda i, j: ((i, nf + j), (2 * nf + i, j), z)}
    rows = np.array([pairs[kind](i, j) for kind, i, j in labels]).transpose(1, 2, 0)
    rows.setflags(write=False)
    return rows


class SpaceMember:
    """A concrete field in an element space: its basis-coefficient vector.

    Like every field it is read through its factor sample, the Legendre
    factor rows of its labels, so it evaluates to full precision at high
    degree.  A member has no monomial grids and no algebra of its own
    (u, v, divergence() and +, -, * do not exist); members combine by
    their coefficients, space.member(a.coeffs + b.coeffs).  coeffs may be
    an (m, dim) stack, one member per row: the factor rows are taken once
    and the sample has one row per member; require_single guards the code
    that takes one member.  Its structural degrees are its space's
    _label_degrees on the labels of its nonzero coefficients.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: "ElementSpace", coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.dim or not len(coeffs):
            raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs

    def factor_sample(self, x, y) -> tuple:
        """The factor sample (fields.py) at nodes x and y: one term per label, its
        factor rows, the x rows weighted by the label's coefficient; only X
        carries a stack's rows, ahead of the nodes' leading axes."""
        X, Y = (np.moveaxis(factor_values(self.space._maxdeg, np.asarray(z)), 0, -2)
                [..., self.space._rows[:, axis].T, :] for axis, z in enumerate((x, y)))
        c = self.coeffs
        return c.reshape(c.shape[:-1] + (1,) * (X.ndim - 3) + (-1, 1, 1)) * X, Y

    def __repr__(self):
        return f"SpaceMember({self.space!r}, coeffs={self.coeffs!r})"


def contract(coeffs, table) -> np.ndarray:
    """Coefficients (dim,) or (m, dim) against a basis table (dim, ...): one np.dot
    of a (1, dim) row per row, the gemv np.tensordot makes; one gemm over a
    stack may round a row apart from the lone member's."""
    flat = table.reshape(len(table), -1)
    out = np.empty(coeffs.shape[:-1] + flat.shape[1:], np.result_type(coeffs, flat))
    for i in np.ndindex(coeffs.shape[:-1]):
        np.dot(coeffs[i].reshape(1, -1), flat, out=out[i].reshape(1, -1))
    return out.reshape(coeffs.shape[:-1] + table.shape[1:])


def require_single(member: SpaceMember, use: str) -> SpaceMember:
    """member, or a ValueError when it holds a coefficient stack, which use cannot take."""
    if member.coeffs.ndim != 1:
        raise ValueError(f"{use} takes one member, not a stack of {len(member.coeffs)}")
    return member


class ElementSpace:
    """Ordered basis of one of the reference H(div) spaces.

    The basis is its labels and their factor rows (factor_rows): label b
    is u, v and div = products Fx[_rows[q, 0, b]] * Fy[_rows[q, 1, b]]
    of factor_values rows, q = 0, 1, 2.  _label_degrees holds, per label,
    the (x, y) degrees of those products' factors, -1 where a factor vanishes.
    """

    def __init__(self, family, k: int):
        sets = family_sets(family, k)
        self.family = _as_family(family)
        self.k = int(k)
        self.labels: Tuple[tuple, ...] = (
            tuple(("x", i, j) for i, j in sets.u) + tuple(("y", i, j) for i, j in sets.v)
            + tuple(("curl", i, j) for i, j in sets.curls))
        self.dim = len(self.labels)
        self._maxdeg = max(max(i, j) for _, i, j in self.labels)
        self._rows = factor_rows(self.labels, self._maxdeg + 1)
        # per label: (dx, dy) of u, of v, then of div; L_m' has degree m - 1
        m = np.arange(self._maxdeg + 1)
        degrees = np.concatenate([m, m - 1, m - 1, [-1]])[self._rows]
        self._label_degrees = degrees.transpose(2, 0, 1).reshape(self.dim, 6)

    def member(self, coeffs) -> SpaceMember:
        """The member with these coefficients; an (m, dim) stack gives m members in one."""
        return SpaceMember(self, coeffs)

    def random_member(self, rng: np.random.Generator) -> SpaceMember:
        return self.member(rng.standard_normal(self.dim))

    def __repr__(self):
        return f"ElementSpace({self.family.value}, k={self.k}, dim={self.dim})"


def build_space(family, k: int) -> ElementSpace:
    return ElementSpace(family, k)


class ScalarSpace:
    """Monomial-spanned scalar space holding the divergence image."""

    def __init__(self, description: str, exponents: Sequence[Tuple[int, int]]):
        self.description = description
        self.exponents: Tuple[Tuple[int, int], ...] = tuple(exponents)
        self.dim = len(self.exponents)

    def __repr__(self):
        return f"ScalarSpace({self.description}, dim={self.dim})"


def build_div_space(family, k: int) -> ScalarSpace:
    sets = family_sets(family, k)
    return ScalarSpace(sets.div_name, sets.div)


def _legendre_coordinates(space: ElementSpace, rows=None) -> np.ndarray:
    """Exact coordinates C[b, q, i, j] of basis member b over L_i(x) L_j(y), for
    the factor rows q of rows, a slice of space._rows (default all of them:
    q = 0, 1, 2 for u, v and div).

    Exact in int64 (each entry is below 500 up to MAX_DEGREE): each factor
    row's coordinates are a unit row, a row of the derivative matrix, its
    negative or zero, and a label's are their outer products.
    """
    rows = space._rows if rows is None else rows
    n = space._maxdeg + 1
    D = legendre.derivative_matrix(n).astype(np.int64)
    R = np.concatenate([np.eye(n, dtype=np.int64), D, -D, np.zeros((1, n), np.int64)])
    X, Y = R[rows[:, 0]], R[rows[:, 1]]
    return (X[..., :, None] * Y[..., None, :]).transpose(1, 0, 2, 3)


def _product_norms(n: int) -> np.ndarray:
    """Squared L2(K) norms 1 / ((2i+1)(2j+1)) of L_i(x) L_j(y), i, j < n."""
    r = 2.0 * np.arange(n) + 1.0
    return 1.0 / np.outer(r, r)


def span_check(space: ElementSpace) -> dict:
    """Certify div(space) against the declared scalar space.

    Membership is exact: basis divergences come in Legendre coordinates
    from the integer derivative matrix, and the mass outside the scalar
    space's index set is reported as an L2 residual.  Surjectivity is a
    rank check of the divergence coordinates on that index set; the
    index sets are downward closed, so the Legendre products on them span
    the same space as the monomials.
    """
    div_space = build_div_space(space.family, space.k)
    div = _legendre_coordinates(space, space._rows[2:])[:, 0]
    n = div.shape[-1]
    inside = np.zeros((n, n), dtype=bool)
    rows, cols = np.array(div_space.exponents, dtype=np.intp).reshape(-1, 2).T
    inside[rows, cols] = True
    # exactly zero outside the index set for every member of the space
    residuals = np.sqrt(div[:, ~inside] ** 2 @ _product_norms(n)[~inside])
    failures = [f"basis member {label} leaves the scalar space (residual {r:.3e})"
                for label, r in zip(space.labels, residuals.tolist()) if not r <= SPAN_TOL]
    A = div[:, rows, cols].astype(float)
    rank = int(np.linalg.matrix_rank(A)) if A.size else 0
    if rank < div_space.dim:
        # squared distances from the span; lstsq's own residuals are empty for a rank-deficient A
        eye = np.eye(div_space.dim)
        X = np.linalg.lstsq(A.T, eye, rcond=None)[0]
        failures += [f"scalar direction L_{i}(x) L_{j}(y) not reached"
                     for (i, j), r in zip(div_space.exponents, ((A.T @ X - eye) ** 2).sum(0))
                     if r > UNREACHED_TOL]
    return {
        "family": space.family.value,
        "k": space.k,
        "div_space": div_space.description,
        "max_residual": float(np.max(residuals)),
        "rank": rank,
        "div_dim": div_space.dim,
        "surjective": rank == div_space.dim,
        "failures": failures,
        "ok": not failures and rank == div_space.dim,
    }
