"""Element spaces on the reference square and their divergence images.

Three H(div) families over K = [0,1]^2:

    RT_k  = Q_{k+1,k} x Q_{k,k+1}          dim 2(k+1)(k+2)   div -> Q_k
    BDM_k = (P_k)^2 + span{curl x^{k+1}y,
                           curl x y^{k+1}}  dim (k+1)(k+2)+2  div -> P_{k-1}
    ABF_k = Q_{k+2,k} x Q_{k,k+2}          dim 2(k+1)(k+3)   div -> Q_{k+1}
                                                             minus the corner
                                                             monomial x^{k+1}y^{k+1}

The tensor components are spanned by shifted-Legendre products
L_i(x) L_j(y) rather than raw monomials.  The spanned spaces are
identical (the index sets are downward closed), but the orthogonal
basis keeps the DOF matrices well-conditioned at k = 4 where monomial
bases are numerically singular.  family_sets(family, k) holds the table
above as (i, j) index sets (labels per component, divergence image,
moment tests); a space holds its basis as that index data plus BDM's two
exact curl members and evaluates it by the Legendre recurrence; a member
is its space and its coefficient vector, evaluated only through the
space's tables, with no monomial grids and no VectorPoly2D base.
Because the Legendre products are orthogonal and differentiate with
integer coefficients, the Gram matrix has a closed form and the div-span
certificate runs in exact arithmetic, with no monomial grids at all.
"""

from __future__ import annotations

import enum
import functools
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import legendre
from .poly import Polynomial2D, VectorPoly2D, curl_scalar

# the verified range: `check` covers every (family, k) up to here, while
# ABF_6 already misses the 1e-12 member reproduction
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
    if not isinstance(k, (int, np.integer)):
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
    curls: bool  # BDM's two curl members follow
    div: tuple  # monomial exponents of the divergence image
    div_name: str
    tests: tuple  # per component, the Legendre tests of the interior moments
    div_tests: tuple  # the monomial tests of the divergence moments


def family_sets(family, k: int) -> FamilySets:
    """The index sets of (family, k); one cached entry per family and degree."""
    family = _as_family(family)
    _validate_degree(family, k)
    return _family_sets(family, int(k))


@functools.lru_cache(maxsize=None)
def _family_sets(family: ElementFamily, k: int) -> FamilySets:
    if family is ElementFamily.BDM:
        return FamilySets(_triangle(k), _triangle(k), True, _triangle(k - 1), f"P_{k - 1}",
                          (_triangle(k - 2),) * 2, ())
    tests = (_box(k - 1, k), _box(k, k - 1))
    if family is ElementFamily.RT:
        return FamilySets(_box(k + 1, k), _box(k, k + 1), False, _box(k, k), f"Q_{k}", tests, ())
    div_tests = tuple((i, k + 1) for i in range(k + 1)) + tuple((k + 1, j) for j in range(k + 1))
    return FamilySets(_box(k + 2, k), _box(k, k + 2), False,
                      tuple(e for e in _box(k + 1, k + 1) if e != (k + 1, k + 1)),
                      f"Q_{k + 1}-minus-corner", tests, div_tests)


def space_dimension(family: ElementFamily, k: int) -> int:
    sets = family_sets(family, k)
    return len(sets.u) + len(sets.v) + 2 * sets.curls


class SpaceMember:
    """A concrete field in an element space: its basis-coefficient vector.

    uv/div_values contract the coefficients with the space's tables
    (tabulate, tabulate_div: the Legendre recurrence, as DOF assembly
    uses), so members evaluate to full precision at high degree.  A
    member has no monomial grids and no algebra of its own (u, v,
    divergence() and +, -, * do not exist); members combine by their
    coefficients, space.member(a.coeffs + b.coeffs).

    coeffs may also be an (m, dim) stack, one member per row, as a
    study's fields carry hx, hy columns: the basis is tabulated once,
    uv/div_values return one row per member and degree_bounds covers
    every row; require_single guards the code that takes one member.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: "ElementSpace", coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != space.dim or not len(coeffs):
            raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs

    @property
    def degree_bounds(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """((dx, dy) of u, (dx, dy) of v), from the labels of the nonzero coefficients."""
        live = (self.coeffs != 0.0).reshape(-1, self.space.dim).any(axis=0)
        d = self.space._label_degrees[live].max(axis=0, initial=0)
        return (int(d[0]), int(d[1])), (int(d[2]), int(d[3]))

    def uv(self, x, y):
        U, V = self.space.tabulate(x, y)
        return contract(self.coeffs, U), contract(self.coeffs, V)

    def div_values(self, x, y):
        return contract(self.coeffs, self.space.tabulate_div(x, y))

    def __repr__(self):
        return f"SpaceMember({self.space!r}, coeffs={self.coeffs!r})"


# read only by the benchmark tracer's isinstance(field, VectorPoly2D), which skips
# polynomial fields; delete it once the tracer reads degree_bounds instead
VectorPoly2D.register(SpaceMember)


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

    The basis is index data: tensor label b < len(_i) is L_i(x) L_j(y)
    with (i, j) = (_i[b], _j[b]) in component u for b < _nx and in v
    after, and the BDM curl members (exact polynomial fields in _curl)
    come last.
    """

    def __init__(self, family, k: int):
        sets = family_sets(family, k)
        self.family = _as_family(family)
        self.k = int(k)
        self.labels: Tuple[tuple, ...] = (
            tuple(("x", i, j) for i, j in sets.u) + tuple(("y", i, j) for i, j in sets.v)
            + ((("curl", 1), ("curl", 2)) if sets.curls else ()))
        self.dim = len(self.labels)
        self._nx = len(sets.u)
        self._i, self._j = np.array(sets.u + sets.v, dtype=np.intp).T.copy()
        self._curl: Tuple[VectorPoly2D, ...] = () if not sets.curls else (
            curl_scalar(Polynomial2D.monomial(self.k + 1, 1)),
            curl_scalar(Polynomial2D.monomial(1, self.k + 1)))
        # per label: (dx, dy) of its u grid, then of its v grid; -1 where it has none
        self._label_degrees = np.array(
            [(i, j, -1, -1) for i, j in sets.u] + [(-1, -1, i, j) for i, j in sets.v]
            + [(w.u.dx, w.u.dy, w.v.dx, w.v.dy) for w in self._curl], dtype=np.intp)
        self._maxdeg = int(self._label_degrees.max())

    @functools.cached_property
    def basis(self) -> List[SpaceMember]:
        return [SpaceMember(self, e) for e in np.eye(self.dim)]

    def tabulate(self, x, y):
        """Basis values (U, V), each of shape (dim,) + broadcast shape of x, y.

        The recurrences run on x and y as given, so a column and a row
        (a tensor rule's axes) cost one pass per distinct coordinate; only
        the products L_i(x) L_j(y) fill the broadcast grid.
        """
        x, y = _same_rank(x, y)
        Lx, Ly = (np.array(legendre.values(self._maxdeg, t)) for t in (x, y))
        curl = [a for w in self._curl for a in w.uv(x, y)]  # u, v of each curl member
        U = np.zeros((self.dim,) + np.broadcast(x, y).shape,
                     np.result_type(Lx, Ly, *curl))
        V = np.zeros_like(U)
        nx, nt, I, J = self._nx, len(self._i), self._i, self._j
        np.multiply(Lx[I[:nx]], Ly[J[:nx]], out=U[:nx])
        np.multiply(Lx[I[nx:]], Ly[J[nx:]], out=V[nx:nt])
        if curl:
            U[nt:], V[nt:] = curl[0::2], curl[1::2]
        return U, V

    def tabulate_div(self, x, y):
        """Basis divergences, shape (dim,) + broadcast shape of x, y; axes as in tabulate."""
        x, y = _same_rank(x, y)
        (Lx, dLx), (Ly, dLy) = (map(np.array, legendre.deriv_values(self._maxdeg, t))
                                for t in (x, y))
        nx, I, J = self._nx, self._i, self._j
        rows = np.zeros((self.dim,) + np.broadcast(x, y).shape,
                        np.result_type(Lx, Ly))
        np.multiply(dLx[I[:nx]], Ly[J[:nx]], out=rows[:nx])
        np.multiply(Lx[I[nx:]], dLy[J[nx:]], out=rows[nx:len(I)])
        return rows

    def member(self, coeffs) -> SpaceMember:
        """The member with these coefficients; an (m, dim) stack gives m members in one."""
        return SpaceMember(self, coeffs)

    def random_member(self, rng: np.random.Generator) -> SpaceMember:
        return self.member(rng.standard_normal(self.dim))

    def __repr__(self):
        return f"ElementSpace({self.family.value}, k={self.k}, dim={self.dim})"


def _same_rank(x, y):
    """x, y as arrays of one rank, each keeping its own extents: a scalar x
    with a vector y gives shapes (1,) and (m,)."""
    x, y = np.asarray(x), np.asarray(y)
    nd = max(x.ndim, y.ndim)
    return x.reshape((1,) * (nd - x.ndim) + x.shape), y.reshape((1,) * (nd - y.ndim) + y.shape)


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


def _legendre_coordinates(space: ElementSpace) -> np.ndarray:
    """Exact coordinates C[b, comp, i, j] of basis member b over L_i(x) L_j(y).

    Python numbers in an object array: tensor labels are unit
    coordinates, the BDM curl members expand with Fractions.
    """
    n = space._maxdeg + 1
    nt = len(space._i)
    C = np.zeros((space.dim, 2, n, n), dtype=object)
    C[np.arange(nt), (np.arange(nt) >= space._nx).astype(np.intp), space._i, space._j] = 1
    for c, w in enumerate(space._curl):
        for comp, p in enumerate((w.u, w.v)):
            for (i, j), val in legendre.grid_to_basis_exact(p.coeffs).items():
                C[nt + c, comp, i, j] = val
    return C


def _product_norms(n: int) -> np.ndarray:
    """Squared L2(K) norms 1 / ((2i+1)(2j+1)) of L_i(x) L_j(y), i, j < n."""
    r = 2.0 * np.arange(n) + 1.0
    return 1.0 / np.outer(r, r)


def span_check(space: ElementSpace) -> dict:
    """Certify div(space) against the declared scalar space.

    Membership is exact: basis divergences come in Legendre coordinates
    from the integer derivative matrix (Fractions only for the BDM curl
    members), and the mass outside the scalar space's index set is
    reported as an L2 residual.  Surjectivity is a rank check of the
    divergence coordinates on that index set; the index sets are
    downward closed, so the Legendre products on them span the same
    space as the monomials.
    """
    div_space = build_div_space(space.family, space.k)
    C = _legendre_coordinates(space)
    n = C.shape[-1]
    D = legendre.derivative_matrix(n)
    div = D.T @ C[:, 0] + C[:, 1] @ D
    inside = np.zeros((n, n), dtype=bool)
    rows, cols = np.array(div_space.exponents, dtype=np.intp).reshape(-1, 2).T
    inside[rows, cols] = True
    # exactly zero outside the index set for every member of the space
    outside = div[:, ~inside].astype(float)
    residuals = np.sqrt(outside**2 @ _product_norms(n)[~inside])
    failures = []
    for b, residual in enumerate(residuals.tolist()):
        if not residual <= SPAN_TOL:
            failures.append(f"basis member {space.labels[b]} leaves the scalar space "
                            f"(residual {residual:.3e})")
    A = div[:, rows, cols].astype(float)
    rank = int(np.linalg.matrix_rank(A)) if A.size else 0
    if rank < div_space.dim:
        for m, exp in enumerate(div_space.exponents):
            e = np.zeros(div_space.dim)
            e[m] = 1.0
            _, res, _, _ = np.linalg.lstsq(A.T, e, rcond=None)
            if res.size and res[0] > UNREACHED_TOL:
                failures.append(f"scalar direction L_{exp[0]}(x) L_{exp[1]}(y) not reached")
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
