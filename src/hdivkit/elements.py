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
bases are numerically singular.  A space holds its basis as index data
(component, i, j per label, plus BDM's two exact curl members) and
evaluates it by the Legendre recurrence; a member is its coefficient
vector, with monomial grids only as lazy views.  Because the Legendre
products are orthogonal and differentiate with integer coefficients,
the Gram matrix has a closed form and the div-span certificate runs in
exact arithmetic, with no monomial grids at all.
"""

from __future__ import annotations

import enum
import functools
from typing import List, Sequence, Tuple

import numpy as np

from . import legendre
from .poly import Polynomial2D, VectorPoly2D, curl_scalar

# the verified range: `check` covers every (family, k) up to here, while
# ABF_6 already misses the 1e-12 member reproduction
MAX_DEGREE = 4


class ElementFamily(enum.Enum):
    RT = "RT"
    BDM = "BDM"
    ABF = "ABF"


def _as_family(family) -> ElementFamily:
    if isinstance(family, ElementFamily):
        return family
    return ElementFamily(str(family).upper())


def _validate_degree(family: ElementFamily, k: int) -> None:
    if not isinstance(k, (int, np.integer)):
        raise TypeError("degree k must be an integer")
    if not 0 <= k <= MAX_DEGREE:
        raise ValueError(f"k must be between 0 and {MAX_DEGREE}")
    if family is ElementFamily.BDM and k == 0:
        raise ValueError("BDM requires k >= 1")


def degree_range(family, kmax: int = MAX_DEGREE) -> range:
    """The degrees k <= kmax that family supports (BDM starts at 1)."""
    return range(1 if _as_family(family) is ElementFamily.BDM else 0, kmax + 1)


def component_degrees(family: ElementFamily, k: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Maximal (x-degree, y-degree) per component, curl members included."""
    family = _as_family(family)
    if family is ElementFamily.RT:
        return (k + 1, k), (k, k + 1)
    if family is ElementFamily.BDM:
        return (k + 1, k), (k, k + 1)
    return (k + 2, k), (k, k + 2)


def space_dimension(family: ElementFamily, k: int) -> int:
    family = _as_family(family)
    if family is ElementFamily.RT:
        return 2 * (k + 1) * (k + 2)
    if family is ElementFamily.BDM:
        return (k + 1) * (k + 2) + 2
    return 2 * (k + 1) * (k + 3)


class SpaceMember(VectorPoly2D):
    """A concrete field in an element space: its basis-coefficient vector.

    uv/div_values contract the coefficients with ElementSpace.tabulate
    (the Legendre recurrence, which DOF assembly uses too), so members
    evaluate to full precision at high degree.  The monomial grids u, v
    and divergence() are lazy views for exact algebra, built on first
    access and cached; degree-6 grids lose digits to cancellation and
    must not feed quadrature.
    """

    __slots__ = ("space", "coeffs", "_grids", "_div")

    def __init__(self, space: "ElementSpace", coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
        coeffs.setflags(write=False)
        self.space = space
        self.coeffs = coeffs
        self._grids = None
        self._div = None

    @property
    def degree_bounds(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """((dx, dy) of u, (dx, dy) of v), from the labels of the nonzero coefficients."""
        d = self.space._label_degrees[self.coeffs != 0.0].max(axis=0, initial=0)
        return (int(d[0]), int(d[1])), (int(d[2]), int(d[3]))

    def _views(self) -> Tuple[Polynomial2D, Polynomial2D]:
        if self._grids is None:
            grids = tuple(np.zeros((dx + 1, dy + 1)) for dx, dy in self.degree_bounds)
            # in label order, one scaled grid per nonzero coefficient
            for b in np.flatnonzero(self.coeffs):
                c = float(self.coeffs[b])
                for g, part in zip(grids, self.space._monomial_grids(b)):
                    g[: part.shape[0], : part.shape[1]] += part * c
            self._grids = (Polynomial2D(grids[0]), Polynomial2D(grids[1]))
        return self._grids

    @property
    def u(self) -> Polynomial2D:
        return self._views()[0]

    @property
    def v(self) -> Polynomial2D:
        return self._views()[1]

    def divergence(self) -> Polynomial2D:
        if self._div is None:
            self._div = super().divergence()
        return self._div

    def uv(self, x, y):
        U, V = self.space.tabulate(x, y)
        return np.tensordot(self.coeffs, U, axes=1), np.tensordot(self.coeffs, V, axes=1)

    def __call__(self, x, y):
        return self.uv(x, y)

    def div_values(self, x, y):
        return np.tensordot(self.coeffs, self.space.tabulate_div(x, y), axes=1)


_ZERO_GRID = Polynomial2D.zero().coeffs


class ElementSpace:
    """Ordered basis of one of the reference H(div) spaces.

    The basis is index data: tensor label b < len(_i) is L_i(x) L_j(y)
    with (i, j) = (_i[b], _j[b]) in component u for b < _nx and in v
    after, and the BDM curl members (exact polynomial fields in _curl)
    come last.
    """

    def __init__(self, family, k: int):
        family = _as_family(family)
        _validate_degree(family, k)
        self.family = family
        self.k = int(k)
        self.labels: Tuple[tuple, ...] = tuple(_make_labels(family, self.k))
        self.dim = len(self.labels)
        assert self.dim == space_dimension(family, self.k)
        tensor = [lab for lab in self.labels if lab[0] != "curl"]
        self._nx = sum(lab[0] == "x" for lab in tensor)
        self._i, self._j = (np.array([lab[a] for lab in tensor], dtype=np.intp) for a in (1, 2))
        self._curl: Tuple[VectorPoly2D, ...] = () if family is not ElementFamily.BDM else (
            curl_scalar(Polynomial2D.monomial(self.k + 1, 1)),
            curl_scalar(Polynomial2D.monomial(1, self.k + 1)))
        # per label: (dx, dy) of its u grid, then of its v grid; -1 where it has none
        self._label_degrees = np.array(
            [(i, j, -1, -1) if c == "x" else (-1, -1, i, j) for c, i, j in tensor]
            + [(w.u.dx, w.u.dy, w.v.dx, w.v.dy) for w in self._curl], dtype=np.intp)
        self._maxdeg = int(self._label_degrees.max())

    @functools.cached_property
    def basis(self) -> List[SpaceMember]:
        return [SpaceMember(self, e) for e in np.eye(self.dim)]

    def _monomial_grids(self, b: int) -> Tuple[np.ndarray, np.ndarray]:
        """Monomial coefficient grids (u, v) of basis member b."""
        if b >= len(self._i):
            w = self._curl[b - len(self._i)]
            return w.u.coeffs, w.v.coeffs
        g = np.outer(legendre.coeffs(self._i[b]), legendre.coeffs(self._j[b]))
        return (g, _ZERO_GRID) if b < self._nx else (_ZERO_GRID, g)

    def tabulate(self, x, y):
        """Basis values (U, V), each of shape (dim,) + broadcast shape of x, y."""
        x, y = np.broadcast_arrays(x, y)
        Lx, Ly = (np.array(legendre.values(self._maxdeg, t)) for t in (x, y))
        rows = Lx[self._i] * Ly[self._j]
        curl = [a for w in self._curl for a in w.uv(x, y)]  # u, v of each curl member
        U = np.zeros((self.dim,) + x.shape, np.result_type(rows, *curl))
        V = np.zeros_like(U)
        nx, nt = self._nx, len(self._i)
        U[:nx], V[nx:nt] = rows[:nx], rows[nx:]
        if curl:
            U[nt:], V[nt:] = curl[0::2], curl[1::2]
        return U, V

    def tabulate_div(self, x, y):
        """Basis divergences, shape (dim,) + broadcast shape of x, y."""
        x, y = np.broadcast_arrays(x, y)
        Lx, Ly, dLx, dLy = (np.array(fn(self._maxdeg, t))
                            for fn in (legendre.values, legendre.deriv_values) for t in (x, y))
        nx, I, J = self._nx, self._i, self._j
        rows = np.zeros((self.dim,) + x.shape, Lx.dtype)
        rows[:nx] = dLx[I[:nx]] * Ly[J[:nx]]
        rows[nx:len(I)] = Lx[I[nx:]] * dLy[J[nx:]]
        return rows

    def member(self, coeffs) -> SpaceMember:
        return SpaceMember(self, coeffs)

    def random_member(self, rng: np.random.Generator) -> SpaceMember:
        return self.member(rng.standard_normal(self.dim))

    def __repr__(self):
        return f"ElementSpace({self.family.value}, k={self.k}, dim={self.dim})"


def _make_labels(family: ElementFamily, k: int):
    if family is ElementFamily.BDM:
        for i in range(k + 1):
            for j in range(k + 1 - i):
                yield ("x", i, j)
        for i in range(k + 1):
            for j in range(k + 1 - i):
                yield ("y", i, j)
        yield ("curl", 1)
        yield ("curl", 2)
        return
    (dx0, dy0), (dx1, dy1) = component_degrees(family, k)
    for i in range(dx0 + 1):
        for j in range(dy0 + 1):
            yield ("x", i, j)
    for i in range(dx1 + 1):
        for j in range(dy1 + 1):
            yield ("y", i, j)


def build_space(family, k: int) -> ElementSpace:
    return ElementSpace(family, k)


class ScalarSpace:
    """Monomial-spanned scalar space holding the divergence image."""

    def __init__(self, description: str, exponents: Sequence[Tuple[int, int]]):
        self.description = description
        self.exponents: Tuple[Tuple[int, int], ...] = tuple(exponents)
        self.dim = len(self.exponents)
        self._expset = frozenset(self.exponents)

    @functools.cached_property
    def basis(self) -> List[Polynomial2D]:
        return [Polynomial2D.monomial(i, j) for i, j in self.exponents]

    def contains_exponent(self, i: int, j: int) -> bool:
        return (i, j) in self._expset

    def __repr__(self):
        return f"ScalarSpace({self.description}, dim={self.dim})"


def build_div_space(family, k: int) -> ScalarSpace:
    family = _as_family(family)
    _validate_degree(family, k)
    if family is ElementFamily.RT:
        exps = [(i, j) for i in range(k + 1) for j in range(k + 1)]
        return ScalarSpace(f"Q_{k}", exps)
    if family is ElementFamily.BDM:
        exps = [(i, j) for i in range(k) for j in range(k - i)]
        return ScalarSpace(f"P_{k - 1}", exps)
    exps = [
        (i, j)
        for i in range(k + 2)
        for j in range(k + 2)
        if (i, j) != (k + 1, k + 1)
    ]
    return ScalarSpace(f"Q_{k + 1}-minus-corner", exps)


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


def gram_matrix(space: ElementSpace) -> np.ndarray:
    """L2(K) Gram matrix of the basis in closed form.

    Legendre products are orthogonal, so with basis coordinates C
    G = sum over components of C diag(1 / ((2i+1)(2j+1))) C^T.
    """
    n = space._maxdeg + 1
    C = _legendre_coordinates(space).astype(float).reshape(space.dim, 2, n * n)
    w = _product_norms(n).ravel()
    return sum((C[:, comp] * w) @ C[:, comp].T for comp in range(2))


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
    failures = []
    max_residual = 0.0
    for b, residual in enumerate(np.sqrt(outside**2 @ _product_norms(n)[~inside]).tolist()):
        max_residual = max(max_residual, residual)
        if residual > 1e-12:
            failures.append(f"basis member {space.labels[b]} leaves the scalar space "
                            f"(residual {residual:.3e})")
    A = div[:, rows, cols].astype(float)
    rank = int(np.linalg.matrix_rank(A)) if A.size else 0
    if rank < div_space.dim:
        for m, exp in enumerate(div_space.exponents):
            e = np.zeros(div_space.dim)
            e[m] = 1.0
            _, res, _, _ = np.linalg.lstsq(A.T, e, rcond=None)
            if res.size and res[0] > 1e-18:
                failures.append(f"scalar direction L_{exp[0]}(x) L_{exp[1]}(y) not reached")
    return {
        "family": space.family.value,
        "k": space.k,
        "div_space": div_space.description,
        "max_residual": max_residual,
        "rank": rank,
        "div_dim": div_space.dim,
        "surjective": rank == div_space.dim,
        "failures": failures,
        "ok": not failures and rank == div_space.dim,
    }
