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
bases are numerically singular.  Members carry both an exact
coefficient grid (for polynomial algebra) and a recurrence evaluation
path (for quadrature-grade accuracy at high degree).
"""

from __future__ import annotations

import enum
import warnings
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import legendre
from .poly import Polynomial2D, VectorPoly2D, curl_scalar, integrate_rect

MAX_DEGREE = 8


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
    if k < 0:
        raise ValueError("degree k must be non-negative")
    if family is ElementFamily.BDM and k == 0:
        raise ValueError("BDM requires k >= 1")
    if k > MAX_DEGREE:
        raise ValueError(f"degree k must be <= {MAX_DEGREE}")


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
    """A concrete field in an element space.

    Inherits the polynomial-grid form (u, v) for exact algebra and adds
    the basis-coefficient vector.  uv/div_values contract the
    coefficients with ElementSpace.tabulate, which evaluates the basis
    by the Legendre recurrence (DOF assembly uses it too), so that
    high-degree members evaluate to full precision; the coefficient
    grids of degree-6 products lose several digits to cancellation and
    must not feed quadrature.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: "ElementSpace", coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} coefficients, got {coeffs.shape}")
        coeffs.setflags(write=False)
        u = Polynomial2D.zero()
        v = Polynomial2D.zero()
        for c, (pu, pv) in zip(coeffs, space._grids):
            if c == 0.0:
                continue
            u = u + pu * float(c)
            v = v + pv * float(c)
        super().__init__(u, v)
        self.space = space
        self.coeffs = coeffs

    def uv(self, x, y):
        U, V = self.space.tabulate(x, y)
        return np.tensordot(self.coeffs, U, axes=1), np.tensordot(self.coeffs, V, axes=1)

    def __call__(self, x, y):
        return self.uv(x, y)

    def div_values(self, x, y):
        return np.tensordot(self.coeffs, self.space.tabulate_div(x, y), axes=1)


class ElementSpace:
    """Ordered basis of one of the reference H(div) spaces."""

    def __init__(self, family, k: int):
        family = _as_family(family)
        _validate_degree(family, k)
        self.family = family
        self.k = int(k)
        self.labels: Tuple[tuple, ...] = tuple(_make_labels(family, self.k))
        self._grids: List[Tuple[Polynomial2D, Polynomial2D]] = []
        self._curl_fields: List[VectorPoly2D] = []
        zero = Polynomial2D.zero()
        for lab in self.labels:
            if lab[0] == "x":
                self._grids.append((legendre.product_poly(lab[1], lab[2]), zero))
            elif lab[0] == "y":
                self._grids.append((zero, legendre.product_poly(lab[1], lab[2])))
            else:
                if lab[1] == 1:
                    w = curl_scalar(Polynomial2D.monomial(self.k + 1, 1))
                else:
                    w = curl_scalar(Polynomial2D.monomial(1, self.k + 1))
                self._curl_fields.append(w)
                self._grids.append((w.u, w.v))
        self.dim = len(self.labels)
        assert self.dim == space_dimension(family, self.k)
        d0, d1 = component_degrees(family, self.k)
        self.comp_degrees = (d0, d1)
        self._maxdeg = max(d0[0], d0[1], d1[0], d1[1])
        self.basis: List[SpaceMember] = [
            SpaceMember(self, np.eye(self.dim)[b]) for b in range(self.dim)
        ]

    def tabulate(self, x, y):
        """Basis values (U, V), each of shape (dim,) + broadcast shape of x, y."""
        x, y = np.broadcast_arrays(x, y)
        Lx = legendre.values(self._maxdeg, x)
        Ly = legendre.values(self._maxdeg, y)
        zero = np.zeros_like(Lx[0])
        U, V = [], []
        for lab in self.labels:
            if lab[0] == "curl":
                w = self._curl_fields[lab[1] - 1]
                U.append(w.u.eval(x, y))
                V.append(w.v.eval(x, y))
            else:
                row = Lx[lab[1]] * Ly[lab[2]]
                U.append(row if lab[0] == "x" else zero)
                V.append(zero if lab[0] == "x" else row)
        return np.array(U), np.array(V)

    def tabulate_div(self, x, y):
        """Basis divergences, shape (dim,) + broadcast shape of x, y."""
        x, y = np.broadcast_arrays(x, y)
        Lx = legendre.values(self._maxdeg, x)
        Ly = legendre.values(self._maxdeg, y)
        dLx = legendre.deriv_values(self._maxdeg, x)
        dLy = legendre.deriv_values(self._maxdeg, y)
        rows = []
        for lab in self.labels:
            if lab[0] == "x":
                rows.append(dLx[lab[1]] * Ly[lab[2]])
            elif lab[0] == "y":
                rows.append(Lx[lab[1]] * dLy[lab[2]])
            else:
                rows.append(np.zeros_like(Lx[0]))
        return np.array(rows)

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
        self.basis: List[Polynomial2D] = [
            Polynomial2D.monomial(i, j) for i, j in self.exponents
        ]
        self.dim = len(self.basis)
        self._expset = frozenset(self.exponents)

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


def gram_matrix(space: ElementSpace) -> np.ndarray:
    """Exact L2(K) Gram matrix of the basis (closed-form integrals)."""
    n = space.dim
    G = np.empty((n, n))
    for a in range(n):
        ua, va = space._grids[a]
        for b in range(a, n):
            ub, vb = space._grids[b]
            G[a, b] = integrate_rect(ua * ub, 1.0, 1.0) + integrate_rect(va * vb, 1.0, 1.0)
            G[b, a] = G[a, b]
    return G


def span_check(space: ElementSpace) -> dict:
    """Certify div(space) against the declared scalar space.

    Membership is exact: each basis divergence is expanded over
    orthogonal Legendre products with rational arithmetic and the mass
    outside the scalar space's index set is reported as an L2 residual.
    Surjectivity is a rank check of the divergence coefficient map.
    """
    div_space = build_div_space(space.family, space.k)
    allowed = set()
    for i, j in div_space.exponents:
        allowed.add((i, j))
    failures = []
    max_residual = 0.0
    rows = []
    nexp = {e: a for a, e in enumerate(div_space.exponents)}
    for b, member in enumerate(space.basis):
        d = member.u.partial("x", 1) + member.v.partial("y", 1)
        coeffs = legendre.grid_to_basis_exact(d.coeffs)
        res2 = Fraction(0)
        for (i, j), c in coeffs.items():
            if (i, j) not in allowed:
                res2 += c * c * Fraction(1, (2 * i + 1) * (2 * j + 1))
        residual = float(res2) ** 0.5
        max_residual = max(max_residual, residual)
        if residual > 1e-12:
            failures.append(f"basis member {space.labels[b]} leaves the scalar space "
                            f"(residual {residual:.3e})")
        row = np.zeros(div_space.dim)
        g = d.coeffs
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                if g[i, j] != 0.0 and (i, j) in nexp:
                    row[nexp[(i, j)]] = g[i, j]
        rows.append(row)
    A = np.array(rows)
    rank = int(np.linalg.matrix_rank(A)) if A.size else 0
    if rank < div_space.dim:
        for m, exp in enumerate(div_space.exponents):
            e = np.zeros(div_space.dim)
            e[m] = 1.0
            _, res, _, _ = np.linalg.lstsq(A.T, e, rcond=None)
            if res.size and res[0] > 1e-18:
                failures.append(f"scalar direction x^{exp[0]} y^{exp[1]} not reached")
    G = gram_matrix(space)
    gram_cond = float(np.linalg.cond(G))
    if gram_cond > 1e12:
        warnings.warn(
            f"{space.family.value}_{space.k} basis Gram condition {gram_cond:.3e}",
            RuntimeWarning,
        )
    return {
        "family": space.family.value,
        "k": space.k,
        "div_space": div_space.description,
        "max_residual": max_residual,
        "rank": rank,
        "div_dim": div_space.dim,
        "surjective": rank == div_space.dim,
        "gram_cond": gram_cond,
        "failures": failures,
        "ok": not failures and rank == div_space.dim,
    }
