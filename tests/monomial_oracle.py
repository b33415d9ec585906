"""Monomial polynomials and the monomial grids of element-space members,
the bit-exact test oracle.

Members and projections hold Legendre-product coefficients only, and the
library has no monomial polynomial at all; tests that need exact monomial
algebra (products, formal partials, the divergence and the curl) build
the grids here from the labels or the coefficients, never from the
member.  Polynomial2D is a dense monomial grid with +, -, * and
negation, VectorPoly2D a pair of them with the field interface the
library reads (factor_sample, degree_bounds) and pointwise uv and
div_values of its own, and the shifted Legendre polynomials expand into
monomials and back in exact rationals.
"""

import functools
import math
from fractions import Fraction

import numpy as np

# Hard cap on the exponent per direction.  The highest degree used by the
# element spaces is 6 per direction; 16 leaves headroom while keeping
# coefficient grids tiny.
MAX_EXPONENT = 16


class Polynomial2D:
    """Polynomial ``sum c[i, j] x**i y**j`` on a dense coefficient grid.

    The declared bounds ``dx, dy`` come from the grid shape; trailing zero
    rows or columns are kept as given rather than trimmed, so degree
    queries report the declared bounds.  Evaluation preserves the dtype of
    its arguments (extended precision in, extended precision out).  The
    algebra is exact on the grids: +, - and * (by a polynomial or a
    number) and negation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float, ndmin=2)
        if c.ndim != 2:
            raise ValueError("coefficient grid must be two-dimensional")
        if c.shape[0] - 1 > MAX_EXPONENT or c.shape[1] - 1 > MAX_EXPONENT:
            raise ValueError(
                f"exponent bound exceeded: grid shape {c.shape}, max exponent {MAX_EXPONENT}"
            )
        c.setflags(write=False)
        self.coeffs = c

    @property
    def dx(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dy(self) -> int:
        return self.coeffs.shape[1] - 1

    @classmethod
    def zero(cls) -> "Polynomial2D":
        return cls([[0.0]])

    @classmethod
    def monomial(cls, i: int, j: int, coef: float = 1.0) -> "Polynomial2D":
        if i < 0 or j < 0:
            raise ValueError("exponents must be non-negative")
        c = np.zeros((i + 1, j + 1))
        c[i, j] = coef
        return cls(c)

    def eval(self, x, y):
        """Evaluate by nested Horner recursion, dtype-preserving; each row's
        sum in y runs on y's own shape, so axes cost one pass per distinct y."""
        x = np.asarray(x)
        y = np.asarray(y)
        dt = np.result_type(x.dtype, y.dtype, np.float64)
        c = self.coeffs.astype(dt)
        acc = np.zeros(x.shape, dtype=dt)
        for i in range(c.shape[0] - 1, -1, -1):
            row = np.zeros(y.shape, dtype=dt)
            for j in range(c.shape[1] - 1, -1, -1):
                row = row * y + c[i, j]
            acc = acc * x + row
        return acc[()]

    def factors(self, x, y):
        """Factor pairs, one term per row i of the grid: x^i at the nodes x
        against sum_j c[i, j] y^j at the nodes y, shapes (..., dx + 1, n)."""
        x, y = np.asarray(x), np.asarray(y)
        dt = np.result_type(x.dtype, y.dtype, np.float64)
        c = self.coeffs.astype(dt)
        X = np.stack([x.astype(dt) ** i for i in range(len(c))], axis=-2)
        Y = np.zeros(y.shape[:-1] + (len(c), y.shape[-1]), dtype=dt)
        for j in range(c.shape[1] - 1, -1, -1):
            Y = Y * y[..., None, :] + c[:, j, None]
        return X, Y

    def partial(self, direction: str, order: int = 1) -> "Polynomial2D":
        """Formal partial derivative; degree bound floored at 0."""
        if direction not in ("x", "y"):
            raise ValueError("direction must be 'x' or 'y'")
        if order < 0:
            raise ValueError("order must be non-negative")
        c = self.coeffs
        for _ in range(order):
            if direction == "x":
                if c.shape[0] == 1:
                    c = np.zeros((1, c.shape[1]))
                    break
                c = c[1:, :] * np.arange(1, c.shape[0])[:, None]
            else:
                if c.shape[1] == 1:
                    c = np.zeros((c.shape[0], 1))
                    break
                c = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
        return Polynomial2D(c)

    def _binary(self, other, sign):
        sc, oc = self.coeffs, other.coeffs
        out = np.zeros((max(sc.shape[0], oc.shape[0]), max(sc.shape[1], oc.shape[1])))
        out[: sc.shape[0], : sc.shape[1]] = sc
        out[: oc.shape[0], : oc.shape[1]] += sign * oc
        return Polynomial2D(out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, other):
        if not isinstance(other, Polynomial2D):
            return Polynomial2D(self.coeffs * float(other))
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return Polynomial2D(out)

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial2D(-self.coeffs)

    def __repr__(self):
        return f"Polynomial2D(dx={self.dx}, dy={self.dy})"


class VectorPoly2D:
    """Vector field (u, v) with Polynomial2D components."""

    __slots__ = ("u", "v")

    def __init__(self, u: Polynomial2D, v: Polynomial2D):
        self.u = u
        self.v = v

    @property
    def degree_bounds(self):
        """((dx, dy) of u, (dx, dy) of v), which sizes exact DOF quadrature."""
        return (self.u.dx, self.u.dy), (self.v.dx, self.v.dy)

    def uv(self, x, y):
        return self.u.eval(x, y), self.v.eval(x, y)

    def div_values(self, x, y):
        """du/dx + dv/dy sampled at points, from the formal partials."""
        return self.u.partial("x").eval(x, y) + self.v.partial("y").eval(x, y)

    def factor_sample(self, x, y):
        """u, v and div as factor pairs, each padded with zero terms to one count,
        then set side by side on a component axis: X and Y of shape (..., r, 3, n)."""
        ux, vx = self.u.partial("x").factors(x, y), self.v.partial("y").factors(x, y)
        div = tuple(np.concatenate(fs, axis=-2) for fs in zip(ux, vx))
        pairs = (self.u.factors(x, y), self.v.factors(x, y), div)
        r = max(X.shape[-2] for X, _ in pairs)
        return tuple(np.stack([np.concatenate([F, np.zeros(F.shape[:-2] + (r - F.shape[-2],)
                                                           + F.shape[-1:], F.dtype)], axis=-2)
                               for F in fs], axis=-2) for fs in zip(*pairs))

    def __repr__(self):
        return f"VectorPoly2D(u={self.u!r}, v={self.v!r})"


def divergence(w: VectorPoly2D) -> Polynomial2D:
    """du/dx + dv/dy as an exact formal derivative."""
    return w.u.partial("x") + w.v.partial("y")


def curl_scalar(phi: Polynomial2D) -> VectorPoly2D:
    """(dphi/dy, -dphi/dx); divergence-free by mixed-partial symmetry."""
    return VectorPoly2D(phi.partial("y"), -phi.partial("x"))


@functools.lru_cache(maxsize=None)
def coeffs_frac(n: int) -> tuple:
    """Monomial coefficients of the degree-n shifted Legendre polynomial,
    exact: coef[m] = (-1)**(n+m) * C(n, m) * C(n+m, m)."""
    return tuple(
        Fraction((-1) ** (n + m) * math.comb(n, m) * math.comb(n + m, m))
        for m in range(n + 1)
    )


@functools.lru_cache(maxsize=None)
def coeffs(n: int) -> np.ndarray:
    """coeffs_frac(n) as doubles, which hold these integers exactly."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    c = np.array(coeffs_frac(n), dtype=float)
    c.setflags(write=False)
    return c


@functools.lru_cache(maxsize=None)
def power_moment(a: int, n: int) -> Fraction:
    """Exact integral over [0,1] of t**a * L_n(t)."""
    return sum((c * Fraction(1, a + m + 1) for m, c in enumerate(coeffs_frac(n))), Fraction(0))


@functools.lru_cache(maxsize=None)
def monomial_in_basis(a: int) -> tuple:
    """Exact expansion t**a = sum_i b[i] L_i(t); returns b[0..a] as Fractions."""
    return tuple((2 * i + 1) * power_moment(a, i) for i in range(a + 1))


def grid_to_basis_exact(grid) -> dict:
    """Expand a coefficient grid over products L_i(x) L_j(y), exactly.

    The grid entries are converted to Fractions (doubles are exact
    rationals), so a polynomial that truly lies in a Legendre-product
    span comes out with exactly zero coefficients outside it.
    """
    grid = np.asarray(grid, dtype=float)
    nx, ny = grid.shape
    out: dict = {}
    for a in range(nx):
        bx = monomial_in_basis(a)
        for b in range(ny):
            g = grid[a, b]
            if g == 0.0:
                continue
            gf = Fraction(g)
            by = monomial_in_basis(b)
            for i in range(a + 1):
                if bx[i] == 0:
                    continue
                for j in range(b + 1):
                    if by[j] == 0:
                        continue
                    key = (i, j)
                    out[key] = out.get(key, Fraction(0)) + gf * bx[i] * by[j]
    return {k: v for k, v in out.items() if v != 0}


def product_poly(i: int, j: int) -> Polynomial2D:
    """L_i(x) * L_j(y) as a Polynomial2D with exact integer grid."""
    return Polynomial2D(np.outer(coeffs(i), coeffs(j)))


def reference_grids(space, coeffs):
    """Sum of c_b times the monomial grid of label b, in label order; curl
    label (i, j) is the monomial curl of product_poly(i, j)."""
    u = v = Polynomial2D.zero()
    for c, (kind, i, j) in zip(coeffs, space.labels):
        if c == 0.0:
            continue
        if kind == "x":
            u = u + product_poly(i, j) * float(c)
        elif kind == "y":
            v = v + product_poly(i, j) * float(c)
        else:
            w = curl_scalar(product_poly(i, j))
            u = u + w.u * float(c)
            v = v + w.v * float(c)
    return u, v


def reference_field(member) -> VectorPoly2D:
    """The single member as a monomial field, from reference_grids."""
    assert np.ndim(member.coeffs) == 1, "one member, not a stack"
    return VectorPoly2D(*reference_grids(member.space, member.coeffs))


def integrate_rect(p: Polynomial2D, hx: float, hy: float) -> float:
    """Integral of p over [0, hx] x [0, hy] from the monomial closed form."""
    if hx <= 0 or hy <= 0:
        raise ValueError("rectangle dimensions must be positive")
    c = p.coeffs
    i = np.arange(1, c.shape[0] + 1, dtype=float)
    j = np.arange(1, c.shape[1] + 1, dtype=float)
    return float(np.sum(c * np.outer(hx**i / i, hy**j / j)))


def project(proj, w) -> Polynomial2D:
    """proj's projection of w as a monomial grid, summed from
    proj.coeffs_internal(w) in sorted (i, j) order."""
    c = proj.coeffs_internal(w)
    out = Polynomial2D.zero()
    for ij in sorted(c):
        if c[ij] != 0.0:
            out = out + product_poly(*ij) * c[ij]
    return out


def monomial_basis(scalar_space) -> list:
    """The monomials x^i y^j of scalar_space.exponents, in order."""
    return [Polynomial2D.monomial(i, j) for i, j in scalar_space.exponents]


def scale_arguments(p: Polynomial2D, ax: float, ay: float) -> Polynomial2D:
    """q(x, y) = p(ax*x, ay*y) via coefficient scaling."""
    i = np.arange(p.coeffs.shape[0], dtype=float)
    j = np.arange(p.coeffs.shape[1], dtype=float)
    return Polynomial2D(p.coeffs * np.outer(ax**i, ay**j))


def pull_back(fld: VectorPoly2D, hx: float, hy: float) -> VectorPoly2D:
    """The Piola pull-back (hy u . F, hx v . F) of a monomial field to the
    reference square, F(x, y) = (hx x, hy y), by coefficient scaling."""
    return VectorPoly2D(scale_arguments(fld.u, hx, hy) * hy, scale_arguments(fld.v, hx, hy) * hx)
