"""Bivariate polynomials on dense monomial coefficient grids.

A polynomial is stored as a grid ``c[i, j]`` representing
``sum_{i,j} c[i, j] x**i y**j``.  Degrees stay small in this package
(at most a handful per direction), so the dense representation is both
the simplest and the fastest choice.  Evaluation accepts scalars or
arrays of any float dtype and preserves the dtype, which the rest of
the package relies on for extended-precision quadrature.  The package
reads them as exact data only (BDM's curl members, the BDM sharpness
witness); space members are Legendre coefficients (elements.SpaceMember).
"""

from __future__ import annotations

import abc

import numpy as np

# Hard cap on the exponent per direction.  The highest degree used by the
# element spaces is 6 per direction; 16 leaves headroom while keeping
# coefficient grids tiny.
MAX_EXPONENT = 16


def _as_grid(coeffs) -> np.ndarray:
    c = np.array(coeffs, dtype=float, ndmin=2)
    if c.ndim != 2:
        raise ValueError("coefficient grid must be two-dimensional")
    if c.shape[0] - 1 > MAX_EXPONENT or c.shape[1] - 1 > MAX_EXPONENT:
        raise ValueError(
            f"exponent bound exceeded: grid shape {c.shape}, max exponent {MAX_EXPONENT}"
        )
    return c


class Polynomial2D:
    """Polynomial ``sum c[i, j] x**i y**j`` with declared degree bounds.

    The declared bounds ``dx, dy`` come from the grid shape; trailing zero
    rows or columns are kept as given rather than trimmed, so degree
    queries report the declared bounds.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _as_grid(coeffs)
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
        """Evaluate by nested Horner recursion, dtype-preserving.

        Each row's Horner sum in y runs on y's own shape, so axes (a column
        x and a row y) cost one pass per distinct y; only the outer
        recursion fills the broadcast shape, with the same operations per
        point as on broadcast points.
        """
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
        oc = other.coeffs
        sc = self.coeffs
        nx = max(sc.shape[0], oc.shape[0])
        ny = max(sc.shape[1], oc.shape[1])
        out = np.zeros((nx, ny))
        out[: sc.shape[0], : sc.shape[1]] = sc
        out[: oc.shape[0], : oc.shape[1]] += sign * oc
        return Polynomial2D(out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, other):
        if isinstance(other, Polynomial2D):
            a, b = self.coeffs, other.coeffs
            out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
            if out.shape[0] - 1 > MAX_EXPONENT or out.shape[1] - 1 > MAX_EXPONENT:
                raise ValueError("product exceeds the exponent bound")
            for i in range(a.shape[0]):
                for j in range(a.shape[1]):
                    if a[i, j] != 0.0:
                        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
            return Polynomial2D(out)
        return Polynomial2D(self.coeffs * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial2D(-self.coeffs)

    def __repr__(self):
        return f"Polynomial2D(dx={self.dx}, dy={self.dy})"


class VectorPoly2D(abc.ABC):
    """Vector field (u, v) with polynomial components; an ABC so that elements can
    register SpaceMember, which is no subclass, as a virtual one."""

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
        """divergence(self) sampled at points."""
        return divergence(self).eval(x, y)

    def __repr__(self):
        return f"VectorPoly2D(u={self.u!r}, v={self.v!r})"


def divergence(w: VectorPoly2D) -> Polynomial2D:
    """du/dx + dv/dy as an exact formal derivative."""
    return w.u.partial("x", 1) + w.v.partial("y", 1)


def curl_scalar(phi: Polynomial2D) -> VectorPoly2D:
    """(dphi/dy, -dphi/dx); divergence-free by mixed-partial symmetry."""
    return VectorPoly2D(phi.partial("y", 1), -phi.partial("x", 1))

