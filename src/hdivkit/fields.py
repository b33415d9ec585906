"""Manufactured vector fields with closed-form partial derivatives.

Each component of a manufactured field is one term: a product fx(x) fy(y)
of 1-D factors (1, the coordinate, exp, sin or cos of pi z) or a plane
wave g(a x + b y) with g in sin, cos, exp.  Asked for a partial (a1, a2),
a term returns its closed form, or None where it vanishes identically, so
the partials (up to total order 6, enough for the rate k+2 at k = 4) and
the structural zeros the rate predictions read share one description.
The divergence is assembled from component partials.

The fixed ids used by the refinement studies:

    MS-G  generic smooth field (all derivatives active)
    MS-X  div depends on x only (isolates the h_x terms)
    MS-Y  div depends on y only (isolates the h_y terms)
    MS-P  a random element-space member mapped to the physical rectangle
"""

from __future__ import annotations

import functools
import os
from typing import Callable, List, Optional

import numpy as np

from .elements import SpaceMember, build_space, check_choice, require_single

HALF_PI = np.pi / 2.0
MAX_PARTIAL_ORDER = 6
DEFAULT_SEED = 42

# (a1, a2) -> the partial d^{a1}_x d^{a2}_y, or None where it vanishes identically
Term = Callable[[int, int], Optional[Callable]]


def env_seed() -> int:
    """Seed for randomized members, from HDIV_SEED (default 42).

    Raises ValueError naming the variable unless it holds an integer >= 0.
    """
    raw = os.environ.get("HDIV_SEED", "")
    if not raw.strip():
        return DEFAULT_SEED
    error = ValueError(f"HDIV_SEED must be a non-negative integer, got {raw!r}")
    try:
        seed = int(raw)
    except ValueError:
        raise error from None
    if seed < 0:
        raise error
    return seed


def check_seed(seed: Optional[int]) -> None:
    """Raise ValueError unless seed is None or an integer >= 0."""
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _zero_fn(x, y):
    """Zeros of the points' broadcast shape, in x's float type (double otherwise)."""
    x = np.asarray(x)
    return np.zeros(np.broadcast(x, y).shape,
                    x.dtype if x.dtype.kind == "f" else float)


def _factor(kind: str, n: int) -> Optional[Callable]:
    """The n-th derivative of a 1-D factor, or None where it vanishes identically.

    kind is "1", "z" (the coordinate), "exp", or "sin" / "cos" of pi z,
    whose phases implement d/dz sin(z) = sin(z + pi/2).
    """
    if kind == "exp":
        return np.exp
    if kind in ("sin", "cos"):
        g = np.sin if kind == "sin" else np.cos
        return lambda z: np.pi**n * g(np.pi * np.asarray(z) + n * HALF_PI)
    degree = ("1", "z").index(kind)  # the monomials z^0 and z^1
    if n > degree:
        return None
    return np.ones_like if n == degree else np.asarray


def separable(fx: str, fy: str) -> Term:
    """The term fx(x) * fy(y) of two 1-D factors (kinds as in _factor)."""

    @functools.lru_cache(maxsize=None)
    def term(a1: int, a2: int) -> Optional[Callable]:
        px, py = _factor(fx, a1), _factor(fy, a2)
        if px is None or py is None:
            return None
        return lambda x, y: px(x) * py(y)

    return term


def _times(c: int, z):
    return z if c == 1 else c * z  # skips the exact product by 1


def wave(g: str, a: int, b: int) -> Term:
    """The plane-wave term g(a x + b y), g in sin, cos, exp, with a, b nonzero."""
    fn = getattr(np, g)

    @functools.lru_cache(maxsize=None)
    def term(a1: int, a2: int) -> Callable:
        amp = a**a1 * b**a2

        def f(x, y):
            t = _times(a, np.asarray(x)) + _times(b, np.asarray(y))
            return _times(amp, fn(t) if g == "exp" else fn(t + (a1 + a2) * HALF_PI))

        return f

    return term


def zero(a1: int, a2: int) -> None:
    """The identically zero component."""
    return None


class ManufacturedField:
    """Smooth field on the plane: one term per component.

    partial(a1, a2, comp) returns a vectorized callable for
    d^{a1+a2} u_comp / dx^{a1} dy^{a2}.  deriv_nonzero reads the same
    term's answer, so a flag is False exactly when the partial vanishes
    by construction, and rate predictions see every structural zero.
    """

    def __init__(self, fid: str, u: Term, v: Term):
        self.id = fid
        self._terms = (u, v)

    def _term(self, a1: int, a2: int, comp: int) -> Optional[Callable]:
        if comp not in (0, 1):
            raise ValueError("component must be 0 or 1")
        return self._terms[comp](a1, a2)

    def partial(self, a1: int, a2: int, comp: int) -> Callable:
        if a1 < 0 or a2 < 0 or a1 + a2 > MAX_PARTIAL_ORDER:
            raise ValueError("partial order out of the supported range")
        return self._term(a1, a2, comp) or _zero_fn

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        return self._term(a1, a2, comp) is not None

    def div_deriv_nonzero(self, a1: int, a2: int) -> bool:
        return self.deriv_nonzero(a1 + 1, a2, 0) or self.deriv_nonzero(a1, a2 + 1, 1)

    def uv(self, x, y):
        return self.partial(0, 0, 0)(x, y), self.partial(0, 0, 1)(x, y)

    def div_values(self, x, y):
        return self.partial(1, 0, 0)(x, y) + self.partial(0, 1, 1)(x, y)

    def __repr__(self):
        return f"ManufacturedField({self.id})"


MS_G = ManufacturedField("MS-G", separable("sin", "cos"), separable("z", "exp"))
MS_X = ManufacturedField("MS-X", separable("sin", "1"), zero)
MS_Y = ManufacturedField("MS-Y", zero, separable("1", "sin"))
_B2 = ManufacturedField("B-2", separable("cos", "sin"), separable("exp", "z"))
_B3 = ManufacturedField("B-3", wave("exp", 1, 1), wave("sin", 1, -1))
_B4 = ManufacturedField("B-4", separable("z", "exp"), separable("exp", "z"))
_B5 = ManufacturedField("B-5", wave("sin", 2, 1), wave("cos", 1, -2))


def commuting_battery() -> List[ManufacturedField]:
    """The five smooth fields used by the commuting-diagram checks."""
    return [MS_G, _B2, _B3, _B4, _B5]


class ReproductionField:
    """MS-P: a fixed reference-space member, realized on each rectangle.

    The physical field at study level j is the contravariant image of
    the same reference member on that level's rectangle, so the
    interpolation error is zero up to roundoff at every level.

    Structural flags come from the labels of the nonzero coefficients,
    with no cutoff: a partial d^{a1}_x d^{a2}_y is nonzero exactly when
    such a label reaches a Legendre coordinate (i, j) with i >= a1 and
    j >= a2.  Tensor labels own distinct coordinates, and no P_k label
    cancels the top coordinate of a BDM curl monomial (total degree k+1).
    """

    id = "MS-P"

    def __init__(self, member: SpaceMember):
        self.member = require_single(member, "ReproductionField")
        space = member.space
        live = member.coeffs != 0.0
        self._reach = space._label_degrees[live]  # (dx, dy) of u, then of v
        # d/dx L_i reaches L_{i-1} (legendre.derivative_matrix), so div reaches
        # (i-1, j) from a u label and (i, j-1) from a v label; curls are div-free
        in_u = (np.arange(len(space._i)) < space._nx).astype(np.intp)
        div_reach = np.stack([space._i - in_u, space._j - (1 - in_u)], axis=1)
        self._div_reach = div_reach[live[: len(space._i)]]

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        return _reaches(self._reach[:, 2 * comp: 2 * comp + 2], a1, a2)

    def div_deriv_nonzero(self, a1: int, a2: int) -> bool:
        return _reaches(self._div_reach, a1, a2)

    def __repr__(self):
        return f"ReproductionField({self.member.space!r})"


def _reaches(reach: np.ndarray, a1: int, a2: int) -> bool:
    return bool(np.any((reach[:, 0] >= a1) & (reach[:, 1] >= a2)))


def make_reproduction_field(family, k: int, seed: Optional[int] = None) -> ReproductionField:
    space = build_space(family, k)
    check_seed(seed)
    rng = np.random.default_rng(env_seed() if seed is None else seed)
    return ReproductionField(space.random_member(rng))


class FieldStack:
    """Several fields as one: uv and div_values return one row per field,
    each the values of that field's own call, so one DOF-vector call and
    one stacked solve interpolate them all with every field's own bits."""

    def __init__(self, fields):
        self.fields = tuple(fields)

    def uv(self, x, y):
        U, V = zip(*(f.uv(x, y) for f in self.fields))
        return _rows(U, x, y), _rows(V, x, y)

    def div_values(self, x, y):
        return _rows([f.div_values(x, y) for f in self.fields], x, y)


def _rows(values, x, y):
    """One row per field's values, each broadcast to the points' shape."""
    shape = np.broadcast(x, y).shape
    return np.stack([np.broadcast_to(v, shape) for v in values])


class CallableField:
    """Adapter giving plain callables the field protocol (uv, div_values)."""

    def __init__(self, uv_fn: Callable, div_fn: Optional[Callable] = None, fid: str = "custom"):
        self.id = fid
        self._uv = uv_fn
        self._div = div_fn

    def uv(self, x, y):
        return self._uv(x, y)

    def div_values(self, x, y):
        if self._div is None:
            raise ValueError(f"field {self.id!r} has no divergence callable")
        return self._div(x, y)


_MANUFACTURED = {"MS-G": MS_G, "MS-X": MS_X, "MS-Y": MS_Y}
FIELD_IDS = (*_MANUFACTURED, "MS-P")


def get_field(fid: str, family=None, k: Optional[int] = None, seed: Optional[int] = None):
    """Look up a study field by id; MS-P requires family and degree."""
    check_choice("field", fid, FIELD_IDS)
    if fid in _MANUFACTURED:
        return _MANUFACTURED[fid]
    if family is None or k is None:
        raise ValueError("MS-P requires an element family and degree")
    return make_reproduction_field(family, k, seed)
