"""Manufactured vector fields with closed-form partial derivatives.

Every field knows its components, any partial derivative up to total
order 6 (enough for the highest predicted rate k+2 at k = 4), and which
derivatives vanish identically.  The divergence and its derivatives are
assembled from component partials, so the two can never drift apart.

The fixed ids used by the refinement studies:

    MS-G  generic smooth field (all derivatives active)
    MS-X  div depends on x only (isolates the h_x terms)
    MS-Y  div depends on y only (isolates the h_y terms)
    MS-P  a random element-space member mapped to the physical rectangle
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional

import numpy as np

from .elements import ElementSpace, SpaceMember, build_space

HALF_PI = np.pi / 2.0
MAX_PARTIAL_ORDER = 6
DEFAULT_SEED = 42


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


class ManufacturedField:
    """Smooth field on the plane with analytic partials.

    partial(a1, a2, comp) returns a vectorized callable for
    d^{a1+a2} u_comp / dx^{a1} dy^{a2}; deriv_nonzero mirrors it
    symbolically so rate predictions can see structural zeros.
    """

    def __init__(self, fid: str, partial_fn: Callable, nonzero_fn: Callable):
        self.id = fid
        self._partial = partial_fn
        self._nonzero = nonzero_fn

    def partial(self, a1: int, a2: int, comp: int) -> Callable:
        if a1 < 0 or a2 < 0 or a1 + a2 > MAX_PARTIAL_ORDER:
            raise ValueError("partial order out of the supported range")
        if comp not in (0, 1):
            raise ValueError("component must be 0 or 1")
        return self._partial(a1, a2, comp)

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        return bool(self._nonzero(a1, a2, comp))

    def div_deriv_nonzero(self, a1: int, a2: int) -> bool:
        return self.deriv_nonzero(a1 + 1, a2, 0) or self.deriv_nonzero(a1, a2 + 1, 1)

    def eval(self, x, y):
        return self.partial(0, 0, 0)(x, y), self.partial(0, 0, 1)(x, y)

    def uv(self, x, y):
        return self.eval(x, y)

    def __call__(self, x, y):
        return self.eval(x, y)

    def div_eval(self, x, y):
        return self.partial(1, 0, 0)(x, y) + self.partial(0, 1, 1)(x, y)

    def div_values(self, x, y):
        return self.div_eval(x, y)

    def __repr__(self):
        return f"ManufacturedField({self.id})"


def _zero_fn(x, y):
    x = np.asarray(x)
    return np.zeros_like(np.asarray(x, dtype=x.dtype if x.dtype.kind == "f" else float))


# Separable building blocks; phases implement d/dz sin(z) = sin(z + pi/2).

def _sin_deriv(freq: float, order: int) -> Callable:
    def f(z):
        return freq**order * np.sin(freq * np.asarray(z) + order * HALF_PI)

    return f


def _cos_deriv(freq: float, order: int) -> Callable:
    def f(z):
        return freq**order * np.cos(freq * np.asarray(z) + order * HALF_PI)

    return f


def _product(fx: Callable, fy: Callable) -> Callable:
    def f(x, y):
        return fx(x) * fy(y)

    return f


def _x_exp_y(a1: int, a2: int) -> Callable:
    # d^{a1}_x d^{a2}_y of x e^y
    if a1 == 0:
        return lambda x, y: np.asarray(x) * np.exp(y)
    if a1 == 1:
        return lambda x, y: np.exp(y) + 0.0 * np.asarray(x)
    return _zero_fn


def _y_exp_x(a1: int, a2: int) -> Callable:
    if a2 == 0:
        return lambda x, y: np.asarray(y) * np.exp(x)
    if a2 == 1:
        return lambda x, y: np.exp(x) + 0.0 * np.asarray(y)
    return _zero_fn


def _ms_g_partial(a1, a2, comp):
    if comp == 0:
        return _product(_sin_deriv(np.pi, a1), _cos_deriv(np.pi, a2))
    return _x_exp_y(a1, a2)


def _ms_g_nonzero(a1, a2, comp):
    if comp == 0:
        return True
    return a1 <= 1


def _ms_x_partial(a1, a2, comp):
    if comp == 0 and a2 == 0:
        sd = _sin_deriv(np.pi, a1)
        return lambda x, y: sd(x) + 0.0 * np.asarray(y)
    return _zero_fn


def _ms_y_partial(a1, a2, comp):
    if comp == 1 and a1 == 0:
        sd = _sin_deriv(np.pi, a2)
        return lambda x, y: sd(y) + 0.0 * np.asarray(x)
    return _zero_fn


def _b2_partial(a1, a2, comp):
    # (cos(pi x) sin(pi y), y e^x)
    if comp == 0:
        return _product(_cos_deriv(np.pi, a1), _sin_deriv(np.pi, a2))
    return _y_exp_x(a1, a2)


def _b3_partial(a1, a2, comp):
    # (e^{x+y}, sin(x - y))
    if comp == 0:
        return lambda x, y: np.exp(np.asarray(x) + np.asarray(y))
    sign = (-1.0) ** a2
    order = a1 + a2
    return lambda x, y: sign * np.sin(np.asarray(x) - np.asarray(y) + order * HALF_PI)


def _b4_partial(a1, a2, comp):
    # (x e^y, y e^x)
    if comp == 0:
        return _x_exp_y(a1, a2)
    return _y_exp_x(a1, a2)


def _b5_partial(a1, a2, comp):
    # (sin(2x + y), cos(x - 2y))
    order = a1 + a2
    if comp == 0:
        amp = 2.0**a1
        return lambda x, y: amp * np.sin(
            2.0 * np.asarray(x) + np.asarray(y) + order * HALF_PI
        )
    amp = (-2.0) ** a2
    return lambda x, y: amp * np.cos(np.asarray(x) - 2.0 * np.asarray(y) + order * HALF_PI)


def _always(a1, a2, comp):
    return True


MS_G = ManufacturedField("MS-G", _ms_g_partial, _ms_g_nonzero)
MS_X = ManufacturedField("MS-X", _ms_x_partial, lambda a1, a2, c: c == 0 and a2 == 0)
MS_Y = ManufacturedField("MS-Y", _ms_y_partial, lambda a1, a2, c: c == 1 and a1 == 0)
_B2 = ManufacturedField("B-2", _b2_partial, lambda a1, a2, c: True if c == 0 else a2 <= 1)
_B3 = ManufacturedField("B-3", _b3_partial, _always)
_B4 = ManufacturedField("B-4", _b4_partial, lambda a1, a2, c: (a1 <= 1) if c == 0 else (a2 <= 1))
_B5 = ManufacturedField("B-5", _b5_partial, _always)


def commuting_battery() -> List[ManufacturedField]:
    """The five smooth fields used by the commuting-diagram checks."""
    return [MS_G, _B2, _B3, _B4, _B5]


class ReproductionField:
    """MS-P: a fixed reference-space member, realized on each rectangle.

    The physical field at study level j is the contravariant image of
    the same reference member on that level's rectangle, so the
    interpolation error is zero up to roundoff at every level.
    """

    id = "MS-P"

    def __init__(self, member: SpaceMember):
        self.member = member

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        p = self.member.u if comp == 0 else self.member.v
        g = p.partial("x", a1).partial("y", a2).coeffs
        return bool(np.max(np.abs(g)) > 1e-9) if g.size else False

    def div_deriv_nonzero(self, a1: int, a2: int) -> bool:
        g = self.member.divergence().partial("x", a1).partial("y", a2).coeffs
        return bool(np.max(np.abs(g)) > 1e-9) if g.size else False

    def __repr__(self):
        return f"ReproductionField({self.member.space!r})"


def make_reproduction_field(family, k: int, seed: Optional[int] = None) -> ReproductionField:
    space = build_space(family, k)
    rng = np.random.default_rng(env_seed() if seed is None else seed)
    return ReproductionField(space.random_member(rng))


class CallableField:
    """Adapter giving plain callables the field protocol (uv, div_values)."""

    def __init__(self, uv_fn: Callable, div_fn: Optional[Callable] = None, fid: str = "custom"):
        self.id = fid
        self._uv = uv_fn
        self._div = div_fn

    def uv(self, x, y):
        return self._uv(x, y)

    def __call__(self, x, y):
        return self._uv(x, y)

    def div_values(self, x, y):
        if self._div is None:
            raise ValueError(f"field {self.id!r} has no divergence callable")
        return self._div(x, y)


FIELD_IDS = ("MS-G", "MS-X", "MS-Y", "MS-P")


def get_field(fid: str, family=None, k: Optional[int] = None, seed: Optional[int] = None):
    """Look up a study field by id; MS-P requires family and degree."""
    if fid == "MS-G":
        return MS_G
    if fid == "MS-X":
        return MS_X
    if fid == "MS-Y":
        return MS_Y
    if fid == "MS-P":
        if family is None or k is None:
            raise ValueError("MS-P requires an element family and degree")
        return make_reproduction_field(family, k, seed)
    raise ValueError(f"unknown field id {fid!r}; known ids: {', '.join(FIELD_IDS)}")
