"""Manufactured vector fields, their closed-form partials, and factor samples.

One component index runs through every field: u, v and div are
components 0, 1 and 2 of its terms, its structural zeros and its factor
samples.  Each component of a manufactured field is one term: asked for
a partial (a1, a2), up to total order 6 (the rate k+2 at k = 4), it
returns the partial as 1-D factor pairs (fx, fy), summing to
fx(x) fy(y), and () where it vanishes identically.  A separable term
(factors 1, the coordinate, exp, sin or cos of pi z) is one pair; a
plane wave g(a x + b y) is one pair for exp and two for sin and cos, by
angle addition; the div term is u's (a1 + 1, a2) pairs then v's
(a1, a2 + 1).  partial and the factor sample hold the same pairs, and the
structural zeros the rate predictions read are the empty tuples.

Factor samples.  A field is read one way, factor_sample(x, y), for 1-D
nodes x and y with optional leading axes: two arrays X and Y of shape
batch + (r, 3, n), axes term, component and node, whose products
X[q, c, i] Y[q, c, j] summed over the r terms are component c at
(x_i, y_j), what grid_values sums.  A manufactured field's terms are its
pairs, padded with zero terms; a FieldStack's rows are its fields'
samples, padded likewise; a CallableField is the full-rank case, the
identity in x against its values on the grid; a SpaceMember's terms are
its labels (elements); a PulledBackField scales its field's x factors
(harness).  dofs applies every functional to these 1-D samples, and the
error rule and the projector read their grid_values.

The fixed ids used by the refinement studies:

    MS-G  generic smooth field (all derivatives active)
    MS-X  div depends on x only (isolates the h_x terms)
    MS-Y  div depends on y only (isolates the h_y terms)
    MS-P  a random element-space member mapped to the physical rectangle
"""

from __future__ import annotations

import functools
import os
from typing import Callable, List, Optional, Tuple

import numpy as np

from .elements import SpaceMember, build_space, check_choice, require_single

HALF_PI = np.pi / 2.0
MAX_PARTIAL_ORDER = 6
DEFAULT_SEED = 42

# (a1, a2) -> the partial d^{a1}_x d^{a2}_y as factor pairs (fx, fy), () where it vanishes
Pairs = Tuple[Tuple[Callable, Callable], ...]
Term = Callable[[int, int], Pairs]


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
    """Raise ValueError unless seed is None or an integer >= 0; a bool is no seed."""
    if seed is not None and (isinstance(seed, bool) or not (
            isinstance(seed, (int, np.integer)) and seed >= 0)):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _component(comp: int) -> int:
    """comp, once it names u, v or div."""
    if comp not in (0, 1, 2):
        raise ValueError("component must be 0, 1 or 2")
    return comp


def _sum_of_products(pairs: Pairs, x, y):
    """The sum of fx(x) fy(y) over the pairs, in their order; for none, zeros of the
    points' broadcast shape in x's float type (double otherwise)."""
    if pairs:
        return functools.reduce(np.add, (fx(x) * fy(y) for fx, fy in pairs))
    x = np.asarray(x)
    return np.zeros(np.broadcast(x, y).shape, x.dtype if x.dtype.kind == "f" else float)


def grid_values(sample) -> np.ndarray:
    """u, v and div (or the components a sample is sliced to) on the tensor grid
    of a factor sample's nodes, shape (3,) + batch + (nx, ny): each term's x
    factor times its y factor, summed in term order as _sum_of_products sums
    its pairs."""
    X, Y = sample
    return np.moveaxis(functools.reduce(np.add, (
        X[..., q, :, :, None] * Y[..., q, :, None, :] for q in range(X.shape[-3]))), -3, 0)


def _factors(terms, x, y) -> tuple:
    """Each component's pairs, x factors at x and y factors at y, filled in place in
    the nodes' float type: term q of component c its q-th pair, zero past its last,
    shapes batch + (r, len(terms), n) for nodes batch + (n,), r the most pairs."""
    shape = (max(map(len, terms)), len(terms))
    X, Y = (np.zeros(np.shape(z)[:-1] + shape + np.shape(z)[-1:], np.result_type(z, 0.0))
            for z in (x, y))
    for c, pairs in enumerate(terms):
        for q, (fx, fy) in enumerate(pairs):
            X[..., q, c, :], Y[..., q, c, :] = fx(x), fy(y)
    return X, Y


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
    """The term fx(x) * fy(y) of two 1-D factors (kinds as in _factor): one pair."""

    @functools.lru_cache(maxsize=None)
    def term(a1: int, a2: int) -> Pairs:
        px, py = _factor(fx, a1), _factor(fy, a2)
        return () if px is None or py is None else ((px, py),)

    return term


def _times(c: int, z):
    return z if c == 1 else c * z  # skips the exact product by 1


def wave(g: str, a: int, b: int) -> Term:
    """The plane-wave term g(a x + b y), g in sin, cos, exp, with a, b nonzero:
    exp(a x) exp(b y), or sin(A + B) = sin A cos B + cos A sin B with B = b y
    and A = a x plus the partial's phase (and cos's, cos z = sin(z + pi/2))."""

    @functools.lru_cache(maxsize=None)
    def term(a1: int, a2: int) -> Pairs:
        amp = a**a1 * b**a2
        if g == "exp":
            return ((lambda x: _times(amp, np.exp(_times(a, np.asarray(x)))),
                     lambda y: np.exp(_times(b, np.asarray(y)))),)
        phase = (a1 + a2 + (g == "cos")) * HALF_PI
        return tuple((lambda x, A=A: _times(amp, A(_times(a, np.asarray(x)) + phase)),
                      lambda y, B=B: B(_times(b, np.asarray(y))))
                     for A, B in ((np.sin, np.cos), (np.cos, np.sin)))

    return term


def zero(a1: int, a2: int) -> Pairs:
    """The identically zero component."""
    return ()


class ManufacturedField:
    """Smooth field on the plane: one term per component, u, v and div.

    partial(a1, a2, comp) returns a vectorized callable for
    d^{a1+a2} / dx^{a1} dy^{a2} of component comp (2 is the divergence),
    the sum of the term's pairs, the closed form its factor sample is checked
    against.  deriv_nonzero reads the same pairs, so a flag is False exactly
    when the partial vanishes by construction, and rate predictions see
    every structural zero.
    """

    def __init__(self, fid: str, u: Term, v: Term):
        self.id = fid
        div = functools.lru_cache(maxsize=None)(lambda a1, a2: u(a1 + 1, a2) + v(a1, a2 + 1))
        self._terms = (u, v, div)

    def _pairs(self, a1: int, a2: int, comp: int) -> Pairs:
        return self._terms[_component(comp)](a1, a2)

    def partial(self, a1: int, a2: int, comp: int) -> Callable:
        if a1 < 0 or a2 < 0 or a1 + a2 > MAX_PARTIAL_ORDER:
            raise ValueError("partial order out of the supported range")
        return functools.partial(_sum_of_products, self._pairs(a1, a2, comp))

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        return bool(self._pairs(a1, a2, comp))

    def factor_sample(self, x, y):
        return _factors([self._pairs(0, 0, comp) for comp in range(3)], x, y)

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
    cancels the top coordinate of a BDM curl member (total degree k+1).
    """

    id = "MS-P"

    def __init__(self, member: SpaceMember):
        self.member = require_single(member, "ReproductionField")
        # the (x, y) factor degrees of u, v and div (ElementSpace._label_degrees)
        self._reach = member.space._label_degrees[member.coeffs != 0.0]

    def deriv_nonzero(self, a1: int, a2: int, comp: int) -> bool:
        return _reaches(self._reach[:, 2 * _component(comp): 2 * comp + 2], a1, a2)

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
    """Several fields as one factor sample, one row per field padded with zero
    terms, so one DOF-vector call and one stacked solve interpolate them all
    with every field's own bits."""

    def __init__(self, fields):
        self.fields = tuple(fields)
        if not self.fields:
            raise ValueError("a FieldStack takes at least one field, got none")

    def factor_sample(self, x, y):
        samples = [f.factor_sample(x, y) for f in self.fields]
        r = max(X.shape[-3] for X, _ in samples)
        pad = lambda F: np.concatenate(  # noqa: E731
            [F, np.zeros(F.shape[:-3] + (r - F.shape[-3],) + F.shape[-2:], F.dtype)], axis=-3)
        return tuple(np.stack([pad(F) for F in fs]) for fs in zip(*samples))


class CallableField:
    """Adapter giving plain callables the field protocol: uv_fn(x, y) returns
    (u, v) and div_fn(x, y) the divergence, each broadcasting a column x
    against a row y.  Its factor sample is the full-rank case, term r the
    identity at node x_r against the values at (x_r, y), the three components
    side by side; a missing divergence samples as nan, which only sets with
    div moments read, solve rejects and the div error refuses."""

    def __init__(self, uv_fn: Callable, div_fn: Optional[Callable] = None, fid: str = "custom"):
        self.id = fid
        self._uv = uv_fn
        self._div = div_fn

    def factor_sample(self, x, y):
        col, row = np.asarray(x)[..., :, None], np.asarray(y)[..., None, :]
        grid = np.broadcast(col, row).shape
        div = np.nan if self._div is None else self._div(col, row)
        Y = np.stack([np.broadcast_to(v, grid) for v in (*self._uv(col, row), div)], axis=-2)
        eye = np.eye(grid[-2], dtype=np.result_type(col, float))[:, None, :]
        return np.broadcast_to(eye, Y.shape[:-1] + grid[-2:-1]), Y


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
