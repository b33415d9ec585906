"""Axis evaluation: a tensor grid sampled on its axes equals the grid enumerated,
and a factor sample on the grid's 1-D nodes equals the values on the grid.

Every tensor rule hands its points out as a column x and a row y (with a
leading level axis when a study stacks its rectangles), and the fields
broadcast them.  The values must be the enumerated evaluation's, bit for
bit (np.array_equal), in double and extended precision: the errors and
commuting residuals are pinned to the bits of the enumerated points.
This compares with the enumerated evaluation itself, not with a stored
hash, so a libm whose vector and scalar paths differ shows here.

The same grids check the factor-sample contract that every reader of a
field rests on: a sample is two arrays X and Y of shape batch + (r, 3, n),
one r for u, v and div, and the sum over the terms r of X[r, c, i]
Y[r, c, j] (fields.grid_values) is component c at (x_i, y_j).  A
manufactured field's partials are sums of the very pairs its samples
hold, waves' angle-addition pairs included, and a CallableField's sample
is the identity against its values (nan for a missing divergence), so
these agree bit for bit, and so does a FieldStack of them and the check's
cached sample.  A pull-back (and so a study's field side) scales one
factor where reference_oracle.point_values scales the product, so those
agree within 2 (r + 2) ulps of the sum of |X_r Y_r|, the reassociation
bound of a sum of r products (floored at (r + 2) smallest normals, for
subnormals).  A member's sample is held to its monomial grids
(monomial_oracle.reference_field) within the rounding of those grids and
of Horner's rule on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit.dofs import _plan_for, build_dofs, plan_nodes
from hdivkit.elements import FAMILIES, MAX_DEGREE, build_space, degree_range
from hdivkit.fields import (
    MAX_PARTIAL_ORDER, MS_G, MS_X, MS_Y, CallableField, FieldStack, ManufacturedField,
    _factors, commuting_battery, grid_values, separable, wave,
)
from hdivkit.harness import PulledBackField, _FieldSide, _mapped_rule
from hdivkit.interpolation import _Sampled
from hdivkit.quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01
from monomial_oracle import Polynomial2D, divergence, reference_field, reference_grids
from reference_oracle import edge_rule, enumerated_rule, point_values, rule_points

MANUFACTURED = [MS_G, MS_X, MS_Y] + commuting_battery()[1:]  # MS-G, B-2 ... B-5 and MS-X/Y
PARTIALS = [(a1, a2, comp) for a1 in range(MAX_PARTIAL_ORDER + 1)
            for a2 in range(MAX_PARTIAL_ORDER + 1 - a1) for comp in (0, 1)]
FACTORS = ("1", "z", "exp", "sin", "cos")
ALL_PAIRS = [(f, k) for f in FAMILIES for k in degree_range(f, MAX_DEGREE)]
DTYPES = (np.float64, np.longdouble)

_coords = st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=7)
_sides = st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=4)


class Grid:
    """One tensor grid as axes x, y and as enumerated points xs, ys (x-major);
    sides (hx, hy) per level scale it into one grid per level, ahead of the
    axes (levels, 1, 1) and of the points as columns (levels, 1)."""

    def __init__(self, xs, ys, dtype, sides=None):
        xs, ys = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
        self.nodes = xs, ys  # the 1-D coordinates before any sides scale them
        self.x, self.y = xs[:, None], ys[None, :]
        self.xs, self.ys = np.repeat(xs, len(ys)), np.tile(ys, len(xs))
        self.shape = (len(xs), len(ys))
        if sides is not None:
            hx, hy = np.array(sides).T
            self.x, self.y = hx[:, None, None] * self.x, hy[:, None, None] * self.y
            self.xs, self.ys = hx[:, None] * self.xs, hy[:, None] * self.ys
            self.shape = (len(sides),) + self.shape

    def same(self, on_axes, enumerated, lead=()) -> bool:
        """on_axes has shape lead + the grid's and, read x-major, is the enumerated values."""
        on_axes = np.asarray(on_axes)
        return (on_axes.shape == lead + self.shape
                and np.array_equal(on_axes.reshape(np.shape(enumerated)), enumerated))

    def both(self, fn):
        """fn on the axes and on the enumerated points."""
        return fn(self.x, self.y), fn(self.xs, self.ys)

    def axis_nodes(self):
        """The 1-D nodes of the axes, with the sides' leading axis: (nx,) or (levels, nx)."""
        return self.x[..., 0], self.y[..., 0, :]


def _summed(X, Y):
    """The sum over the terms, in order, of X_r(x_i) Y_r(y_j), and of its magnitudes."""
    shape = np.broadcast_shapes(X.shape[:-2] + X.shape[-1:] + (1,),
                                Y.shape[:-2] + (1,) + Y.shape[-1:])
    out = size = np.zeros(shape, np.result_type(X, Y))
    for r in range(X.shape[-2]):
        term = X[..., r, :, None] * Y[..., r, None, :]
        out, size = out + term, size + np.abs(term)
    return out, size


def _contract_holds(sample, values, exact: bool) -> bool:
    """The factor sample (X, Y), batch + (r, components, n) each, one r for every
    component, sums on component c to values[c]: bit for bit (nan where the values
    are nan), or within 2 (r + 2) ulps of the sum of the terms' magnitudes; below
    the normal range rounding is absolute, so that bound is floored at (r + 2)
    times the smallest normal number."""
    X, Y = sample
    if X.shape[-3:-1] != Y.shape[-3:-1] or X.shape[-2] != len(values):
        return False
    info = np.finfo(np.result_type(X, Y))
    for c, want in enumerate(values):
        got, size = _summed(X[..., c, :], Y[..., c, :])
        want = np.broadcast_to(want, got.shape)
        if not (np.array_equal(got, want, equal_nan=True) if exact else np.all(
                np.abs(got - want) <= (X.shape[-3] + 2) * (2 * info.eps * size + info.tiny))):
            return False
    return True


def _grids(sides=st.none() | _sides):
    return st.builds(Grid, _coords, _coords, st.sampled_from(DTYPES), sides)


def _values(fld):
    """u, v and div at points, apart from the factor sample: a manufactured field's
    closed-form partials, reference_oracle.point_values for any other."""
    if isinstance(fld, ManufacturedField):
        return lambda x, y: tuple(fld.partial(0, 0, c)(x, y) for c in range(3))
    return lambda x, y: tuple(point_values(fld, x, y))


def _on_points(fld, xs, ys):
    """fld's sample values at the points (xs[i], ys[i]): the diagonal of the grid
    its sample spans on them."""
    return np.diagonal(grid_values(fld.factor_sample(xs, ys)), axis1=-2, axis2=-1)


@settings(max_examples=40, deadline=None)
@given(grid=_grids())
def test_manufactured_fields_and_partials(grid):
    x, y = grid.axis_nodes()
    for fld in MANUFACTURED:
        for on_axes, enumerated in zip(*grid.both(_values(fld))):
            assert grid.same(on_axes, enumerated), fld
        assert _contract_holds(fld.factor_sample(x, y), _values(fld)(grid.x, grid.y),
                               exact=True), fld
        # grid_values sums the sample to the partials, bit for bit
        want = np.stack(np.broadcast_arrays(*_values(fld)(grid.x, grid.y)))
        assert np.array_equal(grid_values(fld.factor_sample(x, y)), want), fld
        for a1, a2, comp in PARTIALS:
            assert grid.same(*grid.both(fld.partial(a1, a2, comp))), (fld, a1, a2, comp)
            assert _contract_holds(_factors((fld._pairs(a1, a2, comp),), x, y),
                                   (fld.partial(a1, a2, comp)(grid.x, grid.y),), exact=True)


@pytest.mark.parametrize("dtype", (np.float32,) + DTYPES)
def test_factors_fill_rows_in_the_nodes_float_type(dtype):
    # batch + (r, components, n): one term per pair of each component, zero terms
    # past its last up to the most pairs r of any, in the nodes' own type
    pairs = MS_G._pairs(0, 0, 0) + wave("sin", 2, -1)(1, 0)
    terms = (pairs[:1], pairs, ())
    x = np.array([[0.0, 0.25, 0.5], [0.125, 0.75, 1.0]], dtype)
    y = np.array([[0.5, 0.0, 1.0], [0.375, 0.625, 0.875]], dtype)
    X, Y = _factors(terms, x, y)
    assert X.shape == Y.shape == (2, len(pairs), 3, 3) and X.dtype == Y.dtype == dtype
    for c, component in enumerate(terms):
        for q, (fx, fy) in enumerate(component):
            assert np.array_equal(X[:, q, c], fx(x)) and np.array_equal(Y[:, q, c], fy(y))
        assert not X[:, len(component):, c].any() and not Y[:, len(component):, c].any()


@settings(max_examples=40, deadline=None)
@given(grid=_grids(), fx=st.sampled_from(FACTORS), fy=st.sampled_from(FACTORS),
       g=st.sampled_from(("sin", "cos", "exp")),
       a=st.sampled_from((-3, -2, -1, 1, 2, 3)), b=st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_every_factor_and_wave_term(grid, fx, fy, g, a, b):
    fld = ManufacturedField("terms", separable(fx, fy), wave(g, a, b))
    x, y = grid.axis_nodes()
    for a1, a2, comp in PARTIALS:
        assert grid.same(*grid.both(fld.partial(a1, a2, comp))), (fx, fy, g, a, b, a1, a2, comp)
        assert _contract_holds(_factors((fld._pairs(a1, a2, comp),), x, y),
                               (fld.partial(a1, a2, comp)(grid.x, grid.y),), exact=True)
    assert _contract_holds(fld.factor_sample(x, y), _values(fld)(grid.x, grid.y),
                           exact=True), (fx, fy, g, a, b)


@settings(max_examples=25, deadline=None)
@given(grid=_grids(st.none()), sides=_sides)
def test_pulled_back_fields_and_stacks(grid, sides):
    # a pull-back's sides lead the grid, as a study's levels do; a stack's fields too
    hx, hy = np.array(sides).T
    stacked = PulledBackField(MS_G, hx[:, None, None], hy[:, None, None])
    on_axes = grid_values(stacked.factor_sample(*grid.nodes))
    for c, enumerated in enumerate(_on_points(stacked, grid.xs, grid.ys)):
        assert grid.same(on_axes[c], enumerated, (len(sides),))
    # factor samples on the grid's 1-D nodes: a stacked pull-back of every field
    # (one row of nodes per side), a FieldStack (one row per field's values), and
    # callables: one on the grid, a scalar-valued one, and one with no divergence
    x, y = grid.axis_nodes()
    for fld in MANUFACTURED:
        pulled = PulledBackField(fld, hx[:, None, None], hy[:, None, None])
        assert _contract_holds(pulled.factor_sample(x, y), _values(pulled)(grid.x, grid.y),
                               exact=False), fld

    def rows(x, y):  # per component, one row per manufactured field's values
        return np.stack([np.stack(np.broadcast_arrays(*_values(f)(x, y))) for f in MANUFACTURED],
                        axis=1)

    assert _contract_holds(FieldStack(MANUFACTURED).factor_sample(x, y), rows(grid.x, grid.y),
                           exact=True)
    for fld in (CallableField(lambda x, y: (np.sin(x) * y, x - y), lambda x, y: np.cos(x) + 0 * y),
                CallableField(lambda x, y: (1.0, 2.0), lambda x, y: 0.5)):
        assert _contract_holds(fld.factor_sample(x, y), _values(fld)(grid.x, grid.y), exact=True)
    no_div = CallableField(lambda x, y: (x * y, -x))  # its divergence samples as nan
    assert np.isnan(_values(no_div)(grid.x, grid.y)[2]).all()
    assert _contract_holds(no_div.factor_sample(x, y), _values(no_div)(grid.x, grid.y),
                           exact=True)
    # what a study and the check read, on the nodes of every 20-point DOF plan: a
    # field side (the stacked pull-back) and the cached sample (a FieldStack)
    nodes = plan_nodes(NONPOLY_POINTS)
    for fld in MANUFACTURED:
        side = _FieldSide(fld, tuple(hx.tolist()), tuple(hy.tolist()))
        pulled = PulledBackField(fld, hx[:, None, None], hy[:, None, None])
        assert _contract_holds(side.factor_sample(None, None),
                               _values(pulled)(nodes[:, None], nodes[None, :]), exact=False), fld
    assert _contract_holds(_Sampled(tuple(MANUFACTURED)).factor_sample(None, None),
                           rows(nodes[:, None], nodes[None, :]), exact=True)


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), grid=_grids(), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 3))
def test_member_tabulation(pair, grid, seed, rows):
    # a member stack sampled on the grid's nodes: its values on the axes are the
    # enumerated points' (the basis rows are the stack with one unit row each),
    # each row is the member of that row alone, and each is its monomial grids'
    space = build_space(*pair)
    member = space.member(np.random.default_rng(seed).standard_normal((rows, space.dim)))
    x, y = grid.nodes
    xs, ys = np.repeat(x, len(y)), np.tile(y, len(x))
    for m in (member, space.member(np.eye(space.dim))):
        on_axes = grid_values(m.factor_sample(x, y))
        for c, enumerated in enumerate(_on_points(m, xs, ys)):
            assert on_axes[c].shape == (len(m.coeffs), len(x), len(y))
            assert np.array_equal(on_axes[c].reshape(enumerated.shape), enumerated)
    on_axes = grid_values(member.factor_sample(x, y))
    X, Y = member.factor_sample(x, y)
    size = np.stack([_summed(X[..., c, :], Y[..., c, :])[1] for c in range(3)], axis=-3)
    for r, coeffs in enumerate(member.coeffs):
        single = space.member(coeffs)
        assert np.array_equal(grid_values(single.factor_sample(x, y)), on_axes[:, r])
        exact = reference_field(single)
        want = [p.eval(x[:, None], y[None, :]) for p in (exact.u, exact.v, divergence(exact))]
        bound = _monomial_bound(single, x, y, size[r])
        assert np.all(np.abs(on_axes[:, r] - np.stack(want)) <= bound), (pair, r)


def _monomial_bound(member, x, y, size):
    """How far a member's sample may lie from its monomial grids at the grid of
    x, y: per component, 2 eps (n M + (dim + 2) size) plus (dim + 2) tiny, with
    M the sum over labels of |c_b| times the label's monomial grid with
    absolute coefficients at |x|, |y| (every product the grids and Horner's
    rule round, n of them at most), and size the sum of the sample's |X_r Y_r|;
    rounded in double, whatever the nodes' type, as the grids are."""
    space = member.space
    ax, ay = np.abs(x.astype(float))[:, None], np.abs(y.astype(float))[None, :]
    M = 0.0
    for c, e in zip(np.abs(member.coeffs), np.eye(space.dim)):
        u, v = reference_grids(space, e)
        div = divergence(reference_field(space.member(e)))
        M = M + c * np.stack([Polynomial2D(np.abs(p.coeffs)).eval(ax, ay) for p in (u, v, div)])
    n = space.dim + 4 * (space._maxdeg + 2) + 8
    info = np.finfo(float)
    return 2 * info.eps * (n * M + (space.dim + 2) * size.astype(float)) \
        + (space.dim + 2) * info.tiny


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_plan_axes_hold_the_edge_rules_and_the_grid(family, k):
    # one read-only node axis {0, t, 1}: the grid it spans holds the four edges
    # of reference_oracle.edge_rule and the n x n interior rule
    space = build_space(family, k)
    for degree in (space._maxdeg, None):
        plan = _plan_for(build_dofs(family, k), degree)
        nodes = plan.nodes
        assert nodes is plan_nodes(plan.n) and not nodes.flags.writeable
        assert nodes.dtype == np.longdouble and nodes.shape == (plan.n + 2,)
        assert np.array_equal(nodes[1:-1], gauss_legendre_01(plan.n).nodes_ld)
        X, Y = np.broadcast_arrays(nodes[:, None], nodes[None, :])
        sides = {"left": (X[0, 1:-1], Y[0, 1:-1]), "right": (X[-1, 1:-1], Y[-1, 1:-1]),
                 "bottom": (X[1:-1, 0], Y[1:-1, 0]), "top": (X[1:-1, -1], Y[1:-1, -1])}
        for edge in EDGES:
            ex, ey, _, _ = edge_rule(edge, plan.n)
            assert np.array_equal(sides[edge][0], ex) and np.array_equal(sides[edge][1], ey)
        xs, ys, _ = rule_points(plan.n, plan.n, extended=True)
        assert np.array_equal(X[1:-1, 1:-1].ravel(), xs)
        assert np.array_equal(Y[1:-1, 1:-1].ravel(), ys)


@pytest.mark.parametrize("sides", [None, [(0.5, 0.25), (0.3, 1e-3)]])
def test_error_rule_axes_span_the_enumerated_rule(sides):
    if sides is None:
        x, y, ws = _mapped_rule(1.0, 1.0)
        xs, ys, wse = enumerated_rule(1.0, 1.0)
    else:
        hx, hy = np.array(sides).T
        x, y, ws = _mapped_rule(hx[:, None, None], hy[:, None, None])
        xs, ys, wse = enumerated_rule(hx[:, None], hy[:, None])
    X, Y = np.broadcast_arrays(x[..., :, None], y[..., None, :])
    n = NONPOLY_POINTS
    assert X.shape[-2:] == (n, n) and ws.shape == wse.shape
    assert np.array_equal(X.reshape(xs.shape), xs) and np.array_equal(Y.reshape(ys.shape), ys)
    assert np.array_equal(ws, wse)
