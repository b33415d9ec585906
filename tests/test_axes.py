"""Axis evaluation: a tensor grid sampled on its axes equals the grid enumerated.

Every tensor rule hands its points out as a column x and a row y (with a
leading level axis when a study stacks its rectangles), and the fields
broadcast them.  The values must be the enumerated evaluation's, bit for
bit (np.array_equal), in double and extended precision: the DOF vectors,
errors and commuting residuals are pinned to the bits of the enumerated
points.  This compares with the enumerated evaluation itself, not with a
stored hash, so a libm whose vector and scalar paths differ shows here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdivkit.dofs import _plan_for, build_dofs
from hdivkit.elements import FAMILIES, MAX_DEGREE, build_space, degree_range
from hdivkit.fields import (
    MAX_PARTIAL_ORDER, MS_G, MS_X, MS_Y, FieldStack, ManufacturedField, commuting_battery,
    separable, wave,
)
from hdivkit.harness import PulledBackField, _mapped_rule
from hdivkit.quadrature import EDGES, NONPOLY_POINTS, gauss_legendre_01
from reference_oracle import edge_rule, enumerated_rule

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


def _grids(sides=st.none() | _sides):
    return st.builds(Grid, _coords, _coords, st.sampled_from(DTYPES), sides)


def _values(fld):
    return lambda x, y: (*fld.uv(x, y), fld.div_values(x, y))


@settings(max_examples=40, deadline=None)
@given(grid=_grids())
def test_manufactured_fields_and_partials(grid):
    for fld in MANUFACTURED:
        for on_axes, enumerated in zip(*grid.both(_values(fld))):
            assert grid.same(on_axes, enumerated), fld
        for a1, a2, comp in PARTIALS:
            assert grid.same(*grid.both(fld.partial(a1, a2, comp))), (fld, a1, a2, comp)


@settings(max_examples=40, deadline=None)
@given(grid=_grids(), fx=st.sampled_from(FACTORS), fy=st.sampled_from(FACTORS),
       g=st.sampled_from(("sin", "cos", "exp")),
       a=st.sampled_from((-3, -2, -1, 1, 2, 3)), b=st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_every_factor_and_wave_term(grid, fx, fy, g, a, b):
    fld = ManufacturedField("terms", separable(fx, fy), wave(g, a, b))
    for a1, a2, comp in PARTIALS:
        assert grid.same(*grid.both(fld.partial(a1, a2, comp))), (fx, fy, g, a, b, a1, a2, comp)


@settings(max_examples=25, deadline=None)
@given(grid=_grids(st.none()), sides=_sides)
def test_pulled_back_fields_and_stacks(grid, sides):
    # a pull-back's sides lead the grid, as a study's levels do; a stack's fields too
    hx, hy = np.array(sides).T
    stacked = PulledBackField(MS_G, hx[:, None, None], hy[:, None, None])
    columns = PulledBackField(MS_G, hx[:, None], hy[:, None])
    for on_axes, enumerated in zip(_values(stacked)(grid.x, grid.y),
                                   _values(columns)(grid.xs, grid.ys)):
        assert grid.same(on_axes, enumerated, (len(sides),))
    for on_axes, enumerated in zip(*grid.both(_values(FieldStack(MANUFACTURED)))):
        assert grid.same(on_axes, enumerated, (len(MANUFACTURED),))


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from(ALL_PAIRS), grid=_grids(), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 3))
def test_member_tabulation(pair, grid, seed, rows):
    # the basis tables, and member stacks contracted with them row by row
    space = build_space(*pair)
    tables = lambda x, y: (*space.tabulate(x, y), space.tabulate_div(x, y))  # noqa: E731
    for on_axes, enumerated in zip(*grid.both(tables)):
        assert grid.same(on_axes, enumerated, (space.dim,))
    member = space.member(np.random.default_rng(seed).standard_normal((rows, space.dim)))
    for on_axes, enumerated in zip(*grid.both(_values(member))):
        assert grid.same(on_axes, enumerated, (rows,))


@pytest.mark.parametrize("family,k", ALL_PAIRS)
def test_plan_axes_hold_the_edge_rules_and_the_grid(family, k):
    # nodes {0, t, 1}: the four edges of reference_oracle.edge_rule and the n x n grid
    space = build_space(family, k)
    for degree in (space._maxdeg, None):
        plan = _plan_for(build_dofs(family, k), degree)
        t = gauss_legendre_01(plan.n).nodes_ld
        X, Y = np.broadcast_arrays(plan.x, plan.y)
        assert X.dtype == Y.dtype == np.longdouble and X.shape == (plan.n + 2,) * 2
        sides = {"left": (X[0, 1:-1], Y[0, 1:-1]), "right": (X[-1, 1:-1], Y[-1, 1:-1]),
                 "bottom": (X[1:-1, 0], Y[1:-1, 0]), "top": (X[1:-1, -1], Y[1:-1, -1])}
        for edge in EDGES:
            ex, ey, _, _ = edge_rule(edge, plan.n)
            assert np.array_equal(sides[edge][0], ex) and np.array_equal(sides[edge][1], ey)
        assert np.array_equal(plan.inner[0][:, 0], t) and np.array_equal(plan.inner[1][0], t)
        assert np.array_equal(X[1:-1, 1:-1], np.broadcast_to(t[:, None], (plan.n, plan.n)))


@pytest.mark.parametrize("sides", [None, [(0.5, 0.25), (0.3, 1e-3)]])
def test_error_rule_axes_span_the_enumerated_rule(sides):
    if sides is None:
        x, y, ws = _mapped_rule(1.0, 1.0)
        xs, ys, wse = enumerated_rule(1.0, 1.0)
    else:
        hx, hy = np.array(sides).T
        x, y, ws = _mapped_rule(hx[:, None, None], hy[:, None, None])
        xs, ys, wse = enumerated_rule(hx[:, None], hy[:, None])
    X, Y = np.broadcast_arrays(x, y)
    n = NONPOLY_POINTS
    assert X.shape[-2:] == (n, n) and ws.shape == wse.shape
    assert np.array_equal(X.reshape(xs.shape), xs) and np.array_equal(Y.reshape(ys.shape), ys)
    assert np.array_equal(ws, wse)
