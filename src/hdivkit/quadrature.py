"""Gauss-Legendre quadrature on [0, 1] and tensor rules.

Nodes are found by Newton iteration on the recurrence-evaluated Legendre
polynomial with Chebyshev-angle starting guesses.  The iteration runs in
80-bit extended precision; the public ``nodes``/``weights`` arrays are
doubles, and extended-precision copies are kept for the interpolation
pipeline, which needs integrals a little more accurate than double
rounding allows.

``EDGES`` fixes the order of the edges of the unit square: left (0, t),
right (1, t), bottom (t, 0), top (t, 1), t running with the increasing
coordinate.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_POINTS = 64

# Fixed point count per direction for non-polynomial integrands (error
# norms of smooth manufactured fields).
NONPOLY_POINTS = 20


def n_for_degree(d: int) -> int:
    """Point count for exact integration of degree d, plus one for margin."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return d // 2 + 2


class QuadratureRule1D:
    """Nodes and weights on [0, 1]; exact for degree <= 2n-1."""

    __slots__ = ("nodes", "weights", "n", "nodes_ld", "weights_ld")

    def __init__(self, nodes_ld, weights_ld):
        self.nodes_ld = nodes_ld
        self.weights_ld = weights_ld
        self.nodes = nodes_ld.astype(float)
        self.weights = weights_ld.astype(float)
        self.n = len(nodes_ld)
        for a in (self.nodes, self.weights, self.nodes_ld, self.weights_ld):
            a.setflags(write=False)


def _legendre_and_deriv(n: int, s):
    """P_n(s) and P_n'(s) on [-1, 1] via the three-term recurrence."""
    p0 = np.ones_like(s)
    p1 = s.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * s * p1 - (m - 1) * p0) / m
    if n == 0:
        return p0, np.zeros_like(s)
    if n == 1:
        return p1, np.ones_like(s)
    dp = n * (s * p1 - p0) / (s * s - 1)
    return p1, dp


@functools.lru_cache(maxsize=None)
def gauss_legendre_01(n: int) -> QuadratureRule1D:
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_POINTS}], got {n}")
    ld = np.longdouble
    k = np.arange(1, n + 1, dtype=ld)
    s = np.cos(np.pi * (k - ld(0.25)) / (n + ld(0.5)))
    for _ in range(100):
        p, dp = _legendre_and_deriv(n, s)
        step = p / dp
        s = s - step
        if np.max(np.abs(step)) < ld(1e-19):
            break
    p, dp = _legendre_and_deriv(n, s)
    w = 2 / ((1 - s * s) * dp * dp)
    order = np.argsort(s)
    nodes = (s[order] + 1) / 2
    weights = w[order] / 2
    return QuadratureRule1D(nodes, weights)


class QuadratureRule2D:
    """Tensor-product weights on the unit square, x-major: ws[i * ny + j] is
    w_i w_j of the 1-D rules (formed in extended precision, ws_ld, and rounded,
    ws); the points are the 1-D rules' nodes, sampled as axes."""

    __slots__ = ("ws", "ws_ld")

    def __init__(self, rule_x: QuadratureRule1D, rule_y: QuadratureRule1D):
        self.ws_ld = np.outer(rule_x.weights_ld, rule_y.weights_ld).ravel()
        self.ws = self.ws_ld.astype(float)
        for a in (self.ws, self.ws_ld):
            a.setflags(write=False)


@functools.lru_cache(maxsize=None)
def tensor_rule(nx: int, ny: int) -> QuadratureRule2D:
    return QuadratureRule2D(gauss_legendre_01(nx), gauss_legendre_01(ny))


EDGES = ("left", "right", "bottom", "top")
