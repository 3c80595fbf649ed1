"""Gauss-Legendre quadrature and grid functions.

This module is the single source of nodes, weights, numerical integration
and off-node evaluation for the whole package. Nodes and weights are
computed by Newton iteration on the Legendre recurrence; off-node values
come from barycentric Lagrange interpolation, the package's definition of
"x(t) between nodes", summed by interp_row in one Cauchy-form pass for any
combination of points; interpolate reads it, and no load does, as loads read
K at their own points. Its weights have the closed form
(-1)^j sqrt((1 - x_j^2) w_j) at the Gauss-Legendre nodes x_j with weights
w_j on [-1, 1] (Wang and Xiang, Math. Comp. 81, 2012), which holds for
every interval, as a common factor of the weights cancels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tolerances import GRID_BLOCK, NEWTON_TOL

__all__ = [
    "QuadratureRule",
    "GridFunction",
    "gauss_legendre",
    "integrate",
    "interpolate",
    "interp_weights",
    "interp_row",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights on [a, b], nodes strictly increasing, and
    the barycentric interpolation weights of the nodes."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray
    barycentric: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or not nodes.shape == weights.shape == np.shape(self.barycentric):
            raise ValueError("nodes and both weight sets must be 1-d and the same length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < self.a or nodes[-1] > self.b:
            raise ValueError("nodes must lie within [a, b]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A function known by its values at the nodes of a rule."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.rule.n,):
            raise ValueError("values length must match the rule's node count")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@functools.lru_cache(maxsize=None)
def _legendre_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots of P_m and Gauss weights on [-1, 1] via Newton iteration,
    computed once per node count and returned read-only."""
    k = np.arange(m)
    x = np.cos(np.pi * (k + 0.75) / (m + 0.5))
    dx = np.inf
    for step in range(101):  # at most 100 Newton steps; P_m' at the final nodes gives w
        p_prev = np.ones_like(x)
        p = x.copy()
        for deg in range(2, m + 1):
            p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        if step == 100 or np.max(np.abs(dx)) < NEWTON_TOL:
            break
        dx = p / dp
        x -= dx
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(m: int, a: float, b: float) -> QuadratureRule:
    """m-point Gauss-Legendre rule on [a, b], exact through degree 2m-1."""
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    if not a < b:
        raise ValueError(f"invalid interval: a={a!r} must be < b={b!r}")
    x, w = _legendre_nodes(m)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    bary = np.sqrt((1.0 - x) * (1.0 + x) * w)  # (-1)^j sqrt((1 - x_j^2) w_j), unit max
    bary[1::2] *= -1.0
    bary /= np.max(np.abs(bary))
    bary.flags.writeable = False
    return QuadratureRule(a=float(a), b=float(b), nodes=nodes, weights=weights, barycentric=bary)


def integrate(rule: QuadratureRule, f: GridFunction) -> float:
    """Sum of w_i * f(t_i) over the rule's nodes."""
    if f.rule is not rule and not np.array_equal(f.rule.nodes, rule.nodes):
        raise ValueError("grid function is sampled on a different rule")
    return float(np.dot(rule.weights, f.values))


def interp_row(rule: QuadratureRule, ts, coeffs) -> np.ndarray:
    """Grid weights v with v @ y(nodes) = sum_i coeffs_i p(ts_i), p the
    barycentric interpolant of y through the rule's nodes.

    With the rule's barycentric weights b, v = b * (C^T (coeffs / (C b)))
    with C_ij = 1 / (ts_i - x_j), the Cauchy form of the second barycentric
    formula summed over the points without forming their rows. C is formed
    in place for chunks of points of at most GRID_BLOCK elements, and their
    sums are added up; a point that hits a node exactly adds its coefficient
    to that node. A point outside [a, b] is a ValueError naming the first
    such point."""
    ts, coeffs = np.asarray(ts, dtype=float), np.asarray(coeffs, dtype=float)
    outside = (ts < rule.a) | (ts > rule.b)
    if np.any(outside):
        t = float(ts[outside][0])
        raise ValueError(f"t={t!r} outside the interval [{rule.a!r}, {rule.b!r}]")
    nodes, bary = rule.nodes, rule.barycentric
    at = np.minimum(np.searchsorted(nodes, ts), rule.n - 1)
    hit = nodes[at] == ts
    off, weights = ts[~hit], coeffs[~hit]
    step = max(1, GRID_BLOCK // rule.n)
    row, scratch = np.zeros(rule.n), np.empty((min(step, off.size), rule.n))
    for lo in range(0, off.size, step):
        chunk = off[lo : lo + step]
        cauchy = np.subtract.outer(chunk, nodes, out=scratch[: chunk.size])
        np.divide(1.0, cauchy, out=cauchy)
        row += (weights[lo : lo + step] / (cauchy @ bary)) @ cauchy
    row *= bary
    np.add.at(row, at[hit], coeffs[hit])
    return row


def interp_weights(rule: QuadratureRule, t: float) -> np.ndarray:
    """Row vector L with L @ values = interpolated value at t."""
    return interp_row(rule, [t], [1.0])


def interpolate(g: GridFunction, t: float) -> float:
    """Barycentric Lagrange interpolation of g through all its nodes."""
    row = interp_weights(g.rule, t)
    return float(np.dot(row, g.values))
