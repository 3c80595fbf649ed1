"""Gauss-Legendre quadrature and grid functions.

This module is the single source of nodes, weights and numerical
integration for the whole package. Nodes and weights are computed by Newton
iteration on the Legendre recurrence. interp_weights and interpolate read a
grid function at one point by barycentric Lagrange interpolation; no load,
route or command does. The barycentric weights of the Gauss-Legendre nodes
x_j with weights w_j on [-1, 1] have the closed form
(-1)^j sqrt((1 - x_j^2) w_j) (Wang and Xiang, Math. Comp. 81, 2012), which
holds for every interval, as a common factor of the weights cancels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tolerances import NEWTON_TOL

__all__ = [
    "QuadratureRule",
    "GridFunction",
    "gauss_legendre",
    "integrate",
    "interpolate",
    "interp_weights",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights on [a, b], nodes strictly increasing."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d and the same length")
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
    return QuadratureRule(a=float(a), b=float(b), nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, f: GridFunction) -> float:
    """Sum of w_i * f(t_i) over the rule's nodes."""
    if f.rule is not rule and not np.array_equal(f.rule.nodes, rule.nodes):
        raise ValueError("grid function is sampled on a different rule")
    return float(np.dot(rule.weights, f.values))


def interp_weights(rule: QuadratureRule, t: float) -> np.ndarray:
    """Row vector L with L @ values = p(t), p the barycentric interpolant
    through the rule's nodes. The rule must be a Gauss-Legendre rule, as
    gauss_legendre builds, since the weights are their closed form. A node
    hit, or a t so close to a node that 1 / (t - x_j) overflows, is that
    node's unit row; a t outside [a, b], NaN included, is a ValueError."""
    t = float(t)
    if not rule.a <= t <= rule.b:
        raise ValueError(f"t={t!r} outside the interval [{rule.a!r}, {rule.b!r}]")
    with np.errstate(divide="ignore", over="ignore"):
        c = 1.0 / (t - rule.nodes)
    hit = np.isinf(c)
    if np.any(hit):
        return hit.astype(float)
    x, w = _legendre_nodes(rule.n)
    b = np.sqrt((1.0 - x) * (1.0 + x) * w)  # (-1)^j sqrt((1 - x_j^2) w_j), unit max
    b[1::2] *= -1.0
    b /= np.max(np.abs(b))
    return b * ((1.0 / (c @ b)) * c)


def interpolate(g: GridFunction, t: float) -> float:
    """Barycentric Lagrange interpolation of g through all its nodes."""
    row = interp_weights(g.rule, t)
    return float(np.dot(row, g.values))
