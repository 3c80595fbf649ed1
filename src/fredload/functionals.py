"""Loads: linear functionals combining point evaluations and weighted
integrals, applied to callables, grid functions, and kernel slices.

A load has the form

    <gamma, x> = sum_i alpha_i * x(t_i) + sum_i integral_{a_i}^{b_i} m_i(s) x(s) ds

Each integral term carries its own quadrature sub-rule because [a_i, b_i]
generally does not line up with the master grid; grid functions are
evaluated off-node by barycentric interpolation. On a master grid every
load is therefore one row v of grid weights with <gamma, x> ~ v @ x(nodes),
the load's coefficients times the interpolation matrix of its points,
summed in the barycentric Cauchy form without forming that matrix; the n
loads of a problem stack into the n x N load-row matrix V, built once per
(problem, rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .expr import Expr, evaluate
from .quadrature import (
    GridFunction,
    QuadratureRule,
    _require_within,
    gauss_legendre,
    interp_matrix,
)

if TYPE_CHECKING:
    from .kernel_ops import DiscreteKernel
    from .problem import ProblemSpec

__all__ = [
    "PointTerm",
    "IntegralTerm",
    "Functional",
    "point_load",
    "integral_load",
    "apply",
    "apply_to_kernel_slices",
    "load_row",
    "load_rows",
    "check_condition_one",
    "ConditionReport",
    "functional_norm",
]


@dataclass(frozen=True)
class PointTerm:
    """alpha * x(t0)"""

    alpha: float
    t0: float


@dataclass(frozen=True, eq=False)
class IntegralTerm:
    """integral of m(s) * x(s) over [lower, upper] by the term's sub-rule."""

    lower: float
    upper: float
    weight: Expr
    rule: QuadratureRule

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(
                f"integral term needs lower < upper, got [{self.lower}, {self.upper}]"
            )
        if self.rule.a != self.lower or self.rule.b != self.upper:
            raise ValueError("sub-rule interval must match the term's interval")


@dataclass(frozen=True, eq=False)
class Functional:
    point_terms: tuple[PointTerm, ...]
    integral_terms: tuple[IntegralTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "point_terms", tuple(self.point_terms))
        object.__setattr__(self, "integral_terms", tuple(self.integral_terms))
        if not self.point_terms and not self.integral_terms:
            raise ValueError("a load needs at least one point or integral term")


def point_load(t0: float, alpha: float = 1.0) -> Functional:
    """The local load x -> alpha * x(t0)."""
    return Functional(point_terms=(PointTerm(alpha, t0),), integral_terms=())


def integral_load(lower: float, upper: float, weight: Expr, nodes: int = 64) -> Functional:
    """The integral load x -> integral of weight(s) x(s) ds over [lower, upper]."""
    term = IntegralTerm(lower, upper, weight, gauss_legendre(nodes, lower, upper))
    return Functional(point_terms=(), integral_terms=(term,))


def _values_at(x, ts: np.ndarray) -> np.ndarray:
    """x at the points ts: expressions in one vectorized evaluation, grid
    functions by one interpolation matrix, other callables point by point."""
    if isinstance(x, GridFunction):
        return interp_matrix(x.rule, ts) @ x.values
    if isinstance(x, Expr):
        return np.broadcast_to(evaluate(x, {"t": ts}), ts.shape)
    return np.asarray([x(t) for t in ts], dtype=float)


def apply(gamma: Functional, x: Union[Callable[[float], float], GridFunction, Expr]) -> float:
    """Apply the load to x; grid functions are interpolated off-node."""
    total = 0.0
    for p in gamma.point_terms:
        total += p.alpha * float(_values_at(x, np.array([p.t0]))[0])
    for term in gamma.integral_terms:
        snodes = term.rule.nodes
        m_vals = evaluate(term.weight, {"s": snodes})
        total += float(np.dot(term.rule.weights, np.multiply(m_vals, _values_at(x, snodes))))
    return total


def load_row(gamma: Functional, rule: QuadratureRule) -> np.ndarray:
    """Grid weights v with <gamma, x> ~ v @ x(nodes) for grid functions.

    With the point values and sub-rule nodes ts, their coefficients c and
    the rule's barycentric weights b, v = c @ interp_matrix(rule, ts),
    summed without the matrix in the Cauchy form v = b * (C^T (c / (C b)))
    with C_ij = 1 / (ts_i - x_j); a point that hits a node exactly adds its
    coefficient to that node."""
    ts = np.concatenate([[p.t0 for p in gamma.point_terms]]
                        + [term.rule.nodes for term in gamma.integral_terms])
    coeffs = np.concatenate(
        [[p.alpha for p in gamma.point_terms]]
        + [term.rule.weights * evaluate(term.weight, {"s": term.rule.nodes})
           for term in gamma.integral_terms]
    )
    _require_within(rule, ts)
    nodes, bary = rule.nodes, rule.barycentric
    at = np.minimum(np.searchsorted(nodes, ts), rule.n - 1)
    hit = nodes[at] == ts
    cauchy = np.subtract.outer(ts[~hit], nodes)
    np.divide(1.0, cauchy, out=cauchy)
    row = bary * ((coeffs[~hit] / (cauchy @ bary)) @ cauchy)
    np.add.at(row, at[hit], coeffs[hit])
    return row


def load_rows(problem: "ProblemSpec", rule: QuadratureRule) -> np.ndarray:
    """The n x N matrix V whose row k is load_row(gamma_k, rule), built
    once per (problem, rule) and returned read-only."""
    return problem.on_grid(
        ("load_rows", rule),
        lambda: np.vstack([load_row(load.functional, rule) for load in problem.loads]),
    )


def apply_to_kernel_slices(gamma: Functional, kernel: "DiscreteKernel") -> GridFunction:
    """The grid function s |-> <gamma, K(., s)> over the master s-nodes."""
    return GridFunction(kernel.rule, load_row(gamma, kernel.rule) @ kernel.values)


@dataclass(frozen=True)
class ConditionReport:
    """Per-load annihilation check: does the load send every kernel
    t-slice to zero (within tol, scaled by the kernel's magnitude)?"""

    holds: bool
    deviation: float
    tol_used: float


def check_condition_one(
    problem: "ProblemSpec", kernel: "DiscreteKernel", tol: float = 1e-10
) -> list[ConditionReport]:
    """Check, for each load, max_s |<gamma_k, K(., s)>| <= tol * (1 + max|K|)."""
    threshold = tol * (1.0 + kernel.max_abs)
    slices = load_rows(problem, kernel.rule) @ kernel.values
    return [
        ConditionReport(holds=deviation <= threshold, deviation=deviation, tol_used=threshold)
        for deviation in np.max(np.abs(slices), axis=1).tolist()
    ]


def functional_norm(gamma: Functional) -> float:
    """Upper bound for |<gamma, x>| / max|x|: sum|alpha_i| + sum integral|m_i|."""
    total = sum(abs(p.alpha) for p in gamma.point_terms)
    for term in gamma.integral_terms:
        m_vals = np.broadcast_to(
            np.abs(evaluate(term.weight, {"s": term.rule.nodes})), (term.rule.n,)
        )
        total += float(np.dot(term.rule.weights, m_vals))
    return float(total)
