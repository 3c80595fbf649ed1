"""Loads: linear functionals combining point evaluations and weighted
integrals, applied to expressions and to kernel slices.

A load has the form

    <gamma, x> = sum_i alpha_i * x(t_i) + sum_i integral_{a_i}^{b_i} m_i(s) x(s) ds

Each integral term carries its own quadrature sub-rule because [a_i, b_i]
generally does not line up with the master grid, so a load is the finite
sum <gamma, x> = weights @ x(points) over its point values and sub-rule
nodes (Functional.discrete), which apply, kernel_slices and functional_norm
read; on the master grid a load is a row of quadrature.interp_row.

The solver never applies a load to a grid function x, which may have a
kink: by the Nystrom identity x = f + a c + lambda K W x, a load of x needs
only f, a and the kernel slices KG[k, j] = <gamma_k, K(., s_j)>, the load
rows times K (DiscreteKernel.rows_times) once per (problem, kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .expr import Expr, evaluate
from .quadrature import QuadratureRule, gauss_legendre, interp_row
from .tolerances import NODES, TOL

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
    "kernel_slices",
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

    @cached_property
    def discrete(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, weights) with <gamma, x> = weights @ x(points): each point
        value with its alpha, then each sub-rule's nodes with the rule
        weights times m(s). Built on first use, read-only."""
        terms = self.integral_terms
        points = [[p.t0 for p in self.point_terms]] + [term.rule.nodes for term in terms]
        weights = [[p.alpha for p in self.point_terms]] + [
            term.rule.weights * evaluate(term.weight, {"s": term.rule.nodes}) for term in terms]
        form = np.concatenate(points, dtype=float), np.concatenate(weights, dtype=float)
        for array in form:
            array.setflags(write=False)
        return form


def point_load(t0: float, alpha: float = 1.0) -> Functional:
    """The local load x -> alpha * x(t0)."""
    return Functional(point_terms=(PointTerm(alpha, t0),), integral_terms=())


def integral_load(lower: float, upper: float, weight: Expr, nodes: int = NODES) -> Functional:
    """The integral load x -> integral of weight(s) x(s) ds over [lower, upper]."""
    term = IntegralTerm(lower, upper, weight, gauss_legendre(nodes, lower, upper))
    return Functional(point_terms=(), integral_terms=(term,))


def apply(gamma: Functional, x: Expr) -> float:
    """Apply the load to the expression x, weights @ x(points), evaluated exactly.
    A sum beyond the double range comes back as inf or nan, without a warning."""
    points, weights = gamma.discrete
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ evaluate(x, {"t": points}))


def kernel_slices(problem: "ProblemSpec", kernel: "DiscreteKernel") -> np.ndarray:
    """KG[k, j] = <gamma_k, K(., s_j)>, the one way a load reads the grid: the
    load rows times K (DiscreteKernel.rows_times), once per (problem, kernel), read-only."""
    return problem.on_grid("kernel_slices", kernel, lambda: kernel.rows_times(np.vstack(
        [interp_row(kernel.rule, *load.functional.discrete) for load in problem.loads])))


@dataclass(frozen=True)
class ConditionReport:
    """Per-load annihilation check: does the load send every kernel
    t-slice to zero (within tol, on the scale of the load and the kernel)?"""

    holds: bool
    deviation: float


def check_condition_one(
    problem: "ProblemSpec", kernel: "DiscreteKernel", tol: float = TOL
) -> list[ConditionReport]:
    """Check, for each load, max_s |<gamma_k, K(., s)>| <= tol ||gamma_k|| max|K|."""
    deviations = np.max(np.abs(kernel_slices(problem, kernel)), axis=1).tolist()
    return [ConditionReport(deviation <= tol * functional_norm(load.functional) * kernel.max_abs,
                            deviation) for load, deviation in zip(problem.loads, deviations)]


def functional_norm(gamma: Functional) -> float:
    """Upper bound for |<gamma, x>| / max|x|: sum|weights|, that is
    sum|alpha_i| + sum integral|m_i|, as the sub-rule weights are positive."""
    return float(np.sum(np.abs(gamma.discrete[1])))
