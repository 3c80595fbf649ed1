"""Problem container: interval, kernel, source, and the loads.

A problem is the data of

    x(t) - sum_k a_k(t) <gamma_k, x> - lambda * integral K(t,s) x(s) ds = f(t)

on [a, b], with n >= 1 loads (a_k, gamma_k). lambda is supplied at solve
time; everything else lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from .expr import Expr, evaluate
from .functionals import Functional, functional_norm
from .quadrature import QuadratureRule, gauss_legendre
from .tolerances import NODES

__all__ = ["Load", "ProblemSpec"]


@dataclass(frozen=True)
class Load:
    """One load term: coefficient function a_k(t) and functional gamma_k."""

    coeff: Expr
    functional: Functional


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    a: float
    b: float
    kernel: Expr
    source: Expr
    loads: tuple[Load, ...]
    _rules: dict[int, QuadratureRule] = field(default_factory=dict, init=False, repr=False)
    _on_grid: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple(self.loads))
        if not self.a < self.b:
            raise ValueError(f"invalid interval: a={self.a!r} must be < b={self.b!r}")
        if not self.loads:
            raise ValueError("a problem needs at least one load")
        if not self.kernel.variables <= {"t", "s"}:
            raise ValueError("kernel may only use variables t and s")
        if not self.source.variables <= {"t"}:
            raise ValueError("source may only use variable t")
        for k, load in enumerate(self.loads, start=1):
            if not load.coeff.variables <= {"t"}:
                raise ValueError(f"load {k}: coefficient may only use variable t")
            for p in load.functional.point_terms:
                if not self.a <= p.t0 <= self.b:
                    raise ValueError(
                        f"load {k}: point term at t={p.t0!r} outside [{self.a}, {self.b}]"
                    )
            for term in load.functional.integral_terms:
                if term.lower < self.a or term.upper > self.b:
                    raise ValueError(
                        f"load {k}: integral term [{term.lower}, {term.upper}] "
                        f"outside [{self.a}, {self.b}]"
                    )
            with np.errstate(over="ignore"):  # a sum beyond the double range: inf
                if not math.isfinite(functional_norm(load.functional)):
                    raise ValueError(f"load {k}: its norm, the sum of |weights|, is not finite")

    @property
    def n(self) -> int:
        return len(self.loads)

    def master_rule(self, nodes: int = NODES) -> QuadratureRule:
        """The problem's one `nodes`-point Gauss-Legendre rule on [a, b], built
        on first use and kept, so kernels sampled on it share its grid arrays."""
        if nodes not in self._rules:
            self._rules[nodes] = gauss_legendre(nodes, self.a, self.b)
        return self._rules[nodes]

    def source_values(self, rule: QuadratureRule) -> np.ndarray:
        """f sampled at the rule's nodes, once per rule, read-only."""
        return self.on_grid("source", rule, lambda: evaluate(self.source, {"t": rule.nodes}))

    def coeff_values(self, rule: QuadratureRule) -> np.ndarray:
        """N x n matrix with column k = a_k sampled at the rule's nodes,
        once per rule, read-only."""
        return self.on_grid("coeffs", rule, lambda: np.column_stack([
            evaluate(load.coeff, {"t": rule.nodes}) for load in self.loads]))

    def on_grid(self, name: str, owner, build) -> np.ndarray:
        """The lambda-independent grid array `name` of owner, a rule or a kernel:
        what build() returns on first use, then the same read-only array, until
        the owner is collected; the cache holds its owners only weakly."""
        arrays = self._on_grid.setdefault(owner, {})
        value = arrays.get(name)
        if value is None:
            value = build()
            value.setflags(write=False)
            arrays[name] = value
        return value
