"""Solution routes for the loaded equation.

Four constructive paths produce x(t, lambda) on the master grid:

  regular     direct solve of the n x n load system at one lambda, then
              reconstruction, both from one factorization of I - lambda K W
              (valid while det(E - A0) != 0, away from characteristic numbers);
  successive  fixed-point iteration x_n = (I-L)^{-1}(lambda K x_{n-1} + f),
              geometric convergence for |lambda| <= q / l;
  nilpotent   finite polynomial in lambda when (K W)^{p+1} = 0 and the
              loads annihilate the kernel; exact for every lambda;
  irregular   Laurent expansion about lambda = 0 when A0 = E: the load
              vector is lambda^{-p} * nu(lambda) with nu built from the
              Taylor coefficients of A(lambda).

Everything but A(lambda) and b(lambda) is fixed by the problem: A0, its
classification, the annihilation reports, the nilpotency index, the Taylor
coefficients (from the column recurrence (K W / g)^m y) and, for A0 = E,
the pole order and certified radius. `prepare` computes them once into a
`Prepared` value that the routes and `solve_prepared`'s route decision
read, so a sweep pays per lambda for one resolvent solve and n x n algebra.
Every route reports the max-norm defect of the full equation on the grid,
recomputed from the returned grid function alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import functionals
from .errors import (
    ConvergenceError,
    NoSolutionError,
    RoutePreconditionError,
    SingularLoadSystemError,
)
from .functionals import ConditionReport
from .kernel_ops import DiscreteKernel, discretize, nilpotency_index, series_scale
from .load_system import (
    Classification,
    NonUnique,
    NoSolution,
    ProblemSpec,
    ZeroOrderOutcome,
    assemble_A0,
    assemble_f_gamma,
    assemble_lambda_system,
    classify,
    numerical_rank,
    solve_zero_order_system,
    taylor_A,
)
from .quadrature import GridFunction

__all__ = [
    "Prepared",
    "prepare",
    "Solution",
    "IrregularExpansion",
    "solve_regular",
    "solve_successive",
    "solve_nilpotent",
    "solve_irregular",
    "solve_prepared",
    "solve_auto",
    "residual",
    "successive_bound",
    "pole_order",
]

DEFAULT_TRUNCATION = 30
# The pole order is the first m with max|A~_m| above POLE_COEFF_TOL (1 + max_k max|A~_k|),
# and the certified radius rho is where the contraction bound q reaches RADIUS_Q.
POLE_COEFF_TOL = 1e-9
RADIUS_Q = 0.9


@dataclass(frozen=True, eq=False)
class Laurent:
    """Laurent data at lambda = 0 for A0 = E: pole order p, g = series_scale(K),
    the scaled coefficients A~_p..A~_M (A_m = g^m A~_m) and the certified radius."""

    pole_order: int
    growth: float
    coefficients: tuple[np.ndarray, ...]
    rho: float


@dataclass(frozen=True, eq=False)
class IrregularExpansion(Laurent):
    """The Laurent data with the contraction bound q at the solved lambda."""

    q: float


@dataclass(frozen=True, eq=False)
class Solution:
    lam: float
    x: GridFunction
    x_gamma: np.ndarray
    route: str
    residual: float
    classification: Classification
    pole_order: Optional[int] = None
    history: Optional[tuple[float, ...]] = None
    expansion: Optional[IrregularExpansion] = None
    note: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Prepared:
    """What the routes need that does not depend on lambda, for one problem
    on one grid: A0, f_gamma, the classification of A0 and the per-load
    annihilation reports at `tol`. The zero-order outcome, the nilpotency
    index, the Taylor coefficients up to `truncation` and the Laurent data
    are computed on first use, so a regular solve never forms them."""

    problem: ProblemSpec
    kernel: DiscreteKernel
    truncation: int
    tol: float
    A0: np.ndarray
    f_gamma: np.ndarray
    classification: Classification
    reports: tuple[ConditionReport, ...]

    @property
    def annihilates(self) -> bool:
        """Whether every load annihilates the kernel slices."""
        return all(r.holds for r in self.reports)

    @cached_property
    def zero_order(self) -> ZeroOrderOutcome:
        """(E - A0) c = f_gamma, which decides solvability under annihilating loads."""
        return solve_zero_order_system(self.A0, self.f_gamma)

    @cached_property
    def nilpotency(self) -> Optional[int]:
        return nilpotency_index(self.kernel, self.truncation, self.tol)

    @cached_property
    def taylor(self) -> list[np.ndarray]:
        """A~_1..A~_truncation of A(lambda) = sum_m (lambda g)^m A~_m."""
        return taylor_A(self.problem, self.kernel, self.truncation)

    @cached_property
    def pole(self) -> tuple[Optional[int], float]:
        """(p, reference) of pole_order on the Taylor coefficients."""
        return pole_order(self.taylor)

    @cached_property
    def laurent(self) -> Laurent:
        """The irregular route's lambda-independent data; raises
        RoutePreconditionError when the pole expansion does not apply."""
        if self.truncation < 2:
            raise RoutePreconditionError(
                f"the irregular route needs truncation >= 2, got {self.truncation}"
            )
        pole, reference = self.pole
        if pole is None:
            raise RoutePreconditionError(
                "the load coupling A(lambda) vanishes to working precision at "
                f"every order up to {self.truncation}; no pole order can be assigned"
            )
        coefficients = tuple(self.taylor[pole - 1 :])
        a_p = coefficients[0]
        if numerical_rank(a_p, reference) < len(a_p):
            raise RoutePreconditionError(
                f"the leading coefficient matrix A_{pole} of the load coupling "
                "is singular; the pole expansion does not apply"
            )
        solved = (np.linalg.solve(a_p, a_m) for a_m in coefficients[1:])
        radius = _contraction_radius([float(np.linalg.norm(c, np.inf)) for c in solved])
        growth = series_scale(self.kernel)
        return Laurent(pole, growth, coefficients, radius / growth)

    @cached_property
    def successive_l(self) -> float:
        """Computable upper estimate l for the norm of (I-L)^{-1} K, so the
        fixed-point route is admitted for |lambda| <= q / l."""
        inv = np.linalg.inv(np.eye(self.problem.n) - self.A0)
        a_sup = float(np.max(np.sum(np.abs(self.problem.coeff_values(self.kernel.rule)), axis=1)))
        gamma_max = max(functionals.functional_norm(ld.functional) for ld in self.problem.loads)
        amplification = 1.0 + a_sup * float(np.linalg.norm(inv, np.inf)) * gamma_max
        return amplification * self.kernel.norm


def prepare(
    problem: ProblemSpec,
    kernel: DiscreteKernel,
    truncation: int = DEFAULT_TRUNCATION,
    tol: float = 1e-10,
) -> Prepared:
    """Analyse the problem once for every route and every lambda."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    reports = tuple(functionals.check_condition_one(problem, kernel, tol))
    A0 = assemble_A0(problem)
    return Prepared(
        problem, kernel, truncation, tol, A0, assemble_f_gamma(problem), classify(A0), reports
    )


def _zero_order_loads(prep: Prepared) -> tuple[np.ndarray, Optional[str]]:
    """The load vector from prep.zero_order and a note if it is not unique."""
    outcome = prep.zero_order
    if isinstance(outcome, NoSolution):
        raise NoSolutionError(
            "the loads annihilate the kernel and the zero-order load "
            "system is inconsistent: the equation has no solution in "
            "the class of continuous functions"
        )
    if isinstance(outcome, NonUnique):
        note = "load system singular but consistent; minimum-norm load vector used"
        return outcome.particular, note
    return outcome.c, None


def _recomputed_loads(problem: ProblemSpec, x: GridFunction) -> np.ndarray:
    return functionals.load_rows(problem, x.rule) @ x.values


def _defect(problem: ProblemSpec, kernel: DiscreteKernel, lam: float, x: GridFunction) -> float:
    rule = kernel.rule
    c = _recomputed_loads(problem, x)
    coeffs = problem.coeff_values(rule)
    f_vals = problem.source_values(rule)
    kx = kernel.values @ (rule.weights * x.values)
    lhs = x.values - coeffs @ c - lam * kx - f_vals
    return float(np.max(np.abs(lhs)))


def _solution(
    prep: Prepared, lam: float, values: np.ndarray, route: str,
    x_gamma: Optional[np.ndarray] = None, **extra,
) -> Solution:
    """A route's result with its defect; x_gamma is recomputed from x unless given."""
    x = GridFunction(prep.kernel.rule, values)
    if x_gamma is None:
        x_gamma = _recomputed_loads(prep.problem, x)
    residual = _defect(prep.problem, prep.kernel, lam, x)
    return Solution(lam, x, x_gamma, route, residual, prep.classification, **extra)


def residual(problem: ProblemSpec, solution: Solution) -> float:
    """Max-norm defect of the equation on the grid, with the loads
    recomputed from the grid function (not read from the solution)."""
    kernel = discretize(problem.kernel, solution.x.rule)
    return _defect(problem, kernel, solution.lam, solution.x)


def solve_regular(prep: Prepared, lam: float) -> Solution:
    """Direct route for a regular E - A0: solve the n x n system
    (E - A0 - A(lambda)) x_gamma = b(lambda), refused when numerical_rank
    finds it singular on the scale of its assembly, then reconstruct x."""
    problem, kernel, A0, classification = prep.problem, prep.kernel, prep.A0, prep.classification
    if not classification.is_regular:
        raise RoutePreconditionError(
            f"regular route needs det(E - A0) != 0; classification is "
            f"{classification.kind} (det = {classification.det:.3e})"
        )
    a_lam, rhs, basis = assemble_lambda_system(problem, kernel, lam, prep.f_gamma)
    system = np.eye(problem.n) - A0 - a_lam
    scale = 1.0 + float(np.max(np.abs(A0))) + float(np.max(np.abs(a_lam)))
    if numerical_rank(system, scale) < problem.n:
        raise SingularLoadSystemError(
            f"load system E - A0 - A(lambda) is singular at lambda={lam!r}"
        )
    x_gamma = np.linalg.solve(system, rhs)
    return _solution(prep, lam, basis @ np.append(x_gamma, 1.0), "regular", x_gamma)


def successive_bound(problem: ProblemSpec, kernel: DiscreteKernel) -> float:
    """Computable upper estimate l for the norm of (I-L)^{-1} K, so the
    fixed-point route is admitted for |lambda| <= q / l (Prepared.successive_l)."""
    return prepare(problem, kernel).successive_l


def solve_successive(prep: Prepared, lam: float, q: float = 0.9, max_iter: int = 200) -> Solution:
    """Fixed-point route: x_n = (I-L)^{-1}(lambda K x_{n-1} + f), x_0 = 0.

    (I-L)^{-1} g is computed by solving (E - A0) c = g_gamma and returning
    g + (a, c). The route refuses |lambda| beyond q / l, which guarantees
    geometric convergence; the difference norms become the iterate history,
    which stops once a difference is at most prep.tol.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    problem, kernel, classification = prep.problem, prep.kernel, prep.classification
    if not classification.is_regular:
        raise RoutePreconditionError(
            f"successive route needs det(E - A0) != 0; classification is "
            f"{classification.kind}"
        )
    bound_l = prep.successive_l
    admissible = math.inf if bound_l == 0.0 else q / bound_l
    if abs(lam) > admissible:
        raise RoutePreconditionError(
            f"|lambda|={abs(lam):.6g} exceeds the admissible bound q/l = "
            f"{admissible:.6g} (q={q}, l={bound_l:.6g})"
        )
    rule = kernel.rule
    system = np.eye(problem.n) - prep.A0
    coeffs = problem.coeff_values(rule)
    f_vals = problem.source_values(rule)
    rows = functionals.load_rows(problem, rule)

    def apply_inverse(g: np.ndarray) -> np.ndarray:
        c = np.linalg.solve(system, rows @ g)
        return g + coeffs @ c

    x_prev = np.zeros(rule.n)
    history: list[float] = []
    for _ in range(max_iter):
        h = lam * (kernel.values @ (rule.weights * x_prev)) + f_vals
        x_next = apply_inverse(h)
        delta = float(np.max(np.abs(x_next - x_prev)))
        history.append(delta)
        x_prev = x_next
        if delta <= prep.tol:
            return _solution(prep, lam, x_prev, "successive", history=tuple(history))
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (last delta {history[-1]:.3e})"
    )


def solve_nilpotent(prep: Prepared, lam: float) -> Solution:
    """Polynomial route: when (K W)^{p+1} = 0 and the loads annihilate the
    kernel, x = u + sum_{m=1}^{p} lambda^m (K W)^m u by p matrix-vector products,
    with u = f + (a, c) and c from the zero-order system. Exact for every lambda."""
    problem, pnil = prep.problem, prep.nilpotency
    if pnil is None:
        raise RoutePreconditionError(f"kernel is not nilpotent within depth {prep.truncation}")
    if not prep.annihilates:
        worst = max(r.deviation for r in prep.reports)
        raise RoutePreconditionError(
            f"the loads do not annihilate the kernel slices (max deviation "
            f"{worst:.3e}); use the regular or irregular route"
        )
    c, note = _zero_order_loads(prep)
    kernel, rule = prep.kernel, prep.kernel.rule
    term = problem.source_values(rule) + problem.coeff_values(rule) @ c
    x_vals = term.copy()
    for _ in range(pnil):
        term = lam * (kernel.values @ (rule.weights * term))
        x_vals += term
    return _solution(prep, lam, x_vals, "nilpotent", note=note)


def _contraction_radius(norms: list[float]) -> float:
    """Largest r with sum_m norms[m] * r^(m+1) <= RADIUS_Q (norms[m] is the
    coefficient of r^{m+1}); bisection on a monotone bound until the
    bracket has no double strictly inside it."""

    def q_bound(r: float) -> float:
        total = 0.0
        power = r
        for nm in norms:
            total += nm * power
            power *= r
            if not math.isfinite(total):
                return math.inf
        return total

    hi = 1e-8
    while q_bound(hi) <= RADIUS_Q:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    lo, mid = 0.0, 0.5 * hi
    while lo < mid < hi:
        if q_bound(mid) <= RADIUS_Q:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


def pole_order(coeff_mats: list[np.ndarray]) -> tuple[Optional[int], float]:
    """(p, reference) for the scaled Taylor coefficients A~_m of the load
    coupling (taylor_A), each on its own scale: with r_m = max|A~_m|, p is
    the first m with r_m > POLE_COEFF_TOL * (1 + max r_m), None if none, and
    reference = 1 + max r_m. A non-finite A~_m is an error."""
    mags = [float(np.max(np.abs(a))) for a in coeff_mats]
    bad = next((m for m, mag in enumerate(mags, start=1) if not math.isfinite(mag)), None)
    if bad is not None:
        raise RoutePreconditionError(
            f"the Taylor coefficient A_{bad} of the load coupling is not finite"
        )
    scale = 1.0 + max(mags, default=0.0)
    return next((m for m, r in enumerate(mags, start=1) if r > POLE_COEFF_TOL * scale), None), scale


def solve_irregular(prep: Prepared, lam: float) -> Solution:
    """Laurent route for A0 = E, in lambda g so that no term overflows: with
    A(lambda) = sum_{m>=p} (lambda g)^m A~_m (taylor_A) and A~_p invertible,
    x_gamma = (lambda g)^{-p} nu~ where nu~ sums the geometric series
    -(I + A~_p^{-1} B)^{-1} A~_p^{-1} b(lambda), B = sum_{m>p} (lambda g)^{m-p} A~_m.
    It is summed in closed form by a dense solve; the contraction bound q certifies it."""
    classification = prep.classification
    if classification.kind == "unsupported-irregular":
        raise RoutePreconditionError(
            "det(E - A0) = 0 with A0 != E: no constructive route exists in "
            "this package for that case"
        )
    if not classification.is_irregular_identity:
        raise RoutePreconditionError(
            f"irregular route needs A0 = E; classification is {classification.kind}"
        )
    if lam == 0.0:
        raise RoutePreconditionError(
            "the load vector has a pole at lambda = 0; request a nonzero lambda"
        )
    laurent = prep.laurent
    a_p, tail = laurent.coefficients[0], laurent.coefficients[1:]
    mu = np.float64(lam * laurent.growth)
    with np.errstate(over="ignore", invalid="ignore"):  # far outside rho: q = inf or nan
        b_mat = sum((mu**k * a_m for k, a_m in enumerate(tail, start=1)), np.zeros_like(a_p))
    q_at = float(np.linalg.norm(np.linalg.solve(a_p, b_mat), np.inf))
    if not q_at < 1.0:
        raise RoutePreconditionError(
            f"no contraction at lambda={lam!r}: q = {q_at:.6g} >= 1 "
            f"(certified radius rho = {laurent.rho:.6g})"
        )
    _, rhs, basis = assemble_lambda_system(prep.problem, prep.kernel, lam, prep.f_gamma)
    pole = laurent.pole_order
    x_gamma = -np.linalg.solve(a_p + b_mat, rhs) / (lam * laurent.growth) ** pole
    values = basis @ np.append(x_gamma, 1.0)
    expansion = IrregularExpansion(**vars(laurent), q=q_at)
    return _solution(prep, lam, values, "irregular", x_gamma, pole_order=pole, expansion=expansion)


def solve_prepared(prep: Prepared, lam: float) -> Solution:
    """Pick a route from the problem's structure.

    When the loads annihilate the kernel, the zero-order system decides
    solvability outright (no continuous solution when it is inconsistent)
    and a nilpotent kernel gets the exact polynomial route. Otherwise the
    classification of A0 selects the regular or irregular path (which
    rejects a singular E - A0 with A0 != E).
    """
    if prep.annihilates:
        _zero_order_loads(prep)  # raises NoSolutionError when inconsistent
        if prep.nilpotency is not None:
            return solve_nilpotent(prep, lam)
    if prep.classification.is_regular:
        return solve_regular(prep, lam)
    return solve_irregular(prep, lam)


def solve_auto(
    problem: ProblemSpec,
    kernel: DiscreteKernel,
    lam: float,
    truncation: int = DEFAULT_TRUNCATION,
    tol: float = 1e-10,
) -> Solution:
    """solve_prepared on a fresh prepare(problem, kernel, truncation, tol)."""
    return solve_prepared(prepare(problem, kernel, truncation, tol), lam)
