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
Every route reports the max-norm defect of the bordered system (_defect)
at its grid function x and its own load vector c, so no load interpolates x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import functionals
from .errors import ConvergenceError, RoutePreconditionError, SingularLoadSystemError
from .functionals import ConditionReport, kernel_slices
from .kernel_ops import DiscreteKernel, binary_scale, nilpotency_index, series_scale
from .load_system import (
    Classification,
    assemble_A0,
    assemble_f_gamma,
    assemble_lambda_system,
    classify,
    in_load_units,
    load_units,
    numerical_rank,
    solve_zero_order_system,
    taylor_A,
)
from .problem import ProblemSpec
from .quadrature import GridFunction
from .tolerances import MAX_ITER, POLE_COEFF_TOL, Q, RADIUS_Q, TOL, TRUNCATION

__all__ = [
    "Prepared",
    "prepare",
    "Solution",
    "Laurent",
    "solve_regular",
    "solve_successive",
    "solve_nilpotent",
    "solve_irregular",
    "solve_prepared",
    "solve_auto",
    "successive_bound",
    "pole_order",
]


@dataclass(frozen=True, eq=False)
class Laurent:
    """Laurent data at lambda = 0 for A0 = E: pole order p, g = series_scale(K), the scaled
    coefficients A~_p..A~_M (A_m = g^m A~_m) and the radius rho from A~_p^{-1} A~_m in load
    units; it certifies q <= RADIUS_Q, not the tail of A(lambda) past A~_M (solve_irregular).
    A solution's expansion sets q, the contraction bound at its lambda."""

    pole_order: int
    growth: float
    coefficients: np.ndarray
    rho: float
    q: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Solution:
    lam: float
    x: GridFunction
    x_gamma: np.ndarray
    route: str
    residual: float
    classification: Classification
    history: Optional[tuple[float, ...]] = None
    expansion: Optional[Laurent] = None
    note: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Prepared:
    """What the routes need that does not depend on lambda, for one problem on one
    grid: A0, the load units (load_units) in which every n x n decision reads its
    matrix, A0 in them, its classification and the per-load annihilation reports at `tol`.
    f_gamma, the zero-order outcome, the nilpotency index, the Taylor coefficients up
    to `truncation`, the Laurent data and the successive route's coupling and bound l
    (admissible gives q / l) are computed on first use, so a regular solve never forms them."""

    problem: ProblemSpec
    kernel: DiscreteKernel
    truncation: int
    tol: float
    A0: np.ndarray
    units: np.ndarray
    a0_units: np.ndarray
    classification: Classification
    reports: tuple[ConditionReport, ...]

    @property
    def annihilates(self) -> bool:
        """Whether every load annihilates the kernel slices."""
        return all(r.holds for r in self.reports)

    @cached_property
    def f_gamma(self) -> np.ndarray:
        """<gamma_i, f>; DomainEvalError when one is beyond the double range, which
        every solve but not `analyze` reads."""
        return assemble_f_gamma(self.problem)

    @cached_property
    def zero_order(self) -> tuple[np.ndarray, Optional[str]]:
        """(c, note) of (E - A0) c = f_gamma, which decides solvability under
        annihilating loads: NoSolutionError when it is inconsistent."""
        return solve_zero_order_system(self.a0_units, self.f_gamma, self.units,
                                       self.classification)

    @cached_property
    def nilpotency(self) -> Optional[int]:
        return nilpotency_index(self.kernel, self.truncation)

    @cached_property
    def taylor(self) -> np.ndarray:
        """A~_1..A~_truncation of A(lambda) = sum_m (lambda g)^m A~_m, stacked."""
        return taylor_A(self.problem, self.kernel, self.truncation)

    @cached_property
    def pole(self) -> tuple[Optional[int], float]:
        """(p, reference) of pole_order on the Taylor coefficients in load units."""
        return pole_order(in_load_units(self.taylor, self.units))

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
        coefficients = self.taylor[pole - 1 :]
        a_p = coefficients[0]
        if numerical_rank(in_load_units(a_p, self.units), reference) < len(a_p):
            raise RoutePreconditionError(
                f"the leading coefficient matrix A_{pole} of the load coupling "
                "is singular; the pole expansion does not apply"
            )
        solved = in_load_units(np.linalg.solve(a_p, coefficients[1:]), self.units)
        radius = _contraction_radius(np.max(np.sum(np.abs(solved), axis=2), axis=1).tolist())
        growth = series_scale(self.kernel)
        return Laurent(pole, growth, coefficients, radius / growth)

    @cached_property
    def coupling(self) -> np.ndarray:
        """a (E - A0)^{-1}, N x n, by one n x n solve: (I-L)^{-1} h = h + coupling <gamma, h>;
        RoutePreconditionError unless the classification finds E - A0 regular."""
        if not self.classification.is_regular:
            raise RoutePreconditionError("successive route needs det(E - A0) != 0; "
                                         f"classification is {self.classification.kind}")
        system = (np.eye(self.problem.n) - self.A0).T
        return np.linalg.solve(system, self.problem.coeff_values(self.kernel.rule).T).T

    @cached_property
    def successive_l(self) -> float:
        """l = g + max_i sum_k |coupling_ik| sum_j w_j |KG_kj| >= ||K W + coupling KG W||, one
        load's rescaling cancelling between its two factors; g and KG are those of the core's
        Q C, the K W the loop applies, whose error against the sample oracle-check measures."""
        slices = np.abs(kernel_slices(self.problem, self.kernel)) @ self.kernel.rule.weights
        return self.kernel.norm + float(np.max(np.abs(self.coupling) @ slices, initial=0.0))

    def admissible(self, q: float) -> float:
        """The successive route's admissible |lambda| <= q / l, inf when l = 0."""
        return math.inf if self.successive_l == 0.0 else q / self.successive_l


def prepare(
    problem: ProblemSpec,
    kernel: DiscreteKernel,
    truncation: int = TRUNCATION,
    tol: float = TOL,
) -> Prepared:
    """Analyse the problem once for every route and every lambda."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    reports = tuple(functionals.check_condition_one(problem, kernel, tol))
    A0, units = assemble_A0(problem), load_units(problem)
    a0_units = in_load_units(A0, units)
    return Prepared(problem, kernel, truncation, tol, A0, units, a0_units, classify(a0_units),
                    reports)


def _defect(prep: Prepared, lam: float, x: np.ndarray, c: np.ndarray) -> float:
    """Max-norm defect of both rows of the bordered system at (x, c):
    x - a c - lambda K W x = f and c - A0 c - lambda KG W x = f_gamma, both divided by
    the power of two s = binary_scale(x) (exact), so no term overflows where the
    defect does not."""
    problem, kernel = prep.problem, prep.kernel
    s = float(binary_scale(x))
    x, c = x / s, c / s
    grid = x - problem.coeff_values(kernel.rule) @ c - lam * kernel.apply(x)
    grid -= problem.source_values(kernel.rule) / s
    weighted = kernel.rule.weights * x
    loads = c - prep.A0 @ c - lam * (kernel_slices(problem, kernel) @ weighted) - prep.f_gamma / s
    return s * max(float(np.max(np.abs(grid))), float(np.max(np.abs(loads))))


def refuse_out_of_range(lam: float, *arrays: np.ndarray) -> None:
    """RoutePreconditionError naming lambda unless x and x_gamma are finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise RoutePreconditionError(f"the solution at lambda={lam!r} is beyond the double range")


def _solution(prep: Prepared, lam: float, values: np.ndarray, route: str, c: np.ndarray,
              **extra) -> Solution:
    """A route's result: x on the grid, its load vector c as x_gamma, and their defect."""
    refuse_out_of_range(lam, values, c)
    x = GridFunction(prep.kernel.rule, values)
    return Solution(lam, x, c, route, _defect(prep, lam, values, c), prep.classification, **extra)


def solve_regular(prep: Prepared, lam: float) -> Solution:
    """Direct route for a regular E - A0: solve the n x n system
    (E - A0 - A(lambda)) x_gamma = b(lambda), refused when numerical_rank
    finds it singular in load units on the scale of its assembly, then
    reconstruct x."""
    problem, kernel, A0, classification = prep.problem, prep.kernel, prep.A0, prep.classification
    if not classification.is_regular:
        raise RoutePreconditionError(
            f"regular route needs det(E - A0) != 0; classification is "
            f"{classification.kind} (det = {classification.det:.3e})"
        )
    a_lam, rhs, basis = assemble_lambda_system(problem, kernel, lam, prep.f_gamma)
    a_lam_units = in_load_units(a_lam, prep.units)
    scale = 1.0 + float(np.max(np.abs(prep.a0_units))) + float(np.max(np.abs(a_lam_units)))
    if numerical_rank(np.eye(problem.n) - prep.a0_units - a_lam_units, scale) < problem.n:
        raise SingularLoadSystemError(
            f"load system E - A0 - A(lambda) is singular at lambda={lam!r}"
        )
    x_gamma = np.linalg.solve(np.eye(problem.n) - A0 - a_lam, rhs)
    with np.errstate(all="ignore"):  # beyond the double range: inf, refused by _solution
        values = basis @ np.append(x_gamma, 1.0)
    return _solution(prep, lam, values, "regular", x_gamma)


def successive_bound(problem: ProblemSpec, kernel: DiscreteKernel) -> float:
    """Prepared.successive_l of a fresh analysis: the fixed-point route's l."""
    return prepare(problem, kernel).successive_l


def solve_successive(
    prep: Prepared, lam: float, q: float = Q, max_iter: int = MAX_ITER
) -> Solution:
    """Fixed-point route: x_n = (I-L)^{-1}(lambda K x_{n-1} + f), x_0 = 0.

    The loads read lambda K W x_{n-1} + f as f_gamma + lambda KG W x_{n-1}, so a step
    is x_n = lambda (K W + coupling KG W) x_{n-1} + f + coupling f_gamma (Prepared.coupling),
    with no n x n solve; K W goes through kernel.apply, Q C, as on every route: r x N per step on
    a nontrivial core, N x N on the trivial one. |lambda| beyond q / l (l bounds the max-norm)
    is refused; below it the differences, kept as the history, shrink geometrically until one
    is at most prep.tol max|x_n|. Then c solves (E - A0) c = f_gamma + lambda KG W x_{n-1}
    once. The loop runs on x_n / s, s the binary_scale of f + coupling f_gamma, so that
    K W x_n does not overflow where x_n does not; the scaling is exact.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    problem, kernel = prep.problem, prep.kernel
    admissible = prep.admissible(q)
    if abs(lam) > admissible:
        raise RoutePreconditionError(
            f"|lambda|={abs(lam):.6g} exceeds the admissible bound q/l = "
            f"{admissible:.6g} (q={q}, l={prep.successive_l:.6g})"
        )
    rule, slices = kernel.rule, kernel_slices(problem, kernel)
    base = problem.source_values(rule) + prep.coupling @ prep.f_gamma
    scale = float(binary_scale(base))  # the loop runs on x / scale, exactly
    base = base / scale
    x_prev, history = np.zeros(rule.n), []
    for _ in range(max_iter):
        weighted = rule.weights * x_prev
        loads = slices @ weighted
        x_next = lam * (kernel.apply(x_prev) + prep.coupling @ loads) + base
        delta = float(np.max(np.abs(x_next - x_prev)))
        history.append(scale * delta)
        if delta <= prep.tol * float(np.max(np.abs(x_next))):
            with np.errstate(all="ignore"):  # beyond the double range: inf, refused by _solution
                rhs, x_next = prep.f_gamma + lam * loads * scale, scale * x_next
            c = np.linalg.solve(np.eye(problem.n) - prep.A0, rhs)
            return _solution(prep, lam, x_next, "successive", c, history=tuple(history))
        x_prev = x_next
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (last delta {history[-1]:.3e})"
    )


def solve_nilpotent(prep: Prepared, lam: float) -> Solution:
    """Polynomial route: when (K W)^{p+1} = 0 and the loads annihilate the
    kernel, x = u + sum_{m=1}^{p} lambda^m (K W)^m u by p products with
    K W = Q C (kernel.apply), with u = f + (a, c) and c from the zero-order system.
    Exact for every lambda. The products run on u / s, s = binary_scale(u),
    so that C u does not overflow where x does not; the scaling is exact."""
    problem, pnil = prep.problem, prep.nilpotency
    if pnil is None:
        raise RoutePreconditionError(f"kernel is not nilpotent within depth {prep.truncation}")
    if not prep.annihilates:
        worst = max(r.deviation for r in prep.reports)
        raise RoutePreconditionError(
            f"the loads do not annihilate the kernel slices (max deviation "
            f"{worst:.3e}); use the regular or irregular route"
        )
    c, note = prep.zero_order
    kernel, rule = prep.kernel, prep.kernel.rule
    term = problem.source_values(rule) + problem.coeff_values(rule) @ c
    scale = float(binary_scale(term))
    term = term / scale
    x_vals = term.copy()
    with np.errstate(all="ignore"):  # beyond the double range: inf, refused by _solution
        for _ in range(pnil):
            term = lam * kernel.apply(term)
            x_vals += term
        x_vals *= scale
    return _solution(prep, lam, x_vals, "nilpotent", c, note=note)


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


def pole_order(coeff_mats: np.ndarray) -> tuple[Optional[int], float]:
    """(p, reference) for the scaled Taylor coefficients A~_m of the load
    coupling (taylor_A), an M x n x n stack, each on its own scale: with
    r_m = max|A~_m|, p is the first m with r_m > POLE_COEFF_TOL * (1 + max r_m),
    None if none, and reference = 1 + max r_m. A non-finite A~_m is an error."""
    mags = np.max(np.abs(coeff_mats), axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(mags))
    if bad.size:
        raise RoutePreconditionError(
            f"the Taylor coefficient A_{bad[0] + 1} of the load coupling is not finite"
        )
    scale = 1.0 + float(np.max(mags))
    return next((int(m) + 1 for m in np.flatnonzero(mags > POLE_COEFF_TOL * scale)), None), scale


def solve_irregular(prep: Prepared, lam: float) -> Solution:
    """Laurent route for A0 = E, in lambda g so that no term overflows: with A(lambda) =
    sum_{m>=p} (lambda g)^m A~_m (taylor_A) and A~_p invertible, x_gamma = (lambda g)^{-p} nu~
    where nu~ sums the geometric series -(I + A~_p^{-1} B)^{-1} A~_p^{-1} b(lambda),
    B = sum_{m>p} (lambda g)^{m-p} A~_m, in closed form by a dense solve. q, ||A~_p^{-1} B|| in
    load units, certifies that series, not the tail of A(lambda) past `truncation`: x on
    identity_pole.prob is off by 2.7e-10 relative at 0.47 < rho = 0.4737, 1.9e-9 at 0.5."""
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
    q_at = float(np.linalg.norm(in_load_units(np.linalg.solve(a_p, b_mat), prep.units), np.inf))
    if not q_at < 1.0:
        raise RoutePreconditionError(
            f"no contraction at lambda={lam!r}: q = {q_at:.6g} >= 1 "
            f"(certified radius rho = {laurent.rho:.6g})"
        )
    _, rhs, basis = assemble_lambda_system(prep.problem, prep.kernel, lam, prep.f_gamma)
    with np.errstate(all="ignore"):  # beyond the double range: inf, refused by _solution
        x_gamma = -np.linalg.solve(a_p + b_mat, rhs) / (lam * laurent.growth) ** laurent.pole_order
        values = basis @ np.append(x_gamma, 1.0)
    return _solution(prep, lam, values, "irregular", x_gamma, expansion=replace(laurent, q=q_at))


def solve_prepared(prep: Prepared, lam: float) -> Solution:
    """Pick a route from the problem's structure.

    When the loads annihilate the kernel, the zero-order system decides
    solvability outright (no continuous solution when it is inconsistent)
    and a nilpotent kernel gets the exact polynomial route. Otherwise the
    classification of A0 selects the regular or irregular path (which
    rejects a singular E - A0 with A0 != E).
    """
    if prep.annihilates:
        prep.zero_order  # raises NoSolutionError when inconsistent
        if prep.nilpotency is not None:
            return solve_nilpotent(prep, lam)
    if prep.classification.is_regular:
        return solve_regular(prep, lam)
    return solve_irregular(prep, lam)


def solve_auto(
    problem: ProblemSpec,
    kernel: DiscreteKernel,
    lam: float,
    truncation: int = TRUNCATION,
    tol: float = TOL,
) -> Solution:
    """solve_prepared on a fresh prepare(problem, kernel, truncation, tol)."""
    return solve_prepared(prepare(problem, kernel, truncation, tol), lam)
