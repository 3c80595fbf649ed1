"""Brute-force oracle: one dense linear system for the whole equation.

No load reduction and no resolvent: the unknowns are x at the N nodes and
the n loads c, and one LU solves the bordered (N + n) system

    x - a c - lambda K W x = f,    c - A0 c - lambda KG W x = f_gamma.

Its second row applies each load to the Nystrom identity
x = f + a c + lambda K W x, so no load reads x between the nodes. KG, A0
and f_gamma are summed exactly from the expressions at each load's points
(gamma_weights) by the oracle's own code, once per (problem, rule): it
shares only the expression evaluator, the quadrature rules and the grid
samples of K, a and f with the routes, so agreement is meaningful evidence.
Its singularity test is its own; the classification of its A0 is a label.
Beyond the kernel sample it holds the bordered array, LAPACK's copy of it,
the n x (N + n + 2) lambda-independent rows and a few blocks of KG's grid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SingularLoadSystemError
from .expr import evaluate, grid_blocks
from .kernel_ops import DiscreteKernel
from .load_system import classify, loads_in_range
from .problem import ProblemSpec
from .quadrature import GridFunction, QuadratureRule
from .solver import Solution, refuse_out_of_range

__all__ = ["DenseSystem", "gamma_weights", "assemble_dense", "dense_solve"]

# The bordered matrix is singular below this estimated reciprocal condition number.
RCOND_LIMIT = 1e-12


@dataclass(frozen=True, eq=False)
class DenseSystem:
    matrix: np.ndarray  # (N + n) x (N + n), unknowns (x at the nodes, c)
    rhs: np.ndarray  # (f at the nodes, f_gamma)
    a0: np.ndarray  # A0[i, k] = <gamma_i, a_k>
    load_norms: np.ndarray  # ||gamma_k||, the sum of the |weights| of its form (1 for a null load)


def gamma_weights(gamma) -> tuple[np.ndarray, np.ndarray]:
    """A load as a finite sum, <gamma, x> = weights @ x(points): its point
    values with their coefficients, then the nodes of each integral term's
    sub-rule with the quadrature weights times the integral weight m(s)."""
    terms = gamma.integral_terms
    points = [[p.t0 for p in gamma.point_terms]] + [term.rule.nodes for term in terms]
    weights = [[p.alpha for p in gamma.point_terms]] + [
        term.rule.weights * evaluate(term.weight, {"s": term.rule.nodes}) for term in terms]
    return np.concatenate(points, dtype=float), np.concatenate(weights, dtype=float)


def _fixed_rows(problem: ProblemSpec, rule: QuadratureRule) -> np.ndarray:
    """The rows [KG | A0 | f_gamma | ||gamma||], n x (N + n + 2): row k of KG sums
    w[rows] @ K(p[rows], s) over expr.grid_blocks at load k's points p, which
    within one block is the whole-grid w @ K(p, s)."""
    forms = [gamma_weights(load.functional) for load in problem.loads]

    def applied(expr) -> np.ndarray:
        """<gamma_i, expr> in row i of an n x 1 array; inf or nan beyond the double range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array([w @ evaluate(expr, {"t": p[:, None]}) for p, w in forms])

    fixed = np.empty((problem.n, rule.n + problem.n + 2))
    a0 = np.hstack([applied(load.coeff) for load in problem.loads])
    fixed[:, rule.n : -2] = loads_in_range(a0, "the load coefficients")
    problem.coeff_values(rule)  # a on the grid before K at the loads: one order of domain errors
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (p, w) in zip(fixed, forms):  # starmap holds no block past its product
            row[: rule.n] = functools.reduce(np.add, itertools.starmap(
                lambda rows, block: w[rows] @ block, grid_blocks(problem.kernel, p, rule.nodes)))
    fixed[:, -2] = loads_in_range(applied(problem.source)[:, 0], "the source")
    fixed[:, -1] = [np.sum(np.abs(w)) or 1.0 for _, w in forms]
    return fixed


def assemble_dense(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> DenseSystem:
    """The bordered system, filled in place in one (N + n) x (N + n) array from
    the kernel sample and the rows of _fixed_rows, built once per (problem, rule)."""
    rule, n = kernel.rule, kernel.rule.n
    size = n + problem.n
    fixed = problem.on_grid("oracle_rows", rule, lambda: _fixed_rows(problem, rule))
    matrix = np.empty((size, size))
    top, kg = matrix[:n, :n], matrix[n:, :n]
    np.multiply(kernel.values, rule.weights, out=top)
    top *= lam
    np.subtract(0.0, top, out=top)  # 0 - y, not -y: the signed zeros of I - y
    np.negative(problem.coeff_values(rule), out=matrix[:n, n:])
    np.multiply(fixed[:, :n], rule.weights, out=kg)
    kg *= -lam
    np.subtract(0.0, fixed[:, n:-2], out=matrix[n:, n:])
    matrix.flat[:: size + 1] += 1.0
    rhs = np.concatenate([problem.source_values(rule), fixed[:, -2]])
    return DenseSystem(matrix=matrix, rhs=rhs, a0=fixed[:, n:-2], load_norms=fixed[:, -1])


def dense_solve(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> Solution:
    """Solve the bordered system M (x, c) = rhs by one LU, which also solves
    for the probe columns P of the singularity test: four fixed-seed Gaussian
    columns, and the unit columns of the n load unknowns, whose small rows
    lambda KG W (w_j is about 1/N) a Gaussian column barely sees. M is
    singular when LAPACK finds it so or when 1 / (||M'|| ||M'^{-1}||) is below
    RCOND_LIMIT, both norms estimated from below by max_i ||M'^{+-1} P_i|| / ||P_i||,
    for M' = T^{-1} M T in load units, T = diag(1_N, ||gamma_k||) (1 for a null
    load), which (a_k, gamma_k) -> (s a_k, gamma_k / s) leaves unchanged."""
    system = assemble_dense(problem, kernel, lam)
    size, n_nodes = system.rhs.size, kernel.rule.n
    probe = np.column_stack([np.random.default_rng(2024).standard_normal((size, 4)),
                             np.eye(size, problem.n, -n_nodes)])
    sizes = np.linalg.norm(probe, axis=0)
    units = np.ones((size, 1))
    units[n_nodes:, 0] = system.load_norms
    probe *= units
    try:
        solved = np.linalg.solve(system.matrix, np.column_stack([system.rhs, probe]))
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        with np.errstate(all="ignore"):  # a near-singular solve: inf / nan
            norm = np.max(np.linalg.norm(system.matrix @ probe / units, axis=0) / sizes)
            rcond = 1.0 / (norm * np.max(np.linalg.norm(solved[:, 1:] / units, axis=0) / sizes))
    if not rcond >= RCOND_LIMIT:
        raise SingularLoadSystemError(
            f"dense system is singular at lambda={lam!r} (the loaded operator "
            "has a generalized characteristic value there)"
        )
    values = solved[:, 0].copy()  # a view would keep the probe images alive
    refuse_out_of_range(lam, values)
    residual = float(np.max(np.abs(system.matrix @ values - system.rhs)))
    x = GridFunction(kernel.rule, values[:n_nodes])
    loads = units[n_nodes:, 0]
    classification = classify(system.a0 * (loads / loads[:, None]))  # T^{-1} A0 T
    return Solution(lam, x, values[n_nodes:], "oracle", residual, classification)
