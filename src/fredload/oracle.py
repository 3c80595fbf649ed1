"""Brute-force oracle: one dense linear system for the whole equation.

The equation is discretized directly on the master grid with no load
reduction, no resolvent and no n x n system: each load becomes a row v_k
of grid weights (interpolation row for point terms, sub-rule quadrature
pushed through interpolation for integral terms), and

    M[i, j] = delta_ij - sum_k a_k(t_i) v_k[j] - lambda w_j K(t_i, s_j)

is solved by LU. Deliberately shares only the expression evaluator and
the quadrature/interpolation machinery with the main pipeline, which
includes the load-row matrix V = (v_k) of `functionals.load_rows`; the
dense assembly and solve are the oracle's own, so agreement between the
two is meaningful evidence. Classification of the load matrix is reused
as labeling metadata only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularLoadSystemError
from .functionals import Functional, load_row, load_rows
from .kernel_ops import DiscreteKernel
from .load_system import classify
from .problem import ProblemSpec
from .quadrature import GridFunction, QuadratureRule
from .solver import Solution

__all__ = ["DenseSystem", "gamma_weights", "assemble_dense", "dense_solve"]


@dataclass(frozen=True, eq=False)
class DenseSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    load_rows: np.ndarray  # n x N, row k represents <gamma_k, .> on the grid


def gamma_weights(gamma: Functional, rule: QuadratureRule) -> np.ndarray:
    """Grid weights v with <gamma, x> ~ v @ x(nodes) for grid functions."""
    return load_row(gamma, rule)


def assemble_dense(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> DenseSystem:
    rule = kernel.rule
    n_nodes = rule.n
    rows = load_rows(problem, rule)
    coeffs = problem.coeff_values(rule)
    matrix = np.eye(n_nodes) - coeffs @ rows - lam * (kernel.values * rule.weights)
    rhs = problem.source_values(rule)
    return DenseSystem(matrix=matrix, rhs=rhs, load_rows=rows)


def dense_solve(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> Solution:
    """Solve the fully discretized equation in one shot."""
    system = assemble_dense(problem, kernel, lam)
    sing = np.linalg.svd(system.matrix, compute_uv=False)
    if sing[0] == 0.0 or sing[-1] / sing[0] < 1e-12:
        raise SingularLoadSystemError(
            f"dense system is singular at lambda={lam!r} (the loaded operator "
            "has a generalized characteristic value there)"
        )
    x_vals = np.linalg.solve(system.matrix, system.rhs)
    rule = kernel.rule
    x_gamma = system.load_rows @ x_vals
    defect = (
        x_vals
        - problem.coeff_values(rule) @ x_gamma
        - lam * (kernel.values @ (rule.weights * x_vals))
        - system.rhs
    )
    a0 = system.load_rows @ problem.coeff_values(rule)
    return Solution(
        lam=lam,
        x=GridFunction(rule, x_vals),
        x_gamma=x_gamma,
        route="oracle",
        residual=float(np.max(np.abs(defect))),
        classification=classify(a0),
    )
