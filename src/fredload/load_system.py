"""Finite linear systems governing the load vector.

Applying the loads to the equation collapses it onto n unknowns
c_k = <gamma_k, x>. Two systems appear:

  (E - A0) c = f_gamma                      when the loads annihilate K
  (E - A0 - A(lambda)) c = b(lambda)        in general

with A0[i,k] = <gamma_i, a_k>, f_gamma[i] = <gamma_i, f>,
A(lambda)[i,k] = <gamma_i, lambda * (G W a_k)(t)> and
b(lambda)[i] = <gamma_i, f> + <gamma_i, lambda * (G W f)(t)>, where G is
the resolvent kernel on the grid. With the load rows V (functionals.load_rows)
both come from Z = lambda G W [a | f] without forming G: A(lambda) = V Z_a
and b(lambda) = f_gamma + V Z_f. The lambda factor is kept inside A so
that A(0) = 0 exactly and the Taylor expansion of A starts at lambda^1
with coefficient matrices A_m[i,k] = <gamma_i, (K_m W a_k)(t)>, kept scaled
as A~_m = A_m / g^m (taylor_A) and built from the column recurrence
(K W / g)^m a, so no N x N iterated kernel is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import functionals
from .kernel_ops import COND_LIMIT, DiscreteKernel, resolvent_images, scaled_powers
from .problem import Load, ProblemSpec

__all__ = [
    "ProblemSpec",
    "Load",
    "Classification",
    "UniqueLoads",
    "NoSolution",
    "NonUnique",
    "assemble_A0",
    "assemble_f_gamma",
    "assemble_lambda_system",
    "solve_zero_order_system",
    "A_lambda",
    "b_lambda",
    "taylor_A",
    "classify",
    "numerical_rank",
]

# An n x n system is judged by its singular values against kernel_ops.COND_LIMIT,
# the limit that also refuses I - lambda K W (numerical_rank); E - A0 is regular
# when it has full rank. A0 = E when max|A0 - E| <= IDENTITY_TOL (1 + max|A0|),
# and a zero-order defect above CONSISTENCY_TOL (1 + ||f_gamma||) means no solution.
IDENTITY_TOL = 1e-10
CONSISTENCY_TOL = 1e-10


def numerical_rank(matrix: np.ndarray, scale: float = 0.0) -> int:
    """How many singular values sigma of `matrix` count: those with
    COND_LIMIT * sigma > max(sigma_max, scale). `scale` is the natural size
    of an assembled matrix, so that one collapsed to roundoff is not judged
    well-conditioned; with scale 0 the rank is full exactly when the
    condition number is at most COND_LIMIT."""
    sing = np.linalg.svd(matrix, compute_uv=False)
    reference = max(float(sing[0]), scale)
    return int(np.count_nonzero(COND_LIMIT * sing > reference))


def assemble_A0(problem: ProblemSpec) -> np.ndarray:
    """A0[i, k] = <gamma_i, a_k>, by exact evaluation of a_k."""
    n = problem.n
    out = np.empty((n, n))
    for i, row_load in enumerate(problem.loads):
        for k, col_load in enumerate(problem.loads):
            out[i, k] = functionals.apply(row_load.functional, col_load.coeff)
    return out


def assemble_f_gamma(problem: ProblemSpec) -> np.ndarray:
    """f_gamma[i] = <gamma_i, f>."""
    return np.asarray(
        [functionals.apply(load.functional, problem.source) for load in problem.loads]
    )


def assemble_lambda_system(
    problem: ProblemSpec, kernel: DiscreteKernel, lam: float, f_gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(lambda), b(lambda), Y) from one solve of (I - lambda K W) Z =
    lambda K W [a | f] with n + 1 right-hand sides: A(lambda) = V Z_a,
    b(lambda) = f_gamma + V Z_f, and Y = [a | f] + Z rebuilds the solution
    as x = Y_a x_gamma + Y_f = u + lambda G W u for u = f + a x_gamma."""
    rule = kernel.rule
    columns = np.column_stack([problem.coeff_values(rule), problem.source_values(rule)])
    images = resolvent_images(kernel, lam, columns)
    coupled = functionals.load_rows(problem, rule) @ images
    return coupled[:, :-1], f_gamma + coupled[:, -1], columns + images


def A_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """A(lambda)[i, k] = <gamma_i, lambda * (G W a_k)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[0]


def b_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """b(lambda)[i] = <gamma_i, f> + <gamma_i, lambda * (G W f)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[1]


def taylor_A(problem: ProblemSpec, kernel: DiscreteKernel, depth: int) -> list[np.ndarray]:
    """Scaled coefficients A~_1..A~_depth, A~_m = V (K W / g)^m a with
    g = series_scale(kernel), so A(lambda) = sum_m (lambda g)^m A~_m and
    A_m[i, k] = <gamma_i, (K_m W a_k)(t)> = g^m A~_m[i, k]."""
    rows = functionals.load_rows(problem, kernel.rule)
    return [rows @ y for y in scaled_powers(kernel, problem.coeff_values(kernel.rule), depth)]


@dataclass(frozen=True)
class UniqueLoads:
    c: np.ndarray


@dataclass(frozen=True)
class NoSolution:
    """The right-hand side is not in the range of E - A0: no continuous
    solution of the equation exists."""

    defect: float


@dataclass(frozen=True)
class NonUnique:
    """E - A0 is singular but consistent: any particular + null-space
    combination satisfies the system."""

    particular: np.ndarray
    nullspace: np.ndarray  # columns span the null space


ZeroOrderOutcome = Union[UniqueLoads, NoSolution, NonUnique]

def solve_zero_order_system(A0: np.ndarray, f_gamma: np.ndarray) -> ZeroOrderOutcome:
    """Solve (E - A0) c = f_gamma, classifying the outcome.

    Singular-but-consistent systems return the minimum-norm particular
    solution together with an orthonormal null-space basis; inconsistent
    ones report the least-squares defect.
    """
    n = A0.shape[0]
    system = np.eye(n) - A0
    rank = numerical_rank(system)
    if rank == n:
        return UniqueLoads(c=np.linalg.solve(system, f_gamma))
    u, sing, vt = np.linalg.svd(system)
    inv_sing = np.zeros_like(sing)
    inv_sing[:rank] = 1.0 / sing[:rank]
    particular = vt.T @ (inv_sing * (u.T @ f_gamma))
    defect = float(np.linalg.norm(system @ particular - f_gamma, np.inf))
    if defect > CONSISTENCY_TOL * (1.0 + float(np.linalg.norm(f_gamma, np.inf))):
        return NoSolution(defect=defect)
    return NonUnique(particular=particular, nullspace=vt[rank:].T.copy())


@dataclass(frozen=True)
class Classification:
    """Which constructive route the load matrix admits at lambda = 0."""

    kind: str  # "regular" | "irregular-identity" | "unsupported-irregular"
    det: float

    @property
    def is_regular(self) -> bool:
        return self.kind == "regular"

    @property
    def is_irregular_identity(self) -> bool:
        return self.kind == "irregular-identity"


def classify(A0: np.ndarray) -> Classification:
    """Regular when E - A0 has full numerical rank; the identity case
    A0 = E gets its own label; a singular E - A0 with A0 != E is not
    handled by any route in this package. det is for display only."""
    n = A0.shape[0]
    system = np.eye(n) - A0
    det = float(np.linalg.det(system))
    if float(np.max(np.abs(system))) <= IDENTITY_TOL * (1.0 + np.max(np.abs(A0))):
        return Classification(kind="irregular-identity", det=det)
    if numerical_rank(system) == n:
        return Classification(kind="regular", det=det)
    return Classification(kind="unsupported-irregular", det=det)
