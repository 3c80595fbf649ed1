"""Finite linear systems governing the load vector.

Applying the loads to the equation collapses it onto n unknowns
c_k = <gamma_k, x>. Two systems appear:

  (E - A0) c = f_gamma                      when the loads annihilate K
  (E - A0 - A(lambda)) c = b(lambda)        in general

with A0[i,k] = <gamma_i, a_k> and f_gamma[i] = <gamma_i, f> applied to the
expressions exactly. By the Nystrom identity x = f + a c + lambda K W x, a
load reads the grid only through the kernel slices KG[i, j] =
<gamma_i, K(., s_j)> (functionals.kernel_slices). One solve of
(I - lambda K W) Z = lambda K W [a | f] gives x = ([a | f] + Z) [c; 1],
A(lambda) = lambda KG W (a + Z_a) and b(lambda) = f_gamma + lambda KG W (f + Z_f).
The lambda factor is kept inside A so that A(0) = 0 exactly and its Taylor
coefficients are A_m = KG W (K W)^{m-1} a, kept scaled as A~_m = A_m / g^m
(taylor_A) and built from the column recurrence (K W / g)^m a, so no N x N
iterated kernel is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Union

import numpy as np

from . import functionals
from .kernel_ops import DiscreteKernel, resolvent_images, scaled_powers, series_scale
from .problem import Load, ProblemSpec
from .tolerances import COND_LIMIT, CONSISTENCY_TOL, IDENTITY_TOL

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


def numerical_rank(matrix: np.ndarray, scale: float = 0.0) -> int:
    """How many singular values of `matrix` count against COND_LIMIT. `scale`
    is the natural size of an assembled matrix, so that one collapsed to
    roundoff is not judged well-conditioned; with scale 0 the rank is full
    exactly when the condition number is at most COND_LIMIT."""
    sing = np.linalg.svd(matrix, compute_uv=False)
    reference = max(float(sing[0]), scale)
    return int(np.count_nonzero(COND_LIMIT * sing > reference))


def assemble_A0(problem: ProblemSpec) -> np.ndarray:
    """A0[i, k] = <gamma_i, a_k>, by exact evaluation of a_k."""
    loads = problem.loads
    return np.array([[functionals.apply(row.functional, col.coeff) for col in loads]
                     for row in loads])


def assemble_f_gamma(problem: ProblemSpec) -> np.ndarray:
    """f_gamma[i] = <gamma_i, f>."""
    return np.array([functionals.apply(load.functional, problem.source) for load in problem.loads])


def assemble_lambda_system(
    problem: ProblemSpec, kernel: DiscreteKernel, lam: float, f_gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(lambda), b(lambda), B) from one solve of (I - lambda K W) Z =
    lambda K W [a | f] with n + 1 right-hand sides: B = [a | f] + Z rebuilds
    the solution as x = B_a x_gamma + B_f = u + lambda G W u for
    u = f + a x_gamma, and the loads read it through the kernel slices,
    A(lambda) = lambda KG W B_a and b(lambda) = f_gamma + lambda KG W B_f."""
    rule = kernel.rule
    columns = np.column_stack([problem.coeff_values(rule), problem.source_values(rule)])
    basis = columns + resolvent_images(kernel, lam, columns)
    coupled = lam * (functionals.kernel_slices(problem, kernel) @ (rule.weights[:, None] * basis))
    return coupled[:, :-1], f_gamma + coupled[:, -1], basis


def A_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """A(lambda)[i, k] = <gamma_i, lambda * (G W a_k)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[0]


def b_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """b(lambda)[i] = <gamma_i, f> + <gamma_i, lambda * (G W f)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[1]


def taylor_A(problem: ProblemSpec, kernel: DiscreteKernel, depth: int) -> list[np.ndarray]:
    """Scaled coefficients A~_1..A~_depth, A~_m = KG W (K W / g)^{m-1} a / g
    with g = series_scale(kernel), so A(lambda) = sum_m (lambda g)^m A~_m and
    A_m[i, k] = <gamma_i, (K_m W a_k)(t)> = g^m A~_m[i, k]."""
    coeffs = problem.coeff_values(kernel.rule)
    scaled_weights = kernel.rule.weights / series_scale(kernel)
    weighted = functionals.kernel_slices(problem, kernel) * scaled_weights
    return [weighted @ y for y in chain([coeffs], scaled_powers(kernel, coeffs, depth - 1))]


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
    ones (normwise backward error above CONSISTENCY_TOL) report the defect.
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
    scale = np.linalg.norm(system, np.inf) * np.linalg.norm(particular, np.inf)
    if defect > CONSISTENCY_TOL * float(scale + np.linalg.norm(f_gamma, np.inf)):
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
