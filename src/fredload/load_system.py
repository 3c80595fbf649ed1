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
iterated kernel is formed. Whether an n x n load matrix M is singular,
negligible or contractive is judged on U^{-1} M U in the load units
U = diag(||gamma_k||), rounded to powers of two (load_units, in_load_units),
which rescaling one load leaves alone; the solves use M itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from . import functionals
from .errors import DomainEvalError, NoSolutionError
from .kernel_ops import DiscreteKernel, binary_scale, resolvent_images, scaled_powers, series_scale
from .problem import ProblemSpec
from .tolerances import COND_LIMIT, CONSISTENCY_TOL, IDENTITY_TOL

__all__ = [
    "Classification",
    "load_units",
    "in_load_units",
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
    with np.errstate(over="ignore"):  # inf > reference counts sigma as the exact product would
        return int(np.count_nonzero(COND_LIMIT * sing > reference))


def loads_in_range(values: np.ndarray, applied_to: str) -> np.ndarray:
    """`values`, one row per load (row i is load i applied to `applied_to`);
    DomainEvalError naming the first load whose row is not finite."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
    if bad.size:
        raise DomainEvalError(
            f"load {bad[0] + 1} applied to {applied_to} is beyond the double range", applied_to
        )
    return values


def assemble_A0(problem: ProblemSpec) -> np.ndarray:
    """A0[i, k] = <gamma_i, a_k>, by exact evaluation of a_k."""
    loads = problem.loads
    return loads_in_range(np.array([[functionals.apply(row.functional, col.coeff)
                                     for col in loads] for row in loads]), "the load coefficients")


def assemble_f_gamma(problem: ProblemSpec) -> np.ndarray:
    """f_gamma[i] = <gamma_i, f>."""
    return loads_in_range(np.array([functionals.apply(load.functional, problem.source)
                                    for load in problem.loads]), "the source")


def assemble_lambda_system(
    problem: ProblemSpec, kernel: DiscreteKernel, lam: float, f_gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(lambda), b(lambda), B) from one solve of (I - lambda K W) Z =
    lambda K W [a | f] with n + 1 right-hand sides: B = [a | f] + Z rebuilds
    the solution as x = B_a x_gamma + B_f = u + lambda G W u for
    u = f + a x_gamma, and the loads read it through the kernel slices,
    A(lambda) = lambda KG W B_a and b(lambda) = f_gamma + lambda KG W B_f.
    Both products act on [a | f] / s, each column divided by its binary_scale
    s, and are multiplied back by s, so that neither K W [a | f] nor KG W B
    overflows where A(lambda), b(lambda) and B do not; the scaling is exact."""
    rule = kernel.rule
    columns = np.column_stack([problem.coeff_values(rule), problem.source_values(rule)])
    scale = binary_scale(columns)
    basis = columns / scale
    basis += resolvent_images(kernel, lam, basis)
    slices = functionals.kernel_slices(problem, kernel)
    coupled = lam * (slices @ (rule.weights[:, None] * basis)) * scale
    basis *= scale
    return coupled[:, :-1], f_gamma + coupled[:, -1], basis


def A_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """A(lambda)[i, k] = <gamma_i, lambda * (G W a_k)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[0]


def b_lambda(problem: ProblemSpec, kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """b(lambda)[i] = <gamma_i, f> + <gamma_i, lambda * (G W f)(t)>."""
    return assemble_lambda_system(problem, kernel, lam, assemble_f_gamma(problem))[1]


def taylor_A(problem: ProblemSpec, kernel: DiscreteKernel, depth: int) -> np.ndarray:
    """Scaled coefficients A~_1..A~_depth as one depth x n x n array, A~_m =
    KG W (K W / g)^{m-1} a / g with g = series_scale(kernel), so A(lambda) =
    sum_m (lambda g)^m A~_m and A_m[i, k] = <gamma_i, (K_m W a_k)(t)> = g^m A~_m[i, k]."""
    coeffs = problem.coeff_values(kernel.rule)
    scaled_weights = kernel.rule.weights / series_scale(kernel)
    weighted = functionals.kernel_slices(problem, kernel) * scaled_weights
    terms = chain([coeffs], scaled_powers(kernel, coeffs, depth - 1))
    return np.stack([weighted @ y for y in terms])


def load_units(problem: ProblemSpec) -> np.ndarray:
    """The load units u_k = ||gamma_k|| (functional_norm; 1 for a null load)
    rounded to a power of two, at most 2^1023, so that in_load_units is exact. Rescaling
    one load, (a_k, gamma_k) -> (s a_k, gamma_k / s), scales u_k, c_k and row and
    column k of every n x n load matrix alike, up to that rounding."""
    norms = [functionals.functional_norm(load.functional) or 1.0 for load in problem.loads]
    return np.ldexp(1.0, np.minimum(np.round(np.log2(norms)), 1023).astype(int))


def in_load_units(matrix: np.ndarray, units: np.ndarray) -> np.ndarray:
    """U^{-1} M U for U = diag(units): an n x n load matrix, or a stack of them, in
    load units, where every decision on it is made. Products by powers of two are exact."""
    return matrix * (units / units[:, None])


def solve_zero_order_system(
    a0_units: np.ndarray, f_gamma: np.ndarray, units: np.ndarray, classification: Classification
) -> tuple[np.ndarray, Optional[str]]:
    """(c, note) for (E - A0) c = f_gamma, given a0_units = in_load_units(A0, units) and
    classification = classify(a0_units): c is the minimum-norm solution in load units, by
    the SVD, and NoSolutionError is raised when it is inconsistent (normwise backward error
    above CONSISTENCY_TOL): the equation then has no continuous solution. The note says
    when E - A0 is below full rank. Only the rank classify judged is inverted, so the
    roundoff left in E - A0 = 0 for A0 = E is not."""
    scaled = np.eye(classification.n) - a0_units
    rhs = f_gamma / units
    u, sing, vt = np.linalg.svd(scaled)
    inv_sing = np.zeros_like(sing)
    inv_sing[: classification.rank] = 1.0 / sing[: classification.rank]
    particular = vt.T @ (inv_sing * (u.T @ rhs))
    defect = float(np.linalg.norm(scaled @ particular - rhs, np.inf))
    scale = np.linalg.norm(scaled, np.inf) * np.linalg.norm(particular, np.inf)
    if defect > CONSISTENCY_TOL * float(scale + np.linalg.norm(rhs, np.inf)):
        raise NoSolutionError(
            "the loads annihilate the kernel and the zero-order load "
            "system is inconsistent: the equation has no solution in "
            "the class of continuous functions"
        )
    note = "load system singular but consistent; minimum-norm load vector used"
    return units * particular, None if classification.is_regular else note


@dataclass(frozen=True)
class Classification:
    """Which constructive route the load matrix admits at lambda = 0, read from
    the rank of the n x n E - A0 that classify judged: 0 for A0 = E, n when regular."""

    rank: int
    n: int
    det: float

    @property
    def kind(self) -> str:
        return ("regular" if self.is_regular else "irregular-identity"
                if self.is_irregular_identity else "unsupported-irregular")

    @property
    def is_regular(self) -> bool:
        return self.rank == self.n

    @property
    def is_irregular_identity(self) -> bool:
        return self.rank == 0


def classify(A0: np.ndarray) -> Classification:
    """The rank of E - A0, judged once for every route: 0 when A0 = E to working
    precision, max|E - A0| <= IDENTITY_TOL (1 + max|A0|); else numerical_rank, at least
    1 as E - A0 != 0 even where its largest singular value overflows. No route here takes
    a singular E - A0 with A0 != E. det is for display only; A0 is in load units."""
    n = A0.shape[0]
    system = np.eye(n) - A0
    identity = float(np.max(np.abs(system))) <= IDENTITY_TOL * (1.0 + float(np.max(np.abs(A0))))
    rank = 0 if identity else max(1, numerical_rank(system))
    return Classification(rank, n, float(np.linalg.det(system)))
