"""Operator-level computations on the kernel K(t,s).

Everything here works on the Nystrom discretization: an N x N sample of
the kernel on the master rule, with the diagonal weight matrix W turning
matrix products into quadrature approximations of operator composition.
The resolvent G(t,s,lambda) of (I - lambda K)^{-1} = I + lambda * G[.] is
obtained by a dense solve per lambda; the routes need only its images
lambda * G W y, one solve with those right-hand sides, and its Taylor
series only the scaled column powers (K W / g)^m y. Probe columns in that
same solve, drawn once per N, estimate the condition of I - lambda K W,
which decides whether lambda is too close to a characteristic number.
The determinant of the discretized operator stands in for the Fredholm
denominator; its zeros, the characteristic numbers, are the reciprocals of
the real eigenvalues of K W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import CharacteristicNumberError
from .expr import Expr, evaluate
from .quadrature import GridFunction, QuadratureRule
from .tolerances import CLUSTER_RADIUS, COLLAPSE_RATIO, COND_LIMIT, EIGEN_FLOOR, NILPOTENT_TOL
from .tolerances import REAL_RATIO, TRUNCATION

__all__ = [
    "DiscreteKernel",
    "IteratedKernels",
    "discretize",
    "iterate_kernels",
    "nilpotency_index",
    "scaled_powers",
    "series_scale",
    "resolvent",
    "resolvent_apply",
    "resolvent_images",
    "find_characteristic_numbers",
    "det_magnitude",
    "COND_LIMIT",
]


@dataclass(frozen=True, eq=False)
class DiscreteKernel:
    """Kernel sampled at node pairs: values[i, j] = K(t_i, s_j), with its
    lambda-independent scalars computed once: max|K| on construction, where
    it is the finiteness check, and the operator norm g on first use."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        n = self.rule.n
        if values.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n} x {n}, got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if not math.isfinite(self.max_abs):
            raise ValueError("kernel values must be finite")

    @cached_property
    def max_abs(self) -> float:
        """max|K_ij|; non-finite exactly when some value is."""
        return float(np.max(np.abs(self.values), initial=0.0))

    @cached_property
    def norm(self) -> float:
        """Discrete sup-norm of the integral operator: max_i sum_j w_j |K_ij|."""
        return float(np.max(np.abs(self.values) @ self.rule.weights, initial=0.0))

    def system_matrix(self, lam: float) -> np.ndarray:
        """I - lambda * K * W for the rule's weights W, built in place."""
        matrix = self.values * self.rule.weights
        matrix *= -lam
        matrix.flat[:: self.rule.n + 1] += 1.0
        return matrix


@dataclass(frozen=True, eq=False)
class IteratedKernels:
    """Composition kernels K_1..K_M, K_n = K (W K)^{n-1} on the grid."""

    rule: QuadratureRule
    kernels: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.kernels)

    def kernel(self, n: int) -> np.ndarray:
        """K_n for 1 <= n <= depth."""
        return self.kernels[n - 1]


def discretize(kernel: Expr, rule: QuadratureRule) -> DiscreteKernel:
    """Sample K(t,s) at all node pairs of the rule; a sample that is not
    already N x N (one that ignores t or s) is broadcast into a copy."""
    values = evaluate(kernel, {"t": rule.nodes[:, None], "s": rule.nodes[None, :]})
    if np.shape(values) != (rule.n, rule.n):
        values = np.broadcast_to(values, (rule.n, rule.n)).copy()
    return DiscreteKernel(rule=rule, values=values)


def iterate_kernels(kernel: DiscreteKernel, depth: int) -> IteratedKernels:
    """K_1..K_depth by repeated weighted composition, O(N^3) per step: a dense
    reference, as the routes use scaled_powers. Overflowing iterates stay non-finite."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    out = [kernel.values]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(depth - 1):
            out.append(kernel.values @ (kernel.rule.weights[:, None] * out[-1]))
    return IteratedKernels(rule=kernel.rule, kernels=tuple(out))


def series_scale(kernel: DiscreteKernel) -> float:
    """g = kernel.norm, or 1 for a null kernel: ||K W / g|| = 1 in the max norm."""
    return kernel.norm or 1.0


def scaled_powers(kernel: DiscreteKernel, columns: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Yield (K W / g)^m Y for m = 1..depth and an N x k block Y, g = series_scale,
    so K_m W Y is g^m times the m-th term. Each step is one N x N by N x k
    product instead of an N x N iterated kernel; max|term| never grows, so
    none overflows."""
    step = kernel.values * (kernel.rule.weights / series_scale(kernel))
    for _ in range(depth):
        columns = step @ columns
        yield columns


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """The fixed-seed N x 4 Gaussian probe block of the nilpotency test and
    the resolvent's norm estimate, drawn once per N and returned read-only."""
    probe = np.random.default_rng(0).standard_normal((n, 4))
    probe.flags.writeable = False
    return probe


def nilpotency_index(kernel: DiscreteKernel, depth: int) -> Optional[int]:
    """Smallest p with (K W)^{p+1} negligible but (K W)^p not, judged on
    Q_m = (K W / g)^m P for a fixed-seed N x 4 probe P (scaled_powers) and
    m <= depth; None if no such p, 0 for a null kernel. If (K W)^k = 0 then
    Q_k = 0, and a generic probe does not vanish earlier.

    Negligible means below NILPOTENT_TOL and COLLAPSE_RATIO times Q_{m-1}:
    a contractive kernel also drives max|Q_m| under any fixed threshold, but
    by a bounded per-step ratio. max|Q_m| never grows, so the first
    negligible term decides and the recurrence stops there."""
    mags: list[float] = []
    for q in scaled_powers(kernel, _probe(kernel.rule.n), depth):
        mags.append(float(np.max(np.abs(q))))
        if mags[-1] <= NILPOTENT_TOL * (1.0 + mags[0]):
            p = len(mags) - 1
            return p if p == 0 or mags[p] <= COLLAPSE_RATIO * mags[p - 1] else None
    return None


def _solve_or_raise(kernel: DiscreteKernel, lam: float, rhs: np.ndarray) -> np.ndarray:
    """Z with (I - lambda K W) Z = rhs for an N x m block, from one LU.

    The probe block P is solved alongside, and max_i ||Z_P[:, i]|| / ||P[:, i]||
    estimates ||(I - lambda K W)^{-1}|| from below (Dixon, SIAM J. Numer.
    Anal. 20, 1983). lambda is refused when LAPACK finds the matrix exactly
    singular or when (1 + |lambda| g) times the estimate exceeds COND_LIMIT or
    is below 0.5 / sqrt(N): an exact solve gives at least 1 / sqrt(N), as
    ||A||_2 <= sqrt(N) (1 + |lambda| g), so less means the LU lost every digit."""
    probe = _probe(kernel.rule.n)
    try:
        z = np.linalg.solve(kernel.system_matrix(lam), np.column_stack([rhs, probe]))
    except np.linalg.LinAlgError:
        raise CharacteristicNumberError(lam, math.inf) from None
    width = z.shape[1] - probe.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular solve: inf / nan
        growth = np.linalg.norm(z[:, width:], axis=0) / np.linalg.norm(probe, axis=0)
    inverse_norm = float(np.max(growth))
    condition = (1.0 + abs(lam) * kernel.norm) * inverse_norm
    if condition < 0.5 / math.sqrt(kernel.rule.n):
        reason = (f"makes the solve of I - lambda K W lose every digit: (1 + |lambda| g) "
                  f"times the estimate is below 0.5 / sqrt({kernel.rule.n})")
        raise CharacteristicNumberError(lam, inverse_norm, reason)
    if not condition <= COND_LIMIT:
        raise CharacteristicNumberError(lam, inverse_norm)
    return z[:, :width]


def resolvent(kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """Resolvent kernel G = (I - lambda K W)^{-1} K on the grid, by dense solve.

    Satisfies (I - lambda K W)(I + lambda G W) = I and, for small
    |lambda| * norm, the iterated-kernel series G = sum lambda^{n-1} K_n.
    """
    return _solve_or_raise(kernel, lam, kernel.values)


def resolvent_apply(kernel: DiscreteKernel, lam: float, g: GridFunction) -> GridFunction:
    """Solve (I - lambda K W) y = g on the grid; y = g + lambda * G W g."""
    return GridFunction(kernel.rule, _solve_or_raise(kernel, lam, g.values)[:, 0])


def resolvent_images(kernel: DiscreteKernel, lam: float, columns: np.ndarray) -> np.ndarray:
    """lambda * G W y for each column y of an N x m block, by one solve of
    (I - lambda K W) Z = lambda K W Y."""
    weighted = kernel.rule.weights[:, None] * columns
    return _solve_or_raise(kernel, lam, lam * (kernel.values @ weighted))


def det_magnitude(kernel: DiscreteKernel, lam: float) -> float:
    """|det(I - lambda K W)|, the discrete stand-in for the Fredholm
    denominator's magnitude at lambda."""
    _, logdet = np.linalg.slogdet(kernel.system_matrix(lam))  # -inf when singular
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return float(np.exp(logdet))


def find_characteristic_numbers(
    kernel: DiscreteKernel, lam_min: float, lam_max: float, depth: int = TRUNCATION
) -> list[float]:
    """Zeros of det(I - lambda K W) in [lam_min, lam_max], sorted and
    repeated by multiplicity: the real 1/mu over the eigenvalues mu of K W
    (Bornemann, Math. Comp. 79, 2010), above the roundoff floor EIGEN_FLOOR.
    A K W that nilpotency_index finds nilpotent within `depth` gives []: its
    zero eigenvalue is defective, and eigvals splits it into roundoff of
    about eps^(1/k) g for a Jordan block of size k.

    eigvals splits a defective multiple eigenvalue, often into a complex
    pair, so a chain within CLUSTER_RADIUS counts as one eigenvalue of the
    cluster's size at the cluster's mean, which is well-conditioned even
    when its members are not (Wilkinson, The Algebraic Eigenvalue Problem,
    1965). The radius shrinks with |mu|, so a tail of small simple
    eigenvalues stays apart; a mean is real by REAL_RATIO."""
    if not lam_min < lam_max:
        raise ValueError("need lam_min < lam_max")
    if nilpotency_index(kernel, depth) is not None:
        return []
    mu = np.linalg.eigvals(kernel.values * kernel.rule.weights)
    top = float(np.max(np.abs(mu), initial=0.0))
    mu = mu[np.abs(mu) > EIGEN_FLOOR * kernel.norm]
    size = np.abs(mu)
    radius = CLUSTER_RADIUS * np.sqrt(top * np.maximum(size[:, None], size[None, :]))
    close = np.abs(mu[:, None] - mu[None, :]) <= radius
    label = np.arange(mu.size)
    while True:  # every member ends up labelled by its cluster's first index
        new = np.min(np.where(close, label[None, :], mu.size), axis=1, initial=mu.size)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, group, count = np.unique(label, return_inverse=True, return_counts=True)
    mean = (np.bincount(group, mu.real) + 1j * np.bincount(group, mu.imag)) / count
    real = np.abs(mean.imag) <= REAL_RATIO * np.abs(mean)
    roots = np.sort(np.repeat(1.0 / mean.real[real], count[real]))
    return [float(r) for r in roots if lam_min <= r <= lam_max]
