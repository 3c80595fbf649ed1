"""Operator-level computations on the kernel K(t,s).

Everything here works on the Nystrom discretization: an N x N sample of
the kernel on the master rule, with the diagonal weight matrix W turning
matrix products into quadrature approximations of operator composition.
The resolvent G(t,s,lambda) of (I - lambda K)^{-1} = I + lambda * G[.] is
obtained by a dense solve per lambda; the routes need only its images
lambda * G W y, one solve with those right-hand sides, and its Taylor
series only the scaled column powers (K W / g)^m y. The determinant of
the discretized operator stands in for the Fredholm denominator; its zeros,
the characteristic numbers, are the reciprocals of the real eigenvalues of
K W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CharacteristicNumberError
from .expr import Expr, evaluate
from .quadrature import GridFunction, QuadratureRule

__all__ = [
    "DiscreteKernel",
    "IteratedKernels",
    "ResolventData",
    "discretize",
    "iterate_kernels",
    "nilpotency_index",
    "operator_norm",
    "scaled_powers",
    "series_scale",
    "resolvent",
    "resolvent_apply",
    "resolvent_images",
    "find_characteristic_numbers",
    "det_magnitude",
    "DET_PROXIMITY_TOL",
]

# |det(I - lambda K W)| at or below this counts as "at a characteristic number".
DET_PROXIMITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscreteKernel:
    """Kernel sampled at node pairs: values[i, j] = K(t_i, s_j)."""

    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        n = self.rule.n
        if values.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n} x {n}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def system_matrix(self, lam: float) -> np.ndarray:
        """I - lambda * K * W for the rule's weights W."""
        return np.eye(self.rule.n) - lam * (self.values * self.rule.weights)


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


@dataclass(frozen=True, eq=False)
class ResolventData:
    """The resolvent kernel sampled on the grid at one lambda, plus the
    signed log-determinant of I - lambda K W."""

    lam: float
    gamma: np.ndarray
    det_sign: float
    det_log: float


def discretize(kernel: Expr, rule: QuadratureRule) -> DiscreteKernel:
    """Sample K(t,s) at all node pairs of the rule."""
    t = rule.nodes[:, None]
    s = rule.nodes[None, :]
    values = evaluate(kernel, {"t": t, "s": s})
    values = np.broadcast_to(np.asarray(values, dtype=float), (rule.n, rule.n)).copy()
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


def operator_norm(kernel: DiscreteKernel) -> float:
    """Discrete sup-norm of the integral operator: max_i sum_j w_j |K_ij|."""
    if kernel.rule.n == 0:
        return 0.0
    return float(np.max(np.abs(kernel.values) @ kernel.rule.weights))


def series_scale(kernel: DiscreteKernel) -> float:
    """g = operator_norm(kernel), or 1 for a null kernel: ||K W / g|| = 1 in the max norm."""
    return operator_norm(kernel) or 1.0


def scaled_powers(kernel: DiscreteKernel, columns: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Yield (K W / g)^m Y for m = 1..depth and an N x k block Y, g = series_scale,
    so K_m W Y is g^m times the m-th term. Each step is one N x N by N x k
    product instead of an N x N iterated kernel; max|term| never grows, so
    none overflows."""
    step = kernel.values * (kernel.rule.weights / series_scale(kernel))
    for _ in range(depth):
        columns = step @ columns
        yield columns


_COLLAPSE_RATIO = 1e-6


def nilpotency_index(kernel: DiscreteKernel, depth: int, tol: float = 1e-10) -> Optional[int]:
    """Smallest p with (K W)^{p+1} negligible but (K W)^p not, judged on
    Q_m = (K W / g)^m P for a fixed-seed N x 4 probe P (scaled_powers) and
    m <= depth; None if no such p, 0 for a null kernel. If (K W)^k = 0 then
    Q_k = 0, and a generic probe does not vanish earlier.

    Negligible means max|Q_m| <= tol * (1 + max|Q_1|) AND a collapse of at
    least six orders of magnitude against Q_p: a contractive kernel also
    drives max|Q_m| under any fixed threshold, but by a bounded per-step
    ratio, whereas annihilation drops to the roundoff floor. Later terms
    stay negligible, as max|Q_m| never grows, so the first negligible term
    decides and the recurrence stops there."""
    probe = np.random.default_rng(0).standard_normal((kernel.rule.n, 4))
    mags: list[float] = []
    for q in scaled_powers(kernel, probe, depth):
        mags.append(float(np.max(np.abs(q))))
        if mags[-1] <= tol * (1.0 + mags[0]):
            p = len(mags) - 1
            return p if p == 0 or mags[p] <= _COLLAPSE_RATIO * mags[p - 1] else None
    return None


def _slogdet_or_raise(kernel: DiscreteKernel, lam: float) -> tuple[np.ndarray, float, float]:
    system = kernel.system_matrix(lam)
    sign, logdet = np.linalg.slogdet(system)
    if sign == 0:
        raise CharacteristicNumberError(lam, 0.0)
    if logdet <= math.log(DET_PROXIMITY_TOL):
        raise CharacteristicNumberError(lam, math.exp(logdet))
    return system, float(sign), float(logdet)


def resolvent(kernel: DiscreteKernel, lam: float) -> ResolventData:
    """Resolvent kernel G = (I - lambda K W)^{-1} K by dense solve.

    Satisfies (I - lambda K W)(I + lambda G W) = I and, for small
    |lambda| * norm, the iterated-kernel series G = sum lambda^{n-1} K_n.
    """
    system, sign, logdet = _slogdet_or_raise(kernel, lam)
    gamma = np.linalg.solve(system, kernel.values)
    return ResolventData(lam=lam, gamma=gamma, det_sign=sign, det_log=logdet)


def resolvent_apply(kernel: DiscreteKernel, lam: float, g: GridFunction) -> GridFunction:
    """Solve (I - lambda K W) y = g on the grid; y = g + lambda * G W g."""
    system, _, _ = _slogdet_or_raise(kernel, lam)
    y = np.linalg.solve(system, g.values)
    return GridFunction(kernel.rule, y)


def resolvent_images(kernel: DiscreteKernel, lam: float, columns: np.ndarray) -> np.ndarray:
    """lambda * G W y for each column y of an N x m block, by one solve of
    (I - lambda K W) Z = lambda K W Y."""
    system, _, _ = _slogdet_or_raise(kernel, lam)
    weighted = kernel.rule.weights[:, None] * columns
    return np.linalg.solve(system, lam * (kernel.values @ weighted))


def det_magnitude(kernel: DiscreteKernel, lam: float) -> float:
    """|det(I - lambda K W)|, the discrete stand-in for the Fredholm
    denominator's magnitude at lambda."""
    _, logdet = np.linalg.slogdet(kernel.system_matrix(lam))  # -inf when singular
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return float(np.exp(logdet))


def find_characteristic_numbers(
    kernel: DiscreteKernel, lam_min: float, lam_max: float
) -> list[float]:
    """Zeros of det(I - lambda K W) in [lam_min, lam_max], sorted and
    repeated by multiplicity: the real 1/mu over the eigenvalues mu of K W
    (Bornemann, Math. Comp. 79, 2010). Real means |Im mu| <= 1e-9 |mu|;
    |mu| <= 1e-12 max|mu| is the roundoff floor of a finite-rank kernel."""
    if not lam_min < lam_max:
        raise ValueError("need lam_min < lam_max")
    mu = np.linalg.eigvals(kernel.values * kernel.rule.weights)
    floor = 1e-12 * float(np.max(np.abs(mu), initial=0.0))
    real = mu[(np.abs(mu.imag) <= 1e-9 * np.abs(mu)) & (np.abs(mu) > floor)]
    roots = sorted(1.0 / float(m.real) for m in real)
    return [r for r in roots if lam_min <= r <= lam_max]
