"""Operator-level computations on the kernel K(t,s).

Everything here works on the Nystrom discretization: K at the node pairs of the
master rule, with the diagonal weight matrix W turning matrix products into
quadrature approximations of operator composition. K W is factored once into a
low-rank core K W = Q C with M = C Q (DiscreteKernel.core), the degenerate-kernel
method (Atkinson, The Numerical Solution of Integral Equations of the Second Kind,
1997, ch. 2), from CORE_MIN_NODES on by cross approximation from a few rows and
columns of K; below it, or when that gives up, K is sampled and Q = I. Per-lambda
and spectral steps are r x r work on the core: the resolvent images
lambda G W y = Q (I_r - lambda M)^{-1} lambda C y (Woodbury), the Taylor terms
(K W / g)^m y = Q (M / g)^{m-1} C y / g, det(I - lambda K W) = det(I_r - lambda M)
(Sylvester) and its zeros, the characteristic numbers, from the eigenvalues of M.
Other modules multiply by K through DiscreteKernel.apply and rows_times, on the same
factors; only this module and the oracle read the N x N sample. Probe columns,
drawn once per N, estimate the condition of I - lambda K W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import CharacteristicNumberError, DomainEvalError
from .expr import Expr, evaluate, grid_blocks
from .quadrature import GridFunction, QuadratureRule
from .tolerances import CLUSTER_RADIUS, COLLAPSE_RATIO, COND_LIMIT, CORE_CROSSES, CORE_MIN_NODES
from .tolerances import CORE_TOL, EIGEN_FLOOR, GRID_BLOCK, NILPOTENT_TOL
from .tolerances import REAL_RATIO, TRUNCATION

__all__ = [
    "Core",
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
    "binary_scale",
    "find_characteristic_numbers",
    "det_magnitude",
    "COND_LIMIT",
]


@dataclass(frozen=True, eq=False)
class Core:
    """K W = Q C with Q (N x r) orthonormal, C = Q^T K W (r x N) and M = C Q
    (r x r), which has the nonzero eigenvalues of K W. C is kept as its
    unweighted rows QtK = Q^T K, so C Y is QtK (W Y). The trivial core keeps
    Q = I implicit (Q is None): QtK is K itself and M = K W, so lift and
    on_range are the identity and every formula is the dense one. check_error is
    the solved Q QtK's relative error against K on the cross approximation's check set."""

    Q: Optional[np.ndarray]
    QtK: np.ndarray
    weights: np.ndarray
    check_error: float = 0.0

    @property
    def rank(self) -> int:
        return self.QtK.shape[0]

    def lift(self, z: np.ndarray) -> np.ndarray:
        """Q z."""
        return z if self.Q is None else self.Q @ z

    def on_range(self, rows: np.ndarray) -> np.ndarray:
        """rows Q."""
        return rows if self.Q is None else rows @ self.Q

    def compress(self, y: np.ndarray) -> np.ndarray:
        """C y for an N-vector or an N x k block y."""
        return self.QtK @ _weigh(self.weights, y)

    @cached_property
    def M(self) -> np.ndarray:
        """C Q, r x r."""
        return self.on_range(self.QtK * self.weights)

    def system(self, lam: float) -> np.ndarray:
        """I_r - lambda M, built in place."""
        matrix = self.M * -lam
        matrix.flat[:: self.rank + 1] += 1.0
        return matrix

    @cached_property
    def probe_terms(self) -> tuple:
        """(Q^T P, C P_perp, ||P_perp||^2, ||P||) per column of the probe block P
        (_probe), P_perp = P - Q Q^T P, for the refusal test of resolvent_images."""
        probe = _probe(self.weights.size)
        sizes = np.linalg.norm(probe, axis=0)
        if self.Q is None:  # P_perp = 0: the dense solve against P itself
            return probe, 0.0, 0.0, sizes
        projected = self.Q.T @ probe
        perp = probe - self.Q @ projected
        return projected, self.compress(perp), np.sum(perp**2, axis=0), sizes


class DiscreteKernel:
    """K[i, j] = K(t_i, s_j) as the operator K W = Q C (Core), with max|K| (max_abs,
    the finiteness check) and g = max_i sum_j w_j |K_ij| (norm) from one blocked pass
    over the rows of Q QtK. Without a core it takes the trivial one on the N x N
    sample `values`, which is formed from `expr` only when it is read."""

    def __init__(self, rule: QuadratureRule, expr: Expr, core: Optional[Core] = None):
        self.rule, self.expr = rule, expr
        self.core = core = core or Core(None, self.values, rule.weights)
        # Row blocks of |K| (the sample's or Q QtK's) in one buffer; a NaN makes max|K| a NaN.
        n, step = rule.n, max(1, GRID_BLOCK // rule.n)
        scratch, peaks, sums = np.empty((min(step, n), n)), np.empty(n), np.empty(n)
        for lo in range(0, n, step):
            block = scratch[: min(step, n - lo)]
            rows = core.QtK[lo : lo + step] if core.Q is None else core.Q[lo : lo + step]
            np.abs(rows if core.Q is None else np.matmul(rows, core.QtK, out=block), out=block)
            np.max(block, axis=1, out=peaks[lo : lo + step])
            np.matmul(block, rule.weights, out=sums[lo : lo + step])
        self.max_abs, self.norm = float(np.max(peaks)), float(np.max(sums))
        if not math.isfinite(self.max_abs):
            raise ValueError("kernel values must be finite")

    @cached_property
    def values(self) -> np.ndarray:
        """The N x N sample, read-only, formed on first read from expr.grid_blocks."""
        values = np.empty((self.rule.n, self.rule.n))
        for rows, block in grid_blocks(self.expr, self.rule.nodes, self.rule.nodes):
            values[rows] = block
            del block  # not alive while the next one is evaluated
        values.setflags(write=False)
        return values

    def apply(self, y: np.ndarray) -> np.ndarray:
        """K W y = Q (C y) for an N-vector or an N x k block y."""
        return self.core.lift(self.core.compress(y))

    def rows_times(self, rows: np.ndarray) -> np.ndarray:
        """Y K = (Y Q) QtK for a k x N block Y, such as the load rows."""
        return self.core.on_range(rows) @ self.core.QtK


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
    """K on the rule's nodes: from CORE_MIN_NODES on by cross approximation, with no
    N x N array; otherwise, or when that gives up, the sample with the trivial core,
    where a kernel that fails on the grid raises the whole grid's DomainEvalError."""
    core = _cross_core(kernel, rule) if rule.n >= CORE_MIN_NODES else None
    return DiscreteKernel(rule, kernel, core)


def _cross_core(kernel: Expr, rule: QuadratureRule) -> Optional[Core]:
    """K W = Q C from K = U V by partially pivoted adaptive cross approximation
    (Bebendorf, Numer. Math. 86, 2000), or None when it gives up. A cross reads a row
    and the column of its largest residual; the next row has that column's largest.
    A cross with ||u|| ||v|| <= sqrt(N) CORE_TOL ||U V||_F, a zero residual row or a
    stall (CORE_CROSSES crosses past the relatively smallest) stops it if U V is within
    N CORE_TOL of K, relative, on the check set: the diagonal and 4 fixed-seed rows,
    read first and scaled by a power of two to max|K| <= 1. A miss goes on from the row
    of the largest miss; a miss at a stall, N / 8 rows or a DomainEvalError gives up."""
    n, nodes = rule.n, rule.nodes
    picked = np.sort(np.random.default_rng(1).choice(n, 4, replace=False))
    owner = np.vstack([np.arange(n), np.repeat(picked[:, None], n, axis=1)])  # each check's row
    ut, v, used = np.zeros((CORE_CROSSES, n)), np.zeros((CORE_CROSSES, n)), np.zeros(n, dtype=bool)
    row, k, size, scale, least = 0, 0, 0.0, 1.0, (math.inf, 0)  # size = ||U V||_F^2

    def read(t, s) -> np.ndarray:
        return evaluate(kernel, {"t": t, "s": s}) / scale

    def miss(ut, v) -> tuple[np.ndarray, float]:  # K - U V on the check set, and relative norm
        gap = check - np.vstack([np.sum(ut * v, axis=0), ut[:, picked].T @ v])
        return gap, float(np.linalg.norm(gap)) / (float(np.linalg.norm(check)) or 1.0)

    try:
        check = np.vstack([read(nodes, nodes), read(nodes[picked, None], nodes)])
        scale = binary_scale(check.ravel())
        check /= scale
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n // 8):
                residual = read(nodes[row], nodes) - ut[:k, row] @ v[:k]
                used[row] = True
                pivot = int(np.argmax(np.abs(residual)))
                if residual[pivot] != 0.0:
                    if k == len(ut):  # U^T and V double
                        ut, v = (np.vstack([a, np.zeros_like(a)]) for a in (ut, v))
                    v[k] = residual / residual[pivot]
                    ut[k] = read(nodes, nodes[pivot]) - ut[:k].T @ v[:k, pivot]
                    cross = (ut[k] @ ut[k]) * (v[k] @ v[k])  # numpy's: cross / size at 0 / 0 is NaN
                    size += 2.0 * float((ut[:k] @ ut[k]) @ (v[:k] @ v[k])) + cross
                    k += 1
                    least = min(least, (cross / size, k))
                    row = int(np.argmax(np.where(used, -1.0, np.abs(ut[k - 1]))))
                    if cross > n * CORE_TOL**2 * size and k - least[1] < CORE_CROSSES:
                        continue
                gap, error = miss(ut[:k], v[:k])
                if error <= n * CORE_TOL:
                    break
                if k - least[1] >= CORE_CROSSES:
                    return None
                row = int(owner.flat[np.argmax(np.where(used[owner], 0.0, np.abs(gap)))])
            else:
                return None
    except DomainEvalError:
        return None
    # Recompress: QR(U) R((V W)^T), trimmed to a Frobenius tail above half the threshold.
    k = max(k, 1)  # a zero U V gives the zero core of rank 1
    left, up = np.linalg.qr(ut[:k].T)
    x, sing, _ = np.linalg.svd(up @ np.linalg.qr((v[:k] * rule.weights).T, mode="r").T)
    tail = np.sqrt(np.cumsum(sing[::-1] ** 2))[::-1]
    for rank in (max(1, int(np.count_nonzero(tail > 0.5 * n * CORE_TOL * tail[0]))), k):
        q, qtk = left @ x[:, :rank], (x[:, :rank].T @ up) @ v[:k]
        if (error := miss(q.T, qtk)[1]) <= n * CORE_TOL:  # a trimmed miss keeps all k
            break
    return Core(q, qtk * scale, rule.weights, error)


def iterate_kernels(kernel: DiscreteKernel, depth: int) -> IteratedKernels:
    """K_1..K_depth by weighted composition of the sample, O(N^3) per step: a dense
    reference, as the routes use scaled_powers. Overflowing iterates stay non-finite."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    out = [kernel.values]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(depth - 1):
            out.append(kernel.values @ _weigh(kernel.rule.weights, out[-1]))
    return IteratedKernels(rule=kernel.rule, kernels=tuple(out))


def series_scale(kernel: DiscreteKernel) -> float:
    """g = kernel.norm, or 1 for a null kernel: ||K W / g|| = 1 in the max norm."""
    return kernel.norm or 1.0


def scaled_powers(kernel: DiscreteKernel, columns: np.ndarray, depth: int) -> Iterator[np.ndarray]:
    """Yield (K W / g)^m Y = Q (M / g)^{m-1} C Y / g for m = 1..depth and an
    N x k block Y on the core, g = series_scale, so K_m W Y is g^m times the
    m-th term. After the first step, each is one r x r by r x k product and
    no N x N iterated kernel is formed; max|term| never grows, so none overflows."""
    core = kernel.core
    matrix = core.QtK * (kernel.rule.weights / series_scale(kernel))  # C / g
    step, lift = core.on_range(matrix), core.lift  # M / g and Q
    for _ in range(depth):
        columns = matrix @ columns
        yield lift(columns)
        matrix = step


def _weigh(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W y for an N-vector or an N x k block y."""
    return (weights if y.ndim == 1 else weights[:, None]) * y


@lru_cache(maxsize=None)
def _probe(n: int) -> np.ndarray:
    """The fixed-seed N x 4 Gaussian probe block of the nilpotency test and the
    resolvent's norm estimate, drawn once per N and returned read-only."""
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


def resolvent(kernel: DiscreteKernel, lam: float) -> np.ndarray:
    """Resolvent kernel G = (I - lambda K W)^{-1} K = K + (I - lambda K W)^{-1}
    lambda K W K on the grid, the second term by resolvent_images.

    Satisfies (I - lambda K W)(I + lambda G W) = I and, for small
    |lambda| * norm, the iterated-kernel series G = sum lambda^{n-1} K_n.
    """
    return kernel.values + resolvent_images(kernel, lam, kernel.values)


def resolvent_apply(kernel: DiscreteKernel, lam: float, g: GridFunction) -> GridFunction:
    """Solve (I - lambda K W) y = g on the grid; y = g + lambda * G W g."""
    images = resolvent_images(kernel, lam, g.values[:, None])
    return GridFunction(kernel.rule, g.values + images[:, 0])


def resolvent_images(kernel: DiscreteKernel, lam: float, columns: np.ndarray) -> np.ndarray:
    """lambda * G W y for each column y of an N x m block: Z = (I - lambda K W)^{-1}
    lambda K W Y = Q (I_r - lambda M)^{-1} lambda C Y (Woodbury), from one r x r LU.

    The probe block P is solved alongside: (I - lambda K W)^{-1} P is
    P_perp + Q Y_P with (I_r - lambda M) Y_P = Q^T P + lambda C P_perp, so
    its column norms are sqrt(||P_perp||^2 + ||Y_P||^2), and their largest
    ratio to ||P|| estimates ||(I - lambda K W)^{-1}|| from below (Dixon,
    SIAM J. Numer. Anal. 20, 1983); on the trivial core Y_P solves I - lambda K W
    against P itself. lambda is refused when LAPACK finds the matrix exactly
    singular or when (1 + |lambda| g) times the estimate exceeds COND_LIMIT or
    is below 0.5 / sqrt(N): an exact solve gives at least 1 / sqrt(N), as
    ||A||_2 <= sqrt(N) (1 + |lambda| g), so less means the LU lost every digit.
    Above COND_LIMIT, the message names |lambda| g when it alone is above it."""
    core = kernel.core
    rhs = lam * core.compress(columns)
    projected, coupled, perp_squares, sizes = core.probe_terms
    try:
        z = np.linalg.solve(core.system(lam), np.column_stack([rhs, projected + lam * coupled]))
    except np.linalg.LinAlgError:
        raise CharacteristicNumberError(lam, math.inf) from None
    width = rhs.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular solve: inf / nan
        growth = np.sqrt(perp_squares + np.sum(z[:, width:] ** 2, axis=0)) / sizes
    inverse_norm = float(np.max(growth))
    condition = (1.0 + abs(lam) * kernel.norm) * inverse_norm
    if condition < 0.5 / math.sqrt(kernel.rule.n):
        reason = (f"makes the solve of I - lambda K W lose every digit: (1 + |lambda| g) "
                  f"times the estimate is below 0.5 / sqrt({kernel.rule.n})")
        raise CharacteristicNumberError(lam, inverse_norm, reason)
    if not condition <= COND_LIMIT:
        if abs(lam) * kernel.norm > COND_LIMIT:
            reason = f"is too large: |lambda| g alone exceeds COND_LIMIT = {COND_LIMIT:g}"
            raise CharacteristicNumberError(lam, inverse_norm, reason)
        raise CharacteristicNumberError(lam, inverse_norm)
    return core.lift(z[:, :width])


def binary_scale(columns: np.ndarray) -> np.ndarray:
    """Per column of an N x m block, or for an N-vector, the power of two s
    just above max|y|, at most 2^1023 (1 for a zero column): max|y / s| < 1,
    and dividing or multiplying by s is exact."""
    exponent = np.frexp(np.max(np.abs(columns), axis=0))[1]
    return np.ldexp(1.0, np.minimum(exponent, 1023))


def det_magnitude(kernel: DiscreteKernel, lam: float) -> float:
    """|det(I - lambda K W)| = |det(I_r - lambda M)| (Sylvester), the discrete
    stand-in for the Fredholm denominator's magnitude at lambda."""
    _, logdet = np.linalg.slogdet(kernel.core.system(lam))  # -inf when singular
    with np.errstate(over="ignore"):  # beyond the float range: inf
        return float(np.exp(logdet))


def find_characteristic_numbers(
    kernel: DiscreteKernel, lam_min: float, lam_max: float, depth: int = TRUNCATION
) -> list[float]:
    """Zeros of det(I - lambda K W) in [lam_min, lam_max], sorted and
    repeated by multiplicity: the real 1/mu over the eigenvalues mu of K W
    (Bornemann, Math. Comp. 79, 2010), read from the core's M, which has
    the nonzero ones, above the roundoff floor EIGEN_FLOOR g.
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
    mu = np.linalg.eigvals(kernel.core.M)
    top = float(np.max(np.abs(mu), initial=0.0))
    mu = mu[np.abs(mu) > EIGEN_FLOOR * kernel.norm]
    size = np.abs(mu)
    radius = CLUSTER_RADIUS * math.sqrt(top) * np.sqrt(np.maximum(size[:, None], size[None, :]))
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
