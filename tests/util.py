"""Shared helpers for the test suite.

Keeps the independent oracles in one place: closed-form polynomial
integrals for frozen expected values, plus a seeded generator of random
regular problems with polynomial data (so grid interpolation is exact
and cross-route comparisons are meaningful at tight tolerances).
"""

from __future__ import annotations

import numpy as np

import fredload as fl


def poly_integral(coeffs, lo: float, hi: float) -> float:
    """Closed-form integral of sum_k coeffs[k] * x^k over [lo, hi]."""
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
    return total


def poly_eval(coeffs, x: float) -> float:
    return sum(c * x**k for k, c in enumerate(coeffs))


def poly_text(coeffs, var: str) -> str:
    """Expression text for sum_k coeffs[k] * var^k, with exact literals."""
    parts = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if k == 0:
            parts.append(f"({c!r})")
        elif k == 1:
            parts.append(f"({c!r})*{var}")
        else:
            parts.append(f"({c!r})*{var}^{k}")
    return " + ".join(parts) if parts else "0"


def make_problem(kernel: str, source: str, loads, a: float = 0.0, b: float = 1.0):
    """loads: list of (coeff_text, Functional)."""
    return fl.ProblemSpec(
        a=a,
        b=b,
        kernel=fl.parse(kernel, {"t", "s"}),
        source=fl.parse(source, {"t"}),
        loads=tuple(
            fl.Load(coeff=fl.parse(coeff, {"t"}), functional=gamma)
            for coeff, gamma in loads
        ),
    )


def golden_identity_problem(nodes: int = 64):
    """Identity-load problem with K = 1, f = 1 and the load x(0): the load
    vector is -1/lambda with a first-order pole at lambda = 0."""
    problem = make_problem("1", "1", [("1", fl.point_load(0.0))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
    return problem, kernel


GOLDEN_FILE_TEXT = """\
# identity-load problem: the load vector has a first-order pole at lambda = 0
interval = 0 1
kernel = 1
source = 1

[load]
coeff = 1
point = 1 @ 0

[numerics]
lambda = 0.25
"""

NO_SOLUTION_FILE_TEXT = """\
# the load annihilates the kernel but the zero-order system is inconsistent
interval = 0 1
kernel = t*s
source = 1

[load]
coeff = 1
point = 1 @ 0
"""


def random_polynomial_kernel(rng: np.random.Generator, max_rank: int = 3) -> str:
    rank = int(rng.integers(1, max_rank + 1))
    pieces = []
    for _ in range(rank):
        phi = rng.uniform(-0.6, 0.6, size=int(rng.integers(1, 4)))
        psi = rng.uniform(-0.6, 0.6, size=int(rng.integers(1, 4)))
        pieces.append(f"({poly_text(phi, 't')})*({poly_text(psi, 's')})")
    return " + ".join(pieces)


def random_functional(rng: np.random.Generator, nodes: int) -> fl.Functional:
    points = []
    integrals = []
    if rng.random() < 0.6:
        points.append(fl.PointTerm(alpha=float(rng.uniform(-1, 1)), t0=float(rng.uniform(0, 1))))
    if rng.random() < 0.6:
        lo = float(rng.uniform(0.0, 0.5))
        hi = float(rng.uniform(lo + 0.2, 1.0))
        weight = fl.parse(poly_text(rng.uniform(-1, 1, size=2), "s"), {"s"})
        integrals.append(fl.IntegralTerm(lo, hi, weight, fl.gauss_legendre(nodes, lo, hi)))
    if not points and not integrals:
        points.append(fl.PointTerm(alpha=1.0, t0=float(rng.uniform(0, 1))))
    return fl.Functional(point_terms=tuple(points), integral_terms=tuple(integrals))


def make_random_regular_problem(rng: np.random.Generator, nodes: int = 64, max_tries: int = 200):
    """A random regular problem with |lambda| * operator_norm <= 0.5 and a
    well-conditioned load system; all data polynomial."""
    for _ in range(max_tries):
        kernel_text = random_polynomial_kernel(rng)
        n_loads = int(rng.integers(1, 4))
        loads = []
        for _ in range(n_loads):
            coeff = poly_text(rng.uniform(-0.4, 0.4, size=int(rng.integers(1, 4))), "t")
            loads.append((coeff, random_functional(rng, nodes)))
        source = poly_text(rng.uniform(-1, 1, size=int(rng.integers(1, 5))), "t")
        problem = make_problem(kernel_text, source, loads)
        kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
        norm = kernel.norm
        lam = float(rng.uniform(-0.5, 0.5)) / max(norm, 1e-3)
        if abs(lam) * norm > 0.5:
            lam = 0.5 * np.sign(lam) / max(norm, 1e-3)
        a0 = fl.assemble_A0(problem)
        if not fl.classify(a0).is_regular:
            continue
        n = problem.n
        try:
            system = np.eye(n) - a0 - fl.A_lambda(problem, kernel, lam)
        except fl.CharacteristicNumberError:
            continue
        if np.linalg.cond(system) > 1e6:
            continue
        dense = fl.assemble_dense(problem, kernel, lam)
        if np.linalg.cond(dense.matrix) > 1e8:
            continue
        return problem, kernel, lam
    raise RuntimeError("could not generate a regular problem")
