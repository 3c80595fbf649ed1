"""Shared helpers for the test suite.

Keeps the independent oracles in one place: closed-form polynomial
integrals for frozen expected values, plus a seeded generator of random
regular problems with polynomial data (so grid interpolation is exact
and cross-route comparisons are meaningful at tight tolerances).
"""

from __future__ import annotations

import numpy as np

import fredload as fl
from fredload.problemfile import parse_problem_file


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


def load_row(functional: fl.Functional, rule: fl.QuadratureRule) -> np.ndarray:
    """The grid row v with v @ y(nodes) = <gamma, p>, p the barycentric interpolant
    of y through the rule's nodes: the load's weights times the interp_weights rows
    at its points."""
    ts, coeffs = functional.discrete
    return coeffs @ np.array([fl.interp_weights(rule, t) for t in ts])


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


def _random_load_terms(rng: np.random.Generator) -> list[str]:
    """Problem-file lines of one load: a point term, an integral term or both."""
    terms = []
    if rng.random() < 0.6:
        terms.append(f"point = {float(rng.uniform(-1, 1))!r} @ {float(rng.uniform(0, 1))!r}")
    if rng.random() < 0.6 or not terms:
        lo = float(rng.uniform(0.0, 0.5))
        hi = float(rng.uniform(lo + 0.2, 1.0))
        terms.append(f"integral = {poly_text(rng.uniform(-1, 1, size=2), 's')} on [{lo!r}, {hi!r}]")
    return terms


def _problem_text(kernel: str, source: str, loads) -> str:
    """loads: (coeff text, term lines) per load."""
    blocks = [f"interval = 0 1\nkernel = {kernel}\nsource = {source}\n"]
    blocks += ["\n".join(["[load]", f"coeff = {coeff}", *terms]) + "\n" for coeff, terms in loads]
    return "\n".join(blocks)


def random_load_problem(rng: np.random.Generator, kind: str, nodes: int = 32):
    """(problem-file text, lambda) for n = 2-3 loads and polynomial data, of one kind:

      regular       random coefficients a_k: a regular E - A0, the regular route;
      identity      a_k = sum_j phi_j (G^{-1})_jk for random phi_j and
                    G[i, j] = <gamma_i, phi_j>, so A0 = E: the irregular route;
      annihilating  the kernel p(t) q(s) with <gamma_k, p> = 0 for every load and
                    integral p q = 0: the loads annihilate a nilpotent kernel, and
                    the zero-order system gives the load vector (the nilpotent route).

    lambda keeps |lambda| g <= 0.5, and for A0 = E it is a tenth of rho at most.
    Draws are repeated until the unscaled problem solves on its kind's route."""
    routes = {"regular": "regular", "identity": "irregular", "annihilating": "nilpotent"}
    for _ in range(200):
        n = int(rng.integers(2, 4))
        terms = [_random_load_terms(rng) for _ in range(n)]
        source = poly_text(rng.uniform(-1, 1, size=int(rng.integers(1, 4))), "t")
        coeffs = [poly_text(rng.uniform(-0.4, 0.4, size=int(rng.integers(1, 4))), "t")
                  for _ in range(n)]
        functionals = [ld.functional for ld in
                       parse_problem_file(_problem_text("0", "0", [("0", t) for t in terms]))
                       .build(nodes).loads]

        def applied(coefficients):
            """<gamma_i, sum_m coefficients[m] t^m> for every load i."""
            return np.array([fl.apply(g, fl.parse(poly_text(coefficients, "t"), {"t"}))
                             for g in functionals])

        if kind == "annihilating":
            # p spans the null space of the n x (n + 1) matrix <gamma_k, t^m>.
            moments = np.column_stack([applied(np.eye(n + 1)[m]) for m in range(n + 1)])
            p = np.linalg.svd(moments)[2][-1]
            # q moves along the s^m against which p has the largest moment.
            q = rng.uniform(-1, 1, size=3)
            moment = [poly_integral(np.convolve(p, np.eye(3)[m]), 0.0, 1.0) for m in range(3)]
            m = int(np.argmax(np.abs(moment)))
            q[m] -= poly_integral(np.convolve(p, q), 0.0, 1.0) / moment[m]
            kernel = f"({poly_text(p, 't')})*({poly_text(q, 's')})"
        else:
            kernel = " + ".join(
                f"({poly_text(rng.uniform(-0.6, 0.6, size=3), 't')})*"
                f"({poly_text(rng.uniform(-0.6, 0.6, size=3), 's')})" for _ in range(n))
        if kind == "identity":
            phi = rng.uniform(-1, 1, size=(3, n))
            gram = np.column_stack([applied(phi[:, j]) for j in range(n)])
            if np.linalg.cond(gram) > 1e3:
                continue
            solved = phi @ np.linalg.inv(gram)
            coeffs = [poly_text(solved[:, k], "t") for k in range(n)]
        text = _problem_text(kernel, source, zip(coeffs, terms))
        problem = parse_problem_file(text).build(nodes)
        discrete = fl.discretize(problem.kernel, problem.master_rule(nodes))
        prep = fl.prepare(problem, discrete)
        lam = float(rng.uniform(-0.5, 0.5)) / max(discrete.norm, 1e-3)
        try:
            if kind == "identity":
                lam = float(np.sign(lam)) * min(abs(lam), 0.1 * prep.laurent.rho)
            if fl.solve_prepared(prep, lam).route == routes[kind]:
                return text, lam
        except fl.FredloadError:
            continue
    raise RuntimeError(f"could not generate a problem of kind {kind}")
