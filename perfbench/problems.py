"""Seeded problem generator for the benchmark.

Three families of loaded Fredholm equations on [0, 1], written out as
`.prob` files so that the program under test only ever receives files:

  regular    one point load and one integral load, kernel
             c0*exp(c1*(t-s))*cos(c2*t*s); small coefficients keep
             det(E - A0) and the load system far from singular, and
             |lambda| * max|K| <= 0.4 keeps lambda far from characteristic
             numbers. No closed form: checked against the dense oracle.
  identity   a single point load with <gamma, a> = 1 (A0 = E), a cosine
             kernel and the source beta * integral K(t, s) ds, so that the
             exact solution is x = -beta / lambda (first-order pole at 0).
  nilpotent  K = c * (t - t0) * (s - m) with integral (s - m)(s - t0) = 0
             and the point load x(t0): the load annihilates the kernel
             slices, K_2 = 0, and x is an exact degree-1 polynomial in
             lambda.

Each family has a fixed structure (number and kind of loads and terms) and
draws only values from the seed, so the cost of one operation barely
depends on the seed. The repository's own `docs/examples/*.prob` files are
described by hand-written entries with their known properties.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

EXAMPLES_DIR = os.path.join("docs", "examples")


@dataclass
class Problem:
    """One problem file and what the benchmark knows about it."""

    name: str
    text: Optional[str]  # None for repository examples, read from `path`
    classification: str  # as printed by `fredload analyze`
    route: Optional[str]  # auto route; None when no continuous solution exists
    nilpotency: Optional[int]
    pole_order: Optional[int]  # only meaningful for irregular-identity
    solve_lams: tuple[float, ...]
    sweep_range: tuple[float, float]
    poles_range: tuple[float, float] = (-6.0, 6.0)
    # exact(t, lam) -> x(t); exact_gamma(lam) -> load vector. None: use the oracle.
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    exact_gamma: Optional[Callable[[float], np.ndarray]] = None
    path: str = ""
    successive_lam: Optional[float] = None  # set once the bound is known

    @property
    def solvable(self) -> bool:
        return self.route is not None


def round_sig(x: float, digits: int = 4) -> float:
    """Round to a few significant digits so the file stays readable; every
    closed form below is computed from the rounded value."""
    return float(f"{x:.{digits}g}")


def _lam_list(rng: np.random.Generator, lo: float, hi: float, count: int) -> tuple[float, ...]:
    return tuple(round_sig(v) for v in rng.uniform(lo, hi, size=count))


def regular(rng: np.random.Generator, name: str, solves: int) -> Problem:
    c0 = round_sig(rng.uniform(0.4, 0.9))
    c1 = round_sig(rng.uniform(-1.0, 1.0))
    c2 = round_sig(rng.uniform(0.5, 3.0))
    kmax = c0 * math.exp(abs(c1))
    # sup|a_k| <= 0.2 and ||gamma_k|| <= 1: |A0|, |A(lambda)| <= 0.2 and
    # E - A0 - A(lambda) stays diagonally dominant.
    p0, p1 = (round_sig(v) for v in rng.uniform(-0.1, 0.1, size=2))
    q0, q1 = (round_sig(v) for v in rng.uniform(-0.1, 0.1, size=2))
    alpha = round_sig(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
    t1 = round_sig(rng.uniform(0.0, 1.0))
    lo = round_sig(rng.uniform(0.0, 0.4))
    hi = round_sig(rng.uniform(0.6, 1.0))
    d0 = round_sig(rng.uniform(0.2, 0.6))
    d1 = round_sig(rng.uniform(-0.4, 0.4))
    e0, e1 = (round_sig(v) for v in rng.uniform(-1.0, 1.0, size=2))
    e2 = round_sig(rng.uniform(0.5, 4.0))
    lam_max = round_sig(0.4 / kmax)
    text = f"""\
# generated regular problem: one point load and one integral load
interval = 0 1
kernel = {c0}*exp({c1}*(t - s))*cos({c2}*t*s)
source = {e0} + {e1}*sin({e2}*t)

[load]
coeff = {p0} + {p1}*t
point = {alpha} @ {t1}

[load]
coeff = {q0} + {q1}*t
integral = {d0} + {d1}*s on [{lo}, {hi}]
"""
    signs = rng.choice([-1.0, 1.0], size=solves)
    lams = tuple(round_sig(s * v) for s, v in zip(signs, rng.uniform(0.1, 1.0, size=solves) * lam_max))
    return Problem(
        name=name,
        text=text,
        classification="regular",
        route="regular",
        nilpotency=None,
        pole_order=None,
        solve_lams=lams,
        sweep_range=(-lam_max, lam_max),
    )


def identity(rng: np.random.Generator, name: str, solves: int) -> Problem:
    c1 = round_sig(rng.uniform(0.3, 0.8))
    c2 = round_sig(rng.uniform(0.0, 0.5))
    c3 = round_sig(rng.uniform(0.0, 0.2))
    w = round_sig(rng.uniform(1.0, 4.0))
    beta = round_sig(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    a0 = round_sig(rng.uniform(0.5, 2.0))
    alpha = 1.0 / a0
    t0 = round_sig(rng.uniform(0.0, 1.0))
    # integral_0^1 K(t, s) ds, so f = beta * k(t) gives x = -beta / lambda.
    row_integral = f"{c1} + {c2}*t/2 + {c3}*(sin({w}*t) - sin({w}*(t - 1)))/{w}"
    sign = float(rng.choice([-1.0, 1.0]))
    # |lambda| * max|K| <= 0.3 keeps the Laurent series contracting (q < 1).
    lam_hi = round_sig(0.3 / (c1 + c2 + c3))
    lam_lo = round_sig(lam_hi / 10.0)
    sweep = tuple(sorted((sign * lam_lo, sign * lam_hi)))
    lams = tuple(round_sig(sign * v) for v in rng.uniform(lam_lo, lam_hi, size=solves))
    text = f"""\
# generated identity-load problem: A0 = E, exact solution x = -beta/lambda
interval = 0 1
kernel = {c1} + {c2}*t*s + {c3}*cos({w}*(t - s))
source = {beta}*({row_integral})

[load]
coeff = {a0}
point = {alpha!r} @ {t0}
"""
    return Problem(
        name=name,
        text=text,
        classification="irregular-identity",
        route="irregular",
        nilpotency=None,
        pole_order=1,
        solve_lams=lams,
        sweep_range=sweep,
        exact=lambda t, lam: np.full(np.shape(t), -beta / lam),
        exact_gamma=lambda lam: np.array([-alpha * beta / lam]),
    )


def nilpotent(rng: np.random.Generator, name: str, solves: int) -> Problem:
    t0 = round_sig(rng.choice([rng.uniform(0.1, 0.4), rng.uniform(0.6, 0.9)]))
    m = (t0 / 2.0 - 1.0 / 3.0) / (t0 - 0.5)  # integral_0^1 (s - m)(s - t0) ds = 0
    cpsi = round_sig(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
    a = Polynomial([round_sig(v) for v in rng.uniform(-0.3, 0.3, size=2)])
    f = Polynomial([round_sig(v) for v in rng.uniform(-1.0, 1.0, size=3)])
    alpha = round_sig(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
    c = alpha * f(t0) / (1.0 - alpha * a(t0))
    u = f + c * a
    moment = (Polynomial([-m, 1.0]) * u).integ()
    coupling = cpsi * (moment(1.0) - moment(0.0))
    text = f"""\
# generated nilpotent problem: K_2 = 0 and x(t0) annihilates the kernel
interval = 0 1
kernel = {cpsi}*(t - {t0})*(s - {m!r})
source = {f.coef[0]} + {f.coef[1]}*t + {f.coef[2]}*t^2

[load]
coeff = {a.coef[0]} + {a.coef[1]}*t
point = {alpha} @ {t0}
"""
    return Problem(
        name=name,
        text=text,
        classification="regular",
        route="nilpotent",
        nilpotency=1,
        pole_order=None,
        solve_lams=_lam_list(rng, -5.0, 5.0, solves),
        sweep_range=(-5.0, 5.0),
        exact=lambda t, lam: u(np.asarray(t)) + lam * (np.asarray(t) - t0) * coupling,
        exact_gamma=lambda lam: np.array([c]),
    )


FAMILIES = {"regular": regular, "identity": identity, "nilpotent": nilpotent}


def examples(rng: np.random.Generator, solves: int) -> dict[str, Problem]:
    """The repository's example files, with seeded lambdas."""

    def path(name):
        return os.path.join(EXAMPLES_DIR, name + ".prob")

    return {
        "loaded_regular": Problem(
            name="loaded_regular", text=None,
            classification="regular", route="regular", nilpotency=None, pole_order=None,
            solve_lams=(0.2,) + _lam_list(rng, -1.0, 1.0, solves - 1),
            sweep_range=(-1.0, 1.0), path=path("loaded_regular"),
        ),
        "identity_pole": Problem(
            name="identity_pole", text=None,
            classification="irregular-identity", route="irregular", nilpotency=None,
            pole_order=1,
            solve_lams=(0.25,) + _lam_list(rng, 0.05, 0.5, solves - 1),
            sweep_range=(0.05, 0.5), path=path("identity_pole"),
            exact=lambda t, lam: np.full(np.shape(t), -1.0 / lam),
            exact_gamma=lambda lam: np.array([-1.0 / lam]),
        ),
        "nilpotent": Problem(
            name="nilpotent", text=None,
            classification="regular", route="nilpotent", nilpotency=1, pole_order=None,
            solve_lams=(10.0,) + _lam_list(rng, -10.0, 10.0, solves - 1),
            sweep_range=(-10.0, 10.0), path=path("nilpotent"),
            exact=lambda t, lam: 1.0 + lam * (np.asarray(t) - 0.5),
            exact_gamma=lambda lam: np.array([1.0]),
        ),
        "no_solution": Problem(
            name="no_solution", text=None,
            classification="irregular-identity", route=None, nilpotency=None,
            pole_order=None,
            solve_lams=(0.3,) + _lam_list(rng, 0.1, 1.0, solves - 1),
            sweep_range=(0.1, 1.0), path=path("no_solution"),
        ),
    }


def write(problem: Problem, directory: str) -> None:
    """Write a generated problem into `directory` and record its path."""
    problem.path = os.path.join(directory, problem.name + ".prob")
    with open(problem.path, "w", encoding="utf-8") as handle:
        handle.write(problem.text)
