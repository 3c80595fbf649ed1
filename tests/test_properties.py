"""Properties of the routes that no single example pins down: agreement with
the dense oracle on kernels with a repeated eigenvalue, and invariance under
an affine map of the interval."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import fredload as fl
from fredload.cli import _outcome
from fredload.errors import ConvergenceError, FredloadError, RoutePreconditionError
from util import make_problem

TWO_PI = 2.0 * math.pi
NODES = [64, 256]


@st.composite
def _repeated_eigenvalue_problem(draw):
    """(problem, lambda) for a kernel whose eigenvalues repeat, with |lambda| at
    most 0.6 of its smallest characteristic value. c cos(k (t - s)) on [0, 2 pi]
    has the double eigenvalue c pi, and a sum of such terms with one c has it with
    multiplicity twice the number of terms; (-2 + 6 s) + t (-6 + 12 s) on [0, 1]
    has the defective double eigenvalue 1 (det(I - lambda K) = (1 - lambda)^2)."""
    family = draw(st.sampled_from(["cos", "sum", "defective"]))
    size = st.floats(-1.0, 1.0)
    if family == "defective":
        kernel, b, top = "(-2+6*s) + t*(-6+12*s)", 1.0, 1.0
    else:
        c = draw(st.floats(0.2, 1.5))
        waves = [draw(st.integers(1, 3))] if family == "cos" else draw(
            st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
        kernel = " + ".join(f"{c!r}*cos({k}*(t - s))" for k in waves)
        b, top = TWO_PI, c * math.pi
    loads = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.floats(0.0, 0.6)) * b
        hi = lo + draw(st.floats(0.1, 0.4)) * b
        weight = fl.parse(f"1 + {draw(size)!r}*cos(s)", {"s"})
        term = fl.IntegralTerm(lo, hi, weight, fl.gauss_legendre(24, lo, hi))
        point = fl.PointTerm(draw(size), draw(st.floats(0.0, 1.0)) * b)
        coeff = f"{draw(size)!r} + {draw(size)!r}*sin(t)"
        loads.append((coeff, fl.Functional((point,), (term,))))
    source = f"1 + {draw(size)!r}*cos(t) + {draw(size)!r}*t"
    lam = draw(st.floats(0.05, 0.6)) * draw(st.sampled_from([-1.0, 1.0])) / top
    return make_problem(kernel, source, loads, a=0.0, b=b), lam


def _routes_agreeing_with_the_oracle(prep, lam):
    """The routes that take the problem at lambda, each checked against
    dense_solve to 1e-10 relative; every warning is an error."""
    routes = {
        "auto": lambda: fl.solve_prepared(prep, lam),
        "regular": lambda: fl.solve_regular(prep, lam),
        "successive": lambda: fl.solve_successive(prep, lam),
        "nilpotent": lambda: fl.solve_nilpotent(prep, lam),
        "irregular": lambda: fl.solve_irregular(prep, lam),
    }
    solved = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = fl.dense_solve(prep.problem, prep.kernel, lam)
        bound = 1e-10 * float(np.max(np.abs(reference.x.values)))
        for name, route in routes.items():
            try:
                solution = route()
            except (RoutePreconditionError, ConvergenceError):
                continue
            solved.append(name)
            assert np.max(np.abs(solution.x.values - reference.x.values)) <= bound, name
    assert "auto" in solved and len(solved) >= 2
    return solved


@pytest.mark.parametrize("nodes", NODES)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=_repeated_eigenvalue_problem())
def test_every_applicable_route_agrees_with_the_oracle_at_a_repeated_eigenvalue(nodes, case):
    # I - lambda K W is far from singular; the load system is drawn well conditioned.
    problem, lam = case
    prep = fl.prepare(problem, fl.discretize(problem.kernel, problem.master_rule(nodes)))
    assume(prep.classification.is_regular)
    coupled = fl.A_lambda(problem, prep.kernel, lam)
    assume(np.linalg.cond(np.eye(problem.n) - prep.A0 - coupled) < 1e4)
    event(",".join(_routes_agreeing_with_the_oracle(prep, lam)))


@pytest.mark.xfail(strict=True, reason="FOUND irregular-truncation: the irregular route sums "
                   "A(lambda) to `truncation` terms and leaves the tail unchecked")
@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("kernel, b, coeff, load, lam", [
    # A_m = pi^m: at lambda pi = -1/2 the 30 terms leave 0.5^30 of A(lambda) out.
    ("cos(t - s)", TWO_PI, "sin(t)", fl.integral_load(0.0, math.pi / 2, fl.parse("1", {"s"})),
     -1.0 / TWO_PI),
    ("(-2+6*s) + t*(-6+12*s)", 1.0, "1", fl.point_load(0.25), -0.5),
    # docs/examples/identity_pole.prob, inside its certified radius rho = 0.4737.
    ("1", 1.0, "1", fl.point_load(0.0), 0.47),
])
def test_the_irregular_route_agrees_with_the_oracle_at_a_repeated_eigenvalue(nodes, kernel, b,
                                                                             coeff, load, lam):
    # A0 = E. In the first two cases lambda is half the kernel's characteristic value,
    # and x is off by 3e-9 and 1.2e-9 relative, and by about 4e-15 with truncation 60.
    # In the third, x is off by 2.7e-10 relative although q <= RADIUS_Q.
    problem = make_problem(kernel, "1", [(coeff, load)], a=0.0, b=b)
    prep = fl.prepare(problem, fl.discretize(problem.kernel, problem.master_rule(nodes)))
    assert prep.classification.is_irregular_identity
    _routes_agreeing_with_the_oracle(prep, lam)


# Data on the reference interval [0, 1] in u = (t - lo) / (hi - lo) and v = (s - lo) / (hi - lo).
_SMOOTH_KERNELS = ("exp({0}*u*v)", "cos({0}*(u - v))", "1/(1 + {0}*(u - v)^2)")


@st.composite
def _reference_problem(draw):
    """A problem on [0, 1] given as data in u and v, with its lambda times the
    kernel's norm. 'identity' scales the one load's coefficient to A0 = E, and
    'nilpotent' takes K = (u - 1/2) cos(p (v - 1/2)), which loads symmetric about
    1/2 annihilate and which composes with itself to zero."""
    mode = draw(st.sampled_from(["regular", "identity", "nilpotent"]))
    where, size = st.floats(0.0, 1.0), st.floats(-1.0, 1.0)
    if mode == "nilpotent":
        kernel = f"(u - 1/2)*cos({draw(st.floats(0.0, 3.0))!r}*(v - 1/2))"
        loads = [((draw(size), 0.5), (0.0, 1.0, f"abs(v - 1/2) + {draw(size)!r}"))]
    else:
        kernel = draw(st.sampled_from(_SMOOTH_KERNELS)).format(repr(draw(st.floats(0.2, 3.0))))
        loads = []
        for _ in range(1 if mode == "identity" else draw(st.integers(1, 2))):
            lo = draw(st.floats(0.0, 0.6))
            hi = lo + draw(st.floats(0.2, 0.4))
            integral = (lo, hi, f"1 + {draw(size)!r}*v^2")
            loads.append(((draw(size), draw(where)), integral))
    coeffs = [f"{draw(size)!r}*u + {draw(size)!r}" for _ in loads]
    if mode == "identity":
        unit = _build(kernel, "1", [(coeffs[0], loads[0])], 0.0, 1.0)
        scale = fl.apply(unit.loads[0].functional, unit.loads[0].coeff)
        assume(abs(scale) > 0.1)
        coeffs = [f"({coeffs[0]})/{scale!r}"]
    source = f"1 + {draw(size)!r}*exp(u)"
    lam = draw(st.floats(0.05, 0.9)) * draw(st.sampled_from([-1.0, 1.0]))
    return kernel, source, list(zip(coeffs, loads)), lam


def _build(kernel, source, loads, lo, hi):
    """The reference problem carried onto [lo, hi]: every expression read at
    u(t) and v(s), K and the integral weights divided by hi - lo, and every
    point and integral bound moved with the map."""
    width = hi - lo

    def on(text):
        text = re.sub(r"\bu\b", f"((t - {lo!r})/{width!r})", text)
        return re.sub(r"\bv\b", f"((s - {lo!r})/{width!r})", text)

    def at(u):
        return lo + u * width

    built = []
    for coeff, ((alpha, point), (left, right, weight)) in loads:
        a, b = at(left), at(right)
        term = fl.IntegralTerm(a, b, fl.parse(f"({on(weight)})/{width!r}", {"s"}),
                               fl.gauss_legendre(24, a, b))
        built.append((on(coeff), fl.Functional((fl.PointTerm(alpha, at(point)),), (term,))))
    return make_problem(f"({on(kernel)})/{width!r}", on(source), built, a=lo, b=hi)


def _solve(problem, nodes, lam):
    """(exit status, route, x on the grid) of the auto route, as the CLI would exit."""
    kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
    try:
        solution = fl.solve_auto(problem, kernel, lam)
    except FredloadError as exc:
        return _outcome(exc)[1], None, None
    return 0, solution.route, solution.x.values


_INTERVAL = st.tuples(st.floats(-3.0, 3.0), st.floats(0.5, 4.0))  # (start, width)


@pytest.mark.parametrize("nodes", NODES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_reference_problem(), interval=_INTERVAL, image=_INTERVAL)
def test_an_affine_map_of_the_interval_keeps_route_exit_code_and_solution(nodes, case,
                                                                          interval, image):
    # The map of [a, b] onto [c, d] scales K and the integral weights by
    # (b - a) / (d - c); x at the mapped nodes is x at the nodes.
    kernel, source, loads, size = case
    original = _build(kernel, source, loads, interval[0], sum(interval))
    mapped = _build(kernel, source, loads, image[0], sum(image))
    norm = fl.discretize(original.kernel, original.master_rule(nodes)).norm
    lam = size / norm if norm else size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, route, x = _solve(original, nodes, lam)
        status_mapped, route_mapped, x_mapped = _solve(mapped, nodes, lam)
    event(f"exit {status} {route}")
    assert (status_mapped, route_mapped) == (status, route)
    if status == 0:
        assert np.max(np.abs(x_mapped - x)) <= 1e-12 * np.max(np.abs(x))
