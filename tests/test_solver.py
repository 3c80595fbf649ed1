"""Solution routes: regular, successive, nilpotent, irregular; residual."""

import dataclasses
import importlib
import math
import pathlib
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fredload as fl
from fredload import cli
from fredload import problem as problem_module
from fredload import solver as solver_module
from fredload.errors import (
    NoSolutionError,
    RoutePreconditionError,
    SingularLoadSystemError,
)
from fredload.load_system import in_load_units
from fredload.problemfile import load_problem_file, parse_problem_file
from fredload.quadrature import interp_row
from fredload.tolerances import POLE_COEFF_TOL, RADIUS_Q
from util import (
    golden_identity_problem,
    make_problem,
    make_random_regular_problem,
    poly_integral,
)

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def _discretized(problem, nodes=64):
    return fl.discretize(problem.kernel, problem.master_rule(nodes))


# ---------------------------------------------------------------- regular


def test_regular_zero_kernel_returns_source():
    problem = make_problem("0", "1 + t^2", [("0", fl.point_load(0.5))])
    kernel = _discretized(problem)
    for lam in [0.0, 0.7, -3.0]:
        solution = fl.solve_regular(fl.prepare(problem, kernel), lam)
        expected = 1.0 + kernel.rule.nodes**2
        assert np.max(np.abs(solution.x.values - expected)) <= 1e-13
        assert solution.residual <= 1e-13


def test_regular_matches_oracle_at_lambda_zero():
    rng = np.random.default_rng(3)
    problem, kernel, _ = make_random_regular_problem(rng)
    mine = fl.solve_regular(fl.prepare(problem, kernel), 0.0)
    reference = fl.dense_solve(problem, kernel, 0.0)
    assert np.max(np.abs(mine.x.values - reference.x.values)) <= 1e-8


def test_regular_rank_two_matches_oracle():
    problem = make_problem(
        "t*s + 0.5*(1-t)*(1-s)",
        "1 + t - t^2",
        [
            ("0.3*t", fl.point_load(0.25, alpha=2.0)),
            ("0.2", fl.integral_load(0.1, 0.9, fl.parse("1 + s", {"s"}))),
        ],
    )
    kernel = _discretized(problem)
    mine = fl.solve_regular(fl.prepare(problem, kernel), 0.3)
    reference = fl.dense_solve(problem, kernel, 0.3)
    assert np.max(np.abs(mine.x.values - reference.x.values)) <= 1e-8
    assert mine.residual <= 1e-8


def test_regular_refuses_irregular_classification():
    problem, kernel = golden_identity_problem()
    with pytest.raises(RoutePreconditionError):
        fl.solve_regular(fl.prepare(problem, kernel), 0.25)


def test_regular_detects_singular_load_system():
    # K = 1, a = 1/2, gamma = x(0): E - A0 - A(lambda) = 1/2 - lambda/(2(1-lambda))
    # vanishes at lambda = 1/2, away from the characteristic number 1.
    problem = make_problem("1", "1", [("0.5", fl.point_load(0.0))])
    kernel = _discretized(problem)
    with pytest.raises(SingularLoadSystemError):
        fl.solve_regular(fl.prepare(problem, kernel), 0.5)
    solution = fl.solve_regular(fl.prepare(problem, kernel), 0.4)  # nearby lambda is fine
    assert solution.residual <= 1e-8


def test_load_consistency_regular():
    rng = np.random.default_rng(5)
    problem, kernel, lam = make_random_regular_problem(rng)
    solution = fl.solve_regular(fl.prepare(problem, kernel), lam)
    recomputed = np.array([interp_row(solution.x.rule, *load.functional.discrete) @ solution.x.values
                           for load in problem.loads])
    assert np.max(np.abs(recomputed - solution.x_gamma)) <= 1e-7


# ------------------------------------------------------------- successive


def test_successive_zero_source_is_zero():
    problem = make_problem("1", "0", [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    solution = fl.solve_successive(fl.prepare(problem, kernel), 0.4)
    assert np.array_equal(solution.x.values, np.zeros(64))
    assert len(solution.history) == 1


def test_successive_at_lambda_zero_matches_regular():
    problem = make_problem("t*s", "1 + t", [("0.3*t", fl.point_load(0.5))])
    kernel = _discretized(problem)
    iterative = fl.solve_successive(fl.prepare(problem, kernel), 0.0)
    direct = fl.solve_regular(fl.prepare(problem, kernel), 0.0)
    assert np.max(np.abs(iterative.x.values - direct.x.values)) <= 1e-12
    assert len(iterative.history) == 2


def test_successive_constant_kernel_geometric_rate():
    problem = make_problem("1", "1", [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    solution = fl.solve_successive(fl.prepare(problem, kernel), 0.5, q=0.5)
    assert np.max(np.abs(solution.x.values - 2.0)) <= 1e-9
    assert solution.residual <= 10 * 1e-10  # stopping tolerance times ten
    ratios = [
        solution.history[i + 1] / solution.history[i]
        for i in range(1, len(solution.history) - 1)
        if solution.history[i] > 1e-12
    ]
    assert all(r <= 0.55 for r in ratios)
    assert ratios[0] == pytest.approx(0.5, abs=1e-10)


def test_successive_refuses_lambda_beyond_bound():
    problem = make_problem("1", "1", [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    bound = fl.successive_bound(problem, kernel)
    with pytest.raises(RoutePreconditionError) as err:
        fl.solve_successive(fl.prepare(problem, kernel), 0.8, q=0.5)
    assert f"{0.5 / bound:.6g}" in str(err.value)


def test_successive_rejects_bad_q():
    problem = make_problem("1", "1", [("0", fl.point_load(0.0))])
    kernel = _discretized(problem)
    with pytest.raises(ValueError):
        fl.solve_successive(fl.prepare(problem, kernel), 0.1, q=1.5)


def test_successive_rejects_an_empty_iteration_budget():
    problem = make_problem("1", "0", [("0", fl.point_load(0.0))])
    prep = fl.prepare(problem, _discretized(problem, nodes=8))
    assert len(fl.solve_successive(prep, 0.1, max_iter=1).history) == 1  # x_1 = x_0 = 0
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        fl.solve_successive(prep, 0.1, max_iter=0)


def test_successive_agrees_with_regular_on_loaded_problem():
    problem = make_problem(
        "t - 1/2", "1 + t", [("t", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = _discretized(problem)
    iterative = fl.solve_successive(fl.prepare(problem, kernel), 0.3, q=0.9)
    direct = fl.solve_regular(fl.prepare(problem, kernel), 0.3)
    assert np.max(np.abs(iterative.x.values - direct.x.values)) <= 1e-7


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_successive_stop_is_relative_to_the_iterate(scale):
    # An absolute stop ends a source of size 1e-12 after one iteration, 3% off.
    problem = make_problem(
        "t*s + 0.5*(1-t)*(1-s)", f"{scale!r}*(1 + t - t^2)",
        [("0.3*t", fl.point_load(0.25, 2.0)),
         ("0.2", fl.integral_load(0.1, 0.9, fl.parse("1 + s", {"s"})))],
    )
    prep = fl.prepare(problem, _discretized(problem))
    iterative = fl.solve_successive(prep, 0.05)
    direct = fl.solve_regular(prep, 0.05)
    assert len(iterative.history) == 9
    assert iterative.x_gamma == pytest.approx(direct.x_gamma, rel=1e-9)


def test_successive_solves_the_load_system_once_per_call(monkeypatch):
    # The coupling a (E - A0)^{-1} is one n x n solve per problem; the loop
    # applies it, so each call solves E - A0 once more, for the reported c,
    # however many steps it takes. No explicit inverse is formed.
    problem = make_problem(
        "t*s + 0.5*(1-t)*(1-s)", "1 + t - t^2",
        [("0.3*t", fl.point_load(0.25, 2.0)),
         ("0.2", fl.integral_load(0.1, 0.9, fl.parse("1 + s", {"s"})))],
    )
    prep = fl.prepare(problem, _discretized(problem))
    lams = (0.05, -0.3, 0.6)
    direct = [fl.solve_regular(prep, lam).x_gamma for lam in lams]
    solve, load_solves = np.linalg.solve, []

    def counting_solve(matrix, rhs):
        load_solves.append(np.shape(matrix) == (problem.n, problem.n))
        return solve(matrix, rhs)

    def no_inverse(matrix):
        raise AssertionError("explicit inverse")

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    steps = []
    for lam, reference in zip(lams, direct):
        solution = fl.solve_successive(prep, lam)
        steps.append(len(solution.history))
        assert solution.x_gamma == pytest.approx(reference, rel=1e-8)
    assert len(set(steps)) == 3
    assert sum(load_solves) == 1 + len(lams)


# -------------------------------------------------------------- nilpotent


def _centered_problem(coeff="0", source="1"):
    return make_problem(
        "t - 1/2", source, [(coeff, fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )


def test_nilpotent_exact_solution_all_lambdas():
    problem = _centered_problem()
    kernel = _discretized(problem)
    assert fl.nilpotency_index(kernel, 5) == 1
    for lam in [0.0, 1.0, 10.0]:
        solution = fl.solve_nilpotent(fl.prepare(problem, kernel, 5), lam)
        expected = 1.0 + lam * (kernel.rule.nodes - 0.5)
        assert np.max(np.abs(solution.x.values - expected)) <= 1e-8
        assert solution.residual <= 1e-8


def test_nilpotent_refuses_non_annihilating_loads():
    problem = make_problem("t - 1/2", "1", [("t", fl.point_load(1.0))])
    kernel = _discretized(problem)
    with pytest.raises(RoutePreconditionError):
        fl.solve_nilpotent(fl.prepare(problem, kernel, 5), 0.5)


def test_nilpotent_propagates_no_solution():
    # gamma = x(1/2) annihilates K = t - 1/2; a = 1 makes E - A0 = 0 while
    # fzgamma = f(1/2) = 1, so the zero-order system is inconsistent.
    problem = make_problem("t - 1/2", "1", [("1", fl.point_load(0.5))])
    kernel = _discretized(problem)
    with pytest.raises(NoSolutionError):
        fl.solve_nilpotent(fl.prepare(problem, kernel, 5), 0.5)


def test_nilpotent_non_unique_uses_particular_solution():
    problem = make_problem("t - 1/2", "t - 1/2", [("1", fl.point_load(0.5))])
    kernel = _discretized(problem)
    solution = fl.solve_nilpotent(fl.prepare(problem, kernel, 5), 0.5)
    assert solution.note is not None
    assert solution.residual <= 1e-10


def test_route_agreement_nilpotent_regular_successive():
    problem = _centered_problem(coeff="t")
    kernel = _discretized(problem)
    lam = 0.3
    a = fl.solve_nilpotent(fl.prepare(problem, kernel, 5), lam)
    b = fl.solve_regular(fl.prepare(problem, kernel), lam)
    c = fl.solve_successive(fl.prepare(problem, kernel), lam, q=0.9)
    assert np.max(np.abs(a.x.values - b.x.values)) <= 1e-7
    assert np.max(np.abs(a.x.values - c.x.values)) <= 1e-7


# -------------------------------------------------------------- irregular


def test_irregular_golden_closed_form():
    problem, kernel = golden_identity_problem()
    solution = fl.solve_irregular(fl.prepare(problem, kernel), 0.25)
    assert solution.expansion.pole_order == 1
    assert np.max(np.abs(solution.x.values + 4.0)) <= 1e-9
    assert fl.interpolate(solution.x, 0.0) == pytest.approx(-4.0, abs=1e-9)
    assert solution.residual <= 1e-9


def test_irregular_general_family_closed_form():
    # a = 1 + t, b = 1 + t/2, m = 1 + s, f = 1 + t^2; the closed form is
    # x(0, lam) = (1/(a,m)) * (-f(0)/(lam*b(0)) - (f,m) + (f(0)/b(0))*(b,m))
    # with the products computed by the polynomial-integral oracle.
    am = poly_integral(np.polynomial.polynomial.polymul([1, 1], [1, 1]), 0, 1)
    fm = poly_integral(np.polynomial.polynomial.polymul([1, 0, 1], [1, 1]), 0, 1)
    bm = poly_integral(np.polynomial.polynomial.polymul([1, 0.5], [1, 1]), 0, 1)
    assert am == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert fm == pytest.approx(25.0 / 12.0, abs=1e-15)
    assert bm == pytest.approx(23.0 / 12.0, abs=1e-15)
    problem = make_problem(
        "(1 + t/2) * (1 + s)", "1 + t^2", [("1 + t", fl.point_load(0.0))]
    )
    kernel = _discretized(problem)
    t = kernel.rule.nodes
    for lam in [0.05, 0.1, 0.15, 0.2, 0.24]:
        solution = fl.solve_irregular(fl.prepare(problem, kernel), lam)
        assert solution.expansion.pole_order == 1
        x0 = (1.0 / am) * (-1.0 / lam - fm + bm)
        expected = (1 + t**2) - (1 + t / 2) * 1.0 + (1 + t) * x0
        assert np.max(np.abs(solution.x.values - expected)) <= 1e-6
        assert solution.x_gamma[0] == pytest.approx(x0, abs=1e-6)
        assert solution.residual <= 1e-6


def test_irregular_agrees_with_dense_oracle():
    problem = make_problem(
        "(1 + t/2) * (1 + s)", "1 + t^2", [("1 + t", fl.point_load(0.0))]
    )
    kernel = _discretized(problem)
    mine = fl.solve_irregular(fl.prepare(problem, kernel), 0.2)
    reference = fl.dense_solve(problem, kernel, 0.2)
    assert np.max(np.abs(mine.x.values - reference.x.values)) <= 1e-6


def test_irregular_pole_at_zero_refused():
    problem, kernel = golden_identity_problem()
    with pytest.raises(RoutePreconditionError):
        fl.solve_irregular(fl.prepare(problem, kernel), 0.0)


def test_irregular_radius_refusal():
    problem, kernel = golden_identity_problem()
    with pytest.raises(RoutePreconditionError) as err:
        fl.solve_irregular(fl.prepare(problem, kernel), 0.6)
    assert "q =" in str(err.value)


def test_irregular_refuses_regular_problem():
    problem = make_problem("1", "1", [("0", fl.point_load(0.0))])
    kernel = _discretized(problem)
    with pytest.raises(RoutePreconditionError):
        fl.solve_irregular(fl.prepare(problem, kernel), 0.25)


def test_irregular_unsupported_case_message():
    # Two identical loads with a1 + a2 = 1 at t = 0: A0 = [[1, 0], [1, 0]]
    # is singular with A0 != E.
    problem = make_problem(
        "1", "1", [("1", fl.point_load(0.0)), ("0", fl.point_load(0.0))]
    )
    kernel = _discretized(problem)
    with pytest.raises(RoutePreconditionError) as err:
        fl.solve_irregular(fl.prepare(problem, kernel), 0.25)
    assert "no constructive route" in str(err.value)


def test_irregular_singular_leading_coefficient():
    # gamma1 = x(0), gamma2 = x(1), a1 = 1 - t, a2 = t give A0 = E, and
    # K = 1 gives A_1 = [[1/2, 1/2], [1/2, 1/2]], which is singular.
    problem = make_problem(
        "1", "1", [("1 - t", fl.point_load(0.0)), ("t", fl.point_load(1.0))]
    )
    kernel = _discretized(problem)
    with pytest.raises(RoutePreconditionError) as err:
        fl.solve_irregular(fl.prepare(problem, kernel), 0.1)
    assert "singular" in str(err.value)


def test_irregular_no_pole_order_when_coupling_vanishes():
    # Loads annihilate the kernel and A0 = E: every A_m vanishes.
    problem = make_problem(
        "t - 1/2", "t", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = _discretized(problem)
    with pytest.raises(RoutePreconditionError) as err:
        fl.solve_irregular(fl.prepare(problem, kernel), 0.1)
    assert "pole order" in str(err.value)


@pytest.mark.parametrize("c", [3.0, 5.0, 100.0, 3e10, 1e12, 1e100])
def test_irregular_pole_order_does_not_depend_on_kernel_scale(c):
    # K = c, f = 1, a = 1, gamma = x(0): A0 = E, A_m = c^m and x = -1/(c lambda).
    # The unscaled A_m overflow from m = 30, 26 and 4 for the last three c.
    problem = make_problem(repr(c), "1", [("1", fl.point_load(0.0))])
    kernel = _discretized(problem)
    lam = 0.1 / c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = fl.solve_irregular(fl.prepare(problem, kernel), lam)
    assert solution.expansion.pole_order == 1
    assert solution.expansion.growth == pytest.approx(c, rel=1e-14)
    assert solution.x.values == pytest.approx(np.full(64, -1.0 / (c * lam)), rel=1e-9)


def test_irregular_reports_overflowing_taylor_coefficients():
    # K = 1e12 makes A_m = 1e12^m, which overflows from m = 26 on; the route
    # keeps A_m / g^m with g = ||K W|| instead, so the default depth solves too.
    problem = make_problem("1e12", "1", [("1", fl.point_load(0.0))])
    kernel = _discretized(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solutions = [
            fl.solve_irregular(fl.prepare(problem, kernel, depth), 1e-13) for depth in (30, 20)
        ]
    for solution in solutions:
        assert solution.expansion.pole_order == 1
        assert solution.x.values == pytest.approx(np.full(64, -10.0), rel=1e-12)


def test_pole_order_rejects_non_finite_coefficients():
    finite = np.eye(2)
    for bad in (np.inf, np.nan):
        with pytest.raises(RoutePreconditionError, match=r"A_2 of the load coupling is not finite"):
            fl.solver.pole_order([finite, np.full((2, 2), bad), finite])
    assert fl.solver.pole_order([0.0 * finite, finite]) == (2, 2.0)


TWO_LOAD_IDENTITY = """\
interval = 0 1
kernel = cos(t - s) + 0.5*t*s
source = 1 + t

[load]
coeff = 1 - t
point = 1 @ 0

[load]
coeff = t
point = 1 @ 1
"""


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("name", ["identity_pole", "two_loads"])
def test_stacked_laurent_data_match_a_per_coefficient_reference(name, nodes):
    # One M x n x n stack of Taylor coefficients; pole order and rho keep the
    # bits of the coefficient-by-coefficient computation.
    text = TWO_LOAD_IDENTITY if name == "two_loads" else (EXAMPLES / f"{name}.prob").read_text()
    problem = parse_problem_file(text).build(nodes)
    kernel = _discretized(problem, nodes)
    prep = fl.prepare(problem, kernel)
    assert prep.classification.is_irregular_identity
    taylor = fl.taylor_A(problem, kernel, prep.truncation)
    assert isinstance(taylor, np.ndarray)
    assert taylor.shape == (prep.truncation, problem.n, problem.n)
    assert np.array_equal(prep.taylor, taylor)
    mags = [float(np.max(np.abs(in_load_units(a_m, prep.units)))) for a_m in taylor]
    reference = 1.0 + max(mags)
    pole = next(m for m, r in enumerate(mags, start=1) if r > POLE_COEFF_TOL * reference)
    norms = [float(np.linalg.norm(in_load_units(np.linalg.solve(taylor[pole - 1], a_m),
                                                   prep.units), np.inf))
             for a_m in taylor[pole:]]
    rho = solver_module._contraction_radius(norms) / fl.series_scale(kernel)
    assert prep.pole == (pole, reference)
    assert (prep.laurent.pole_order, prep.laurent.rho) == (pole, rho)
    assert np.array_equal(prep.laurent.coefficients, taylor[pole - 1:])


def test_irregular_expansion_metadata():
    problem, kernel = golden_identity_problem()
    solution = fl.solve_irregular(fl.prepare(problem, kernel), 0.25)
    expansion = solution.expansion
    assert expansion.pole_order == 1
    # A_m = 1 for every m for this problem.
    for a_m in expansion.coefficients[:5]:
        assert a_m == pytest.approx(np.array([[1.0]]), abs=1e-10)
    # contraction bound at lambda = 0.25 is sum_{m>=2} 0.25^{m-1} ~ 1/3
    assert expansion.q == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert expansion.rho == pytest.approx(0.9 / 1.9, abs=1e-4)
    # The bisection for rho stops once its bracket collapses, at this exact double.
    assert expansion.rho == 0.4736842106231244


def test_irregular_expansion_is_the_prepared_laurent_with_its_q():
    problem, kernel = golden_identity_problem()
    prep = fl.prepare(problem, kernel)
    expansion = fl.solve_irregular(prep, 0.25).expansion
    assert type(expansion) is fl.Laurent and prep.laurent.q is None
    assert expansion.q == pytest.approx(1.0 / 3.0, abs=1e-6)
    for field in dataclasses.fields(fl.Laurent):
        if field.name != "q":
            assert getattr(expansion, field.name) is getattr(prep.laurent, field.name)


def test_irregular_nu_series_matches_explicit_partial_sums():
    # For q < 1 the closed-form solve equals the iterated geometric series.
    problem, kernel = golden_identity_problem()
    solution = fl.solve_irregular(fl.prepare(problem, kernel), 0.2)
    expansion = solution.expansion
    a_p = expansion.coefficients[0]
    tail = expansion.coefficients[1:]
    lam = 0.2
    b_mat = sum(lam ** (m + 1) * a_m for m, a_m in enumerate(tail))
    c_mat = np.linalg.solve(a_p, b_mat)
    d_vec = np.linalg.solve(a_p, fl.b_lambda(problem, kernel, lam))
    total = np.zeros_like(d_vec)
    term = d_vec.copy()
    for _ in range(200):
        total += term
        term = -c_mat @ term
    explicit = -total
    # x_gamma = lambda^{-p} nu(lambda), with p = 1 and growth g = 1 here.
    assert explicit == pytest.approx(lam**expansion.pole_order * solution.x_gamma, abs=1e-12)


def test_laurent_limit_of_lambda_times_loads():
    problem, kernel = golden_identity_problem()
    for lam in [1e-3, 1e-4]:
        solution = fl.solve_irregular(fl.prepare(problem, kernel), lam)
        assert lam * solution.x_gamma[0] == pytest.approx(-1.0, abs=1e-6)


def test_contraction_bound_inside_certified_radius():
    problem, kernel = golden_identity_problem()
    expansion = fl.solve_irregular(fl.prepare(problem, kernel), 0.25).expansion
    a_p = expansion.coefficients[0]
    tail = expansion.coefficients[1:]
    for fraction in [0.1, 0.5, 0.9, 1.0]:
        lam = fraction * expansion.rho
        b_mat = sum(lam ** (m + 1) * a_m for m, a_m in enumerate(tail))
        q = float(np.linalg.norm(np.linalg.solve(a_p, b_mat), np.inf))
        assert q <= 0.9 + 1e-9
        assert q < 1.0


def test_contraction_radius_of_an_empty_tail_is_infinite():
    # Pole order = truncation leaves no coefficient after A_p: q = 0 at every r.
    assert solver_module._contraction_radius([]) == np.inf


def test_contraction_radius_counts_a_non_finite_bound_as_too_large():
    # r^30 overflows just above rho, where 1e-320 r^30 is still far below RADIUS_Q:
    # the bound is inf there, and rho is the last r whose repeated products stay finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = solver_module._contraction_radius([1e-320] * 30)
        assert solver_module._contraction_radius([np.inf]) == 0.0
        assert solver_module._contraction_radius([0.0, np.nan]) == 0.0
    with np.errstate(over="ignore"):
        powers = [np.cumprod(np.full(30, r))[-1] for r in (rho, np.nextafter(rho, np.inf))]
    assert powers[0] < np.inf and powers[1] == np.inf


def _q_bound(norms, r):
    # The contraction bound sum_m norms[m] r^(m+1), summed in the same order and
    # counted as inf once the sum is not finite: monotone in r, rounding included.
    total, power = 0.0, r
    for nm in norms:
        total += nm * power
        power *= r
        if not math.isfinite(total):
            return math.inf
    return total


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
                          st.floats(0.0, 10.0), st.integers(-12, 12)), max_size=30))
@example([1e-12])  # below RADIUS_Q up to the cap
@example([0.0] * 30)  # q is 0 until r^30 overflows, then 0 * inf counts as inf
def test_contraction_radius_is_the_largest_double_within_the_bound(norms):
    # rho is the largest double r with q(r) <= RADIUS_Q; the bisection is exact
    # because q is monotone. Doubling from 1e-8, the last r tried below the
    # cap of 1e12 is 1e-8 2^66; a bound within RADIUS_Q there gives inf.
    rho = solver_module._contraction_radius(norms)
    if _q_bound(norms, 1e-8 * 2.0**66) <= RADIUS_Q:
        assert rho == math.inf
    else:
        assert _q_bound(norms, rho) <= RADIUS_Q < _q_bound(norms, math.nextafter(rho, math.inf))


# ---------------------------------------------------------------- residual


def _fresh_defect(problem, kernel, solution):
    """The bordered system's defect at a solution, on a fresh analysis."""
    prep = fl.prepare(problem, kernel)
    return solver_module._defect(prep, solution.lam, solution.x.values, solution.x_gamma)


def test_residual_matches_stored_value():
    rng = np.random.default_rng(17)
    problem, kernel, lam = make_random_regular_problem(rng)
    solution = fl.solve_regular(fl.prepare(problem, kernel), lam)
    assert _fresh_defect(problem, kernel, solution) == pytest.approx(solution.residual, abs=1e-12)


def test_residual_detects_corruption():
    problem = make_problem("0", "1", [("0", fl.point_load(0.5))])
    kernel = _discretized(problem)
    solution = fl.solve_regular(fl.prepare(problem, kernel), 0.0)
    corrupted_values = solution.x.values.copy()
    corrupted_values[5] += 1.0
    corrupted = dataclasses.replace(
        solution, x=fl.GridFunction(kernel.rule, corrupted_values)
    )
    assert solution.residual <= 1e-12
    assert _fresh_defect(problem, kernel, corrupted) >= 0.5


def _unscaled_defect(prep, lam, solution, s=1.0):
    """The max-norm defect of both bordered rows with the K W the solve applied,
    computed without scaling, or with x, c and f divided by the power of two s
    and the result multiplied by it."""
    problem, kernel = prep.problem, prep.kernel
    x, c = solution.x.values / s, solution.x_gamma / s
    weighted = kernel.rule.weights * x
    grid = x - problem.coeff_values(kernel.rule) @ c - lam * kernel.apply(x)
    grid -= problem.source_values(kernel.rule) / s
    loads = c - prep.A0 @ c - lam * (fl.kernel_slices(problem, kernel) @ weighted) - prep.f_gamma / s
    return s * max(float(np.max(np.abs(grid))), float(np.max(np.abs(loads))))


def test_residual_keeps_the_bits_of_the_unscaled_defect():
    # The defect divides by a power of two, which is exact: it equals the
    # unscaled max-norm defect bit for bit.
    rng = np.random.default_rng(17)
    problem, kernel, lam = make_random_regular_problem(rng)
    prep = fl.prepare(problem, kernel)
    solution = fl.solve_regular(prep, lam)
    assert solution.residual == _unscaled_defect(prep, lam, solution)


@pytest.mark.parametrize("nodes", [64, 512])
def test_residual_of_a_solution_near_the_float_range_is_finite(nodes):
    # x = -2^30 / (2^60 lambda) is 9.3e290 at lambda = 1e-300 and K W x is
    # 1e309; the defect applies K W to x / s, s >= max|x|, and stays finite.
    problem = make_problem("2^60", "2^30", [("1", fl.point_load(0.0))])
    solution = fl.solve_irregular(fl.prepare(problem, _discretized(problem, nodes)), 1e-300)
    assert solution.x.values == pytest.approx(np.full(nodes, -(2.0**-30) / 1e-300), rel=1e-12)
    assert solution.residual <= 1e-12 * 2.0**30


@pytest.mark.parametrize("nodes", [16, 512])
def test_residual_of_a_solution_past_two_to_the_1023_is_finite(nodes):
    # x = -2^10 / lambda is -1.02e308 at lambda = 1e-305, above 2^1023: the
    # power of two stops at 2^1023 (2^1024 is out of range), x / s stays
    # below 2, and the defect keeps the bits of the unscaled one. On the core
    # (N = 512) C x is sqrt(N) times larger than x, so the comparison divides x by 2^64.
    problem = make_problem("1", "2^10", [("1", fl.point_load(0.0))])
    prep = fl.prepare(problem, _discretized(problem, nodes))
    solution = fl.solve_irregular(prep, 1e-305)
    assert 2.0**1023 <= np.max(np.abs(solution.x.values)) <= np.finfo(float).max
    s = 1.0 if prep.kernel.core.Q is None else 2.0**64
    assert solution.residual == _unscaled_defect(prep, 1e-305, solution, s) <= 1e-12 * 2.0**10


@pytest.mark.parametrize("nodes", [16, 512])
def test_residual_at_a_huge_lambda_warns_nothing(nodes):
    # x = 1 + lambda (t - 1/2) is exact, but roundoff in K W x, times lambda
    # twice, puts the defect near 1e583; no term of it may overflow on the way.
    args = ["solve", str(EXAMPLES / "nilpotent.prob"), "--nodes", str(nodes), "--lambda", "1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(args) == 0


def test_residual_of_oracle_solution_is_tiny():
    rng = np.random.default_rng(29)
    problem, kernel, lam = make_random_regular_problem(rng)
    solution = fl.dense_solve(problem, kernel, lam)
    assert solution.residual <= 1e-10
    assert _fresh_defect(problem, kernel, solution) <= 1e-10


# ------------------------------------------------------- radii, smoothness


def test_holomorphy_proxy_polynomial_fit():
    # Smoothness of lambda -> x(t*, lambda) inside the admissible disc: a
    # degree-6 fit through 8 samples predicts a held-out 9th to 1e-5.
    problem = make_problem(
        "t*s + 0.4*(1-t)*s^2",
        "1 + t",
        [("0.3*t", fl.point_load(0.25)), ("0.2", fl.integral_load(0.0, 1.0, fl.parse("s", {"s"})))],
    )
    kernel = _discretized(problem)
    norm = kernel.norm
    lams = np.linspace(-0.15, 0.15, 9) / norm
    t_star_index = 10
    values = np.array(
        [fl.solve_regular(fl.prepare(problem, kernel), float(lam)).x.values[t_star_index] for lam in lams]
    )
    held_out = 4
    mask = np.arange(9) != held_out
    coeffs = np.polyfit(lams[mask], values[mask], 6)
    predicted = np.polyval(coeffs, lams[held_out])
    assert predicted == pytest.approx(values[held_out], abs=1e-5)


def test_solve_auto_routes():
    golden, golden_kernel = golden_identity_problem()
    assert fl.solve_auto(golden, golden_kernel, 0.25).route == "irregular"

    centered = _centered_problem()
    centered_kernel = _discretized(centered)
    assert fl.solve_auto(centered, centered_kernel, 0.5).route == "nilpotent"

    plain = make_problem("t*s", "1", [("0.2*t", fl.point_load(0.5))])
    plain_kernel = _discretized(plain)
    assert fl.solve_auto(plain, plain_kernel, 0.3).route == "regular"

    incompatible = make_problem("t*s", "1", [("1", fl.point_load(0.0))])
    incompatible_kernel = _discretized(incompatible)
    with pytest.raises(NoSolutionError):
        fl.solve_auto(incompatible, incompatible_kernel, 0.3)




def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _example(name, nodes=64):
    problem = load_problem_file(str(EXAMPLES / name)).build(nodes)
    return problem, fl.discretize(problem.kernel, problem.master_rule(nodes))


def _count_iterate_kernels(monkeypatch):
    # Patched in every fredload module that binds it, so an import by name counts too.
    calls = []
    original = fl.kernel_ops.iterate_kernels

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    names = [info.name for info in pkgutil.iter_modules(fl.__path__)]
    for module in [fl] + [importlib.import_module(f"fredload.{name}") for name in names]:
        if getattr(module, "iterate_kernels", None) is original:
            monkeypatch.setattr(module, "iterate_kernels", counted)
    return calls


def _count_nxn_solves(monkeypatch, nodes):
    # np.linalg.solve calls on an N x N matrix: each is one LU of I - lambda K W.
    calls = []
    original = np.linalg.solve

    def counted(matrix, rhs):
        if np.shape(matrix)[-1] >= nodes:
            calls.append(np.shape(rhs))
        return original(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_solve_auto_regular_factors_once_and_skips_iterated_kernels(monkeypatch):
    # No route forms iterated kernels, and the regular and identity-load
    # routes get A(lambda), b(lambda) and x from one factorization of
    # I - lambda K W, with no determinant on the side.
    iterate_calls = _count_iterate_kernels(monkeypatch)
    slogdet_calls = _count_calls(monkeypatch, np.linalg, "slogdet")
    solves = _count_nxn_solves(monkeypatch, 64)
    for name, lam, route in [("loaded_regular.prob", 0.2, "regular"),
                             ("identity_pole.prob", 0.25, "irregular")]:
        problem, kernel = _example(name)
        solves.clear()
        assert fl.solve_auto(problem, kernel, lam).route == route
        assert len(solves) == 1
    assert len(iterate_calls) == 0
    assert len(slogdet_calls) == 0


class _CountedSample(np.ndarray):
    """A view of the kernel sample that counts the np.matmul calls it is an operand of."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedSample.products += 1
        plain = [a.view(np.ndarray) if isinstance(a, _CountedSample) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("name", ["loaded_regular", "identity_pole", "nilpotent", "kinked_load"])
def test_per_lambda_the_routes_read_k_only_through_the_core(name, nodes):
    # Every product with K W, the defect's included, goes through the core. On the
    # trivial core (N = 64) its QtK is the sample itself, built before the swap, so
    # no route reads kernel.values directly. At N = 512 every example's core comes
    # from cross approximation and no route forms the sample at all.
    problem, kernel = _example(f"{name}.prob", nodes)
    prep = fl.prepare(problem, kernel)
    assert (kernel.core.Q is None) == (nodes == 64)
    fl.kernel_slices(problem, kernel)
    for attribute in ("f_gamma", "zero_order", "nilpotency", "taylor", "pole", "laurent",
                      "coupling", "successive_l"):
        try:
            getattr(prep, attribute)
        except fl.FredloadError:
            pass
    if nodes == 64:
        object.__setattr__(kernel, "values", kernel.values.view(_CountedSample))
    routes = {"auto": fl.solve_prepared, "regular": fl.solve_regular,
              "successive": fl.solve_successive, "nilpotent": fl.solve_nilpotent,
              "irregular": fl.solve_irregular}
    solved = []
    for route, solve in routes.items():
        _CountedSample.products = 0
        try:
            solve(prep, 0.05)
        except fl.FredloadError:
            continue
        solved.append(route)
        assert _CountedSample.products == 0, route
    assert "auto" in solved
    assert ("successive" in solved) == (name != "identity_pole")
    assert ("values" in vars(kernel)) == (nodes == 64)


@pytest.mark.parametrize("name", ["identity_pole", "no_solution"])
def test_successive_bound_of_a_singular_load_system_is_a_route_precondition(name):
    # (E - A0)^{-1} is formed only where the classification finds E - A0 regular.
    problem, kernel = _example(f"{name}.prob")
    message = r"^successive route needs det\(E - A0\) != 0; classification is irregular-identity$"
    with pytest.raises(RoutePreconditionError, match=message):
        fl.successive_bound(problem, kernel)
    with pytest.raises(RoutePreconditionError, match=message):
        fl.prepare(problem, kernel).admissible(0.9)


def test_sweep_factors_once_per_lambda(monkeypatch, capsys):
    # One analysis per sweep, whatever the route, and one LU per lambda.
    slogdet_calls = _count_calls(monkeypatch, np.linalg, "slogdet")
    solves = _count_nxn_solves(monkeypatch, 64)
    prepares = _count_calls(monkeypatch, solver_module, "prepare")
    a0_calls = _count_calls(monkeypatch, solver_module, "assemble_A0")
    taylor_calls = _count_calls(monkeypatch, solver_module, "taylor_A")
    # identity_pole stops at 0.4, inside its certified radius 0.47.
    for name, route, lam_max, taylor in [("loaded_regular.prob", "auto", "0.5", 0),
                                         ("identity_pole.prob", "auto", "0.4", 1),
                                         ("loaded_regular.prob", "successive", "0.5", 0)]:
        for calls in (solves, prepares, a0_calls, taylor_calls):
            calls.clear()
        args = ["sweep", str(EXAMPLES / name), "--nodes", "64", "--route", route,
                "--lambda-min", "0.05", "--lambda-max", lam_max, "--steps", "4"]
        assert cli.main(args) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        assert (len(prepares), len(a0_calls), len(taylor_calls)) == (1, 1, taylor)
        if route == "auto":
            assert all(row.endswith(",ok") for row in rows)
            assert len(solves) == 4
    assert len(slogdet_calls) == 0


@pytest.mark.parametrize("name, lam_max", [("loaded_regular.prob", "0.5"),
                                           ("identity_pole.prob", "0.4"),
                                           ("nilpotent.prob", "0.5")])
def test_sweep_computes_each_lambda_independent_quantity_once(monkeypatch, capsys, name, lam_max):
    # Across a 5-step sweep: one sample of each coefficient and of the source
    # on the grid, one operator-norm pass and one draw of the probe block.
    # The norm pass is the kernel's construction, which also gives max|K|.
    samples = _count_calls(monkeypatch, fl.problem, "evaluate")
    norms = _count_calls(monkeypatch, fl.DiscreteKernel, "__init__")
    fl.kernel_ops._probe.cache_clear()
    draws = _count_calls(monkeypatch, np.random, "default_rng")
    args = ["sweep", str(EXAMPLES / name), "--nodes", "64",
            "--lambda-min", "0.05", "--lambda-max", lam_max, "--steps", "5"]
    assert cli.main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",ok") for row in rows)
    loads = load_problem_file(str(EXAMPLES / name)).build(64).n
    assert (len(samples), len(norms), len(draws)) == (loads + 1, 1, 1)


def test_oracle_sweep_builds_its_lambda_independent_rows_once(monkeypatch, capsys):
    # KG, A0 and f_gamma are built once per (problem, rule): across a 5-step
    # sweep, one discrete form and one blocked pass of K at its points per load.
    forms = _count_calls(monkeypatch, fl.oracle, "gamma_weights")
    passes = _count_calls(monkeypatch, fl.oracle, "grid_blocks")
    args = ["sweep", str(EXAMPLES / "loaded_regular.prob"), "--nodes", "64", "--route", "oracle",
            "--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "5"]
    assert cli.main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(row.endswith(",ok") for row in rows)
    assert (len(forms), len(passes)) == (2, 2)


def test_kernels_on_the_master_rule_share_its_grid_samples(monkeypatch):
    # A problem keeps one rule per node count: across four fresh kernels, a and
    # f are sampled on the grid once, and the oracle's rows are built once.
    problem = load_problem_file(str(EXAMPLES / "loaded_regular.prob")).build(512)
    sampled, evaluate = [], problem_module.evaluate
    monkeypatch.setattr(problem_module, "evaluate",
                        lambda expr, bindings: sampled.append(expr.text) or evaluate(expr, bindings))
    forms = _count_calls(monkeypatch, fl.oracle, "gamma_weights")
    for _ in range(4):
        kernel = fl.discretize(problem.kernel, problem.master_rule(512))
        assert fl.solve_auto(problem, kernel, 0.2).route == "regular"
        assert fl.dense_solve(problem, kernel, 0.2).route == "oracle"
    assert sorted(sampled) == ["0.2", "0.3*t", "1 + t - t^2"]
    assert len(forms) == problem.n == 2


def test_irregular_reuses_the_laurent_data_of_one_prepared(monkeypatch):
    problem, kernel = golden_identity_problem()
    prep = fl.prepare(problem, kernel)
    calls = _count_calls(monkeypatch, solver_module, "pole_order")
    first = fl.solve_irregular(prep, 0.25)
    second = fl.solve_irregular(prep, 0.1)
    assert len(calls) == 1
    assert first.expansion.rho == second.expansion.rho
    assert second.x_gamma == pytest.approx([-10.0], rel=1e-12)


def test_cosine_sum_far_from_its_roots_solves():
    # det(I - lambda K W) = (1 - pi lambda)^20 is 4e-14 at lambda = 0.25, yet
    # I - lambda K W is well-conditioned (cond about 6), so no route may refuse.
    kernel_text = " + ".join(f"cos({k}*(t - s))" for k in range(1, 11))
    problem = make_problem(kernel_text, "1 + t", [("0.1", fl.point_load(1.0))], b=2.0 * np.pi)
    kernel = _discretized(problem)
    assert abs(np.prod(1.0 - 0.25 * np.linalg.eigvals(kernel.values * kernel.rule.weights))) < 1e-12
    solution = fl.solve_auto(problem, kernel, 0.25)
    reference = fl.dense_solve(problem, kernel, 0.25)
    assert solution.route == "regular"
    assert np.max(np.abs(solution.x.values - reference.x.values)) <= 1e-12


def test_refuses_lambda_next_to_a_characteristic_number():
    problem, kernel = _example("loaded_regular.prob")
    root = 6.0 - 2.0 * np.sqrt(3.0)
    with pytest.raises(fl.CharacteristicNumberError) as err:
        fl.solve_auto(problem, kernel, root + 1e-9)
    assert err.value.inverse_norm > 1e8
    assert "estimated ||(I - lambda K W)^{-1}||" in str(err.value)


def test_solve_auto_forms_no_iterated_kernels_when_loads_annihilate(monkeypatch):
    problem, kernel = _example("nilpotent.prob")
    iterate_calls = _count_iterate_kernels(monkeypatch)
    assert fl.solve_auto(problem, kernel, 10.0).route == "nilpotent"
    assert len(iterate_calls) == 0


def test_solve_auto_assembles_f_gamma_once(monkeypatch):
    problem, kernel = _example("loaded_regular.prob")
    in_prepare = _count_calls(monkeypatch, solver_module, "assemble_f_gamma")
    in_load_system = _count_calls(monkeypatch, fl.load_system, "assemble_f_gamma")
    assert fl.solve_auto(problem, kernel, 0.2).route == "regular"
    assert len(in_prepare) + len(in_load_system) == 1


def test_solve_auto_solves_the_zero_order_system_once(monkeypatch):
    problem, kernel = _example("nilpotent.prob")
    calls = _count_calls(monkeypatch, solver_module, "solve_zero_order_system")
    assert fl.solve_auto(problem, kernel, 10.0).route == "nilpotent"
    assert len(calls) == 1


def test_solve_auto_classifies_e_minus_a0_once(monkeypatch):
    # prepare judges E - A0 once; the zero-order system reads that classification.
    problem, kernel = _example("nilpotent.prob")
    in_prepare = _count_calls(monkeypatch, solver_module, "classify")
    in_load_system = _count_calls(monkeypatch, fl.load_system, "classify")
    assert fl.solve_auto(problem, kernel, 10.0).route == "nilpotent"
    assert len(in_prepare) + len(in_load_system) == 1


def test_solve_auto_rejects_nonpositive_truncation(monkeypatch):
    problem, kernel = _example("loaded_regular.prob")
    condition_calls = _count_calls(monkeypatch, solver_module.functionals, "check_condition_one")
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        fl.solve_auto(problem, kernel, 0.2, truncation=0)
    assert condition_calls == []


@pytest.mark.parametrize(
    "name", ["identity_pole.prob", "loaded_regular.prob", "nilpotent.prob", "no_solution.prob"]
)
def test_solve_auto_assembles_A0_once(monkeypatch, name):
    problem, kernel = _example(name)
    lam = load_problem_file(str(EXAMPLES / name)).numerics.lam
    a0_calls = _count_calls(monkeypatch, solver_module, "assemble_A0")
    try:
        fl.solve_auto(problem, kernel, lam)
    except NoSolutionError:
        assert name == "no_solution.prob"
    assert len(a0_calls) == 1


def test_vanishing_coupling_forms_no_iterated_kernels(monkeypatch):
    # Identity loads that annihilate K = t*s: the nilpotency check and the
    # pole-order search both run the column recurrence instead.
    problem = make_problem("t*s", "t", [("1", fl.point_load(0.0))])
    kernel = _discretized(problem)
    iterate_calls = _count_iterate_kernels(monkeypatch)
    with pytest.raises(RoutePreconditionError, match=r"A\(lambda\) vanishes"):
        fl.solve_auto(problem, kernel, 0.2)
    assert len(iterate_calls) == 0


def test_nilpotent_route_reports_a_kernel_that_does_not_terminate():
    problem = make_problem("t*s", "1", [("0", fl.point_load(0.0))])
    with pytest.raises(RoutePreconditionError, match="not nilpotent within depth 5"):
        fl.solve_nilpotent(fl.prepare(problem, _discretized(problem), 5), 0.5)
