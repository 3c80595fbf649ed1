"""Loads: application, kernel-slice application, annihilation check."""

import math

import numpy as np
import pytest

import fredload as fl
from util import make_problem, poly_integral


def test_point_eval_on_square():
    gamma = fl.point_load(0.0)
    assert fl.apply(gamma, lambda t: t**2) == 0.0


def test_unit_integral_of_one():
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}))
    assert fl.apply(gamma, lambda t: 1.0) == pytest.approx(1.0, abs=1e-13)


def test_mixed_load_closed_form():
    # 2*x(0.5) + integral_0^0.5 s*x(s) ds with x(t) = t:
    # 2*0.5 + integral s^2 = 1 + (0.5^3)/3 = 1 + 1/24.
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(2.0, 0.5),),
        integral_terms=(
            fl.IntegralTerm(0.0, 0.5, fl.parse("s", {"s"}), fl.gauss_legendre(32, 0.0, 0.5)),
        ),
    )
    expected = 1.0 + poly_integral([0.0, 0.0, 1.0], 0.0, 0.5)
    assert expected == pytest.approx(1.0 + 1.0 / 24.0, abs=1e-16)
    assert fl.apply(gamma, lambda t: t) == pytest.approx(expected, abs=1e-14)


def test_linearity():
    rng = np.random.default_rng(7)
    rule = fl.gauss_legendre(24, 0.0, 1.0)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(1.5, 0.25),),
        integral_terms=(
            fl.IntegralTerm(0.1, 0.9, fl.parse("1 - s", {"s"}), fl.gauss_legendre(24, 0.1, 0.9)),
        ),
    )
    for _ in range(20):
        alpha, beta = rng.uniform(-2, 2, size=2)
        x = fl.GridFunction(rule, rng.uniform(-1, 1, size=24))
        y = fl.GridFunction(rule, rng.uniform(-1, 1, size=24))
        combo = fl.GridFunction(rule, alpha * x.values + beta * y.values)
        lhs = fl.apply(gamma, combo)
        rhs = alpha * fl.apply(gamma, x) + beta * fl.apply(gamma, y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_grid_and_callable_agree_for_smooth_x():
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(1.0, 0.3),),
        integral_terms=(
            fl.IntegralTerm(0.2, 0.8, fl.parse("s^2", {"s"}), fl.gauss_legendre(64, 0.2, 0.8)),
        ),
    )
    g = fl.GridFunction(rule, np.exp(rule.nodes))
    assert fl.apply(gamma, g) == pytest.approx(fl.apply(gamma, math.exp), abs=1e-8)


def _kernel(text, nodes=32):
    rule = fl.gauss_legendre(nodes, 0.0, 1.0)
    return fl.discretize(fl.parse(text, {"t", "s"}), rule)


def test_kernel_slices_point_load_at_zero():
    kernel = _kernel("t*s")
    sliced = fl.apply_to_kernel_slices(fl.point_load(0.0), kernel)
    assert np.max(np.abs(sliced.values)) <= 1e-12


def test_kernel_slices_integral_annihilates_centered_kernel():
    kernel = _kernel("t - 1/2")
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32)
    sliced = fl.apply_to_kernel_slices(gamma, kernel)
    assert np.max(np.abs(sliced.values)) <= 1e-12


def test_kernel_slices_constant_kernel():
    kernel = _kernel("1")
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32)
    sliced = fl.apply_to_kernel_slices(gamma, kernel)
    assert sliced.values == pytest.approx(np.ones(32), rel=1e-12)


def test_condition_check_holds_for_annihilating_load():
    problem = make_problem(
        "t*s", "1", [("1", fl.point_load(0.0))]
    )
    kernel = fl.discretize(problem.kernel, problem.master_rule(32))
    (report,) = fl.check_condition_one(problem, kernel, tol=1e-10)
    assert report.holds
    assert report.deviation <= 1e-12


def test_condition_check_fails_with_deviation_one():
    problem = make_problem(
        "1", "1", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32))]
    )
    kernel = fl.discretize(problem.kernel, problem.master_rule(32))
    (report,) = fl.check_condition_one(problem, kernel, tol=1e-10)
    assert not report.holds
    assert report.deviation == pytest.approx(1.0, rel=1e-12)


def test_condition_check_centered_kernel():
    problem = make_problem(
        "t - 1/2", "1", [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32))]
    )
    kernel = fl.discretize(problem.kernel, problem.master_rule(32))
    (report,) = fl.check_condition_one(problem, kernel, tol=1e-10)
    assert report.holds


def _load_cases(rule):
    sub = lambda lo, hi, m: fl.IntegralTerm(  # noqa: E731
        lo, hi, fl.parse("1 + s^2", {"s"}), fl.gauss_legendre(m, lo, hi)
    )
    return {
        "point on a node": fl.point_load(float(rule.nodes[7]), alpha=1.5),
        "point off node": fl.point_load(0.3183, alpha=-0.7),
        "point at a": fl.point_load(0.0, alpha=2.0),
        "point at b": fl.point_load(1.0),
        "integral on [0.2, 0.7]": fl.Functional((), (sub(0.2, 0.7, 40),)),
        "integral on [0, 0.35]": fl.Functional((), (sub(0.0, 0.35, 17),)),
        "mixed": fl.Functional((fl.PointTerm(2.0, 0.25),), (sub(0.1, 0.9, 48),)),
    }


@pytest.mark.parametrize("x_text", ["exp(t)", "cos(3*t) + t^2", "1/(1 + t)"])
def test_load_rows_match_exact_application(x_text):
    # V @ x(nodes) interpolates x between the master nodes; apply on the
    # expression evaluates it exactly. For analytic x on 64 Gauss nodes the
    # interpolation error is at roundoff level.
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    cases = _load_cases(rule)
    problem = make_problem("0", "1", [("1", gamma) for gamma in cases.values()])
    x = fl.parse(x_text, {"t"})
    grid = fl.evaluate(x, {"t": rule.nodes})
    approx = fl.load_rows(problem, rule) @ grid
    for name, gamma, value in zip(cases, cases.values(), approx):
        assert value == pytest.approx(fl.apply(gamma, x), abs=1e-13), name


def test_load_rows_built_once_per_problem_and_rule():
    problem = make_problem("0", "1", [("1", fl.point_load(0.4)), ("t", fl.point_load(0.9))])
    rule = fl.gauss_legendre(32, 0.0, 1.0)
    rows = fl.load_rows(problem, rule)
    assert rows.shape == (2, 32)
    assert fl.load_rows(problem, rule) is rows
    assert not rows.flags.writeable
    other = fl.gauss_legendre(32, 0.0, 1.0)
    assert fl.load_rows(problem, other) is not rows
    assert np.array_equal(fl.load_rows(problem, other), rows)


def test_functional_norm():
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(-2.0, 0.5),),
        integral_terms=(
            fl.IntegralTerm(0.0, 1.0, fl.parse("0 - 3", {"s"}), fl.gauss_legendre(16, 0.0, 1.0)),
        ),
    )
    assert fl.functional_norm(gamma) == pytest.approx(5.0, rel=1e-12)


def test_functional_needs_a_term():
    with pytest.raises(ValueError):
        fl.Functional(point_terms=(), integral_terms=())


def test_integral_term_validation():
    with pytest.raises(ValueError):
        fl.IntegralTerm(0.5, 0.5, fl.parse("1", {"s"}), fl.gauss_legendre(4, 0.0, 1.0))
    with pytest.raises(ValueError):
        fl.IntegralTerm(0.0, 0.5, fl.parse("1", {"s"}), fl.gauss_legendre(4, 0.0, 1.0))
