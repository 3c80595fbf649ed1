"""Loads: application, load rows on the grid, kernel slices, annihilation check."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredload as fl
from util import load_row, make_problem, poly_integral, poly_text

T = {"t"}


def test_point_eval_on_square():
    gamma = fl.point_load(0.0)
    assert fl.apply(gamma, fl.parse("t^2", T)) == 0.0


def test_unit_integral_of_one():
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}))
    assert fl.apply(gamma, fl.parse("1", T)) == pytest.approx(1.0, abs=1e-13)


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
    assert fl.apply(gamma, fl.parse("t", T)) == pytest.approx(expected, abs=1e-14)


def test_linearity():
    # A load reads a grid function only through its row on the rule, as kernel_slices does.
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
        row = load_row(gamma, rule)
        lhs = row @ combo.values
        rhs = alpha * (row @ x.values) + beta * (row @ y.values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_grid_and_expression_agree_for_smooth_x():
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(1.0, 0.3),),
        integral_terms=(
            fl.IntegralTerm(0.2, 0.8, fl.parse("s^2", {"s"}), fl.gauss_legendre(64, 0.2, 0.8)),
        ),
    )
    on_grid = load_row(gamma, rule) @ np.exp(rule.nodes)
    assert on_grid == pytest.approx(fl.apply(gamma, fl.parse("exp(t)", T)), abs=1e-8)


def _kernel(text, nodes=32):
    rule = fl.gauss_legendre(nodes, 0.0, 1.0)
    return fl.discretize(fl.parse(text, {"t", "s"}), rule)


def _slices(text, gamma, nodes=32):
    """The kernel-slice row s_j |-> <gamma, K(., s_j)> of a one-load problem."""
    problem = make_problem(text, "1", [("1", gamma)])
    return fl.kernel_slices(problem, _kernel(text, nodes))[0]


def test_kernel_slices_point_load_at_zero():
    assert np.max(np.abs(_slices("t*s", fl.point_load(0.0)))) <= 1e-12


def test_kernel_slices_integral_annihilates_centered_kernel():
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32)
    assert np.max(np.abs(_slices("t - 1/2", gamma))) <= 1e-12


def test_kernel_slices_constant_kernel():
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}), nodes=32)
    assert _slices("1", gamma) == pytest.approx(np.ones(32), rel=1e-12)


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


@pytest.mark.parametrize("k_text", ["exp(t*s)", "cos(3*t*s) + t^2", "1/(1 + t + s)"])
def test_kernel_slices_match_exact_application(k_text):
    # KG reads K at each load's points, as apply on the expression does: the
    # two differ only in the order of the sums.
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    cases = _load_cases(rule)
    problem = make_problem(k_text, "1", [("1", gamma) for gamma in cases.values()])
    kernel = fl.discretize(problem.kernel, rule)
    slices = fl.kernel_slices(problem, kernel)
    for j in (0, 17, 63):
        s_j = float(rule.nodes[j])
        k_slice = fl.parse(re.sub(r"\bs\b", f"({s_j!r})", k_text), T)
        for name, gamma, value in zip(cases, cases.values(), slices[:, j]):
            assert value == pytest.approx(fl.apply(gamma, k_slice), abs=1e-13), name


@st.composite
def _load_on(draw, rule):
    """A load whose point terms sit on a node, at a or b, or anywhere in
    [a, b], and whose integral terms span [a, b] with the master's own nodes
    (every node a hit) or a subinterval."""
    a, b, n = rule.a, rule.b, rule.n
    place = st.one_of(
        st.integers(0, n - 1).map(lambda i: float(rule.nodes[i])),
        st.sampled_from([a, b]),
        st.floats(a, b),
    )
    points = draw(st.lists(st.builds(fl.PointTerm, st.floats(-2.0, 2.0), place), max_size=3))
    span = st.one_of(
        st.just((a, b, n)),
        st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 1.0), st.sampled_from([1, 7, 64])).map(
            lambda f: (a + f[0] * (b - a), min(b, a + (f[0] + f[1] * (1.0 - f[0])) * (b - a)), f[2])
        ),
    )
    spans = draw(st.lists(span, min_size=0 if points else 1, max_size=2))
    weight = fl.parse("1 + s*s", {"s"})
    terms = [fl.IntegralTerm(lo, hi, weight, fl.gauss_legendre(m, lo, hi)) for lo, hi, m in spans]
    return fl.Functional(tuple(points), tuple(terms))


@pytest.mark.parametrize("nodes", [1, 2, 16, 512])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_load_row_matches_exact_values(nodes, data):
    # A polynomial of degree < N is its own interpolant, so the load row on its
    # node values gives the load applied to its expression, which evaluates it
    # at the load's points with no barycentric weights; a node hit is a unit row.
    rule = fl.gauss_legendre(nodes, -0.5, 1.75)
    gamma = data.draw(_load_on(rule))
    coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=min(nodes, 12)))
    poly = fl.parse(poly_text(coeffs, "u").replace("u", "((t - 0.625)/1.125)"), T)
    values = fl.evaluate(poly, {"t": rule.nodes})
    got = load_row(gamma, rule) @ values
    scale = fl.functional_norm(gamma) * max(np.max(np.abs(values)), 1e-300)
    assert abs(got - fl.apply(gamma, poly)) <= 1e-13 * scale
    i, alpha = data.draw(st.integers(0, nodes - 1)), data.draw(st.floats(-2.0, 2.0))
    assert np.array_equal(load_row(fl.point_load(rule.nodes[i], alpha), rule), alpha * np.eye(nodes)[i])


def test_load_row_rejects_a_point_outside_the_rule():
    # The load's row on a rule is read through interp_weights, which names the point.
    rule = fl.gauss_legendre(8, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"t=1.5 outside the interval \[0.0, 1.0\]"):
        load_row(fl.point_load(1.5), rule)


def test_kernel_slices_built_once_per_problem_and_kernel():
    problem = make_problem("exp(t*s)", "1",
                           [("1", fl.point_load(0.4)), ("t", fl.point_load(0.9))])
    kernel = _kernel("exp(t*s)")
    slices = fl.kernel_slices(problem, kernel)
    assert slices.shape == (2, 32)
    assert fl.kernel_slices(problem, kernel) is slices
    assert not slices.flags.writeable
    other = _kernel("exp(t*s)")
    assert fl.kernel_slices(problem, other) is not slices
    assert np.array_equal(fl.kernel_slices(problem, other), slices)


def test_functional_norm():
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(-2.0, 0.5),),
        integral_terms=(
            fl.IntegralTerm(0.0, 1.0, fl.parse("0 - 3", {"s"}), fl.gauss_legendre(16, 0.0, 1.0)),
        ),
    )
    assert fl.functional_norm(gamma) == pytest.approx(5.0, rel=1e-12)


def test_discrete_form_is_read_by_apply_and_norm():
    sub = fl.gauss_legendre(16, 0.2, 0.7)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(-2.0, 0.5),),
        integral_terms=(fl.IntegralTerm(0.2, 0.7, fl.parse("abs(s - 0.55)", {"s"}), sub),),
    )
    points, weights = gamma.discrete
    assert gamma.discrete is gamma.discrete
    assert not points.flags.writeable and not weights.flags.writeable
    assert points.tolist() == [0.5, *sub.nodes.tolist()]
    assert weights.tolist() == [-2.0, *(sub.weights * np.abs(sub.nodes - 0.55)).tolist()]
    assert fl.apply(gamma, fl.parse("exp(t)", {"t"})) == float(weights @ np.exp(points))
    assert fl.functional_norm(gamma) == float(np.sum(np.abs(weights)))


def test_functional_needs_a_term():
    with pytest.raises(ValueError):
        fl.Functional(point_terms=(), integral_terms=())


def test_integral_term_validation():
    with pytest.raises(ValueError):
        fl.IntegralTerm(0.5, 0.5, fl.parse("1", {"s"}), fl.gauss_legendre(4, 0.0, 1.0))
    with pytest.raises(ValueError):
        fl.IntegralTerm(0.0, 0.5, fl.parse("1", {"s"}), fl.gauss_legendre(4, 0.0, 1.0))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_condition_check_is_relative_to_the_load_and_the_kernel(scale):
    # t - 1/2 at x(0) is -1/2 of max|K| = 1/2 on every scale: not annihilated,
    # though an absolute floor of 1e-10 would call the 1e-12 kernel annihilated.
    for kernel_scale, alpha in ((scale, 1.0), (1.0, scale)):
        problem = make_problem(f"{kernel_scale!r}*(t - 1/2)", "1",
                               [("0.3", fl.point_load(0.0, alpha))])
        kernel = fl.discretize(problem.kernel, problem.master_rule(32))
        (report,) = fl.check_condition_one(problem, kernel)
        assert not report.holds
        assert report.deviation == pytest.approx(0.5 * kernel_scale * alpha, rel=1e-12)
