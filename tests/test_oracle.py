"""Dense-discretization oracle: grid weights for loads and the one-shot solve."""

import numpy as np
import pytest

import fredload as fl
from util import golden_identity_problem, make_problem, make_random_regular_problem, poly_integral


def test_gamma_weights_unit_row_at_master_node():
    rule = fl.gauss_legendre(16, 0.0, 1.0)
    k = 7
    gamma = fl.point_load(float(rule.nodes[k]))
    v = fl.gamma_weights(gamma, rule)
    expected = np.zeros(16)
    expected[k] = 1.0
    assert np.array_equal(v, expected)


def test_gamma_weights_full_span_integral_sums_to_one():
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}))
    v = fl.gamma_weights(gamma, rule)
    assert np.sum(v) == pytest.approx(1.0, abs=1e-12)


def test_gamma_weights_match_functional_application():
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(2.0, 0.3),),
        integral_terms=(
            fl.IntegralTerm(0.1, 0.7, fl.parse("1 + s", {"s"}), fl.gauss_legendre(64, 0.1, 0.7)),
        ),
    )
    v = fl.gamma_weights(gamma, rule)
    g = fl.GridFunction(rule, np.exp(rule.nodes) * np.cos(rule.nodes))
    assert float(v @ g.values) == pytest.approx(fl.apply(gamma, g), abs=1e-8)


def test_gamma_weights_exact_on_polynomials():
    # v @ p(nodes) must equal <gamma, p> exactly for degree < node count.
    rule = fl.gauss_legendre(8, 0.0, 1.0)
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(1.5, 0.25),),
        integral_terms=(
            fl.IntegralTerm(0.0, 0.5, fl.parse("s", {"s"}), fl.gauss_legendre(8, 0.0, 0.5)),
        ),
    )
    v = fl.gamma_weights(gamma, rule)
    coeffs = [1.0, -2.0, 0.0, 0.0, 0.0, 1.0]  # 1 - 2t + t^5
    p_vals = sum(c * rule.nodes**k for k, c in enumerate(coeffs))
    # point part: 1.5 * p(0.25); integral part: integral_0^0.5 s * p(s) ds
    shifted = [0.0] + list(coeffs)
    expected = 1.5 * sum(c * 0.25**k for k, c in enumerate(coeffs)) + poly_integral(
        shifted, 0.0, 0.5
    )
    assert float(v @ p_vals) == pytest.approx(expected, abs=1e-12)


def test_gamma_weights_linearity():
    rule = fl.gauss_legendre(24, 0.0, 1.0)
    g1 = fl.point_load(0.2, alpha=2.0)
    g2 = fl.integral_load(0.0, 1.0, fl.parse("s", {"s"}), nodes=24)
    combined = fl.Functional(
        point_terms=g1.point_terms, integral_terms=g2.integral_terms
    )
    v = fl.gamma_weights(combined, rule)
    assert v == pytest.approx(fl.gamma_weights(g1, rule) + fl.gamma_weights(g2, rule), abs=1e-14)


def test_dense_system_is_identity_for_trivial_problem():
    problem = make_problem("0", "1", [("0", fl.point_load(0.5))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(16))
    system = fl.assemble_dense(problem, kernel, 0.0)
    assert np.array_equal(system.matrix, np.eye(16))


def test_dense_solve_zero_kernel_returns_source():
    problem = make_problem("0", "exp(t)", [("0", fl.point_load(0.5))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(32))
    solution = fl.dense_solve(problem, kernel, 0.4)
    assert solution.x.values == pytest.approx(np.exp(kernel.rule.nodes), rel=1e-14)
    assert solution.route == "oracle"


def test_dense_solve_golden_identity_case():
    problem, kernel = golden_identity_problem()
    solution = fl.dense_solve(problem, kernel, 0.25)
    assert np.max(np.abs(solution.x.values + 4.0)) <= 1e-6
    assert solution.residual <= 1e-10


def test_dense_solve_detects_singular_operator():
    problem = make_problem("1", "1", [("0", fl.point_load(0.5))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(64))
    with pytest.raises(fl.SingularLoadSystemError):
        fl.dense_solve(problem, kernel, 1.0)


def test_dense_solve_agrees_with_regular_route():
    rng = np.random.default_rng(41)
    for _ in range(10):
        problem, kernel, lam = make_random_regular_problem(rng)
        mine = fl.solve_regular(fl.prepare(problem, kernel), lam)
        reference = fl.dense_solve(problem, kernel, lam)
        assert np.max(np.abs(mine.x.values - reference.x.values)) <= 1e-8
        assert reference.residual <= 1e-10
