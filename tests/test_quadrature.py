"""Gauss-Legendre rules, integration, and barycentric interpolation."""

import math

import numpy as np
import pytest

from fredload.quadrature import (
    GridFunction,
    QuadratureRule,
    _legendre_nodes,
    gauss_legendre,
    integrate,
    interp_weights,
    interpolate,
)


def test_single_node_rule_is_midpoint():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_two_node_rule_solves_moment_equations():
    # Independent oracle: symmetric two-point rule exact through degree 3
    # forces 2w = 2 and 2w x0^2 = 2/3, so w = 1 and x0 = sqrt(1/3).
    x0 = math.sqrt(1.0 / 3.0)
    rule = gauss_legendre(2, -1.0, 1.0)
    assert rule.nodes == pytest.approx([-x0, x0], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)
    for k in range(4):
        moment = (1.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.dot(rule.weights, rule.nodes**k) == pytest.approx(moment, abs=1e-15)


def test_invalid_interval():
    with pytest.raises(ValueError):
        gauss_legendre(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_legendre(2, 1.0, 1.0)


def test_zero_node_count():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)


@pytest.mark.parametrize("m", [1, 2, 16])
def test_integrate_constant(m):
    rule = gauss_legendre(m, 0.0, 1.0)
    assert integrate(rule, GridFunction(rule, np.ones(m))) == pytest.approx(1.0, abs=1e-12)


def test_integrate_cubic_exact_with_two_nodes():
    rule = gauss_legendre(2, 0.0, 1.0)
    assert integrate(rule, GridFunction(rule, rule.nodes**3)) == pytest.approx(0.25, abs=1e-15)


def test_integrate_exponential():
    rule = gauss_legendre(16, 0.0, 1.0)
    g = GridFunction(rule, np.exp(rule.nodes))
    assert integrate(rule, g) == pytest.approx(math.e - 1.0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 4, 8])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.5)])
def test_exactness_through_degree_2m_minus_1(m, a, b):
    rule = gauss_legendre(m, a, b)
    for k in range(2 * m):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        got = integrate(rule, GridFunction(rule, rule.nodes**k))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 64, 128, 256])
def test_rule_invariants(m):
    for a, b in [(0.0, 1.0), (-3.0, 2.0)]:
        rule = gauss_legendre(m, a, b)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > a and rule.nodes[-1] < b
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(b - a, rel=1e-12)


@pytest.mark.parametrize("m", [3, 10, 40])
def test_matches_numpy_leggauss(m):
    # Cross-check the Newton iteration against an independent implementation.
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
    rule = gauss_legendre(m, -1.0, 1.0)
    assert rule.nodes == pytest.approx(ref_nodes, abs=1e-13)
    assert rule.weights == pytest.approx(ref_weights, abs=1e-13)


def test_interpolate_reproduces_constants():
    rule = gauss_legendre(12, 0.0, 1.0)
    g = GridFunction(rule, np.full(12, 3.25))
    for t in [0.0, 0.123, 0.5, 0.999, 1.0]:
        assert interpolate(g, t) == pytest.approx(3.25, rel=1e-14)


def test_interpolate_polynomial_exact():
    m = 8
    rule = gauss_legendre(m, 0.0, 1.0)
    poly = lambda t: 2 * t**7 - t**4 + 3 * t - 0.5
    g = GridFunction(rule, np.array([poly(t) for t in rule.nodes]))
    for t in [0.0, 0.3, 0.77, 1.0]:
        assert interpolate(g, t) == pytest.approx(poly(t), abs=1e-10)


def test_interpolate_at_node_is_exact():
    rule = gauss_legendre(9, 0.0, 1.0)
    values = np.sin(rule.nodes)
    g = GridFunction(rule, values)
    for i in range(9):
        assert interpolate(g, float(rule.nodes[i])) == values[i]


def test_interpolate_outside_interval():
    # The point outside [a, b], NaN included, is named.
    rule = gauss_legendre(4, 0.0, 1.0)
    g = GridFunction(rule, np.ones(4))
    for t in [2.0, -0.1, -1e-12, math.nan]:
        with pytest.raises(ValueError, match=rf"t={t!r} outside the interval \[0.0, 1.0\]"):
            interpolate(g, t)


def _lagrange_row(rule, t):
    # Independent reference: the product formula l_j(t) = prod_k (t - x_k) / (x_j - x_k).
    diff = rule.nodes[:, None] - rule.nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    factors = (t - rule.nodes)[None, :] / diff
    np.fill_diagonal(factors, 1.0)
    return np.prod(factors, axis=1)


@pytest.mark.parametrize("m", [1, 2, 9, 64])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.0, 2.5)])
def test_interp_weights_rows_are_the_lagrange_basis(m, a, b):
    # Off the nodes, each row is the Lagrange basis at t; an exact node hit is a unit row.
    rule = gauss_legendre(m, a, b)
    rng = np.random.default_rng(m)
    ts = np.concatenate([[a, b], rng.uniform(a, b, 15)])
    for t in ts:
        row, reference = interp_weights(rule, t), _lagrange_row(rule, t)
        assert np.max(np.abs(row - reference)) <= 1e-13 * np.max(np.abs(reference))
    for i in range(m):
        assert np.array_equal(interp_weights(rule, rule.nodes[i]), np.eye(m)[i])


def _barycentric_row(rule, t):
    # Scalar reference: the Cauchy form b * ((1 / (c @ b)) * c), c_j = 1 / (t - x_j),
    # with b the closed-form weights over the cached [-1, 1] rule, scaled to unit max.
    hit = np.nonzero(rule.nodes == t)[0]
    if hit.size:
        return np.eye(rule.n)[hit[0]]
    x, w = _legendre_nodes(rule.n)
    weights = np.sqrt((1.0 - x) * (1.0 + x) * w)
    weights[1::2] *= -1.0
    weights /= np.max(np.abs(weights))
    inverse = 1.0 / (t - rule.nodes)
    return weights * ((1.0 / (inverse @ weights)) * inverse)


@pytest.mark.parametrize("m", [1, 2, 9, 64])
def test_interp_matrix_rows_equal_scalar_rows(m):
    # The rows at ts, row by row, are the Cauchy-form reference bit for bit, as the
    # rows from the weights each rule once carried were; exact node hits are unit rows.
    rule = gauss_legendre(m, 0.0, 1.0)
    rng = np.random.default_rng(m)
    ts = np.concatenate([[0.0, 1.0], rule.nodes[::2], rng.uniform(0.0, 1.0, 15)])
    matrix = np.array([interp_weights(rule, t) for t in ts])
    assert matrix.shape == (ts.size, m)
    for row, t in zip(matrix, ts):
        assert np.array_equal(row, _barycentric_row(rule, t))
    for i in range(0, m, 2):
        assert np.array_equal(matrix[2 + i // 2], np.eye(m)[i])


def test_interp_matrix_outside_interval():
    # interp_weights itself names the point outside [a, b], infinities included.
    rule = gauss_legendre(6, 0.0, 1.0)
    for t in [1.5, -1e-12, math.inf, -math.inf]:
        with pytest.raises(ValueError, match=rf"t={t!r} outside the interval \[0.0, 1.0\]"):
            interp_weights(rule, t)


@pytest.mark.parametrize("m", [1, 9, 65])
@pytest.mark.parametrize("t", [5e-324, -5e-324, 1e-310, 1e-300])
def test_a_point_next_to_a_node_at_zero_reads_that_node(m, t):
    # Odd m on [-1, 1] puts a node at 0.0. Within a subnormal distance of it,
    # 1 / (t - 0.0) overflows, and the row is that node's unit row; at 1e-300
    # the formula holds and its row is that unit row to roundoff.
    rule = gauss_legendre(m, -1.0, 1.0)
    zero = m // 2
    assert rule.nodes[zero] == 0.0
    row = interp_weights(rule, t)
    assert np.max(np.abs(row - np.eye(m)[zero])) <= 1e-15
    if abs(1.0 / t) == math.inf:
        assert np.array_equal(row, np.eye(m)[zero])
    g = GridFunction(rule, np.cos(rule.nodes))
    assert abs(interpolate(g, t) - 1.0) <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 9, 64, 512])
def test_closed_form_barycentric_weights_match_the_product_formula(m):
    # Off the nodes, row_j (t - x_j) is proportional to the barycentric weight b_j.
    rule = gauss_legendre(m, 2.0, 3.0)
    t = rule.a
    weights = interp_weights(rule, t) * (t - rule.nodes)
    diff = rule.nodes[:, None] - rule.nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    reference = 1.0 / np.prod(4.0 * diff, axis=1)  # scaled by 4/(b - a) against under- and overflow
    reference *= np.sign(reference[0] * weights[0]) / np.max(np.abs(reference))
    weights /= np.max(np.abs(weights))
    assert np.max(np.abs(weights - reference)) <= 1e-12


@pytest.mark.parametrize("m", [512, 1500])
def test_interpolation_reproduces_polynomials_at_large_node_counts(m):
    # The closed-form weights stay finite where a product over node pairs
    # under- or overflows.
    rule = gauss_legendre(m, -1.0, 3.0)
    coeffs = np.random.default_rng(20).uniform(-1.0, 1.0, 21)
    ts = np.linspace(-1.0, 3.0, 97)
    g = GridFunction(rule, np.polynomial.polynomial.polyval(rule.nodes / 3.0, coeffs))
    values = np.array([interpolate(g, t) for t in ts])
    exact = np.polynomial.polynomial.polyval(ts / 3.0, coeffs)
    assert np.max(np.abs(values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_reference_nodes_computed_once_and_read_only():
    # Every rule with 16 nodes, whatever its interval, maps the same cached
    # [-1, 1] nodes; the cache must hand out arrays nobody can modify.
    x, w = _legendre_nodes(16)
    assert _legendre_nodes(16)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    rule = gauss_legendre(16, 2.0, 3.0)
    assert rule.nodes == pytest.approx(0.5 * x + 2.5, abs=1e-15)


def test_grid_function_validation():
    rule = gauss_legendre(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridFunction(rule, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(rule, np.array([1.0, 2.0, np.nan, 4.0]))


@pytest.mark.parametrize("nodes, weights, message", [
    ([0.25, 0.75], [0.5], "nodes and weights must be 1-d and the same length"),
    ([0.75, 0.25], [0.5, 0.5], "nodes must be strictly increasing"),
    ([0.25, 1.5], [0.5, 0.5], r"nodes must lie within \[a, b\]"),
    ([0.25, 0.75], [0.5, 0.0], "weights must be positive"),
])
def test_rule_validation(nodes, weights, message):
    assert QuadratureRule(0.0, 1.0, np.array([0.25, 0.75]), np.array([0.5, 0.5])).n == 2
    with pytest.raises(ValueError, match=message):
        QuadratureRule(0.0, 1.0, np.array(nodes), np.array(weights))


def test_integrate_refuses_a_grid_function_of_another_rule():
    rule, same, other = (gauss_legendre(4, 0.0, b) for b in (1.0, 1.0, 2.0))
    assert integrate(rule, GridFunction(same, np.ones(4))) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="grid function is sampled on a different rule"):
        integrate(rule, GridFunction(other, np.ones(4)))


def test_integrate_grid_function():
    rule = gauss_legendre(6, 0.0, 2.0)
    g = GridFunction(rule, rule.nodes**2)
    assert integrate(rule, g) == pytest.approx(8.0 / 3.0, rel=1e-13)
