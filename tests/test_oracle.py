"""Dense-discretization oracle: the discrete form of a load and the bordered solve."""

import ast
import inspect
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import fredload as fl
from fredload import oracle as oracle_module
from fredload.errors import DomainEvalError, RoutePreconditionError
from fredload.problemfile import load_problem_file
from fredload.tolerances import GRID_BLOCK
from util import golden_identity_problem, make_problem, make_random_regular_problem, poly_integral

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def test_gamma_weights_unit_row_at_master_node():
    # A point load at a master node is that node with its coefficient, so the
    # oracle's kernel-slice row is the kernel's own row at that node.
    problem = make_problem("exp(t*s)", "1", [("0", fl.point_load(0.0))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(16))
    k = 7
    points, weights = fl.gamma_weights(fl.point_load(float(kernel.rule.nodes[k]), alpha=1.0))
    assert np.array_equal(points, [kernel.rule.nodes[k]])
    assert np.array_equal(weights, [1.0])
    row = weights @ np.exp(np.outer(points, kernel.rule.nodes))
    assert np.array_equal(row, kernel.values[k])


def test_gamma_weights_full_span_integral_sums_to_one():
    gamma = fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}))
    points, weights = fl.gamma_weights(gamma)
    assert np.array_equal(points, gamma.integral_terms[0].rule.nodes)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)


def test_gamma_weights_match_functional_application():
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(2.0, 0.3),),
        integral_terms=(
            fl.IntegralTerm(0.1, 0.7, fl.parse("1 + s", {"s"}), fl.gauss_legendre(64, 0.1, 0.7)),
        ),
    )
    points, weights = fl.gamma_weights(gamma)
    x = fl.parse("exp(t) * cos(t)", {"t"})
    assert float(weights @ fl.evaluate(x, {"t": points})) == pytest.approx(
        fl.apply(gamma, x), abs=1e-14
    )


def test_gamma_weights_exact_on_polynomials():
    # weights @ p(points) must equal <gamma, p> exactly while the sub-rule
    # integrates m(s) p(s) exactly.
    gamma = fl.Functional(
        point_terms=(fl.PointTerm(1.5, 0.25),),
        integral_terms=(
            fl.IntegralTerm(0.0, 0.5, fl.parse("s", {"s"}), fl.gauss_legendre(8, 0.0, 0.5)),
        ),
    )
    points, weights = fl.gamma_weights(gamma)
    coeffs = [1.0, -2.0, 0.0, 0.0, 0.0, 1.0]  # 1 - 2t + t^5
    p_vals = sum(c * points**k for k, c in enumerate(coeffs))
    # point part: 1.5 * p(0.25); integral part: integral_0^0.5 s * p(s) ds
    shifted = [0.0] + list(coeffs)
    expected = 1.5 * sum(c * 0.25**k for k, c in enumerate(coeffs)) + poly_integral(
        shifted, 0.0, 0.5
    )
    assert float(weights @ p_vals) == pytest.approx(expected, abs=1e-14)


def test_gamma_weights_linearity():
    g1 = fl.point_load(0.2, alpha=2.0)
    g2 = fl.integral_load(0.0, 1.0, fl.parse("s", {"s"}), nodes=24)
    combined = fl.Functional(
        point_terms=g1.point_terms, integral_terms=g2.integral_terms
    )
    points, weights = fl.gamma_weights(combined)
    parts = [fl.gamma_weights(g1), fl.gamma_weights(g2)]
    assert np.array_equal(points, np.concatenate([part[0] for part in parts]))
    assert np.array_equal(weights, np.concatenate([part[1] for part in parts]))


def test_dense_system_is_identity_for_trivial_problem():
    # N = 16 grid unknowns bordered by one load unknown.
    problem = make_problem("0", "1", [("0", fl.point_load(0.5))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(16))
    system = fl.assemble_dense(problem, kernel, 0.0)
    assert np.array_equal(system.matrix, np.eye(17))


def _whole_grid_matrix(problem, kernel, lam, a0):
    """The bordered matrix by np.block, with each KG row from one p x N grid."""
    rule = kernel.rule
    kg = np.array([w @ fl.evaluate(problem.kernel, {"t": p[:, None], "s": rule.nodes[None, :]})
                   for p, w in (fl.gamma_weights(load.functional) for load in problem.loads)])
    return np.block([
        [np.eye(rule.n) - lam * (kernel.values * rule.weights), -problem.coeff_values(rule)],
        [-lam * (kg * rule.weights), np.eye(problem.n) - a0],
    ])


def _examples_problem(name, nodes):
    return load_problem_file(str(EXAMPLES / f"{name}.prob")).build(nodes)


@pytest.mark.parametrize("nodes", [65, 256, 512, 1000])
@pytest.mark.parametrize("kernel_text", ["(t - 1/2)*s", "t*s + 0.5*(1-t)*(1-s)", "cos(3*(t - s))"])
def test_bordered_matrix_matches_the_whole_grid_assembly(nodes, kernel_text):
    # loaded_regular's second load integrates over N sub-rule nodes: one block of
    # load rows up to N = 256, four of 128 at 512, and 15 of 65 and a ragged 25
    # at 1000. At N = 65, (t - 1/2) s is zero on the node t = 1/2, and the
    # in-place I - lambda K W keeps the sign of each of its zeros.
    problem = _examples_problem("loaded_regular", nodes)
    problem = fl.ProblemSpec(problem.a, problem.b, fl.parse(kernel_text, {"t", "s"}),
                             problem.source, problem.loads)
    kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
    lam = 0.25  # -lam * y is exact, so the KG rows are compared as summed
    system = fl.assemble_dense(problem, kernel, lam)
    expected = _whole_grid_matrix(problem, kernel, lam, system.a0)
    if nodes <= GRID_BLOCK // nodes:
        assert system.matrix.tobytes() == expected.tobytes()
        return
    grid = np.s_[nodes:, :nodes]
    blocked, whole = system.matrix.copy(), expected.copy()
    blocked[grid] = whole[grid] = 0.0
    assert blocked.tobytes() == whole.tobytes()
    rule = kernel.rule
    sizes = np.array([np.abs(w) @ np.abs(fl.evaluate(
        problem.kernel, {"t": p[:, None], "s": rule.nodes[None, :]}))
        for p, w in (fl.gamma_weights(load.functional) for load in problem.loads)])
    # Both sums round: the blocked one differs from the whole-grid one by up to
    # 7.6 eps times the size of the terms summed at N = 1000.
    bound = 4e-15 * lam * sizes * rule.weights
    assert np.all(np.abs(system.matrix[grid] - expected[grid]) <= bound)


def test_blocked_load_rows_raise_the_whole_grid_domain_error():
    # The kernel is finite at every master node but not at two of the load's
    # sub-rule nodes: the 11th, in the first block of 128 load rows, and the
    # 301st, in the third. The first block meets only the right-hand division;
    # the whole grid meets the left-hand one first.
    problem = _examples_problem("loaded_regular", 512)
    points = fl.gamma_weights(problem.loads[1].functional)[0][1:]
    late, early = float(points[300]), float(points[10])
    text = f"1/(t - {late!r}) + 1/(t - {early!r})"
    problem = fl.ProblemSpec(problem.a, problem.b, fl.parse(text, {"t", "s"}),
                             problem.source, problem.loads)
    kernel = fl.discretize(problem.kernel, problem.master_rule(512))
    assert np.all(np.isfinite(kernel.values))
    load_points = fl.gamma_weights(problem.loads[1].functional)[0]
    nodes = kernel.rule.nodes[None, :]
    with pytest.raises(DomainEvalError) as whole:
        fl.evaluate(problem.kernel, {"t": load_points[:, None], "s": nodes})
    with pytest.raises(DomainEvalError) as first_block:
        fl.evaluate(problem.kernel, {"t": load_points[: GRID_BLOCK // 512, None], "s": nodes})
    assert first_block.value.node_text != whole.value.node_text
    with pytest.raises(DomainEvalError) as blocked:
        fl.assemble_dense(problem, kernel, 0.25)
    assert blocked.value.node_text == whole.value.node_text == f"(1.0 / (t - {late!r}))"
    assert str(blocked.value) == str(whole.value)


def test_dense_systems_share_their_lambda_independent_rows():
    # Two lambdas on one (problem, rule) read one read-only block of rows
    # [KG | A0 | f_gamma | ||gamma||]; a fresh problem builds the same bytes.
    problem = _examples_problem("loaded_regular", 64)
    kernel = fl.discretize(problem.kernel, problem.master_rule(64))
    first, second = (fl.assemble_dense(problem, kernel, lam) for lam in (0.25, 0.5))
    assert np.shares_memory(first.a0, second.a0) and not first.a0.flags.writeable
    fresh = _examples_problem("loaded_regular", 64)
    again = fl.assemble_dense(fresh, fl.discretize(fresh.kernel, kernel.rule), 0.5)
    assert again.matrix.tobytes() == second.matrix.tobytes()
    assert again.rhs.tobytes() == second.rhs.tobytes()


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


def test_dense_solve_refuses_by_its_own_condition_estimate(monkeypatch):
    # A0 = E and x = -1/lambda: the bordered matrix has reciprocal condition
    # about 2e-12 at lambda = 1e-9 and 2e-14 at 1e-11 (N = 512, by the SVD).
    problem, kernel = golden_identity_problem(512)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    assert fl.dense_solve(problem, kernel, 1e-9).x_gamma == pytest.approx([-1e9], rel=1e-6)
    with pytest.raises(fl.SingularLoadSystemError):
        fl.dense_solve(problem, kernel, 1e-11)
    assert calls == []


def test_dense_solve_takes_a_null_load_in_unit_size():
    # The singularity test works in load units ||gamma_k||; a load with zero
    # weights has none, and must not make the bordered system singular.
    problem = make_problem("t*s + 0.5*(1-t)*(1-s)", "1 + t - t^2",
                           [("0.3*t", fl.point_load(0.25, alpha=0.0))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(16))
    solution = fl.dense_solve(problem, kernel, 0.2)
    assert solution.x_gamma == pytest.approx([0.0], abs=1e-15)
    route = fl.solve_auto(problem, kernel, 0.2)
    assert np.max(np.abs(solution.x.values - route.x.values)) <= 1e-12


_SMOOTH_KERNELS = ("exp({0}*t*s)", "cos({0}*(t + s))", "1/(1 + {0}*(t - s)^2)", "({0})*t*s - s^2")


@st.composite
def _kinked_problem(draw):
    """A problem whose coefficients and source have kinks, abs(t - t0), with
    a smooth kernel. 'identity' scales one load's coefficient to A0 = E, and
    'nilpotent' takes K = (t - 1/2) cos(c (s - 1/2)), which composes with
    itself to zero and which loads symmetric about 1/2 annihilate."""
    mode = draw(st.sampled_from(["regular", "identity", "nilpotent"]))
    where = st.floats(0.0, 1.0)
    size = st.floats(-1.0, 1.0)
    if mode == "nilpotent":
        kernel = f"(t - 1/2)*cos({draw(st.floats(0.0, 3.0))!r}*(s - 1/2))"
        loads = [fl.Functional((fl.PointTerm(draw(size), 0.5),), (fl.IntegralTerm(
            0.0, 1.0, fl.parse(f"abs(s - 1/2) + {draw(size)!r}", {"s"}),
            fl.gauss_legendre(32, 0.0, 1.0)),))]
    else:
        kernel = draw(st.sampled_from(_SMOOTH_KERNELS)).format(repr(draw(st.floats(0.2, 3.0))))
        loads = []
        for _ in range(1 if mode == "identity" else draw(st.integers(1, 2))):
            lo = draw(st.floats(0.0, 0.6))
            hi = lo + draw(st.floats(0.2, 0.4))
            term = fl.IntegralTerm(lo, hi, fl.parse(f"abs(s - {draw(where)!r})", {"s"}),
                                   fl.gauss_legendre(32, lo, hi))
            loads.append(fl.Functional((fl.PointTerm(draw(size), draw(where)),), (term,)))
    coeffs = [f"{draw(size)!r}*abs(t - {draw(where)!r}) + {draw(size)!r}" for _ in loads]
    if mode == "identity":
        scale = fl.apply(loads[0], fl.parse(coeffs[0], {"t"}))
        assume(abs(scale) > 0.1)
        coeffs = [f"({coeffs[0]})/{scale!r}"]
    source = f"1 + {draw(size)!r}*abs(t - {draw(where)!r})"
    return make_problem(kernel, source, list(zip(coeffs, loads))), draw(st.floats(0.05, 0.3))


@pytest.mark.parametrize("nodes", [32, 64])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_kinked_problem(), sign=st.sampled_from([-1.0, 1.0]))
def test_every_applicable_route_agrees_with_the_oracle_on_kinked_data(nodes, case, sign):
    # The kinks sit wherever they fall, away from the nodes, so a load that
    # read x between the nodes would be off by O(1/N), far above 1e-9.
    # Every warning of the solves is an error.
    problem, size = case
    kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
    lam = sign * size / kernel.norm if kernel.norm else sign * size
    prep = fl.prepare(problem, kernel)
    kind = prep.classification.kind
    assume(kind != "unsupported-irregular")
    if kind == "regular":
        assume(np.linalg.cond(np.eye(problem.n) - prep.A0) < 1e6)
    routes = {
        "auto": lambda: fl.solve_prepared(prep, lam),
        "regular": lambda: fl.solve_regular(prep, lam),
        "successive": lambda: fl.solve_successive(prep, lam, q=0.5),
        "nilpotent": lambda: fl.solve_nilpotent(prep, lam),
        "irregular": lambda: fl.solve_irregular(prep, lam),
    }
    solved = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = fl.dense_solve(problem, kernel, lam)
        bound = 1e-9 * max(1.0, float(np.max(np.abs(reference.x.values))))
        for name, route in routes.items():
            try:
                solution = route()
            except RoutePreconditionError:
                continue
            solved.append(name)
            assert np.max(np.abs(solution.x.values - reference.x.values)) <= bound, name
            assert np.max(np.abs(solution.x_gamma - reference.x_gamma)) <= bound, name
    event(",".join(solved))
    assert "auto" in solved and len(solved) >= 2


def test_oracle_shares_no_load_code():
    tree = ast.parse(inspect.getsource(oracle_module))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functionals" not in imported
    assert not hasattr(oracle_module, "load_row")
