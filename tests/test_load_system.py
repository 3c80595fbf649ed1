"""Load matrix assembly, zero-order system outcomes, lambda-dependent
system pieces and their Taylor expansions."""

import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredload as fl
from fredload.errors import NoSolutionError
from fredload.kernel_ops import COND_LIMIT
from fredload.load_system import in_load_units, numerical_rank, solve_zero_order_system
from fredload.problemfile import load_problem_file
from fredload.quadrature import interp_row
from util import make_problem, make_random_regular_problem

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def _discretized(problem, nodes=64):
    return fl.discretize(problem.kernel, problem.master_rule(nodes))


def test_assemble_A0_zero_coefficient():
    problem = make_problem("0", "1", [("0", fl.point_load(0.0))])
    assert np.array_equal(fl.assemble_A0(problem), [[0.0]])


def test_assemble_A0_unit_coefficient():
    problem = make_problem("0", "1", [("1", fl.point_load(0.0))])
    assert fl.assemble_A0(problem) == pytest.approx(np.array([[1.0]]), abs=1e-15)


def test_assemble_A0_two_loads_closed_form():
    # a1(t) = t, a2(t) = 1; gamma1 = integral over [0,1], gamma2 = x(1).
    problem = make_problem(
        "0",
        "1",
        [
            ("t", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"}))),
            ("1", fl.point_load(1.0)),
        ],
    )
    expected = [[0.5, 1.0], [1.0, 1.0]]
    assert fl.assemble_A0(problem) == pytest.approx(np.array(expected), abs=1e-13)


def test_assemble_f_gamma():
    problem = make_problem(
        "0", "t^2", [("0", fl.point_load(0.5)), ("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    assert fl.assemble_f_gamma(problem) == pytest.approx([0.25, 1.0 / 3.0], abs=1e-13)


NON_UNIQUE = "load system singular but consistent; minimum-norm load vector used"


def test_zero_order_unique():
    c, note = solve_zero_order_system(np.zeros((1, 1)), np.array([1.0]), np.ones(1),
                                      fl.classify(np.zeros((1, 1))))
    assert note is None
    assert c == pytest.approx([1.0])


def test_zero_order_no_solution():
    with pytest.raises(NoSolutionError, match="zero-order load system is inconsistent"):
        solve_zero_order_system(np.eye(1), np.array([1.0]), np.ones(1), fl.classify(np.eye(1)))


def test_zero_order_non_unique():
    c, note = solve_zero_order_system(np.eye(1), np.array([0.0]), np.ones(1),
                                      fl.classify(np.eye(1)))
    assert note == NON_UNIQUE
    assert np.array_equal(c, [0.0])


def test_zero_order_system_of_an_a0_one_ulp_from_e_has_rank_zero():
    # classify calls A0 = 1 - 1 ulp the identity; so does the zero-order system,
    # which must not invert the roundoff left in E - A0.
    a0 = np.array([[0.7 + 0.2 + 0.1]])
    assert a0[0, 0] == 1.0 - 2.0**-53 and fl.classify(a0).is_irregular_identity
    with pytest.raises(NoSolutionError):
        solve_zero_order_system(a0, np.array([1.0]), np.ones(1), fl.classify(a0))
    c, note = solve_zero_order_system(a0, np.array([0.0]), np.ones(1), fl.classify(a0))
    assert (note, c.tolist()) == (NON_UNIQUE, [0.0])


def test_zero_order_mixed_rank():
    a0 = np.diag([1.0, 0.0])
    c, note = solve_zero_order_system(a0, np.array([0.0, 2.0]), np.ones(2), fl.classify(a0))
    assert note == NON_UNIQUE
    assert c == pytest.approx([0.0, 2.0], abs=1e-12)
    with pytest.raises(NoSolutionError):
        solve_zero_order_system(a0, np.array([1.0, 2.0]), np.ones(2), fl.classify(a0))


def test_zero_order_minimum_norm_vector_is_taken_in_load_units():
    # E - A0 = [[1, -1], [-1, 1]] with c = (0.5, -0.5) of minimum norm. Load 1
    # rescaled by s = 4, (a_1, gamma_1) -> (4 a_1, gamma_1 / 4), scales A0[i, k]
    # by s_k / s_i, f_gamma_1 and the unit of load 1 by 1 / 4: c_1 follows.
    a0, f_gamma = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0])
    c, _ = solve_zero_order_system(a0, f_gamma, np.ones(2), fl.classify(a0))
    assert c == pytest.approx([0.5, -0.5], rel=1e-15)
    s = np.array([4.0, 1.0])
    view = in_load_units(a0 * s / s[:, None], 1.0 / s)  # the rescaled A0 in its load units
    assert np.array_equal(view, a0)
    scaled, note = solve_zero_order_system(view, f_gamma / s, 1.0 / s, fl.classify(view))
    assert note == NON_UNIQUE
    assert np.array_equal(scaled, c / s)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_zero_order_consistency_is_judged_by_the_backward_error(scale):
    # The verdict depends on f_gamma's direction, not its size.
    a0 = np.array([[1.0, 0.0], [0.0, 0.5]])
    c, note = solve_zero_order_system(a0, scale * np.array([0.0, 2.0]), np.ones(2),
                                      fl.classify(a0))
    assert note == NON_UNIQUE
    assert c == pytest.approx([0.0, 4.0 * scale], rel=1e-12)
    with pytest.raises(NoSolutionError):
        solve_zero_order_system(a0, scale * np.array([1.0, 2.0]), np.ones(2), fl.classify(a0))


def test_classify_cases():
    # The kind follows from the rank of E - A0 that classify judged.
    for a0, rank, kind in [
        (np.zeros((1, 1)), 1, "regular"),
        (np.eye(3), 0, "irregular-identity"),
        (np.diag([1.0, 0.0]), 1, "unsupported-irregular"),
        # sigma_max of E - A0 overflows, so numerical_rank counts no singular
        # value; E - A0 != 0 all the same, so A0 is not E.
        (np.full((2, 2), 2.0**1023), 1, "unsupported-irregular"),
    ]:
        classification = fl.classify(a0)
        assert (classification.rank, classification.kind) == (rank, kind)


def test_classify_tolerates_quadrature_noise():
    a0 = np.eye(2) + 1e-13 * np.ones((2, 2))
    assert fl.classify(a0).kind == "irregular-identity"


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    log_scale=st.floats(-6.0, 6.0),
    # condition numbers 1..1e12, at least a factor 10 away from COND_LIMIT = 1e8
    log_cond=st.one_of(st.floats(0.0, 7.0), st.floats(9.0, 12.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_and_zero_order_system_judge_e_minus_a0_by_its_condition(
    n, log_scale, log_cond, seed
):
    # E - A0 = s U diag(sigma) V^T: the two decisions on one matrix agree,
    # and neither depends on its scale s or its determinant. A system that is
    # not unique comes back with a note, or raises NoSolutionError.
    rng = np.random.default_rng(seed)
    sigma = np.logspace(0.0, -log_cond, n)
    system = 10.0**log_scale * _orthogonal(rng, n) @ np.diag(sigma) @ _orthogonal(rng, n).T
    a0 = np.eye(n) - system
    well_conditioned = sigma[0] / sigma[-1] <= COND_LIMIT
    classification = fl.classify(a0)
    regular = classification.is_regular
    try:
        _, note = solve_zero_order_system(a0, rng.standard_normal(n), np.ones(n), classification)
    except NoSolutionError:
        note = "no solution"
    assert regular == (note is None) == well_conditioned


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_numerical_rank_counts_singular_values_against_cond_limit(scale):
    rng = np.random.default_rng(7)
    u, v = _orthogonal(rng, 3), _orthogonal(rng, 3)
    for cond, rank in ((1e7, 3), (1e9, 2)):
        matrix = scale * u @ np.diag([1.0, 0.5, 1.0 / cond]) @ v.T
        assert numerical_rank(matrix) == rank
        # A natural size 100 times sigma_max makes the test 100 times stricter.
        assert numerical_rank(matrix, 100.0 * scale) == 2
        assert fl.classify(np.eye(3) - matrix).is_regular == (rank == 3)
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((3, 3)), scale) == 0


def test_numerical_rank_near_the_double_range_counts_without_a_warning():
    # COND_LIMIT sigma overflows for sigma above 1.8e300; inf > sigma_max counts
    # sigma, as the exact product would.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert numerical_rank(np.diag([2.0**1022, 2.0**1000])) == 2
        assert numerical_rank(np.diag([2.0**1022, 2.0**900])) == 1


def test_A_lambda_vanishes_at_zero():
    problem = make_problem("1", "1", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    assert np.array_equal(fl.A_lambda(problem, kernel, 0.0), np.zeros((1, 1)))


def test_A_lambda_rank_one_closed_form():
    # K = 1, a = 1, gamma = integral: A(lambda) = lambda / (1 - lambda) = 1 at 0.5.
    problem = make_problem("1", "1", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    assert fl.A_lambda(problem, kernel, 0.5) == pytest.approx(np.array([[1.0]]), abs=1e-10)


def test_A_lambda_matches_taylor_for_nilpotent_kernel():
    # K = t - 1/2 is nilpotent at depth 1, and the load x(1) does not
    # annihilate it, so A(lambda) = lambda * A_1 exactly for every lambda.
    problem = make_problem("t - 1/2", "1", [("t", fl.point_load(1.0))])
    kernel = _discretized(problem)
    g = fl.series_scale(kernel)
    (a1, a2, a3, _, _) = fl.taylor_A(problem, kernel, 5)
    assert np.max(np.abs(a2)) <= 1e-12
    assert np.max(np.abs(a3)) <= 1e-12
    for lam in [0.3, 2.0, -1.5]:
        assert np.max(np.abs(fl.A_lambda(problem, kernel, lam) - lam * g * a1)) <= 1e-8


def test_b_lambda_at_zero_equals_f_gamma():
    problem = make_problem("1", "1 + t", [("1", fl.point_load(0.25))])
    kernel = _discretized(problem)
    assert np.array_equal(fl.b_lambda(problem, kernel, 0.0), fl.assemble_f_gamma(problem))


def test_b_lambda_zero_source():
    problem = make_problem("1", "0", [("1", fl.point_load(0.25))])
    kernel = _discretized(problem)
    for lam in [0.0, 0.3, -0.4]:
        assert np.max(np.abs(fl.b_lambda(problem, kernel, lam))) <= 1e-14


def test_b_lambda_rank_one_closed_form():
    problem = make_problem("1", "1", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    assert fl.b_lambda(problem, kernel, 0.5) == pytest.approx([2.0], abs=1e-10)


def test_taylor_A_zero_under_annihilating_loads():
    problem = make_problem("t - 1/2", "1", [("t", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    for a_m in fl.taylor_A(problem, kernel, 6):
        assert np.max(np.abs(a_m)) <= 1e-12


def test_taylor_A_zero_kernel():
    problem = make_problem("0", "1", [("t", fl.point_load(0.5))])
    kernel = _discretized(problem, nodes=16)
    for a_m in fl.taylor_A(problem, kernel, 4):
        assert np.array_equal(a_m, np.zeros((1, 1)))


def test_taylor_A_constant_kernel_all_ones():
    problem = make_problem("1", "1", [("1", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))])
    kernel = _discretized(problem)
    for a_m in fl.taylor_A(problem, kernel, 8):
        assert a_m == pytest.approx(np.array([[1.0]]), abs=1e-10)


def _examples_and_random_problems(nodes=64):
    for name in ("identity_pole", "loaded_regular", "nilpotent", "no_solution"):
        problem = load_problem_file(str(EXAMPLES / f"{name}.prob")).build(nodes)
        yield problem, fl.discretize(problem.kernel, problem.master_rule(nodes))
    rng = np.random.default_rng(41)
    for _ in range(5):
        yield make_random_regular_problem(rng, nodes)[:2]


def _iterated_images(kernel, iterated, columns, depth):
    """K_m W y for m = 1..depth from the dense iterated kernels: with KG the
    kernel slices, the loads read them as KG W K_{m-1} W y (K_0 W = I)."""
    weighted = kernel.rule.weights[:, None] * columns
    yield weighted
    for m in range(1, depth):
        yield kernel.rule.weights[:, None] * (iterated.kernel(m) @ weighted)


def test_scaled_taylor_A_matches_iterated_kernels():
    # A_m = KG W K_{m-1} W a from the dense iterated kernels is g^m times the
    # scaled coefficient. The loads of nilpotent.prob and no_solution.prob
    # annihilate the kernel, so their A_m are roundoff, hence the absolute floor.
    for problem, kernel in _examples_and_random_problems():
        g = fl.series_scale(kernel)
        iterated = fl.iterate_kernels(kernel, 30)
        slices = fl.kernel_slices(problem, kernel)
        images = _iterated_images(kernel, iterated, problem.coeff_values(kernel.rule), 30)
        scaled = fl.taylor_A(problem, kernel, 30)
        assert len(scaled) == 30
        for m, (a_m, image) in enumerate(zip(scaled, images), start=1):
            reference = slices @ image
            gap = np.max(np.abs(g**m * a_m - reference))
            assert gap <= 1e-12 * np.max(np.abs(reference)) + 1e-15


def test_series_consistency_random_problems():
    rng = np.random.default_rng(23)
    for _ in range(5):
        problem, kernel, lam = make_random_regular_problem(rng)
        iterated = fl.iterate_kernels(kernel, 30)
        g = fl.series_scale(kernel)
        a_coeffs = [g**m * a_m for m, a_m in enumerate(fl.taylor_A(problem, kernel, 30), start=1)]
        # b_m = KG W K_{m-1} W f, the kernel slices applied to the iterated images of f
        slices = fl.kernel_slices(problem, kernel)
        f_column = problem.source_values(kernel.rule)[:, None]
        b_coeffs = [(slices @ image)[:, 0]
                    for image in _iterated_images(kernel, iterated, f_column, 30)]
        a_series = sum(lam**m * a_coeffs[m - 1] for m in range(1, 31))
        b_series = fl.assemble_f_gamma(problem) + sum(
            lam**m * b_coeffs[m - 1] for m in range(1, 31)
        )
        assert np.max(np.abs(fl.A_lambda(problem, kernel, lam) - a_series)) <= 1e-8
        assert np.max(np.abs(fl.b_lambda(problem, kernel, lam) - b_series)) <= 1e-8


def test_degeneration_under_exact_annihilation():
    # Loads annihilate the kernel: A(lambda) = 0 and the lambda-system
    # collapses onto the zero-order one.
    problem = make_problem(
        "t - 1/2", "1 + t", [("t", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = _discretized(problem)
    norm = kernel.norm
    for lam in np.linspace(-0.5, 0.5, 7) / norm:
        assert np.max(np.abs(fl.A_lambda(problem, kernel, float(lam)))) <= 1e-8
    prep = fl.prepare(problem, kernel)
    c, note = solve_zero_order_system(prep.a0_units, prep.f_gamma, prep.units, prep.classification)
    assert note is None
    solution = fl.solve_regular(prep, 0.4 / norm)
    assert solution.x_gamma == pytest.approx(c, abs=1e-8)


def test_necessity_of_zero_order_system():
    # For a solver-produced solution under annihilating loads, the load vector
    # recomputed from x on the grid, by the load rows that kernel_slices reads,
    # satisfies (E - A0) c = f_gamma.
    problem = make_problem(
        "t - 1/2", "exp(t)", [("t^2", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = _discretized(problem)
    solution = fl.solve_regular(fl.prepare(problem, kernel), 0.7)
    c = np.array([interp_row(solution.x.rule, *load.functional.discrete) @ solution.x.values
                  for load in problem.loads])
    a0 = fl.assemble_A0(problem)
    lhs = (np.eye(1) - a0) @ c
    assert lhs == pytest.approx(fl.assemble_f_gamma(problem), abs=1e-8)

