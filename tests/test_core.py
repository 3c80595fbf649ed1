"""The low-rank core K W = Q C (DiscreteKernel.core) and the routes that read it.

From CORE_MIN_NODES nodes on, cross approximation builds the core from a few
rows and columns of K, and every per-lambda solve, the Taylor powers and the
characteristic numbers work in r x r on it; below it, or when cross
approximation gives up, the core is the trivial Q = I and the dense
computation runs. The oracle never reads the core, so the property tests
below compare the two.
"""

import ast
import contextlib
import functools
import io
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fredload as fl
from fredload import cli, kernel_ops
from fredload.cli import main
from fredload.errors import RoutePreconditionError
from fredload.problemfile import load_problem_file, parse_problem_file
from fredload.tolerances import CORE_CROSSES, CORE_MIN_NODES, CORE_TOL
from util import random_load_problem

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"
LOADED_REGULAR = EXAMPLES / "loaded_regular.prob"
# 1/mu for the two nonzero eigenvalues (1/2 +- 1/(2 sqrt 3))/2 of loaded_regular's kernel.
ROOTS = (6.0 - 2.0 * np.sqrt(3.0), 6.0 + 2.0 * np.sqrt(3.0))


def _kernel(text, nodes):
    return fl.discretize(fl.parse(text, {"t", "s"}), fl.gauss_legendre(nodes, 0.0, 1.0))


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _cosine_kernel(rng, rank):
    """sum_j c_j cos(j pi t + a_j) cos(j pi s + b_j), j < rank: exactly rank `rank`."""
    amps = rng.uniform(0.1, 1.0, rank)
    phases = rng.uniform(0.0, 2.0 * np.pi, (rank, 2))
    return " + ".join(f"{float(amps[j])!r}*cos({j}*pi*t + {float(phases[j, 0])!r})"
                      f"*cos({j}*pi*s + {float(phases[j, 1])!r})" for j in range(rank))


@pytest.mark.parametrize("text, rank", [("t*s + 0.5*(1-t)*(1-s)", 2), ("t - 1/2", 1),
                                        ("1", 1), ("cos(t - s)", 2), ("0", 1)])
@pytest.mark.parametrize("nodes", [CORE_MIN_NODES, 512])
def test_core_factors_k_w(text, rank, nodes):
    kernel = _kernel(text, nodes)
    core = kernel.core
    assert core.Q is not None and core.rank == rank
    assert np.allclose(core.Q.T @ core.Q, np.eye(rank), rtol=0.0, atol=1e-14)
    weighted = kernel.values * kernel.rule.weights
    defect = np.linalg.norm(weighted - core.Q @ (core.QtK * kernel.rule.weights))
    assert defect <= nodes * CORE_TOL * max(np.linalg.norm(weighted), 1e-300)
    assert core.M == pytest.approx(core.QtK @ (kernel.rule.weights[:, None] * core.Q), abs=1e-15)
    assert kernel.core is core  # built once, with the kernel


def _reads(monkeypatch):
    """The number of entries of each evaluation of K that kernel_ops makes from now on."""
    sizes = []
    evaluate = kernel_ops.evaluate

    def counted(expr, bindings):
        sizes.append(np.broadcast(*bindings.values()).size)
        return evaluate(expr, bindings)

    monkeypatch.setattr(kernel_ops, "evaluate", counted)
    return sizes


def _budget(nodes):
    return nodes // 8


def _assert_reads(sizes, nodes, reads):
    # The check set first (the diagonal, then its 4 rows in one read), then a row
    # and a column of K per cross, and a row whose residual is zero where one stops
    # it: N entries each, and no N x N sample.
    assert sizes[:2] == [nodes, 4 * nodes] and sizes[2:] == [nodes] * reads


# One instance of each generated benchmark family (regular, identity, nilpotent)
# and its rank at N = 512, and the regular family's top corner (c2 = 3).
FAMILY_KERNELS = [("0.6523*exp(-0.3121*(t - s))*cos(1.874*t*s)", 7),
                  ("0.9*exp(1.0*(t - s))*cos(3.0*t*s)", 8),
                  ("0.5512 + 0.2211*t*s + 0.1123*cos(2.718*(t - s))", 4),
                  ("1.7*(t - 0.3)*(s - 0.9166666666666666)", 1)]


@pytest.mark.parametrize("name, rank, reads", [("loaded_regular", 2, 8), ("identity_pole", 1, 3),
                                               ("nilpotent", 1, 3), ("kinked_load", 8, 22),
                                               ("no_solution", 1, 4)])
def test_example_cores_take_a_few_crosses(monkeypatch, name, rank, reads):
    # 1-11 crosses of the 64 that N = 512 allows, and 5 N entries for the check:
    # 1.6-5.3% of the N^2 entries. The sample is not formed.
    problem = load_problem_file(str(EXAMPLES / f"{name}.prob")).build(512)
    rule = problem.master_rule(512)
    sizes = _reads(monkeypatch)
    kernel = fl.discretize(problem.kernel, rule)
    _assert_reads(sizes, 512, reads)
    assert reads <= 2 * _budget(512) == 128
    assert kernel.core.Q is not None and kernel.core.rank == rank
    assert "values" not in vars(kernel)


@pytest.mark.parametrize("text, rank", FAMILY_KERNELS)
def test_benchmark_family_cores_take_a_few_crosses(monkeypatch, text, rank):
    sizes = _reads(monkeypatch)
    kernel = _kernel(text, 512)
    assert set(sizes[2:]) == {512} and len(sizes) <= 2 + 2 * 13
    assert kernel.core.Q is not None and kernel.core.rank == rank


@pytest.mark.parametrize("text, nodes, rank, reads", [("1/(1 + 25*(t - s)^2)", 256, None, None),
                                                      ("1/(1 + 25*(t - s)^2)", 512, 60, 120),
                                                      ("cos(14*t*s)", 512, 14, 34)])
def test_cross_budget_grows_with_the_nodes(monkeypatch, text, nodes, rank, reads):
    # The Runge kernel has numerical rank 53 at N = 512. Its cross sizes fall, so
    # it does not stall: it spends the 32 rows that N = 256 allows, and K is
    # sampled, and takes 60 of the 64 that N = 512 allows. Its rank-53 trim misses
    # the check, so the core keeps all 60 crosses. cos(14 t s), numerical rank 14,
    # takes 17.
    assert _budget(256) == 32 and _budget(512) == 64 and _budget(CORE_MIN_NODES) == 24
    sizes = _reads(monkeypatch)
    kernel = _kernel(text, nodes)
    if rank is None:
        assert kernel.core.Q is None and "values" in vars(kernel)
        assert len(sizes) == 2 + 2 * _budget(nodes) and max(sizes) == 4 * nodes
        return
    _assert_reads(sizes, nodes, reads)
    assert kernel.core.rank == rank
    assert kernel.core.check_error == pytest.approx(_check_set_error(kernel), rel=1e-3)


def _check_set_error(kernel):
    """Q QtK's error against the sample on the check set of cross approximation (the
    diagonal and 4 rows drawn with seed 1), relative to K's norm there."""
    core, values = kernel.core, kernel.values
    picked = np.sort(np.random.default_rng(1).choice(kernel.rule.n, 4, replace=False))
    exact, solved = (np.vstack([np.diag(a), a[picked]]) for a in (values, core.Q @ core.QtK))
    return float(np.linalg.norm(exact - solved) / np.linalg.norm(exact))


def test_the_check_error_is_that_of_the_trimmed_core():
    # U V, 8 crosses, passes its check at 1.3 eps; the trim keeps rank 5, and Q QtK,
    # the operator every route solves, is about 660 eps off K there.
    kernel = _kernel("0.6559*exp(0.9009*(t - s))*cos(0.8604*t*s)", 1024)
    assert kernel.core.rank == 5
    assert kernel.core.check_error == pytest.approx(_check_set_error(kernel), rel=1e-3)
    assert 500 * CORE_TOL < kernel.core.check_error <= 1024 * CORE_TOL


def test_only_kernel_ops_and_the_oracle_read_the_sample(monkeypatch):
    # Every product with K outside kernel_ops goes through DiscreteKernel's
    # methods; the oracle samples K densely on its own. At N = 512 every example
    # has a cross-approximation core, so only oracle-check forms the sample, and
    # not on no_solution, which exits 2 before the oracle. Each sample records
    # the fredload module nearest to each ufunc applied to it.
    readers, samples = set(), []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and not frame.f_globals["__name__"].startswith("fredload"):
                frame = frame.f_back
            readers.add(frame and frame.f_globals["__name__"])
            plain = [a.view(np.ndarray) if isinstance(a, Recorded) else a for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    sample = kernel_ops.DiscreteKernel.values.func

    def recorded(kernel):
        samples[-1][-1] += 1
        return sample(kernel).view(Recorded)

    lazy = functools.cached_property(recorded)
    lazy.__set_name__(kernel_ops.DiscreteKernel, "values")

    def discretize(kernel, rule):
        # A sample formed here is also the trivial core's QtK.
        discrete = kernel_ops.discretize(kernel, rule)
        if "values" in vars(discrete):
            object.__setattr__(discrete, "values", discrete.values.view(Recorded))
            object.__setattr__(discrete.core, "QtK", discrete.values)
        return discrete

    monkeypatch.setattr(kernel_ops.DiscreteKernel, "values", lazy)
    monkeypatch.setattr(cli, "discretize", discretize)
    lam, window = ["--lambda", "0.05"], ["--lambda-min", "-20", "--lambda-max", "20"]
    for path in sorted(EXAMPLES.glob("*.prob")):
        for nodes in (64, 512):
            for command in (["analyze"], ["solve", *lam], ["solve", *lam, "--route", "successive"],
                            ["sweep", *window, "--steps", "3"], ["find-poles", *window],
                            ["oracle-check", *lam]):
                samples.append([path.stem, nodes, command[0], 0])
                _cli(command[0], path, "--nodes", nodes, *command[1:])
    assert len(samples) == 5 * 2 * 6
    assert all(count == (nodes == 64 or (command == "oracle-check" and name != "no_solution"))
               for name, nodes, command, count in samples)
    assert readers == {"fredload.kernel_ops", "fredload.oracle"}


def test_only_kernel_ops_and_the_cli_reports_read_the_core():
    # Other modules multiply by K W through DiscreteKernel.apply and rows_times; the
    # CLI reads the core only where analyze and solve report its rank and check error.
    readers = set()
    for path in pathlib.Path(kernel_ops.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "core"
                    for node in ast.walk(function)):
                readers.add(path.stem if path.stem == "kernel_ops" else function.name)
    assert readers == {"kernel_ops", "cmd_analyze", "cmd_solve"}


def test_core_is_trivial_below_the_crossover():
    kernel = _kernel("t*s + 0.5*(1-t)*(1-s)", CORE_MIN_NODES - 1)
    core = kernel.core
    assert core.Q is None and core.QtK is kernel.values
    assert np.array_equal(core.M, kernel.values * kernel.rule.weights)


def _separable_kernel(rng, rank):
    """sum_j c_j cos(j pi t + a_j) cos(k_j pi s + b_j), j < rank, with k a
    permutation of range(rank): exactly rank `rank`, and not symmetric."""
    amps = rng.uniform(0.1, 1.0, rank)
    phases = rng.uniform(-1.0, 1.0, (rank, 2))
    right = rng.permutation(rank)
    return " + ".join(f"{float(amps[j])!r}*cos({j}*pi*t + {float(phases[j, 0])!r})"
                      f"*cos({int(right[j])}*pi*s + {float(phases[j, 1])!r})" for j in range(rank))


def _assert_factored(kernel, rank):
    # Q C agrees with the sampled K W within the acceptance threshold.
    core, weights, nodes = kernel.core, kernel.rule.weights, kernel.rule.n
    assert core.Q is not None and core.rank == rank
    weighted = kernel.values * weights
    defect = np.linalg.norm(weighted - core.Q @ (core.QtK * weights))
    assert defect <= nodes * CORE_TOL * np.linalg.norm(weighted)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rank=st.integers(1, 8), nodes=st.sampled_from([CORE_MIN_NODES, 512]),
       seed=st.integers(0, 2**32 - 1))
def test_cross_approximation_factors_a_sum_of_separable_terms(rank, nodes, seed):
    kernel = _kernel(_separable_kernel(np.random.default_rng(seed), rank), nodes)
    _assert_factored(kernel, rank)


def test_a_kernel_that_vanishes_on_the_first_row_is_still_factored():
    # Cross approximation starts at row 0, where this rank-2 kernel is exactly 0:
    # the zero residual row accepts nothing, the check misses, and it goes on from
    # the row of the check's largest miss.
    rule = fl.gauss_legendre(512, 0.0, 1.0)
    first = float(rule.nodes[0])
    kernel = _kernel(f"(t - {first!r})*exp(s) + (t - {first!r})^2*cos(3*s)", 512)
    assert not np.any(kernel.values[0]) and np.all(kernel.values[1:])
    _assert_factored(kernel, 2)


def test_a_miss_after_a_small_cross_goes_on_from_the_largest_miss(monkeypatch):
    # A benchmark identity-family kernel of rank 4. Its 5th cross is 3 eps of
    # ||U V||_F, below the stop, but the check misses by 4.8e-13: cross approximation
    # goes on from the row of the largest miss, and the 7th cross stops it.
    sizes = _reads(monkeypatch)
    kernel = _kernel("0.6541 + 0.1068*t*s + 0.109*cos(3.118*(t - s))", 512)
    _assert_reads(sizes, 512, 14)
    _assert_factored(kernel, 4)


@pytest.mark.parametrize("power", [-560, 560])
def test_cross_approximation_of_a_scaled_kernel_is_the_scaled_one(power):
    # Reads are divided by the power of two above max|K| on the check set, so
    # 2^+-560 K, whose squares underflow or overflow, takes the same crosses as K.
    text = "t*s + 0.5*(1-t)*(1-s)"
    unit, scaled = _kernel(text, 512).core, _kernel(f"2^{power}*({text})", 512).core
    assert scaled.rank == unit.rank == 2 and np.array_equal(scaled.Q, unit.Q)
    assert np.array_equal(scaled.QtK, unit.QtK * 2.0**power)


@pytest.mark.parametrize("nodes", [512, 1024, 2048])
@pytest.mark.parametrize("text, smallest", [("exp(-abs(t - s))", 2), ("abs(t - s)", 4)])
def test_kernels_that_stall_take_the_dense_path(monkeypatch, nodes, text, smallest):
    # Past its smallest cross, the 2nd or the 4th, each cross of a kernel kinked on
    # s = t is larger than the last: CORE_CROSSES crosses later the check misses
    # and K is sampled, after the same number of crosses at every N.
    sizes = _reads(monkeypatch)
    kernel = _kernel(text, nodes)
    assert kernel.core.Q is None and kernel.core.QtK is kernel.values
    assert len(sizes) == 2 + 2 * (smallest + CORE_CROSSES) < 2 + 2 * _budget(nodes)


def test_the_check_sees_a_bump_on_the_diagonal_but_not_off_it(tmp_path):
    # The first crosses miss a narrow bump at (0.3, 0.3) or (0.3, 0.7). The first
    # bump misses the check on the diagonal, and cross approximation goes on from its
    # row to the rank-2 core; the second is missed, the core is t*s alone, and
    # oracle-check, which samples K, refuses the solve.
    bump = "t*s + exp(-1e5*((t - 0.3)^2 + (s - {})^2))"
    _assert_factored(_kernel(bump.format(0.3), 512), 2)
    missed = _kernel(bump.format(0.7), 512)
    assert missed.core.rank == 1 and missed.max_abs < 1.0 < float(np.max(missed.values))
    path = tmp_path / "bump.prob"
    path.write_text(LOADED_REGULAR.read_text().replace(
        "kernel = t*s + 0.5*(1-t)*(1-s)", f"kernel = {bump.format(0.7)}"))
    code, out, err = _cli("oracle-check", path, "--nodes", 512)
    assert code == 1 and "max disagreement: 0.00305" in out and "exceeds threshold" in err


@pytest.mark.parametrize("nodes", [64, 512])
def test_analyze_and_solve_report_the_check_error_of_a_cross_core(nodes):
    # Beside the residual, which is of the Q C solved, analyze and solve print Q C's
    # error on the check set; the trivial core below CORE_MIN_NODES prints neither.
    _, out, _ = _cli("analyze", LOADED_REGULAR, "--nodes", nodes)
    _, _, err = _cli("solve", LOADED_REGULAR, "--nodes", nodes)
    kernel = fl.discretize(*_loaded_regular_kernel_args(nodes))
    core = kernel.core
    shown = [line for line in (out + err).splitlines() if line.startswith("core")]
    if nodes < CORE_MIN_NODES:
        assert core.check_error == 0.0 and shown == []
        return
    error = cli._fmt(core.check_error)
    assert shown == [f"core: rank 2, check error {error}", f"core check error: {error}"]
    assert 0.0 < core.check_error <= nodes * CORE_TOL
    assert core.check_error == pytest.approx(_check_set_error(kernel), abs=0.1 * CORE_TOL)


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("text, failing", [("1/(t - s)", "(1.0 / (t - s))"),
                                           ("sqrt(t - s)", "sqrt((t - s))"),
                                           ("log(t - s)", "log((t - s))")])
def test_a_kernel_that_fails_on_the_grid_is_a_domain_error(tmp_path, nodes, text, failing):
    # Cross approximation meets the failure on its check set and gives up; the
    # dense sample then names the subexpression that fails first on the grid.
    path = tmp_path / "singular.prob"
    path.write_text(LOADED_REGULAR.read_text().replace(
        "kernel = t*s + 0.5*(1-t)*(1-s)", f"kernel = {text}"))
    code, out, err = _cli("solve", path, "--nodes", nodes)
    assert (code, out) == (4, "")
    assert err == f"error[domain-error]: non-finite value from '{failing}'\n"


ABS_KERNEL_FILE = LOADED_REGULAR.read_text().replace(
    "kernel = t*s + 0.5*(1-t)*(1-s)", "kernel = abs(t - s)")


def test_full_rank_kernel_falls_back_to_the_dense_computation(tmp_path, monkeypatch):
    # abs(t - s) has full numerical rank: cross approximation gives up and every
    # command prints what the dense computation, the core switched off, prints.
    assert "abs(t - s)" in ABS_KERNEL_FILE
    path = tmp_path / "abs.prob"
    path.write_text(ABS_KERNEL_FILE)
    assert _kernel("abs(t - s)", 512).core.Q is None
    commands = [("solve", path, "--nodes", 512),
                ("find-poles", path, "--nodes", 512, "--lambda-min", -20, "--lambda-max", 20),
                ("sweep", path, "--nodes", 512, "--lambda-min", 0.05, "--lambda-max", 0.45,
                 "--steps", 3)]
    with_core = [_cli(*argv) for argv in commands]
    monkeypatch.setattr(kernel_ops, "CORE_MIN_NODES", 10**9)
    assert [_cli(*argv) for argv in commands] == with_core
    assert all(code == 0 for code, _, _ in with_core)


def test_characteristic_numbers_of_loaded_regular_from_the_core(monkeypatch):
    # find-poles reads eigvals of the 2 x 2 core, not of the 512 x 512 K W.
    kernel = fl.discretize(*_loaded_regular_kernel_args(512))
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
    roots = fl.find_characteristic_numbers(kernel, -20.0, 20.0)
    assert shapes == [(2, 2)]
    assert roots == pytest.approx([2.5358983848622, 9.4641016151377], abs=1e-12)
    assert roots == pytest.approx(ROOTS, rel=1e-14)
    assert kernel_ops.det_magnitude(kernel, 0.2) == pytest.approx(
        abs(np.linalg.det(np.eye(512) - 0.2 * kernel.values * kernel.rule.weights)), rel=1e-13)


def _loaded_regular_kernel_args(nodes):
    problem = load_problem_file(str(LOADED_REGULAR)).build(nodes)
    return problem.kernel, problem.master_rule(nodes)


@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
def test_lambda_next_to_a_root_is_refused_on_the_core(root, offset):
    code, out, err = _cli("solve", LOADED_REGULAR, "--nodes", 512, "--lambda", root * (1 + offset))
    assert (code, out) == (3, "")
    assert "is too close to a characteristic number" in err


@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_lambda_near_a_root_solves_on_the_core_and_agrees_with_the_oracle(root, offset):
    code, out, err = _cli("oracle-check", LOADED_REGULAR, "--nodes", 512,
                          "--lambda", root * (1 + offset))
    assert (code, err) == (0, "")
    assert "route: regular" in out


def test_huge_lambda_is_refused_on_the_core():
    # The core's 2 x 2 LU keeps its digits at lambda = 1e300, where the dense
    # LU returned zero probe images; the refusal now names |lambda| g.
    code, out, err = _cli("solve", LOADED_REGULAR, "--nodes", 512, "--lambda", 1e300)
    assert (code, out) == (3, "")
    assert err == ("error[characteristic-number]: lambda=1e+300 is too large: |lambda| g alone "
                   "exceeds COND_LIMIT = 1e+08 (estimated ||(I - lambda K W)^{-1}|| = 1.000e+00)\n")


NODES = 256
ROUTES = (fl.solve_regular, fl.solve_successive, fl.solve_irregular, fl.solve_nilpotent)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rank=st.integers(1, 28),
       kind=st.sampled_from(["regular", "identity"]), seed=st.integers(0, 2**32 - 1))
def test_every_applicable_route_agrees_with_the_oracle_on_the_core(rank, kind, seed):
    # Random loads of a regular A0 or of A0 = E on a kernel of exact rank 1 to 28;
    # rank r takes up to r + 5 crosses, within the 32 that N = 256 allows up to
    # rank 24 and the 64 of N = 512 above. The oracle solves the dense system.
    rng = np.random.default_rng(seed)
    text, _ = random_load_problem(rng, kind)
    text = re.sub(r"^kernel = .*$", f"kernel = {_cosine_kernel(rng, rank)}", text, flags=re.M)
    nodes = NODES if rank <= 24 else 2 * NODES
    problem = parse_problem_file(text).build(nodes)
    kernel = fl.discretize(problem.kernel, problem.master_rule(nodes))
    assert kernel.core.Q is not None and kernel.core.rank == rank
    prep = fl.prepare(problem, kernel)
    lam = float(rng.choice([-0.3, 0.3])) / kernel.norm
    if kind == "identity":
        try:
            lam = float(np.sign(lam)) * min(abs(lam), 0.1 * prep.laurent.rho)
        except RoutePreconditionError:  # A_p singular: the irregular route does not apply
            assume(False)
    reference = fl.dense_solve(problem, kernel, lam)
    size = max(float(np.max(np.abs(reference.x.values))), 1.0)
    agreed = []
    for route in ROUTES:
        try:
            solution = route(prep, lam)
        except RoutePreconditionError:
            continue
        # The successive route stops at TOL; near the pole at 0 of the irregular
        # route the oracle's LU keeps about cond * eps, 1e-10 relative here.
        bound = (1e-8 if solution.route in ("successive", "irregular") else 1e-11) * size
        assert float(np.max(np.abs(solution.x.values - reference.x.values))) <= bound, solution.route
        agreed.append(solution.route)
    assert agreed[0] == {"regular": "regular", "identity": "irregular"}[kind]
