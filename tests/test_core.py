"""The low-rank core K W = Q C (DiscreteKernel.core) and the routes that read it.

From CORE_MIN_NODES nodes on, every per-lambda solve, the Taylor powers and
the characteristic numbers work in r x r on the core; below it, or when the
range finder runs out of columns, the core is the trivial Q = I and the
dense computation runs. The oracle never reads the core, so the property
test below compares the two.
"""

import contextlib
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
from fredload.tolerances import CORE_BLOCK, CORE_BUDGET, CORE_MIN_NODES, CORE_TOL
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
    assert kernel.core is core  # cached on the kernel, like the norm


def _products_with_values(kernel):
    """The widths (columns of K X, rows of Y K) of the matrix products with
    kernel.values that building kernel.core takes, in order."""
    widths = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                left, right = inputs
                widths.append(right.shape[1] if isinstance(left, Counted) else left.shape[0])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    object.__setattr__(kernel, "values", kernel.values.view(Counted))
    kernel.core
    return widths


# One instance of each generated benchmark family (regular, identity, nilpotent)
# and its rank at N = 512, and the regular family's top corner (c2 = 3).
FAMILY_KERNELS = [("0.6523*exp(-0.3121*(t - s))*cos(1.874*t*s)", 7),
                  ("0.9*exp(1.0*(t - s))*cos(3.0*t*s)", 8),
                  ("0.5512 + 0.2211*t*s + 0.1123*cos(2.718*(t - s))", 4),
                  ("1.7*(t - 0.3)*(s - 0.9166666666666666)", 1)]


@pytest.mark.parametrize("name, rank", [("loaded_regular", 2), ("identity_pole", 1),
                                        ("nilpotent", 1), ("kinked_load", 8),
                                        ("no_solution", 1)])
def test_example_cores_take_one_sketch_pass(name, rank):
    # K W [P | Omega] and Q^T K: the first block of CORE_BLOCK columns is accepted.
    problem = load_problem_file(str(EXAMPLES / f"{name}.prob")).build(512)
    kernel = fl.discretize(problem.kernel, problem.master_rule(512))
    assert _products_with_values(kernel) == [4 + CORE_BLOCK, CORE_BLOCK]
    assert kernel.core.Q is not None and kernel.core.rank == rank <= CORE_BLOCK


@pytest.mark.parametrize("text, rank", FAMILY_KERNELS)
def test_benchmark_family_cores_take_one_sketch_pass(text, rank):
    kernel = _kernel(text, 512)
    assert len(_products_with_values(kernel)) == 2
    assert kernel.core.Q is not None and kernel.core.rank == rank


@pytest.mark.parametrize("text, rank", [("exp(-(t - s)^2)", 9), ("cos(14*t*s)", 14)])
def test_core_past_the_first_block_doubles_q(text, rank):
    # A second block as wide as Q: K W [P | Omega_8], K W Omega_8 and a
    # 16-row Q^T K, the 36 columns two 16-column blocks and the probe took.
    kernel = _kernel(text, 512)
    assert _products_with_values(kernel) == [12, 8, 16]
    assert kernel.core.rank == rank


def test_only_kernel_ops_and_the_oracle_read_the_sample(monkeypatch):
    # Every product with K outside kernel_ops goes through DiscreteKernel's
    # methods; the oracle samples K densely on its own. Each fresh kernel's
    # values record the fredload module nearest to each ufunc applied to them.
    readers, kernels = set(), []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and not frame.f_globals["__name__"].startswith("fredload"):
                frame = frame.f_back
            readers.add(frame and frame.f_globals["__name__"])
            plain = [a.view(np.ndarray) if isinstance(a, Recorded) else a for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    def discretize(kernel, rule):
        discrete = kernel_ops.discretize(kernel, rule)
        object.__setattr__(discrete, "values", discrete.values.view(Recorded))
        kernels.append(discrete)
        return discrete

    monkeypatch.setattr(cli, "discretize", discretize)
    lam, window = ["--lambda", "0.05"], ["--lambda-min", "-20", "--lambda-max", "20"]
    for path in sorted(EXAMPLES.glob("*.prob")):
        for nodes in (64, 512):
            for command in (["analyze"], ["solve", *lam], ["solve", *lam, "--route", "successive"],
                            ["sweep", *window, "--steps", "3"], ["find-poles", *window],
                            ["oracle-check", *lam]):
                _cli(command[0], path, "--nodes", nodes, *command[1:])
    assert len(kernels) == 5 * 2 * 6
    assert readers == {"fredload.kernel_ops", "fredload.oracle"}


def test_core_is_trivial_below_the_crossover():
    kernel = _kernel("t*s + 0.5*(1-t)*(1-s)", CORE_MIN_NODES - 1)
    core = kernel.core
    assert core.Q is None and core.QtK is kernel.values
    assert np.array_equal(core.M, kernel.values * kernel.rule.weights)


def test_core_budget_is_a_block_or_an_eighth_of_the_nodes():
    # 1/(1 + 25 (t - s)^2) has numerical rank 53 at N = 512: within 512 / 8
    # columns there, beyond 256 / 8 at N = 256.
    text = "1/(1 + 25*(t - s)^2)"
    assert max(CORE_BLOCK, 512 // CORE_BUDGET) == 64
    assert 40 < _kernel(text, 512).core.rank <= 64
    assert _kernel(text, 256).core.Q is None


ABS_KERNEL_FILE = LOADED_REGULAR.read_text().replace(
    "kernel = t*s + 0.5*(1-t)*(1-s)", "kernel = abs(t - s)")


def test_full_rank_kernel_falls_back_to_the_dense_computation(tmp_path, monkeypatch):
    # abs(t - s) has full numerical rank: the range finder gives up and every
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
@given(rank=st.integers(1, max(CORE_BLOCK, NODES // CORE_BUDGET) - 4),
       kind=st.sampled_from(["regular", "identity"]), seed=st.integers(0, 2**32 - 1))
def test_every_applicable_route_agrees_with_the_oracle_on_the_core(rank, kind, seed):
    # Random loads of a regular A0 or of A0 = E on a kernel of exact rank 1 up
    # to near the range finder's budget; the oracle solves the dense system.
    rng = np.random.default_rng(seed)
    text, _ = random_load_problem(rng, kind)
    text = re.sub(r"^kernel = .*$", f"kernel = {_cosine_kernel(rng, rank)}", text, flags=re.M)
    problem = parse_problem_file(text).build(NODES)
    kernel = fl.discretize(problem.kernel, problem.master_rule(NODES))
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
