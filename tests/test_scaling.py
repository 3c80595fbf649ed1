"""Rescalings that leave the equation unchanged leave the route unchanged.

x - sum_k a_k <gamma_k, x> - lambda K x = f is unchanged by f -> s f (x
scales by s), by (K, lambda) -> (s K, lambda / s) and by (a_k, gamma_k) ->
(s a_k, gamma_k / s) on every load (the load vector scales by 1 / s). Every
structural test is judged on the scale of its own data, so the CLI must take
the same route and exit with the same code on each rescaled problem file.
"""

import contextlib
import functools
import io
import pathlib
import re
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredload.cli import main
from fredload.functionals import kernel_slices
from fredload.kernel_ops import discretize
from fredload.load_system import assemble_A0
from fredload.problemfile import parse_problem_file
from fredload.solver import prepare
from fredload.tolerances import CORE_MIN_NODES, Q
from util import random_load_problem

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"

# A nilpotent kernel far below unit size, read by a point load that does not
# annihilate it: an absolute annihilation floor calls it annihilating.
SMALL_KERNEL_FILE = """\
interval = 0 1
kernel = 1e-12*(t - 1/2)
source = 1

[load]
coeff = 0.3
point = 1 @ 0

[numerics]
lambda = 1e12
"""

PROBLEMS = {path.stem: path.read_text() for path in sorted(EXAMPLES.glob("*.prob"))}
PROBLEMS["small_kernel"] = SMALL_KERNEL_FILE


def rescale(text: str, symmetry: str, s: float, load: Optional[int] = None) -> str:
    """The problem file with one rescaling applied to its data; the load
    rescaling applies to every load, or to load number `load` (from 0) alone."""
    lines, block = [], -1
    for line in text.splitlines():
        key, _, value = (part.strip() for part in line.split("#", 1)[0].partition("="))
        block += key == "[load]"
        loads = symmetry == "loads" and load in (None, block)
        if (key, symmetry) in (("source", "f"), ("kernel", "K")) or (key == "coeff" and loads):
            line = f"{key} = ({s!r})*({value})"
        elif loads and key == "point":
            alpha, t0 = (part.strip() for part in value.split("@"))
            line = f"point = {float(alpha) / s!r} @ {t0}"
        elif loads and key == "integral":
            weight, interval = re.fullmatch(r"(.*\S)\s+on\s*(\[.*\])", value).groups()
            line = f"integral = ({1.0 / s!r})*({weight}) on {interval}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def file_lambda(text: str) -> float:
    return float(re.search(r"^lambda\s*=\s*(\S+)", text, re.MULTILINE).group(1))


@functools.lru_cache(maxsize=None)
def run_solve(text: str, lam: float, nodes: int, route: str, tmp: pathlib.Path):
    """(exit code, route, x at the nodes, x_gamma) of `fredload solve`."""
    path = tmp / "problem.prob"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path), "--lambda", repr(lam), "--nodes", str(nodes),
                     "--route", route])
    if code != 0:
        return code, None, None, None
    x = np.array([float(row.split(",")[1]) for row in out.getvalue().splitlines()[1:]])
    summary = dict(line.split(": ", 1) for line in err.getvalue().splitlines())
    x_gamma = np.array([float(v) for v in summary["x_gamma"].strip("[]").split(",")])
    return code, summary["route"], x, x_gamma


def assert_scaled(scaled, reference, factor):
    assert np.max(np.abs(scaled - factor * reference)) <= 1e-9 * np.max(np.abs(factor * reference))


def check_rescaled(text, lam, symmetry, s, nodes, route, tmp):
    reference = run_solve(text, lam, nodes, route, tmp)
    scaled_lam = lam / s if symmetry == "K" else lam
    result = run_solve(rescale(text, symmetry, s), scaled_lam, nodes, route, tmp)
    assert result[:2] == reference[:2]
    if reference[0] == 0:
        x_factor, gamma_factor = {"f": (s, s), "K": (1.0, 1.0), "loads": (1.0, 1.0 / s)}[symmetry]
        assert_scaled(result[2], reference[2], x_factor)
        assert_scaled(result[3], reference[3], gamma_factor)


SCALES = st.sampled_from([1e-12, 1e-6, 1e6, 1e12])
NODES = st.sampled_from([16, 32])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), symmetry=st.sampled_from(["f", "K", "loads"]),
       s=SCALES, nodes=NODES)
def test_rescaled_problem_takes_the_same_route(tmp_path_factory, name, symmetry, s, nodes):
    text, tmp = PROBLEMS[name], tmp_path_factory.getbasetemp()
    check_rescaled(text, file_lambda(text), symmetry, s, nodes, "auto", tmp)


CORE_NODES = 256  # at least CORE_MIN_NODES: the routes read the low-rank core of K W


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("symmetry", ["f", "K", "loads"])
@pytest.mark.parametrize("s", [1e-12, 1e12])
def test_rescaled_problem_takes_the_same_route_on_the_core(tmp_path, name, symmetry, s):
    # Cross approximation's stop, check and trim are relative to K itself.
    assert CORE_NODES >= CORE_MIN_NODES
    text = PROBLEMS[name]
    check_rescaled(text, file_lambda(text), symmetry, s, CORE_NODES, "auto", tmp_path)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("s", [1e-12, 1e12])
def test_one_rescaled_load_keeps_route_and_solution_on_the_core(tmp_path, name, s):
    text = PROBLEMS[name]
    lam = file_lambda(text)
    reference = run_solve(text, lam, CORE_NODES, "auto", tmp_path)
    for load in range(text.count("[load]")):
        result = run_solve(rescale(text, "loads", s, load), lam, CORE_NODES, "auto", tmp_path)
        assert result[:2] == reference[:2], load
        if reference[0] == 0:
            assert_scaled(result[2], reference[2], 1.0)
            undo = np.ones(reference[3].size)
            undo[load] = s
            assert_scaled(result[3] * undo, reference[3], 1.0)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(s=SCALES, nodes=NODES)
def test_successive_route_scales_with_the_source(tmp_path_factory, s, nodes):
    # lambda 0.05 is inside the admissible bound q / l of loaded_regular.
    tmp = tmp_path_factory.getbasetemp()
    check_rescaled(PROBLEMS["loaded_regular"], 0.05, "f", s, nodes, "successive", tmp)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_oracle_verdict_survives_rescaled_loads(tmp_path, name):
    # The oracle judges its bordered system in load units, so its singularity
    # verdict, and with it the exit code, ignores (a_k, gamma_k) -> (s a_k, gamma_k / s).
    def oracle_check(text, nodes):
        path = tmp_path / "problem.prob"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["oracle-check", str(path), "--lambda", "0.2", "--nodes", str(nodes)])

    text = PROBLEMS[name]
    for nodes in (16, 32, 64):
        expected = oracle_check(text, nodes)
        assert expected == (2 if name == "no_solution" else 0)
        for s in (1e-12, 1e12):
            assert oracle_check(rescale(text, "loads", s), nodes) == expected, (nodes, s)


def power_of_two(name: str, kernel: str, source: str) -> str:
    """The example with f -> 2^1000 f and K -> 2^40 K."""
    text = PROBLEMS[name]
    assert text.count(f"kernel = {kernel}\n") == text.count(f"source = {source}\n") == 1
    return text.replace(f"kernel = {kernel}\n", f"kernel = 2^40*({kernel})\n").replace(
        f"source = {source}\n", f"source = 2^1000*({source})\n")


# Each route on an example with f -> 2^1000 f and K -> 2^40 K, solved at
# lambda / 2^40: the products with K (K W [a | f] and KG W B, K W x, C u) are
# about 2^1041, beyond the float range, while x is about 2^1001.
POWER_OF_TWO_CASES = {
    "regular": ("loaded_regular", "t*s + 0.5*(1-t)*(1-s)", "1 + t - t^2", 0.25),
    "successive": ("loaded_regular", "t*s + 0.5*(1-t)*(1-s)", "1 + t - t^2", 0.25),
    "nilpotent": ("nilpotent", "t - 1/2", "1", 10.0),
    "irregular": ("identity_pole", "1", "1", 0.25),
}


@pytest.mark.parametrize("nodes", [64, 512])
@pytest.mark.parametrize("route", sorted(POWER_OF_TWO_CASES))
def test_power_of_two_rescaling_near_the_float_range(tmp_path, nodes, route):
    # Every product with K runs on columns divided by a power of two and is
    # multiplied back, exactly, so x is 2^1000 times the unscaled x.
    name, kernel, source, lam = POWER_OF_TWO_CASES[route]
    text = power_of_two(name, kernel, source)
    reference = run_solve(PROBLEMS[name], lam, nodes, route, tmp_path)
    result = run_solve(text, lam / 2**40, nodes, route, tmp_path)
    assert result[:2] == reference[:2] == (0, route)
    np.testing.assert_allclose(result[2], 2.0**1000 * reference[2], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(result[3], 2.0**1000 * reference[3], rtol=1e-13, atol=0.0)
    path = tmp_path / "rescaled.prob"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        checked = main(["oracle-check", str(path), "--lambda", repr(lam / 2**40),
                        "--nodes", str(nodes), "--route", route])
    assert checked == 0


def test_rescale_writes_each_symmetry():
    # The property tests above would pass vacuously on a line rescale left alone.
    text = ("kernel = t*s\nsource = 1\ncoeff = 0.2\npoint = 2 @ 0.25\n"
            "integral = 1 + s on [0.1, 0.9]  # a comment\n")
    assert rescale(text, "K", 1e6).splitlines()[0] == "kernel = (1000000.0)*(t*s)"
    assert rescale(text, "f", 1e6).splitlines()[1] == "source = (1000000.0)*(1)"
    assert rescale(text, "loads", 1e6).splitlines()[2:] == [
        "coeff = (1000000.0)*(0.2)", "point = 2e-06 @ 0.25", "integral = (1e-06)*(1 + s) on [0.1, 0.9]"]
    two = "[load]\ncoeff = 1\npoint = 2 @ 0\n[load]\ncoeff = t\npoint = 3 @ 1\n"
    assert rescale(two, "loads", 4.0, load=1).splitlines() == [
        "[load]", "coeff = 1", "point = 2 @ 0", "[load]", "coeff = (4.0)*(t)", "point = 0.75 @ 1"]


ROUTES = {"loaded_regular": "regular", "regular": "regular", "identity": "irregular",
          "annihilating": "nilpotent"}


def successive_l(text: str, nodes: int) -> float:
    """Prepared.successive_l of a problem file at `nodes` nodes."""
    problem = parse_problem_file(text).build(nodes)
    return prepare(problem, discretize(problem.kernel, problem.master_rule(nodes))).successive_l


@settings(derandomize=True, max_examples=160, deadline=None)
@given(kind=st.sampled_from(sorted(ROUTES)), seed=st.integers(0, 2**32 - 1),
       load=st.integers(0, 2),
       s=st.one_of(st.sampled_from([2.0**-40, 2.0**40]),
                   st.floats(-12.0, 12.0).map(lambda e: 10.0**e)),
       successive=st.booleans())
def test_one_rescaled_load_keeps_route_and_solution(tmp_path_factory, kind, seed, load, s,
                                                    successive):
    # Rescaling one load alone, (a_k, gamma_k) -> (s a_k, gamma_k / s), leaves x
    # and scales x_gamma_k by 1 / s. The n x n decisions read their matrices in
    # load units, so neither the route nor the exit code may move. Random problems
    # cover a regular A0, A0 = E and loads annihilating a nilpotent kernel. On a
    # regular A0 the successive route runs at half its admissible |lambda| q / l,
    # which the rescaled file must admit too.
    tmp = tmp_path_factory.getbasetemp()
    if kind == "loaded_regular":
        text, lam = PROBLEMS[kind], 0.2
    else:
        text, lam = random_load_problem(np.random.default_rng(seed), kind)
    route, expected = "auto", ROUTES[kind]
    if successive and expected == "regular":
        route = expected = "successive"
        lam = 0.5 * Q / successive_l(text, 32)
    load %= text.count("[load]")
    reference = run_solve(text, lam, 32, route, tmp)
    assert reference[:2] == (0, expected)
    result = run_solve(rescale(text, "loads", s, load), lam, 32, route, tmp)
    assert result[:2] == reference[:2]
    assert_scaled(result[2], reference[2], 1.0)
    undo = np.ones(reference[3].size)
    undo[load] = s
    assert_scaled(result[3] * undo, reference[3], 1.0)


def dense_successive_norms(text: str, nodes: int) -> tuple[float, float]:
    """max-norms of K W + a (E - A0)^{-1} KG W and of Q C + a (E - A0)^{-1} KG W, the
    operator the successive route applies through the core K W = Q C, formed densely."""
    problem = parse_problem_file(text).build(nodes)
    kernel = discretize(problem.kernel, problem.master_rule(nodes))
    weights, core = kernel.rule.weights, kernel.core
    coupling = problem.coeff_values(kernel.rule) @ np.linalg.inv(
        np.eye(problem.n) - assemble_A0(problem))
    loads = coupling @ (kernel_slices(problem, kernel) * weights)
    operators = (kernel.values * weights + loads, core.lift(core.QtK * weights) + loads)
    return tuple(float(np.linalg.norm(operator, np.inf)) for operator in operators)


REGULAR_EXAMPLES = ["kinked_load", "loaded_regular", "nilpotent"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(source=st.one_of(st.sampled_from(REGULAR_EXAMPLES), st.integers(0, 2**32 - 1)),
       nodes=st.sampled_from([32, CORE_NODES]), load=st.integers(0, 2),
       s=st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
def test_successive_bound_covers_the_iterated_operator_and_ignores_one_load_scale(
        source, nodes, load, s):
    # l bounds the max-norm of the operator the successive route iterates, both with
    # the dense K W and with the core's Q C that the loop applies, and column k of
    # a (E - A0)^{-1} and row k of KG scale inversely, so rescaling one load leaves l
    # alone up to roundoff.
    if isinstance(source, str):
        text = PROBLEMS[source]
    else:
        text, _ = random_load_problem(np.random.default_rng(source), "regular")
    bound = successive_l(text, nodes)
    for norm in dense_successive_norms(text, nodes):
        assert bound >= norm * (1.0 - 1e-12)
    rescaled = successive_l(rescale(text, "loads", s, load % text.count("[load]")), nodes)
    assert abs(rescaled - bound) <= 1e-12 * bound


def test_one_rescaled_load_of_loaded_regular_is_judged_in_load_units(tmp_path):
    # The file of the former FOUND: A0 = [[0.15, 4e-7], [1.928e5, 0.24]] has
    # singular values 1.9e5 and 3.0e-6, yet det(E - A0) = 0.569; in load units
    # E - A0 is the unscaled file's.
    text = PROBLEMS["loaded_regular"].replace("coeff = 0.3*t", "coeff = 0.3e6*t").replace(
        "point = 2 @ 0.25", "point = 2e-6 @ 0.25")
    for nodes in (32, 64):
        reference = run_solve(PROBLEMS["loaded_regular"], 0.2, nodes, "auto", tmp_path)
        result = run_solve(text, 0.2, nodes, "auto", tmp_path)
        assert result[:2] == reference[:2] == (0, "regular")
        assert_scaled(result[2], reference[2], 1.0)
