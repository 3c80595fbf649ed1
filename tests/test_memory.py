"""A solve allocates at most one N x N array, the kernel sample, and none
when cross approximation compresses the kernel; when it gives up, the
trivial core adds M = K W and a solve one I - lambda M. The dense oracle
forms the sample and adds one bordered (N + n) x (N + n) array. A problem
holds no kernel sample.

Sampling K, its norm and max|K|, a load's Cauchy matrix and the oracle's
load rows of K work in row blocks of at most GRID_BLOCK elements, so the
traced peak of a whole CLI solve exceeds the sample's 8 N^2 bytes by a few
blocks at most, at any N, and the oracle's by its bordered array more.
"""

import contextlib
import gc
import io
import pathlib
import re
import tracemalloc
import weakref

import pytest

from fredload.cli import main
from fredload.kernel_ops import discretize
from fredload.problemfile import load_problem_file
from fredload.solver import solve_auto
from fredload.tolerances import GRID_BLOCK

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def solve(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def traced_peaks(command: list[str], nodes: int, paths=None):
    """(example, n, traced peak in bytes) of `command` on every example, or every
    file of `paths`, that it solves. The warm-up call fills the per-N caches
    (Gauss-Legendre nodes, the probe block), which later solves share."""
    for path in paths or sorted(EXAMPLES.glob("*.prob")):
        argv = [command[0], str(path), "--nodes", str(nodes), *command[1:]]
        if solve(argv) != 0:
            continue
        tracemalloc.start()
        try:
            assert solve(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield path.stem, len(load_problem_file(str(path)).raw_loads), peak


SOLVED = ["identity_pole", "kinked_load", "loaded_regular", "nilpotent"]


@pytest.mark.parametrize("nodes", [512, 1024])
def test_solve_allocates_one_grid_sized_array(nodes):
    solved = []
    for name, _, peak in traced_peaks(["solve"], nodes):
        assert peak - 8 * nodes**2 <= 4 * 8 * GRID_BLOCK, (name, peak)
        solved.append(name)
    assert solved == SOLVED


@pytest.mark.parametrize("nodes", [512, 1024])
@pytest.mark.parametrize("command", [
    ["analyze"],
    ["find-poles", "--lambda-min", "-20", "--lambda-max", "20"],
    ["sweep", "--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "3"],
])
def test_every_command_allocates_one_grid_sized_array(command, nodes):
    # No route multiplies two N x N operands: one such product alone would add
    # 8 N^2 bytes, 16 blocks at N = 1024. no_solution's sweep refuses its rows.
    covered = []
    for name, _, peak in traced_peaks(command, nodes):
        assert peak - 8 * nodes**2 <= 4 * 8 * GRID_BLOCK, (name, peak)
        covered.append(name)
    assert covered == [*SOLVED, "no_solution"]


@pytest.mark.parametrize("command", [
    ["solve"],
    ["analyze"],
    ["find-poles", "--lambda-min", "-20", "--lambda-max", "20"],
    ["sweep", "--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "3"],
])
def test_a_compressible_kernel_forms_no_grid_sized_array(command):
    # Every example's kernel has a cross-approximation core at N = 1024: its
    # factors, the norm pass and the load rows take a few blocks, a quarter of
    # the 8 N^2 bytes of the sample, which is never formed.
    nodes = 1024
    covered = []
    for name, _, peak in traced_peaks(command, nodes):
        assert peak <= 4 * 8 * GRID_BLOCK < 8 * nodes**2, (name, peak)
        covered.append(name)
    assert covered == SOLVED + ["no_solution"] * (command[0] != "solve")


@pytest.mark.parametrize("nodes", [512, 1024])
@pytest.mark.parametrize("command", [
    ["solve"],
    ["analyze"],
    ["sweep", "--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "3"],
])
def test_a_kernel_without_a_core_forms_three_grid_sized_arrays(command, nodes, tmp_path):
    # Cross approximation stalls on exp(-abs(t - s)) and gives up, so K is sampled: the
    # sample, the trivial core's M = K W and one I - lambda M (analyze forms no I - lambda M).
    text = (EXAMPLES / "loaded_regular.prob").read_text(encoding="utf-8")
    path = tmp_path / "stall_kernel.prob"
    path.write_text(re.sub(r"^kernel = .*$", "kernel = exp(-abs(t - s))", text, flags=re.M),
                    encoding="utf-8")
    peaks = list(traced_peaks(command, nodes, [path]))
    assert len(peaks) == 1
    assert peaks[0][2] - 3 * 8 * nodes**2 <= 4 * 8 * GRID_BLOCK, peaks[0]


@pytest.mark.parametrize("nodes", [512, 1024])
@pytest.mark.parametrize("command", [["oracle-check"], ["solve", "--route", "oracle"]])
def test_oracle_allocates_one_bordered_array(command, nodes):
    # LAPACK's working copy of the bordered matrix is not traced.
    solved = []
    for name, loads, peak in traced_peaks(command, nodes):
        assert peak - 8 * nodes**2 <= 8 * (nodes + loads) ** 2 + 4 * 8 * GRID_BLOCK, (name, peak)
        solved.append(name)
    assert solved == SOLVED


@pytest.mark.parametrize("nodes", [512, 1024])
def test_oracle_sweep_allocates_one_bordered_array(nodes):
    # 20 bordered solves in turn share the lambda-independent rows, n x (N + n + 2).
    # no_solution's rows are refused, after its bordered arrays are assembled.
    command = ["sweep", "--route", "oracle", "--steps", "20",
               "--lambda-min", "0.05", "--lambda-max", "0.5"]
    swept = []
    for name, loads, peak in traced_peaks(command, nodes):
        assert peak - 8 * nodes**2 <= 8 * (nodes + loads) ** 2 + 4 * 8 * GRID_BLOCK, (name, peak)
        swept.append(name)
    assert swept == [*SOLVED, "no_solution"]


def test_a_problem_keeps_no_kernel_sample_alive():
    # The kernel slices are cached per (problem, kernel) and hold the kernel
    # weakly: after four solves on fresh kernels, no 8 N^2-byte sample is left.
    problem = load_problem_file(str(EXAMPLES / "loaded_regular.prob")).build(512)
    rule = problem.master_rule(512)
    kernels = []
    for _ in range(4):
        kernel = discretize(problem.kernel, rule)
        assert solve_auto(problem, kernel, 0.2).route == "regular"
        kernels.append(weakref.ref(kernel))
    del kernel
    gc.collect()
    assert [ref() for ref in kernels] == [None] * 4
