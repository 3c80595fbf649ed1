"""The names the benchmark's tracer (perfbench/tracer.py) looks up.

The tracer wraps only public module-level functions defined in their own
module, and its per-layer report reads them by name, so deleting or
re-homing one of these breaks `perfbench/run.py --trace 1` even when every
other test passes. The benchmark's set-up and checks also call a few of
them in fixed shapes, pinned by the last test. No timing is asserted here.
"""

import importlib
import inspect
import pathlib

import numpy as np
import pytest

from fredload import cli, oracle, solver
from fredload.errors import NoSolutionError
from fredload.kernel_ops import discretize, iterate_kernels
from fredload.load_system import assemble_A0, classify
from fredload.problemfile import load_problem_file
from fredload.quadrature import GridFunction, interpolate
from fredload.solver import solve_auto, successive_bound

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"

KEPT = {
    "quadrature": ("interp_weights", "interpolate", "gauss_legendre", "integrate"),
    "functionals": ("apply", "check_condition_one"),
    "kernel_ops": (
        "discretize",
        "iterate_kernels",
        "resolvent",
        "resolvent_apply",
        "find_characteristic_numbers",
        "det_magnitude",
    ),
    "load_system": ("assemble_A0", "classify", "A_lambda", "b_lambda", "taylor_A"),
    "solver": (
        "solve_regular",
        "solve_successive",
        "solve_nilpotent",
        "solve_irregular",
        "solve_auto",
        "successive_bound",
    ),
    "oracle": ("dense_solve", "gamma_weights"),
    "problemfile": ("load_problem_file",),
    "expr": ("evaluate",),
}


@pytest.mark.parametrize(
    "module_name, name",
    [(module, name) for module, names in KEPT.items() for name in names],
)
def test_traced_name_is_own_module_function(module_name, name):
    module = importlib.import_module(f"fredload.{module_name}")
    obj = getattr(module, name)
    assert inspect.isfunction(obj)
    assert obj.__module__ == module.__name__


def test_benchmark_reads_exit_codes():
    assert cli.EXIT_OK == 0
    assert cli.EXIT_NO_SOLUTION == 2


@pytest.mark.parametrize(
    "name, kind, route",
    [
        ("identity_pole", "irregular-identity", "irregular"),
        ("loaded_regular", "regular", "regular"),
        ("nilpotent", "regular", "nilpotent"),
        ("no_solution", "irregular-identity", None),
    ],
)
def test_benchmark_call_shapes(name, kind, route):
    # The calls perfbench/workloads.py, check.py and tracer.py make, as they make them.
    parsed = load_problem_file(str(EXAMPLES / f"{name}.prob"))
    spec, lam = parsed.build(16), parsed.numerics.lam
    kernel = discretize(spec.kernel, spec.master_rule(16))
    assert classify(assemble_A0(spec)).kind == kind
    try:
        assert solve_auto(spec, kernel, lam).route == route
    except NoSolutionError:
        assert route is None
    if kind == "regular":
        assert successive_bound(spec, kernel) > 0.0
    if route is not None:
        solution = oracle.dense_solve(spec, kernel, lam)
        assert solution.x.values.shape == (16,)
        assert np.shape(solution.x_gamma) == (spec.n,)
    values = np.cos(kernel.rule.nodes)
    assert interpolate(GridFunction(kernel.rule, values), 0.5) == pytest.approx(np.cos(0.5))
    iterated = iterate_kernels(kernel, 3)
    assert (iterated.rule.n, iterated.depth) == (16, 3)


def test_cli_auto_solve_goes_through_solve_auto(monkeypatch, capsys):
    # The per-layer solver.solve_auto_ms reads this call; a CLI that bypassed
    # it would report 0 ms without failing anything else.
    calls = []
    original = solver.solve_auto

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_auto", counted)
    assert cli.main(["solve", str(EXAMPLES / "loaded_regular.prob"), "--nodes", "16"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
