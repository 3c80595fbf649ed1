"""The names the benchmark's tracer (perfbench/tracer.py) looks up.

The tracer wraps only public module-level functions defined in their own
module, and its per-layer report reads them by name, so deleting or
re-homing one of these breaks `perfbench/run.py --trace 1` even when every
other test passes. No timing is asserted here.
"""

import importlib
import inspect

import pytest

from fredload import cli

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
