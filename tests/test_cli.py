"""Command-line interface: commands, CSV output, exit codes."""

import argparse
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fredload import cli
from fredload.cli import main
from util import GOLDEN_FILE_TEXT, NO_SOLUTION_FILE_TEXT

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"

ZERO_KERNEL_FILE = """\
interval = 0 1
kernel = 0
source = 1 + t^2

[load]
coeff = 0
point = 1 @ 0.5
"""

CONSTANT_KERNEL_FILE = """\
interval = 0 1
kernel = 1
source = 1

[load]
coeff = 0
integral = 1 on [0, 1]
"""

ZERO_SOURCE_FILE = """\
interval = 0 1
kernel = t*s
source = 0

[load]
coeff = 0.3*t
point = 1 @ 0.5
"""

REGULAR_FILE = """\
interval = 0 1
kernel = t*s + 0.5*(1-t)*(1-s)
source = 1 + t - t^2

[load]
coeff = 0.3*t
point = 2 @ 0.25

[load]
coeff = 0.2
integral = 1 + s on [0.1, 0.9]
"""

# det(I - lambda K W) = 1 - lambda, so lambda = 1 is a characteristic
# number; A0 = [0.5] and A(lambda) = [0.5 lambda / (1 - lambda)] make the
# load system singular at lambda = 0.5.
HALF_POINT_LOAD_FILE = """\
interval = 0 1
kernel = 1
source = 1

[load]
coeff = 0.5
point = 1 @ 0
"""

# Point loads at 0, 1/2 and 1 with coefficients 0.9999 times the quadratic
# Lagrange basis on those points: A0 = 0.9999 E, so E - A0 = 1e-4 E has
# condition number 1 although det(E - A0) = 1e-12.
THREE_LOAD_FILE = """\
interval = 0 1
kernel = exp(-(t - s)^2)
source = 1 + t

[load]
coeff = 0.9999*2*(t - 0.5)*(t - 1)
point = 1 @ 0

[load]
coeff = -0.9999*4*t*(t - 1)
point = 1 @ 0.5

[load]
coeff = 0.9999*2*t*(t - 0.5)
point = 1 @ 1
"""

RANK_ONE_TS_FILE = """\
interval = 0 1
kernel = t*s
source = 1

[load]
coeff = 0
point = 1 @ 0.5
"""


@pytest.fixture
def write(tmp_path):
    def _write(text, name="problem.prob"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def _csv_rows(output):
    lines = [line for line in output.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_analyze_golden(write, capsys):
    rc = main(["analyze", write(GOLDEN_FILE_TEXT)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: irregular-identity" in out
    assert "pole order: 1" in out
    assert "operator norm:" in out


def test_analyze_regular_reports_bound(write, capsys):
    rc = main(["analyze", write(REGULAR_FILE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: regular" in out
    assert "successive admissible |lambda| <= q/l:" in out
    assert "nilpotency index: none" in out


def test_analyze_zero_kernel(write, capsys):
    rc = main(["analyze", write(ZERO_KERNEL_FILE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: regular" in out
    assert "holds (max deviation 0" in out  # annihilation is trivially true
    assert "nilpotency index: 0" in out


def test_analyze_unsupported_classification(write, capsys):
    text = """\
interval = 0 1
kernel = 1
source = 1

[load]
coeff = 1
point = 1 @ 0

[load]
coeff = 0
point = 1 @ 0
"""
    rc = main(["analyze", write(text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification: unsupported-irregular" in out


def test_solve_golden_csv(write, capsys):
    rc = main(["solve", write(GOLDEN_FILE_TEXT), "--lambda", "0.25"])
    captured = capsys.readouterr()
    assert rc == 0
    header, rows = _csv_rows(captured.out)
    assert header == ["t", "x"]
    assert len(rows) == 64
    xs = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(xs + 4.0)) <= 1e-6
    assert "route: irregular" in captured.err
    assert "pole order: 1" in captured.err


def test_solve_reads_lambda_from_numerics(write, capsys):
    rc = main(["solve", write(GOLDEN_FILE_TEXT)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "lambda: 0.25" in captured.err


def test_solve_missing_lambda(write, capsys):
    rc = main(["solve", write(ZERO_KERNEL_FILE)])
    captured = capsys.readouterr()
    assert rc == 4
    assert "error[parse-error]" in captured.err


def test_solve_no_solution_exit_code(write, capsys):
    rc = main(["solve", write(NO_SOLUTION_FILE_TEXT), "--lambda", "0.3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error[no-solution]" in captured.err
    assert "no solution in the class of continuous functions" in captured.err


@pytest.mark.parametrize("kernel, point", [("t*s", "0"), ("t - 1/2", "0.5")])
@pytest.mark.parametrize("coeff", ["1", "0.7 + 0.2 + 0.1"])
@pytest.mark.parametrize("nodes", ["16", "64"])
def test_a0_one_ulp_below_one_has_no_solution_like_a0_one(write, capsys, kernel, point,
                                                           coeff, nodes):
    # coeff 0.7 + 0.2 + 0.1 is 1 - 1 ulp, so A0 = E to IDENTITY_TOL and the
    # loads annihilate the kernel: (E - A0) c = f_gamma = 1 is inconsistent.
    # Inverting the roundoff in E - A0 exited 3 on no_solution.prob and gave
    # x_gamma 9.0e15 with residual 0.75 on the nilpotent kernel t - 1/2.
    text = (EXAMPLES / "no_solution.prob").read_text().replace("kernel = t*s", f"kernel = {kernel}")
    text = text.replace("coeff = 1", f"coeff = {coeff}").replace("point = 1 @ 0", f"point = 1 @ {point}")
    assert f"coeff = {coeff}\npoint = 1 @ {point}\n" in text
    rc = main(["solve", write(text), "--nodes", nodes])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith("error[no-solution]: ")


def test_solve_zero_kernel_returns_source_samples(write, capsys):
    rc = main(["solve", write(ZERO_KERNEL_FILE), "--lambda", "0.5"])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    for row in rows:
        t, x = float(row[0]), float(row[1])
        assert x == pytest.approx(1 + t**2, rel=1e-12)


def test_solve_route_override_and_precondition_failure(write, capsys):
    rc = main(["solve", write(REGULAR_FILE), "--lambda", "0.1", "--route", "irregular"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "error[route-precondition]" in captured.err

    rc = main(["solve", write(REGULAR_FILE), "--lambda", "0.1", "--route", "nilpotent"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "not nilpotent" in captured.err


def test_solve_oracle_route(write, capsys):
    rc = main(["solve", write(GOLDEN_FILE_TEXT), "--lambda", "0.25", "--route", "oracle"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "route: oracle" in captured.err


def test_solve_deterministic_output(write, capsys):
    path = write(REGULAR_FILE)
    rc = main(["solve", path, "--lambda", "0.2"])
    first = capsys.readouterr().out
    rc2 = main(["solve", path, "--lambda", "0.2"])
    second = capsys.readouterr().out
    assert rc == rc2 == 0
    assert first == second


def test_sweep_golden_matches_pole(write, capsys):
    rc = main([
        "sweep", write(GOLDEN_FILE_TEXT),
        "--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "20",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    header, rows = _csv_rows(captured.out)
    assert header[0] == "lambda"
    assert header[1] == "x(0)"
    assert header[-1] == "status"
    assert len(rows) == 20
    for row in rows:
        lam = float(row[0])
        assert row[-1] == "ok"
        assert float(row[1]) == pytest.approx(-1.0 / lam, abs=1e-6)


def test_sweep_flags_characteristic_number(write, capsys):
    rc = main([
        "sweep", write(CONSTANT_KERNEL_FILE),
        "--lambda-min", "0.5", "--lambda-max", "1.5", "--steps", "5",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    statuses = {float(r[0]): r[-1] for r in rows}
    assert statuses[1.0].startswith("unsolvable:")
    assert statuses[0.5] == "ok"
    assert statuses[1.5] == "ok"


def test_sweep_zero_source_all_zero(write, capsys):
    rc = main([
        "sweep", write(ZERO_SOURCE_FILE),
        "--lambda-min", "-0.5", "--lambda-max", "0.5", "--steps", "5",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    for row in rows:
        assert row[-1] == "ok"
        assert abs(float(row[1])) <= 1e-12
        assert abs(float(row[2])) <= 1e-12


def test_find_poles_constant_kernel(write, capsys):
    rc = main([
        "find-poles", write(CONSTANT_KERNEL_FILE),
        "--lambda-min", "-2", "--lambda-max", "2",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    header, rows = _csv_rows(captured.out)
    assert header == ["lambda", "abs_det_left", "abs_det_right"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(1.0, abs=1e-6)


def test_find_poles_rank_one_ts(write, capsys):
    rc = main([
        "find-poles", write(RANK_ONE_TS_FILE),
        "--lambda-min", "0", "--lambda-max", "5",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(3.0, abs=1e-4)


def test_oracle_check_regular(write, capsys):
    rc = main(["oracle-check", write(REGULAR_FILE), "--lambda", "0.2"])
    captured = capsys.readouterr()
    assert rc == 0
    disagreement = [
        line for line in captured.out.splitlines() if line.startswith("max disagreement")
    ]
    assert float(disagreement[0].split(":")[1]) <= 1e-8


def test_oracle_check_golden(write, capsys):
    rc = main(["oracle-check", write(GOLDEN_FILE_TEXT), "--lambda", "0.25"])
    assert rc == 0


def test_oracle_check_zero_threshold_fails(write, capsys):
    rc = main([
        "oracle-check", write(REGULAR_FILE), "--lambda", "0.2", "--threshold", "0",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "exceeds threshold" in captured.err


# The nilpotent route solves this exactly, x = 1 + 1e5 (t - 1/2) at lambda =
# 0.1, and the dense oracle is off by about 3.5e-5 on a solution of size 5e4.
SCALED_NILPOTENT_FILE = """\
interval = 0 1
kernel = 1e6*(t - 1/2)
source = 1

[load]
coeff = 0
integral = 1 on [0, 1]
"""


def test_oracle_check_threshold_is_relative_to_the_solution(write, capsys):
    path = write(SCALED_NILPOTENT_FILE)
    assert main(["oracle-check", path, "--lambda", "0.1"]) == 0
    out = capsys.readouterr().out
    disagreement = float(out.split("max disagreement: ")[1])
    assert 1e-6 < disagreement < 1e-6 * 5e4
    assert main(["oracle-check", path, "--lambda", "0.1", "--threshold", "1e-12"]) == 1
    assert "exceeds threshold" in capsys.readouterr().err


def test_find_poles_reports_a_defective_double_root(write, capsys):
    text = "interval = 0 1\nkernel = (-2 + 6*s) + t*(-6 + 12*s)\nsource = 1\n\n" \
        "[load]\ncoeff = 0\npoint = 1 @ 0.5\n"
    rc = main(["find-poles", write(text), "--lambda-min", "0", "--lambda-max", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    assert [float(row[0]) for row in rows] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert "characteristic numbers found: 2" in captured.err


def test_parse_error_exit_code(write, capsys):
    rc = main(["analyze", write("interval = 0 1\nkernel = t +\n")])
    captured = capsys.readouterr()
    assert rc == 4
    assert "error[parse-error]" in captured.err


_INTERVAL = "line 6: interval needs finite a, b, b - a and a + b"
_INTEGRAL = "line 16: integral term needs finite lo, hi, hi - lo and lo + hi"
_NORM = "its norm, the sum of |weights|, is not finite"


@pytest.mark.parametrize("old, new, message", [
    ("interval = 0 1", "interval = -1e308 1e308", _INTERVAL),
    ("interval = 0 1", "interval = 1e308 1.5e308", _INTERVAL),
    ("interval = 0 1", "interval = 0 inf", _INTERVAL),
    ("interval = 0 1", "interval = nan 1", _INTERVAL),
    ("1 + s on [0.1, 0.9]", "1 on [0.1, inf]", _INTEGRAL),
    ("1 + s on [0.1, 0.9]", "1 on [-1e308, 1e308]", _INTEGRAL),
    ("point = 2 @ 0.25", "point = inf @ 0.25", f"load 1: {_NORM}"),
    ("point = 2 @ 0.25", "point = nan @ 0.25", f"load 1: {_NORM}"),
    ("point = 2 @ 0.25", "point = 2 @ -inf", "load 1: point term at t=-inf outside [0.0, 1.0]"),
    ("point = 2 @ 0.25", "point = 1e308 @ 0.25\npoint = 1e308 @ 0.5", f"load 1: {_NORM}"),
    ("1 + s on [0.1, 0.9]", "1e308 on [0, 1]\nintegral = 1e308 on [0, 1]", f"load 2: {_NORM}"),
    ("[load]", "[load", "line 10: malformed section header '[load'"),
    ("[load]", "[[load]]", "line 10: malformed section header '[[load]]'"),
    ("[load]", "[load]]", "line 10: malformed section header '[load]]'"),
    ("[load]", "[load] x", "line 10: malformed section header '[load] x'"),
])
def test_numbers_beyond_the_double_range_and_malformed_headers_are_parse_errors(
        write, capsys, old, new, message):
    # Each is refused where the file is read or the problem is built, before
    # any arithmetic on it can overflow or warn.
    path = write((EXAMPLES / "loaded_regular.prob").read_text().replace(old, new, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["solve", path, "--nodes", "16"])
    assert rc == 4
    assert capsys.readouterr().err == f"error[parse-error]: {message}\n"


def test_load_norm_near_the_top_of_the_double_range_is_a_unit(write, capsys):
    # ||gamma_2|| = 1.6e308 rounds to 2^1024; its load unit stops at 2^1023, so the
    # analysis classifies the load system instead of failing inside it.
    text = (EXAMPLES / "loaded_regular.prob").read_text().replace(
        "1 + s on [0.1, 0.9]", "1e308 on [0.1, 0.9]\nintegral = 1e308 on [0.1, 0.9]")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["solve", write(text), "--nodes", "16"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[route-precondition]: det(E - A0) = 0")


def test_section_header_may_have_surrounding_whitespace(write, capsys):
    example = EXAMPLES / "loaded_regular.prob"
    assert main(["solve", str(example), "--nodes", "16"]) == 0
    expected = capsys.readouterr()
    spaced = write(example.read_text().replace("[load]", "  [ Load ]\t", 1))
    assert main(["solve", spaced, "--nodes", "16"]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("depth", [150, 300, 1000, 5000])
@pytest.mark.parametrize("nest", [
    lambda d: "(" * d + "t*s" + ")" * d,
    lambda d: "-" * d + "t*s",
    lambda d: "sin(" * d + "t*s" + ")" * d,
    lambda d: "+".join(["t*s"] * d),
], ids=["parentheses", "unary-minus", "calls", "sum"])
@pytest.mark.parametrize("command", [["analyze"], ["solve", "--lambda", "0.1"]])
def test_deep_nesting_is_a_value_or_a_parse_error(write, capsys, command, nest, depth):
    # Input nested too deeply for the recursive parser, or a tree deeper than
    # the evaluator's recursion allows, is outside input: exit 4, never 1.
    text = REGULAR_FILE.replace("kernel = t*s + 0.5*(1-t)*(1-s)", f"kernel = {nest(depth)}")
    rc = main([command[0], write(text), "--nodes", "8", *command[1:]])
    err = capsys.readouterr().err
    assert rc in (0, 4), err
    if rc == 4:
        assert err.startswith("error[parse-error]: ")
        assert "nested too deeply" in err or "deeper than 200 levels" in err
    if depth >= 300:
        assert rc == 4


def test_missing_file_exit_code(capsys):
    rc = main(["analyze", "/nonexistent/path.prob"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "error[parse-error]" in captured.err


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    # The last resort keeps the exit-code contract for a bug: exit 1, one line.
    def fail(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_problem_file", fail)
    assert main(["analyze", str(EXAMPLES / "loaded_regular.prob")]) == 1
    assert capsys.readouterr() == ("", "error[internal]: RuntimeError: boom\n")


def test_nodes_flag_override(write, capsys):
    rc = main(["solve", write(GOLDEN_FILE_TEXT), "--lambda", "0.25", "--nodes", "32"])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    assert len(rows) == 32


def test_usage_error_maps_to_parse_exit_code(write, capsys):
    # bad flag values must not collide with the no-solution exit code
    with pytest.raises(SystemExit) as err:
        main(["solve", write(GOLDEN_FILE_TEXT), "--lambda", "abc"])
    captured = capsys.readouterr()
    assert err.value.code == 4
    assert "error[parse-error]" in captured.err


def test_solve_rejects_zero_truncation(capsys):
    rc = main(["solve", str(EXAMPLES / "loaded_regular.prob"), "--truncation", "0"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "truncation must be >= 1" in captured.err


def test_solve_rejects_zero_max_iter(capsys):
    rc = main([
        "solve", str(EXAMPLES / "loaded_regular.prob"), "--lambda", "0.01",
        "--route", "successive", "--max-iter", "0",
    ])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "IndexError" not in captured.err
    assert "max_iter must be >= 1" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nodes", "0"], "node count must be >= 1, got 0"),
        (["--tol", "-1"], "tol must be > 0, got -1.0"),
        (["--q", "1.5"], "q must be in (0, 1), got 1.5"),
        (["--truncation", "0"], "truncation must be >= 1, got 0"),
        (["--max-iter", "0"], "max_iter must be >= 1, got 0"),
        ("q = 1.5", "q must be in (0, 1), got 1.5"),
    ],
    ids=["nodes", "tol", "q", "truncation", "max_iter", "file-q"],
)
def test_out_of_range_numeric_settings_are_parse_errors(write, flags, message, capsys):
    # A flag and the same key in the [numerics] block are checked alike.
    if isinstance(flags, str):
        path, flags = write(GOLDEN_FILE_TEXT + flags + "\n"), []
    else:
        path = str(EXAMPLES / "identity_pole.prob")
    rc = main(["solve", path, "--lambda", "0.25"] + flags)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == f"error[parse-error]: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "nilpotent", "--lambda", "nan"], "lambda must be finite, got nan"),
        (["solve", "loaded_regular", "--lambda", "inf"], "lambda must be finite, got inf"),
        (["solve", "loaded_regular", "--lambda=-inf"], "lambda must be finite, got -inf"),
        (["sweep", "loaded_regular", "--lambda-min", "nan", "--lambda-max", "1"],
         "lambda_min must be finite, got nan"),
        (["sweep", "loaded_regular", "--lambda-min", "0", "--lambda-max", "inf"],
         "lambda_max must be finite, got inf"),
        (["oracle-check", "loaded_regular", "--threshold", "nan"],
         "threshold must be finite and >= 0, got nan"),
        (["oracle-check", "loaded_regular", "--threshold", "inf"],
         "threshold must be finite and >= 0, got inf"),
        (["oracle-check", "loaded_regular", "--threshold=-1e-6"],
         "threshold must be finite and >= 0, got -1e-06"),
    ],
    ids=["lambda-nan", "lambda-inf", "lambda-minus-inf", "lambda_min-nan", "lambda_max-inf",
         "threshold-nan", "threshold-inf", "threshold-negative"],
)
def test_non_finite_numeric_settings_are_parse_errors(argv, message, capsys):
    command, name, *flags = argv
    rc = main([command, str(EXAMPLES / f"{name}.prob"), *flags])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == f"error[parse-error]: {message}\n"


@pytest.mark.parametrize(
    "command, key", [("solve", "lambda"), ("sweep", "lambda_min"), ("sweep", "lambda_max")]
)
def test_non_finite_file_lambdas_are_parse_errors(write, command, key, capsys):
    values = {"lambda": "0.25", "lambda_min": "0.1", "lambda_max": "0.4", key: "nan"}
    block = "".join(f"{k} = {v}\n" for k, v in values.items())
    rc = main([command, write(GOLDEN_FILE_TEXT.replace("lambda = 0.25\n", block))])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == f"error[parse-error]: {key} must be finite, got nan\n"


def test_irregular_route_needs_two_terms_of_truncation(capsys):
    rc = main(["solve", str(EXAMPLES / "identity_pole.prob"), "--truncation", "1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith(
        "error[route-precondition]: the irregular route needs truncation >= 2"
    )


# ------------------------------------------- flags beat the [numerics] block


@pytest.mark.parametrize("steps", ["0", "1"])
def test_sweep_rejects_file_steps_below_two(write, steps, capsys):
    text = GOLDEN_FILE_TEXT + f"lambda_min = 0.1\nlambda_max = 0.4\nsteps = {steps}\n"
    rc = main(["sweep", write(text)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "sweep needs at least 2 steps" in captured.err


def test_sweep_reads_range_and_steps_from_file(write, capsys):
    path = write(GOLDEN_FILE_TEXT + "lambda_min = 0.1\nlambda_max = 0.4\nsteps = 3\n")
    assert main(["sweep", path]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert [float(r[0]) for r in rows] == pytest.approx([0.1, 0.25, 0.4])

    assert main(["sweep", path, "--steps", "5"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 5

    assert main(["sweep", path, "--lambda-min", "0.2"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert [float(r[0]) for r in rows] == pytest.approx([0.2, 0.3, 0.4])


def test_find_poles_reads_range_and_scan_points_from_file(write, capsys):
    # |det| = |1 - lambda| at the root 1 -/+ one scan spacing equals the spacing.
    path = write(
        CONSTANT_KERNEL_FILE
        + "\n[numerics]\nlambda_min = 0.2\nlambda_max = 2.2\nscan_points = 5\n"
    )
    assert main(["find-poles", path]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert [float(v) for v in rows[0]] == pytest.approx([1.0, 0.5, 0.5], abs=1e-8)

    assert main(["find-poles", path, "--lambda-min", "-1.8"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert [float(v) for v in rows[0]] == pytest.approx([1.0, 1.0, 1.0], abs=1e-8)


# ------------------------------------------------- error codes and statuses


@pytest.mark.parametrize(
    "lam, code", [("1.0", "characteristic-number"), ("0.5", "singular-load-system")]
)
def test_solve_route_failures_exit_3_with_code(write, lam, code, capsys):
    rc = main(["solve", write(HALF_POINT_LOAD_FILE), "--lambda", lam])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"error[{code}]: ")


@pytest.mark.parametrize("lam", ["1e200", "1e300"])
def test_lambda_whose_solve_loses_every_digit_is_refused(lam, capsys):
    # The LU returns all-zero probe images here, an estimate below the
    # 1 / sqrt(N) of every exact solve; accepted, it gave a residual of 6.7e284.
    # The message names the lost solve, not a characteristic number nearby.
    rc = main(["solve", str(EXAMPLES / "loaded_regular.prob"), "--nodes", "8", "--lambda", lam])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (
        f"error[characteristic-number]: lambda={float(lam)!r} makes the solve of "
        "I - lambda K W lose every digit: (1 + |lambda| g) times the estimate is below "
        "0.5 / sqrt(8) (estimated ||(I - lambda K W)^{-1}|| = 0.000e+00)\n")


@pytest.mark.parametrize("command", ["sweep", "find-poles"])
def test_lambda_range_wider_than_the_float_range_is_a_parse_error(command, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(EXAMPLES / "loaded_regular.prob"), "--nodes", "8",
                   "--lambda-min", "-1e308", "--lambda-max", "1e308"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    message = "lambda_max - lambda_min overflows on [-1e+308, 1e+308]"
    assert captured.err == f"error[parse-error]: {message}\n"


def test_sweep_rows_name_route_failures(write, capsys):
    rc = main([
        "sweep", write(HALF_POINT_LOAD_FILE),
        "--lambda-min", "0.5", "--lambda-max", "1.0", "--steps", "2",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    assert [r[-1] for r in rows] == [
        "unsolvable:singular-load-system",
        "unsolvable:characteristic-number",
    ]


def test_sweep_rows_name_no_solution(capsys):
    rc = main([
        "sweep", str(EXAMPLES / "no_solution.prob"),
        "--lambda-min", "0.1", "--lambda-max", "0.3", "--steps", "3",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    _, rows = _csv_rows(captured.out)
    assert [r[-1] for r in rows] == ["unsolvable:no-solution"] * 3


def _constant_identity_file(c):
    # A0 = E with K = c: x = -1/(c lambda), a first-order pole at lambda = 0.
    return GOLDEN_FILE_TEXT.replace("kernel = 1\n", f"kernel = {c}\n")


@pytest.mark.parametrize("c", ["3", "5", "100"])
def test_pole_order_of_scaled_identity_kernel(write, c, capsys):
    path = write(_constant_identity_file(c))
    assert main(["analyze", path]) == 0
    assert "pole order: 1\n" in capsys.readouterr().out
    lam = 0.1 / float(c)
    assert main(["oracle-check", path, "--lambda", repr(lam), "--threshold", "1e-9"]) == 0
    capsys.readouterr()


def test_overflowing_iterates_are_reported_without_warnings(write, capsys):
    # K = 1e12: the unscaled A_26 overflows, the A_m / g^m the route keeps do not.
    path = write(_constant_identity_file("1e12"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", path]) == 0
        assert "pole order: 1\n" in capsys.readouterr().out
        for depth in ([], ["--truncation", "20"]):
            assert main(["solve", path, "--lambda", "1e-13", *depth]) == 0
            _, rows = _csv_rows(capsys.readouterr().out)
            assert [float(r[1]) for r in rows] == pytest.approx([-10.0] * 64, rel=1e-12)
        sine = write(REGULAR_FILE.replace("t*s + 0.5*(1-t)*(1-s)", "1e12*sin(3*(t-s))"))
        assert main(["analyze", sine]) == 0
        assert "nilpotency index: none found within depth 30" in capsys.readouterr().out


_NONE_30 = "nilpotency index: none found within depth 30"
_POLE_1 = ["pole order: 1", "leading coefficient condition number: 1"]


@pytest.mark.parametrize(
    "name, expected",
    [
        ("identity_pole", [_NONE_30, *_POLE_1]),
        ("loaded_regular", [_NONE_30]),
        ("nilpotent", ["nilpotency index: 1"]),
        ("no_solution", [_NONE_30, "pole order: none (load coupling vanishes up to depth 30)"]),
        ("kernel 3", [_NONE_30, *_POLE_1]),
        ("kernel 1e12", [_NONE_30, *_POLE_1]),
    ],
)
def test_analyze_series_lines(write, name, expected, capsys):
    if name.startswith("kernel"):
        path = write(_constant_identity_file(name.split()[1]))
    else:
        path = str(EXAMPLES / f"{name}.prob")
    assert main(["analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith(("nilpotency", "pole", "leading"))] == expected


def test_non_finite_kernel_is_a_domain_error(write, capsys):
    path = write(REGULAR_FILE.replace("t*s + 0.5*(1-t)*(1-s)", "log(t - s)"))
    assert main(["solve", path, "--lambda", "0.1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error[domain-error]: ")
    assert "'log((t - s))'" in err


def test_sweep_kernel_non_finite_at_a_probe_is_a_domain_error(write, capsys):
    # log(t) is finite on the grid but not at t = 0, where x is unbounded.
    path = write(REGULAR_FILE.replace("t*s + 0.5*(1-t)*(1-s)", "log(t)*s"))
    assert main(["sweep", path, "--lambda-min", "0.1", "--lambda-max", "0.2", "--steps", "2"]) == 4
    assert capsys.readouterr().err.startswith("error[domain-error]: ")


def test_find_poles_rejects_one_scan_point(write, capsys):
    path = write(CONSTANT_KERNEL_FILE)
    rc = main(["find-poles", path, "--lambda-min", "0", "--lambda-max", "2", "--scan-points", "1"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error[parse-error]: ")


@pytest.mark.parametrize("nodes", ["16", "64", "512"])
def test_well_conditioned_load_system_with_tiny_determinant_is_regular(write, nodes, capsys):
    path = write(THREE_LOAD_FILE)
    assert main(["analyze", path, "--nodes", nodes]) == 0
    assert "classification: regular\n" in capsys.readouterr().out
    assert main(["solve", path, "--lambda", "0.3", "--nodes", nodes]) == 0
    assert "route: regular\n" in capsys.readouterr().err
    rc = main(["oracle-check", path, "--lambda", "0.3", "--threshold", "1e-9", "--nodes", nodes])
    assert rc == 0
    assert "route: regular\n" in capsys.readouterr().out


def test_main_reuses_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = str(EXAMPLES / "loaded_regular.prob")
    assert main(["analyze", path, "--nodes", "16"]) == 0
    assert main(["solve", path, "--nodes", "16"]) == 0
    assert main(["sweep", path, "--nodes", "16", "--lambda-min", "0", "--lambda-max", "0.2",
                 "--steps", "2"]) == 0
    assert main(["find-poles", path, "--nodes", "16", "--lambda-min", "0",
                 "--lambda-max", "1"]) == 0
    assert main(["oracle-check", path, "--nodes", "16"]) == 0
    capsys.readouterr()
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [[], ["no-such-command"], ["solve"], ["solve", "x.prob", "--route", "fastest"]],
    ids=["empty", "unknown-command", "missing-file", "bad-route"],
)
def test_usage_errors_exit_four_after_a_successful_call(argv, capsys):
    assert main(["analyze", str(EXAMPLES / "nilpotent.prob"), "--nodes", "16"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 4
    assert captured.out == ""
    assert captured.err.startswith("usage: fredload")
    assert "\nerror[parse-error]: " in captured.err


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2"])
def test_negative_exponent_values_are_numbers(value, capsys):
    path = str(EXAMPLES / "loaded_regular.prob")
    assert main(["solve", path, "--nodes", "16", "--lambda", value]) == 0
    assert f"lambda: {float(value):.17g}\n" in capsys.readouterr().err
    assert main(["sweep", path, "--nodes", "16", "--lambda-min", value,
                 "--lambda-max", "0.1", "--steps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].startswith(f"{float(value):.17g},") and rows[0].endswith(",ok")
    assert main(["sweep", path, "--nodes", "16", "--lambda-min", "-1e3",
                 "--lambda-max", value, "--steps", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{float(value):.17g},")
    assert main(["oracle-check", path, "--nodes", "16", "--threshold", value]) == 4
    assert capsys.readouterr().err == (
        f"error[parse-error]: threshold must be finite and >= 0, got {float(value)}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--lambda", "-inf"], "lambda must be finite, got -inf"),
        (["sweep", "--lambda-min", "-inf", "--lambda-max", "1"],
         "lambda_min must be finite, got -inf"),
        (["sweep", "--lambda-min", "0", "--lambda-max", "-inf"],
         "lambda_max must be finite, got -inf"),
        (["oracle-check", "--threshold", "-inf"], "threshold must be finite and >= 0, got -inf"),
    ],
    ids=["lambda", "lambda_min", "lambda_max", "threshold"],
)
def test_minus_inf_reaches_the_finiteness_check(argv, message, capsys):
    command, *flags = argv
    assert main([command, str(EXAMPLES / "loaded_regular.prob"), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[parse-error]: {message}\n"


@pytest.mark.parametrize(
    "nodes, oracle_x_gamma", [("16", 2.17183608), ("64", 2.17107276), ("512", 2.17116512)]
)
def test_kinked_load_route_and_oracle_agree(nodes, oracle_x_gamma, capsys):
    # x has a kink at the load's point 0.3; no load reads x between the nodes.
    path = str(EXAMPLES / "kinked_load.prob")
    assert main(["oracle-check", path, "--nodes", nodes, "--threshold", "1e-9"]) == 0
    lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert float(lines["route residual"]) < 1e-12
    x_gammas = []
    for route in ("auto", "oracle"):
        assert main(["solve", path, "--nodes", nodes, "--route", route]) == 0
        err = capsys.readouterr().err
        x_gammas.append(float(err.split("x_gamma: [")[1].split("]")[0]))
    assert x_gammas[1] == pytest.approx(oracle_x_gamma, abs=1e-8)
    assert x_gammas[0] == pytest.approx(x_gammas[1], abs=1e-12)
    if nodes == "512":
        assert x_gammas[0] == pytest.approx(2.1711643, abs=1e-6)


def test_nilpotency_probe_reads_no_user_tolerance(write, capsys):
    # analyze and find-poles judge the probe by the same table entry, whatever
    # --tol says (the eigenvalue 2e-7 beside the nilpotent part counts as zero).
    text = (EXAMPLES / "nilpotent.prob").read_text().replace(
        "kernel = t - 1/2", "kernel = (t - 1/2) + 1e-6*(6*t^2 - 6*t + 1)*(6*s^2 - 6*s + 1)")
    path = write(text)
    for tol in ("1e-10", "1e-14", "1e-20"):
        assert main(["analyze", path, "--tol", tol]) == 0
        assert "nilpotency index: 1\n" in capsys.readouterr().out
        assert main(["find-poles", path, "--tol", tol,
                     "--lambda-min", "-1e10", "--lambda-max", "1e10"]) == 0
        assert capsys.readouterr().out.splitlines() == ["lambda,abs_det_left,abs_det_right"]


@pytest.mark.parametrize("source", ["1 + t - t^2", "1e-12*(1 + t - t^2)"])
def test_oracle_check_bound_is_relative_at_every_scale(write, source, capsys):
    # A loose successive stop leaves 1.9e-4 of disagreement at unit scale; a
    # source 1e-12 times smaller must not pass on an absolute floor.
    text = (EXAMPLES / "loaded_regular.prob").read_text().replace(
        "source = 1 + t - t^2", f"source = {source}")
    argv = ["oracle-check", write(text), "--route", "successive", "--tol", "1e-2",
            "--lambda", "0.05", "--nodes", "64"]
    assert main(argv) == 1
    assert "exceeds threshold" in capsys.readouterr().err


def test_sweep_reads_x_at_the_probes_through_the_nystrom_identity(capsys):
    # x has a kink at 0.3; interpolating it through the nodes reads 2.2436589
    # and 4.6065365 at the ends, where the converged values are these.
    argv = ["sweep", str(EXAMPLES / "kinked_load.prob"), "--nodes", "64",
            "--lambda-min", "0.2", "--lambda-max", "0.3", "--steps", "2"]
    assert main(argv) == 0
    header, first, _ = capsys.readouterr().out.splitlines()
    assert header.startswith("lambda,x(0),x(0.5),x(1),")
    values = [float(v) for v in first.split(",")[:4]]
    assert values[0] == 0.2
    assert values[1] == pytest.approx(2.2387437, abs=2e-4)
    assert values[3] == pytest.approx(4.6087742, abs=5e-4)


# Values beyond the double range. A0 and f_gamma are finite in the first three files, x is
# not: x = 2^1022 / (1/2 - lambda) for the regular one (K = 1, A0 = [1/2], so x = 10 2^1022
# at lambda = 0.4), x = -2^1022 / lambda for the pole and x = 2^1000 (1 + lambda 2^40 (t - 1/2))
# for the nilpotent kernel.
HUGE_REGULAR_FILE = HALF_POINT_LOAD_FILE.replace("source = 1\n", "source = 2^1022\n")
HUGE_POLE_FILE = GOLDEN_FILE_TEXT.replace("source = 1\n", "source = 2^1022\n")
HUGE_NILPOTENT_FILE = (EXAMPLES / "nilpotent.prob").read_text().replace(
    "kernel = t - 1/2\n", "kernel = 2^40*(t - 1/2)\n").replace("source = 1\n", "source = 2^1000\n")


@pytest.mark.parametrize("nodes", ["64", "512"])
@pytest.mark.parametrize("text, route, lam", [
    (HUGE_REGULAR_FILE, "auto", "0.4"),
    (HUGE_REGULAR_FILE, "regular", "0.4"),
    (HUGE_REGULAR_FILE, "successive", "0.4"),
    (HUGE_REGULAR_FILE, "oracle", "0.4"),
    (HUGE_POLE_FILE, "irregular", "0.1"),
    (HUGE_POLE_FILE, "oracle", "0.1"),
    (HUGE_NILPOTENT_FILE, "nilpotent", "0.5"),
    (HUGE_NILPOTENT_FILE, "nilpotent", "1e300"),
], ids=["auto", "regular", "successive", "oracle-regular", "irregular", "oracle-pole",
        "nilpotent", "nilpotent-1e300"])
def test_solution_beyond_the_double_range_exits_3_naming_lambda(write, text, route, lam, nodes,
                                                                 capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", write(text), "--nodes", nodes, "--route", route, "--lambda", lam])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (f"error[route-precondition]: the solution at lambda={float(lam)!r} "
                            "is beyond the double range\n")


def test_load_coefficient_near_the_double_range_is_classified_without_a_warning(write, capsys):
    # A0 is about 2^1022, so COND_LIMIT times its largest singular value overflows.
    text = (EXAMPLES / "loaded_regular.prob").read_text()
    path = write(text.replace("coeff = 0.3*t\n", "coeff = 2^1023*t\n"))
    assert "coeff = 2^1023*t\n" in pathlib.Path(path).read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", path, "--nodes", "64"]) == 0
        assert "classification: unsupported-irregular\n" in capsys.readouterr().out
        assert main(["solve", path, "--nodes", "64"]) == 3
    assert capsys.readouterr().err.startswith("error[route-precondition]: det(E - A0) = 0")


@pytest.mark.parametrize("nodes", ["64", "512"])
def test_sweep_reports_rows_beyond_the_double_range_and_goes_on(write, nodes, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", write(HUGE_POLE_FILE), "--nodes", nodes, "--lambda-min", "0.05",
                     "--lambda-max", "0.5", "--steps", "20"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        beyond = [r for r in rows if float(r[0]) < 0.25]
        assert len(beyond) == 9
        assert all(r[1:] == [""] * 5 + ["unsolvable:route-precondition"] for r in beyond)
        # Every power-of-two scaling on the way is exact: the rows left are 2^1022 times
        # those of the file with source 1, up to x(0) = -1.71e308 at lambda = 0.263.
        assert main(["sweep", write(GOLDEN_FILE_TEXT), "--nodes", nodes, "--lambda-min", "0.05",
                     "--lambda-max", "0.5", "--steps", "20"]) == 0
        _, unscaled = _csv_rows(capsys.readouterr().out)
        for row, reference in zip(rows[9:], unscaled[9:]):
            assert row[-1] == reference[-1] == "ok"
            assert [float(v) for v in row[1:6]] == [2.0**1022 * float(v) for v in reference[1:6]]
        assert main(["sweep", write(HUGE_NILPOTENT_FILE), "--nodes", nodes, "--lambda-min",
                     "0.05", "--lambda-max", "0.5", "--steps", "3"]) == 0
        _, rows = _csv_rows(capsys.readouterr().out)
        assert [r[-1] for r in rows] == ["unsolvable:route-precondition"] * 3


@pytest.mark.parametrize("nodes", ["64", "512"])
@pytest.mark.parametrize("edit, message", [
    (("source = 1 + t - t^2", "source = 2^1023*(1 + t - t^2)"),
     "load 1 applied to the source is beyond the double range"),
    (("coeff = 0.3*t", "coeff = 2^1023"),
     "load 1 applied to the load coefficients is beyond the double range"),
], ids=["f_gamma", "A0"])
def test_loads_beyond_the_double_range_are_domain_errors(write, edit, message, nodes, capsys):
    path = write((EXAMPLES / "loaded_regular.prob").read_text().replace(*edit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # analyze reads A0 but not f_gamma.
        assert main(["analyze", path, "--nodes", nodes]) == (0 if "source" in message else 4)
        capsys.readouterr()
        for argv in (["solve"], ["solve", "--route", "successive"], ["solve", "--route", "oracle"],
                     ["sweep", "--lambda-min", "0.1", "--lambda-max", "0.2", "--steps", "2"],
                     ["oracle-check"]):
            assert main([argv[0], path, "--nodes", nodes, *argv[1:]]) == 4
            assert capsys.readouterr().err == f"error[domain-error]: {message}\n"


@pytest.mark.parametrize("nodes", ["16", "512"])
def test_sweep_refuses_probe_values_beyond_the_double_range(nodes, capsys):
    # At lambda = +-1e300, lambda W x overflows in the Nystrom sum at the probes:
    # those rows are refused, with no warning, and the sweep goes on.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["sweep", str(EXAMPLES / "nilpotent.prob"), "--nodes", nodes,
                   "--lambda-min", "-1e300", "--lambda-max", "1e300", "--steps", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    _, rows = _csv_rows(captured.out)
    assert [",".join(r) for r in rows[::2]] == [
        "-1.0000000000000001e+300,,,,,,unsolvable:route-precondition",
        "1.0000000000000001e+300,,,,,,unsolvable:route-precondition",
    ]
    assert rows[1][0] == "0" and rows[1][-1] == "ok"


def test_load_point_outside_the_interval_is_a_parse_error(write, capsys):
    path = write(ZERO_KERNEL_FILE.replace("point = 1 @ 0.5", "point = 1 @ 2"))
    assert main(["solve", path, "--lambda", "0.1"]) == 4
    assert capsys.readouterr().err == (
        "error[parse-error]: load 1: point term at t=2.0 outside [0.0, 1.0]\n")


@pytest.mark.parametrize("flags, message", [
    ([], "no lambda range given: pass --lambda-min/--lambda-max or set "
         "lambda_min/lambda_max in the [numerics] block"),
    (["--lambda-min", "0.5", "--lambda-max", "0.1"], "need lambda_min < lambda_max, got [0.5, 0.1]"),
])
def test_sweep_needs_an_increasing_lambda_range(flags, message, capsys):
    assert main(["sweep", str(EXAMPLES / "loaded_regular.prob"), *flags]) == 4
    assert capsys.readouterr().err == f"error[parse-error]: {message}\n"


SINGULAR_CONSISTENT_FILE = """\
interval = 0 1
kernel = t - 1/2
source = t - 1/2

[load]
coeff = 1
point = 1 @ 0.5

[load]
coeff = 0
integral = 1 on [0, 1]
"""


def test_solve_prints_the_minimum_norm_note(write, capsys):
    # Both loads annihilate K and E - A0 has rank 1, with f_gamma in its range.
    rc = main(["solve", write(SINGULAR_CONSISTENT_FILE), "--nodes", "16", "--lambda", "0.5"])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 0
    assert "route: nilpotent" in lines
    assert "classification: unsupported-irregular" in lines
    assert lines[-1] == "note: load system singular but consistent; minimum-norm load vector used"


def test_successive_route_without_convergence_exits_3(capsys):
    rc = main(["solve", str(EXAMPLES / "loaded_regular.prob"), "--nodes", "16",
               "--route", "successive", "--lambda", "0.05", "--max-iter", "1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (
        "error[no-convergence]: no convergence within 1 iterations (last delta 2.844e+00)\n")


def test_exactly_singular_resolvent_system_is_a_characteristic_number(write, capsys):
    # K = 1 on one node of weight 1: I - lambda K W is exactly 0 at lambda = 1,
    # which LAPACK reports as singular.
    path = write(ZERO_KERNEL_FILE.replace("kernel = 0", "kernel = 1"))
    rc = main(["solve", path, "--nodes", "1", "--lambda", "1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error[characteristic-number]: lambda=1.0 ")
    assert captured.err.endswith("= inf)\n")


def test_module_entry_point_runs_the_command_and_returns_its_exit_code():
    # `python -m fredload.cli` runs main and exits with its status, like the console script.
    env = dict(os.environ, PYTHONPATH=str(EXAMPLES.parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "fredload.cli", *argv], env=env,
                              capture_output=True, text=True, check=False)

    solved = run("solve", str(EXAMPLES / "nilpotent.prob"), "--nodes", "16")
    assert solved.returncode == 0
    lines = solved.stdout.splitlines()
    assert lines[0] == "t,x" and len(lines) == 17
    refused = run("solve", str(EXAMPLES / "identity_pole.prob"), "--lambda", "0")
    assert refused.returncode == 3
    assert refused.stderr.startswith("error[route-precondition]: ")
