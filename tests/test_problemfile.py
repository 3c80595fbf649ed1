"""Problem-file parsing: happy path, defaults, and all the rejections."""

import pytest

import fredload as fl
from fredload.errors import ProblemFileError
from fredload.problemfile import parse_problem_file

FULL_FILE = """\
# a complete file exercising every construct
interval = 0, 1
kernel   = exp(t - s)     # trailing comments are stripped
source   = 1 + t^2

[load]
coeff    = t / 2
point    = 2 @ 0.5
point    = -1 @ 0.25
integral = s^2 on [0, 0.5]

[load]
coeff    = 1
integral = 1 on [0.25, 0.75]

[numerics]
nodes = 48
lambda = 0.125
lambda_min = -0.5
lambda_max = 0.5
steps = 11
tol = 1e-9
max_iter = 150
truncation = 20
q = 0.8
scan_points = 256
"""


def test_full_file_parses():
    parsed = parse_problem_file(FULL_FILE)
    assert (parsed.a, parsed.b) == (0.0, 1.0)
    assert len(parsed.raw_loads) == 2
    assert parsed.numerics.nodes == 48
    assert parsed.numerics.lam == 0.125
    assert parsed.numerics.lam_min == -0.5
    assert parsed.numerics.steps == 11
    assert parsed.numerics.tol == 1e-9
    assert parsed.numerics.max_iter == 150
    assert parsed.numerics.truncation == 20
    assert parsed.numerics.q == 0.8
    assert parsed.numerics.scan_points == 256

    problem = parsed.build()
    assert problem.n == 2
    load = problem.loads[0]
    assert len(load.functional.point_terms) == 2
    assert len(load.functional.integral_terms) == 1
    term = load.functional.integral_terms[0]
    assert term.rule.n == 48  # sub-rule inherits the master node count
    assert (term.lower, term.upper) == (0.0, 0.5)


def test_build_node_override():
    parsed = parse_problem_file(FULL_FILE)
    problem = parsed.build(nodes=16)
    assert problem.loads[0].functional.integral_terms[0].rule.n == 16


def test_numerics_defaults():
    parsed = parse_problem_file(
        "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n"
    )
    numerics = parsed.numerics
    assert numerics.nodes == 64
    assert numerics.lam is None
    assert numerics.tol == 1e-10
    assert numerics.truncation == 30
    assert numerics.q == 0.9


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("kernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n", "interval"),
        ("interval = 0 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n", "kernel"),
        ("interval = 0 1\nkernel = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n", "source"),
        ("interval = 0 1\nkernel = 1\nsource = 1\n", "load"),
        ("interval = 1 0\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n", "interval"),
    ],
)
def test_missing_pieces(text, fragment):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(text)
    assert fragment in str(err.value)


def test_load_needs_coeff_and_terms():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\npoint = 1 @ 0\n"
        )
    assert "coeff" in str(err.value)
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\n"
        )
    assert "point" in str(err.value) or "integral" in str(err.value)


def test_expression_error_carries_line_number():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(
            "interval = 0 1\nkernel = t +\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n"
        )
    assert err.value.line == 2


def test_stieltjes_loads_rejected():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\nstieltjes = t\n"
        )
    assert "unsupported load type" in str(err.value)


def test_bad_point_syntax():
    with pytest.raises(ProblemFileError):
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 0\n"
        )


def test_bad_integral_syntax():
    with pytest.raises(ProblemFileError):
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\nintegral = s^2 over [0, 1]\n"
        )
    with pytest.raises(ProblemFileError):
        parse_problem_file(
            "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\nintegral = 1 on [0.7, 0.2]\n"
        )


_ONE_LOAD = "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n"


@pytest.mark.parametrize("text, line, message", [
    ("interval = 0 1\nwhatever = 3\n", 2, "unknown key 'whatever' before any section"),
    ("interval = 0 1\n[settings]\n", 2, "unknown section [settings]"),
    (_ONE_LOAD + "coef = 1\n", 7, "unknown key 'coef' in [load]"),
    (_ONE_LOAD + "[numerics]\nnode = 8\n", 8, "unknown key 'node' in [numerics]"),
])
def test_unknown_key_and_section(text, line, message):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(text)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line


@pytest.mark.parametrize("text, line, message", [
    ("interval = 0 one\n", 1, "interval endpoint must be a number, got 'one'"),
    (_ONE_LOAD + "[numerics]\nnodes = 8.5\n", 8, "nodes must be an integer, got '8.5'"),
    ("interval 0 1\n", 1, "expected 'key = value'"),
    ("kernel = 1\ninterval =  # no value\n", 2, "empty value for 'interval'"),
    ("interval = 0\n", 1, "interval needs two endpoints"),
])
def test_malformed_line_or_value(text, line, message):
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(text)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line


def test_kernel_rejects_undeclared_variable():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_file(
            "interval = 0 1\nkernel = t*u\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 0\n"
        )
    assert "u" in str(err.value)


def test_term_outside_interval_rejected_at_build():
    parsed = parse_problem_file(
        "interval = 0 1\nkernel = 1\nsource = 1\n[load]\ncoeff = 1\npoint = 1 @ 2\n"
    )
    with pytest.raises(ValueError):
        parsed.build()


def _spec(a=0.0, b=1.0, kernel=("t*s", {"t", "s"}), source=("1", {"t"}),
          coeff=("t", {"t"}), functional=None):
    load = fl.Load(fl.parse(*coeff), functional or fl.point_load(0.5))
    return fl.ProblemSpec(a, b, fl.parse(*kernel), fl.parse(*source), (load,))


@pytest.mark.parametrize("change, message", [
    ({"a": 1.0, "b": 1.0}, "invalid interval: a=1.0 must be < b=1.0"),
    ({"kernel": ("t*u", {"t", "s", "u"})}, "kernel may only use variables t and s"),
    ({"source": ("t*s", {"t", "s"})}, "source may only use variable t"),
    ({"coeff": ("s", {"t", "s"})}, "load 1: coefficient may only use variable t"),
    ({"functional": fl.integral_load(0.5, 2.0, fl.parse("1", {"s"}), nodes=4)},
     "load 1: integral term [0.5, 2.0] outside [0.0, 1.0]"),
])
def test_problem_spec_rejects_what_the_equation_cannot_hold(change, message):
    assert _spec().n == 1
    with pytest.raises(ValueError) as err:
        _spec(**change)
    assert str(err.value) == message


def test_problem_spec_needs_a_load():
    spec = _spec()
    with pytest.raises(ValueError, match="a problem needs at least one load"):
        fl.ProblemSpec(spec.a, spec.b, spec.kernel, spec.source, ())
