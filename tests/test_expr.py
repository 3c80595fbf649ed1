"""Expression language: parsing, precedence, evaluation, round-trips."""

import math

import numpy as np
import pytest

from fredload import expr as ex
from fredload.errors import DomainEvalError, ExprSyntaxError, UndefinedVariableError


def ev(text, allowed=("t", "s"), **bindings):
    return ex.evaluate(ex.parse(text, allowed), bindings)


def test_polynomial_value():
    assert ev("t^2 + 1", ("t",), t=2.0) == 5.0


def test_sin_pi_half():
    assert ev("sin(pi/2)", ()) == pytest.approx(1.0, abs=1e-15)


def test_constants():
    assert ev("pi", ()) == math.pi
    assert ev("2*e", ()) == 2 * math.e


def test_number_formats():
    assert ev("1.5e2", ()) == 150.0
    assert ev(".5", ()) == 0.5
    assert ev("2e-1", ()) == 0.2


def test_syntax_error_at_end_of_input():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("t + ", ("t",))
    assert err.value.position == 4


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        ex.parse("2t", ("t",))


@pytest.mark.parametrize("text, message, position", [("t $ s", "unexpected character '$'", 2),
                                                     ("t + *", "unexpected token '*'", 4)])
def test_a_bad_character_or_an_operator_for_an_operand_is_a_syntax_error(text, message, position):
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse(text, ("t", "s"))
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_undeclared_variable_is_named():
    with pytest.raises(UndefinedVariableError) as err:
        ex.parse("t + s", ("t",))
    assert err.value.name == "s"


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        ex.parse("   ", ("t",))


def test_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        ex.parse("sin(t", ("t",))


def test_eval_two_variables():
    assert ev("2*t - s", ("t", "s"), t=3.0, s=1.0) == 5.0


def test_exp_zero():
    assert ev("exp(0)", ()) == 1.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(DomainEvalError):
        ev("1/(t-1)", ("t",), t=1.0)


def test_log_of_nonpositive_is_domain_error():
    with pytest.raises(DomainEvalError):
        ev("log(t)", ("t",), t=-1.0)
    with pytest.raises(DomainEvalError):
        ev("log(0)", ())


def test_sqrt_of_negative_is_domain_error():
    with pytest.raises(DomainEvalError):
        ev("sqrt(t)", ("t",), t=-2.0)


def test_missing_binding():
    with pytest.raises(DomainEvalError):
        ex.evaluate(ex.parse("t", ("t",)), {})


def test_missing_binding_is_named_before_any_node_runs():
    with pytest.raises(DomainEvalError, match="no binding for variable 's'") as err:
        ex.evaluate(ex.parse("log(t) + s*t", ("t", "s")), {"t": 0.0})
    assert err.value.node_text == "s"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2+3*4", 14.0),
        ("2^3^2", 512.0),
        ("-2^2", -4.0),
        ("2-3-4", -5.0),
        ("8/4/2", 1.0),
        ("2^-2", 0.25),
        ("-2^-2", -0.25),
        ("(2+3)*4", 20.0),
        ("2*-3", -6.0),
        ("--2", 2.0),
    ],
)
def test_precedence(text, expected):
    assert ev(text, ()) == expected


def test_whitespace_insensitive():
    assert ev(" t ^ 2+ 1 ", ("t",), t=3.0) == ev("t^2+1", ("t",), t=3.0)


def _random_node(rng, depth):
    """Random tree over t and s avoiding partial-domain functions."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Num(float(np.round(rng.uniform(-3, 3), 3)))
        return ex.Var("t" if rng.random() < 0.5 else "s")
    pick = rng.integers(0, 6)
    if pick < 3:
        op = "+-*"[pick]
        return ex.BinOp(op, _random_node(rng, depth - 1), _random_node(rng, depth - 1))
    if pick == 3:
        return ex.Neg(_random_node(rng, depth - 1))
    if pick == 4:
        func = ("sin", "cos", "abs")[rng.integers(0, 3)]
        return ex.Call(func, _random_node(rng, depth - 1))
    return ex.BinOp("^", _random_node(rng, depth - 1), ex.Num(float(rng.integers(0, 4))))


def test_print_parse_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(50):
        root = _random_node(rng, 4)
        original = ex.Expr(root=root, variables=ex._walk(root)[0], text="")
        reparsed = ex.parse(ex.unparse(root), ("t", "s"))
        for _ in range(10):
            t, s = rng.uniform(0, 1), rng.uniform(0, 1)
            assert ex.evaluate(reparsed, {"t": t, "s": s}) == ex.evaluate(
                original, {"t": t, "s": s}
            )


def test_vectorized_matches_scalar():
    e = ex.parse("exp(t-s) + t^2*s", ("t", "s"))
    t = np.linspace(0, 1, 7)[:, None]
    s = np.linspace(0, 1, 5)[None, :]
    block = ex.evaluate(e, {"t": t, "s": s})
    assert block.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert block[i, j] == ex.evaluate(e, {"t": float(t[i, 0]), "s": float(s[0, j])})


def test_integer_bindings_are_coerced():
    assert ev("t^-1", ("t",), t=2) == 0.5


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _per_node(node, bindings):
    # The reference: the same ufunc per node, with no finiteness checks.
    if isinstance(node, ex.Num):
        return node.value
    if isinstance(node, ex.Var):
        return bindings[node.name]
    if isinstance(node, ex.Neg):
        return -_per_node(node.operand, bindings)
    if isinstance(node, ex.Call):
        return ex._FUNCTIONS[node.func](_per_node(node.arg, bindings))
    return _UFUNCS[node.op](_per_node(node.left, bindings), _per_node(node.right, bindings))


@pytest.mark.parametrize(
    "text",
    [
        "0.6311*exp(-0.3713*(t - s))*cos(1.967*t*s)",
        "t*s + 0.5*(1-t)*(1-s)",
        "(t + s - abs(t - s))/2",
        "-(t - s)^2 + sqrt(abs(t - s))",
        "log(1 + t*s) / (2 + sin(3*t))",
        "(2 + t)^(-s) - -s",
        "-(-(t))*s + exp(-t)",
        "e^t - pi*s^3",
        "2*3 + t",
        "1/(1 + t*t)",
        "cos(t - s) + cos(2*(t - s))",
        "-t",
        "s",
        "3",
    ],
)
def test_evaluate_is_bitwise_the_per_node_reference_and_keeps_bindings(text):
    # Odd lengths, so the vectorized loops run their remainder code as well.
    t = np.linspace(0.1, 0.9, 67)[:, None]
    s = np.linspace(0.2, 0.8, 45)[None, :]
    before = t.copy(), s.copy()
    e = ex.parse(text, ("t", "s"))
    got = ex.evaluate(e, {"t": t, "s": s})
    reference = np.broadcast_to(_per_node(e.root, {"t": t, "s": s}), (67, 45))
    assert np.shape(got) == np.shape(reference)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(reference, dtype=float).tobytes()
    # Bindings are read, never written, and stay writable.
    assert np.array_equal(t, before[0]) and np.array_equal(s, before[1])
    assert t.flags.writeable and s.flags.writeable


@pytest.mark.parametrize("text", ["2.5", "exp(t) - 1", "s^2 + 1", "t", "-s"],
                         ids=["constant", "t-only", "s-only", "bare", "negated"])
def test_value_takes_the_broadcast_shape_of_every_binding(text):
    e = ex.parse(text, ("t", "s"))
    t, s = np.linspace(0.1, 0.9, 7)[:, None], np.linspace(0.2, 0.8, 5)[None, :]
    got = ex.evaluate(e, {"t": t, "s": s})
    reference = np.broadcast_to(_per_node(e.root, {"t": t, "s": s}), (7, 5))
    assert isinstance(got, np.ndarray) and got.shape == (7, 5) and got.dtype == np.float64
    assert got.tobytes() == reference.tobytes()
    # A binding the expression does not read shapes the value as well.
    assert ex.evaluate(e, {"t": t[:, 0], "s": 0.25}).shape == (7,)
    scalar = ex.evaluate(e, {"t": 0.5, "s": 0.25})
    assert type(scalar) is float and scalar == _per_node(e.root, {"t": 0.5, "s": 0.25})
    with pytest.raises(ValueError):
        ex.evaluate(e, {"t": np.zeros(3), "s": np.zeros(4)})


def test_a_value_computed_in_the_broadcast_shape_comes_back_as_computed():
    t, s = np.linspace(0.1, 0.9, 7)[:, None], np.linspace(0.2, 0.8, 5)[None, :]
    assert ex.evaluate(ex.parse("t*s", ("t", "s")), {"t": t, "s": s}).flags.writeable
    full = np.linspace(0.0, 1.0, 35).reshape(7, 5)
    assert ex.evaluate(ex.parse("t", ("t", "s")), {"t": full, "s": s}) is full


@pytest.mark.parametrize(
    "text, name",
    [
        ("log(t - s)", "log((t - s))"),
        ("1/(t - s) + 2*t", "(1.0 / (t - s))"),
        ("2*sqrt(t - s)", "sqrt((t - s))"),
        ("exp(1000*t*s)", "exp(((1000.0 * t) * s))"),
        ("2*log(abs(t - s))", "log(abs((t - s)))"),
        ("exp(1000*t*s)*0 + 1", "exp(((1000.0 * t) * s))"),
    ],
)
def test_domain_error_names_the_node_and_leaves_bindings_alone(text, name):
    t = np.linspace(0.0, 1.0, 6)[:, None]
    s = np.linspace(0.0, 1.0, 6)[None, :]
    before = t.copy(), s.copy()
    with pytest.raises(DomainEvalError) as err:
        ex.evaluate(ex.parse(text, ("t", "s")), {"t": t, "s": s})
    assert err.value.node_text == name
    assert np.array_equal(t, before[0]) and np.array_equal(s, before[1])


@pytest.mark.parametrize("text, name", [("t", "t"), ("-t", "(-t)")])
def test_root_without_an_operator_is_still_checked(text, name):
    with pytest.raises(DomainEvalError) as err:
        ex.evaluate(ex.parse(text, ("t",)), {"t": np.array([0.5, np.nan])})
    assert err.value.node_text == name


@pytest.mark.parametrize("chain", [
    lambda d: "-" * (d - 1) + "t",  # nested negations
    lambda d: "+".join(["t"] * d),  # a left-leaning sum, built without recursion
    lambda d: "^".join(["1"] * d),  # a right-leaning power tower
], ids=["negation", "sum", "power"])
def test_parse_bounds_the_tree_depth_that_evaluate_and_unparse_recurse_over(chain):
    deepest = ex.parse(chain(ex.MAX_DEPTH))
    assert ex._walk(deepest.root)[1] == ex.MAX_DEPTH
    assert math.isfinite(ex.evaluate(deepest, {"t": 0.5}))
    assert ex.unparse(deepest.root).count("(") >= ex.MAX_DEPTH - 1
    with pytest.raises(ExprSyntaxError, match=f"deeper than {ex.MAX_DEPTH} levels"):
        ex.parse(chain(ex.MAX_DEPTH + 1))


def _first_non_finite(root, bindings):
    # The per-node reference of the trap contract: with no traps, the text of the
    # first operator or function node, in evaluation order, whose value is not
    # finite, or None.
    found = []

    def walk(node):
        if isinstance(node, (ex.Num, ex.Var, ex.Neg)):
            return _per_node(node, bindings)
        if isinstance(node, ex.Call):
            value = ex._FUNCTIONS[node.func](walk(node.arg))
        else:
            value = _UFUNCS[node.op](walk(node.left), walk(node.right))
        if not found and not np.all(np.isfinite(value)):
            found.append(ex.unparse(node))
        return value

    with np.errstate(all="ignore"):
        walk(root)
    return found[0] if found else None


_SIZES = (1, 7, 8, 17, 4096)  # below, at and past the vector width, and large


def _with_bad_value(n, at, bad):
    t = np.full(n, 0.5)
    t[at] = bad
    return t


@pytest.mark.parametrize("text, bad", [
    ("exp(t)", 800.0), ("log(t)", 0.0), ("log(t)", -1.0), ("sqrt(t)", -1.0),
    ("1/t", 0.0), ("t/t", 0.0), ("10^t", 400.0), ("t^-1", 0.0), ("t^0.5", -1.0),
    ("t + 1e308", 1e308), ("t - 1e308", -1e308), ("t*1e200", 1e200), ("t/1e-300", 1e10),
    ("2*log(t)", 0.0), ("exp(t)*0 + 1", 800.0), ("sqrt(t - 1)/(t - 1)", 0.0),
])
def test_a_trap_names_the_node_the_per_node_reference_names(text, bad):
    # numpy reports a failure from its vectorized loops and from their scalar
    # remainder: the bad value goes first, in the middle or last; a float binding
    # takes numpy's scalar path.
    e = ex.parse(text)
    for t in [bad] + [_with_bad_value(n, at, bad) for n in _SIZES for at in (0, n // 2, n - 1)]:
        name = _first_non_finite(e.root, {"t": t})
        assert name is not None
        with pytest.raises(DomainEvalError) as err:
            ex.evaluate(e, {"t": t})
        assert err.value.node_text == name
        assert str(err.value) == f"non-finite value from '{name}'"


@pytest.mark.parametrize("text, value", [("exp(t)", -800.0), ("t*1e-200", 1e-200),
                                         ("sin(t)", 1e300)])
def test_underflow_and_large_arguments_do_not_trap(text, value):
    e = ex.parse(text)
    for t in [value] + [np.full(n, value) for n in _SIZES]:
        got = ex.evaluate(e, {"t": t})
        assert np.all(np.isfinite(got)) and np.array_equal(got, _per_node(e.root, {"t": t}))


@pytest.mark.parametrize("text, literal, at", [
    ("sin(1e999*t)*s", "1e999", 4),
    ("1/(1e999*t)", "1e999", 3),
    ("exp(-(1e999*t))", "1e999", 6),
    ("t + 1.5E+400", "1.5E+400", 4),
])
def test_a_number_literal_beyond_the_double_range_is_a_parse_error(text, literal, at):
    # Such a literal would be inf, and arithmetic on inf raises no trap: 1/(inf*t) and
    # exp(-(inf*t)) evaluate to 0. The parser refuses it, naming the literal and its position.
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse(text, ("t", "s"))
    assert str(err.value) == f"number {literal!r} is beyond the double range (at position {at})"
    assert err.value.position == at


def test_a_number_literal_at_the_edge_of_the_double_range_parses():
    # 1.7976931348623157e308 is the largest double; 1e-400 underflows to 0, which is finite.
    largest = ex.parse("1.7976931348623157e308 + 1e-400")
    assert ex.evaluate(largest, {"t": 0.5}) == 1.7976931348623157e308
