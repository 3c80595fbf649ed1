"""A small deterministic expression language for problem definitions.

All scalar functions of a problem (kernel K(t,s), source f(t), load
coefficients a(t), integral weights m(s)) are written in this language.

Grammar (LL(1), whitespace-insensitive, no implicit multiplication):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative
    atom   := NUMBER | CONST | VAR | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "sin" | "cos" | "exp" | "log" | "sqrt" | "abs"
    CONST  := "pi" | "e"

"^" binds tightest and unary minus binds looser than "^", so -2^2 = -4
and 2^3^2 = 512. Evaluation is IEEE double precision on floats or numpy arrays,
one ufunc call per operator or function node under floating-point traps: a
DomainEvalError names the first node that traps, or the root for a non-finite
binding. A NUMBER beyond the double range is an ExprSyntaxError where it is parsed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import DomainEvalError, ExprSyntaxError, UndefinedVariableError
from .tolerances import GRID_BLOCK

__all__ = ["Expr", "parse", "evaluate", "grid_blocks", "unparse"]

# evaluate and unparse recurse once per tree level, so parse bounds the depth
# far inside Python's default recursion limit of 1000 frames.
MAX_DEPTH = 200

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Expr:
    """An immutable parsed expression; safe to share between threads."""

    root: Node
    variables: frozenset[str]
    text: str


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed_vars: frozenset[str]):
        self.allowed = allowed_vars
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected '{op}'", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            if math.isinf(float(val)):
                raise ExprSyntaxError(f"number {val!r} is beyond the double range", pos)
            return Num(float(val))
        if kind == "name":
            if val in _CONSTANTS:
                return Num(_CONSTANTS[val])
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in self.allowed:
                return Var(val)
            raise UndefinedVariableError(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse(text: str, allowed_vars: Iterable[str] = ("t",)) -> Expr:
    """Parse `text` into an Expr whose variables must come from `allowed_vars`.

    Raises ExprSyntaxError (with position) on malformed input, on nesting too
    deep for the recursive-descent parser and on a tree more than MAX_DEPTH
    levels deep, and UndefinedVariableError for variables outside the declared set.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, frozenset(allowed_vars))
    try:
        root = parser.parse()
    except RecursionError:
        at = parser.tokens[parser.i - 1][2]
        raise ExprSyntaxError("expression nested too deeply", at) from None
    variables, depth = _walk(root)
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
    return Expr(root=root, variables=variables, text=text)


def _walk(root: Node) -> tuple[frozenset[str], int]:
    """The variables of a tree and its depth, by an explicit stack, so that a
    tree too deep for the recursive evaluator is measured without recursion."""
    names, depth, stack = set(), 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Neg):
            stack.append((node.operand, level + 1))
        elif isinstance(node, Call):
            stack.append((node.arg, level + 1))
        elif isinstance(node, BinOp):
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return frozenset(names), depth


def _eval_node(node: Node, env: Mapping[str, object]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return np.negative(_eval_node(node.operand, env))
    try:  # an operand's trap is a DomainEvalError by now, so this is the node's own
        if isinstance(node, Call):
            return _FUNCTIONS[node.func](_eval_node(node.arg, env))
        return _OPERATORS[node.op](_eval_node(node.left, env), _eval_node(node.right, env))
    except FloatingPointError:
        raise _non_finite(node) from None


def _non_finite(node: Node) -> DomainEvalError:
    return DomainEvalError(f"non-finite value from '{unparse(node)}'", unparse(node))


def evaluate(expr: Expr, bindings: Mapping[str, object]):
    """Evaluate `expr` at the given variable bindings.

    Bindings may be floats or numpy arrays. With an array among them, the value
    is an array of the broadcast shape of all the bindings, used or not: as
    computed when it has that shape (a bare variable is its binding), otherwise
    a read-only np.broadcast_to view; with none, a float. Bindings that do not
    broadcast together raise ValueError. A non-finite value raises DomainEvalError
    naming the first node whose ufunc traps (overflow, division by zero or invalid;
    not underflow), or the root for a non-finite binding.
    """
    missing = expr.variables - set(bindings)
    if missing:
        name = sorted(missing)[0]
        raise DomainEvalError(f"no binding for variable '{name}'", name)
    coerced = {k: float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
               for k, v in bindings.items()}
    shape = np.broadcast(*coerced.values()).shape
    with np.errstate(all="raise", under="ignore"):
        value = _eval_node(expr.root, coerced)
    if not np.all(np.isfinite(value)):
        raise _non_finite(expr.root)
    if not shape:
        return float(value)
    return value if np.shape(value) == shape else np.broadcast_to(value, shape)


def grid_blocks(expr: Expr, t: np.ndarray, s: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, expr at t[rows, None] and s[None, :]) for row blocks of t of
    at most GRID_BLOCK elements (one block when len(t) len(s) fits), each
    block a (len(rows), len(s)) array; a caller that drops each block before
    asking for the next holds one at a time. A block's DomainEvalError gives
    way to the whole grid's, which names the subexpression that fails first
    over every row."""
    step = max(1, GRID_BLOCK // s.size)
    try:
        for lo in range(0, t.size, step):
            rows = slice(lo, lo + step)  # the frame keeps no block across the yield
            yield rows, evaluate(expr, {"t": t[rows, None], "s": s[None, :]})
    except DomainEvalError:
        evaluate(expr, {"t": t[:, None], "s": s[None, :]})
        raise


def unparse(node: Node) -> str:
    """Render a node back to parseable text (fully parenthesized)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{unparse(node.operand)})"
    if isinstance(node, Call):
        return f"{node.func}({unparse(node.arg)})"
    return f"({unparse(node.left)} {node.op} {unparse(node.right)})"
