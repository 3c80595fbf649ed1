"""Problem-file format: a small line-oriented description of one equation.

    # comments run to end of line; blank lines are ignored
    interval = 0 1
    kernel   = exp(t - s)          # expression in t, s
    source   = 1 + t^2             # expression in t

    [load]                         # one block per load, at least one
    coeff    = t / 2               # a_k(t), expression in t
    point    = 2 @ 0.5             # alpha @ t0, repeatable
    integral = s^2 on [0, 0.5]     # m(s) on [lo, hi], repeatable

    [numerics]                     # optional defaults, flags override
    nodes = 64
    lambda = 0.25

Numerics keys: nodes, lambda, lambda_min, lambda_max, steps, tol,
max_iter, truncation, q, scan_points. Loads of Stieltjes type
(integration against a function of bounded variation) are not supported
and are rejected at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ExprSyntaxError, ProblemFileError
from .expr import Expr, parse as parse_expr
from .functionals import Functional, IntegralTerm, PointTerm
from .problem import Load, ProblemSpec
from .quadrature import gauss_legendre
from .tolerances import MAX_ITER, NODES, Q, TOL, TRUNCATION

__all__ = ["Numerics", "ParsedProblem", "parse_problem_file", "load_problem_file"]

_POINT_RE = re.compile(r"^(?P<alpha>\S+)\s*@\s*(?P<t0>\S+)$")
_SECTION_RE = re.compile(r"^\[(?P<name>[^\[\]]*)\]$")
_INTEGRAL_RE = re.compile(r"^(?P<expr>.*\S)\s+on\s*\[\s*(?P<lo>[^,\]]+)\s*,\s*(?P<hi>[^,\]]+)\s*\]$")


@dataclass
class Numerics:
    """Numeric defaults from the [numerics] block; CLI flags take priority."""

    nodes: int = NODES
    lam: Optional[float] = None
    lam_min: Optional[float] = None
    lam_max: Optional[float] = None
    steps: int = 20
    tol: float = TOL
    max_iter: int = MAX_ITER
    truncation: int = TRUNCATION
    q: float = Q
    scan_points: int = 512


@dataclass
class _RawLoad:
    coeff: Optional[Expr] = None
    points: list[PointTerm] = field(default_factory=list)
    integrals: list[tuple[float, float, Expr]] = field(default_factory=list)
    line: int = 0


@dataclass
class ParsedProblem:
    """Validated file contents; build() instantiates the sub-rules."""

    a: float
    b: float
    kernel: Expr
    source: Expr
    raw_loads: list[_RawLoad]
    numerics: Numerics

    def build(self, nodes: Optional[int] = None) -> ProblemSpec:
        """Construct the ProblemSpec, giving every integral term a
        Gauss-Legendre sub-rule with the master node count."""
        count = self.numerics.nodes if nodes is None else nodes
        loads = []
        for raw in self.raw_loads:
            terms = tuple(
                IntegralTerm(lo, hi, weight, gauss_legendre(count, lo, hi))
                for lo, hi, weight in raw.integrals
            )
            functional = Functional(point_terms=tuple(raw.points), integral_terms=terms)
            loads.append(Load(coeff=raw.coeff, functional=functional))
        return ProblemSpec(
            a=self.a, b=self.b, kernel=self.kernel, source=self.source, loads=tuple(loads)
        )


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProblemFileError(f"{what} must be a number, got {text!r}", line)


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProblemFileError(f"{what} must be an integer, got {text!r}", line)


def _parse_expression(text: str, allowed: set[str], what: str, line: int) -> Expr:
    try:
        return parse_expr(text, allowed)
    except ExprSyntaxError as exc:
        raise ProblemFileError(f"{what}: {exc}", line)


_NUMERIC_FLOAT_KEYS = {"lambda": "lam", "lambda_min": "lam_min", "lambda_max": "lam_max",
                       "tol": "tol", "q": "q"}
_NUMERIC_INT_KEYS = {"nodes": "nodes", "steps": "steps", "max_iter": "max_iter",
                     "truncation": "truncation", "scan_points": "scan_points"}


def parse_problem_file(text: str) -> ParsedProblem:
    interval: Optional[tuple[float, float]] = None
    kernel: Optional[Expr] = None
    source: Optional[Expr] = None
    raw_loads: list[_RawLoad] = []
    numerics = Numerics()
    section = "top"

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            header = _SECTION_RE.match(line)
            if header is None:
                raise ProblemFileError(f"malformed section header {line!r}", lineno)
            name = header.group("name").strip().lower()
            if name == "load":
                raw_loads.append(_RawLoad(line=lineno))
                section = "load"
            elif name == "numerics":
                section = "numerics"
            else:
                raise ProblemFileError(f"unknown section [{name}]", lineno)
            continue
        if "=" not in line:
            raise ProblemFileError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if not value:
            raise ProblemFileError(f"empty value for '{key}'", lineno)

        if section == "top":
            if key == "interval":
                parts = value.replace(",", " ").split()
                if len(parts) != 2:
                    raise ProblemFileError("interval needs two endpoints", lineno)
                interval = (
                    _parse_float(parts[0], "interval endpoint", lineno),
                    _parse_float(parts[1], "interval endpoint", lineno),
                )
                if not math.isfinite(abs(interval[0]) + abs(interval[1])):
                    raise ProblemFileError("interval needs finite a, b, b - a and a + b", lineno)
            elif key == "kernel":
                kernel = _parse_expression(value, {"t", "s"}, "kernel", lineno)
            elif key == "source":
                source = _parse_expression(value, {"t"}, "source", lineno)
            else:
                raise ProblemFileError(f"unknown key '{key}' before any section", lineno)
        elif section == "load":
            raw = raw_loads[-1]
            if key == "coeff":
                raw.coeff = _parse_expression(value, {"t"}, "load coefficient", lineno)
            elif key == "point":
                m = _POINT_RE.match(value)
                if m is None:
                    raise ProblemFileError(
                        "point term must look like '<alpha> @ <t0>'", lineno
                    )
                raw.points.append(
                    PointTerm(
                        alpha=_parse_float(m.group("alpha"), "point coefficient", lineno),
                        t0=_parse_float(m.group("t0"), "point location", lineno),
                    )
                )
            elif key == "integral":
                m = _INTEGRAL_RE.match(value)
                if m is None:
                    raise ProblemFileError(
                        "integral term must look like '<weight-expr> on [lo, hi]'", lineno
                    )
                lo = _parse_float(m.group("lo"), "integral lower bound", lineno)
                hi = _parse_float(m.group("hi"), "integral upper bound", lineno)
                if not lo < hi:
                    raise ProblemFileError(
                        f"integral term needs lo < hi, got [{lo}, {hi}]", lineno
                    )
                if not math.isfinite(abs(lo) + abs(hi)):
                    raise ProblemFileError("integral term needs finite lo, hi, hi - lo and lo + hi",
                                           lineno)
                weight = _parse_expression(
                    m.group("expr"), {"s"}, "integral weight", lineno
                )
                raw.integrals.append((lo, hi, weight))
            elif key == "stieltjes":
                raise ProblemFileError(
                    "unsupported load type: integration against a function of "
                    "bounded variation is not available; use point and integral "
                    "terms",
                    lineno,
                )
            else:
                raise ProblemFileError(f"unknown key '{key}' in [load]", lineno)
        else:  # numerics
            if key in _NUMERIC_FLOAT_KEYS:
                setattr(numerics, _NUMERIC_FLOAT_KEYS[key], _parse_float(value, key, lineno))
            elif key in _NUMERIC_INT_KEYS:
                setattr(numerics, _NUMERIC_INT_KEYS[key], _parse_int(value, key, lineno))
            else:
                raise ProblemFileError(f"unknown key '{key}' in [numerics]", lineno)

    if interval is None:
        raise ProblemFileError("missing 'interval = a b'")
    if not interval[0] < interval[1]:
        raise ProblemFileError(f"invalid interval: need a < b, got {interval}")
    if kernel is None:
        raise ProblemFileError("missing 'kernel = <expression in t, s>'")
    if source is None:
        raise ProblemFileError("missing 'source = <expression in t>'")
    if not raw_loads:
        raise ProblemFileError("at least one [load] block is required")
    for raw in raw_loads:
        if raw.coeff is None:
            raise ProblemFileError("load block is missing 'coeff = <expression>'", raw.line)
        if not raw.points and not raw.integrals:
            raise ProblemFileError(
                "load block needs at least one 'point' or 'integral' term", raw.line
            )
    return ParsedProblem(
        a=interval[0],
        b=interval[1],
        kernel=kernel,
        source=source,
        raw_loads=raw_loads,
        numerics=numerics,
    )


def load_problem_file(path: str) -> ParsedProblem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path!r}: {exc.strerror}")
    return parse_problem_file(text)
