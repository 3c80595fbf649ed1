"""Command-line front end.

    fredload analyze      FILE
    fredload solve        FILE --lambda X
    fredload sweep        FILE --lambda-min A --lambda-max B --steps N
    fredload find-poles   FILE --lambda-min A --lambda-max B
    fredload oracle-check FILE --lambda X [--threshold T]

Data goes to stdout as CSV with a header row (17 significant digits,
stable ordering); per-run summaries go to stderr. Exit codes: 0 ok,
1 check failure or internal error, 2 no solution exists, 3 a route
precondition failed, 4 parse or domain error or an out-of-range setting.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional

import numpy as np

from . import kernel_ops, oracle, solver
from .errors import (
    CharacteristicNumberError,
    ConvergenceError,
    DomainEvalError,
    ExprSyntaxError,
    FredloadError,
    NoSolutionError,
    ProblemFileError,
    RoutePreconditionError,
    SingularLoadSystemError,
)
from .kernel_ops import DiscreteKernel, discretize
from .problem import ProblemSpec
from .problemfile import Numerics, load_problem_file
from .quadrature import interpolate
from .solver import Prepared, Solution

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NO_SOLUTION = 2
EXIT_ROUTE = 3
EXIT_PARSE = 4

ROUTES = ("auto", "regular", "successive", "nilpotent", "irregular", "oracle")

# (error class, code, exit status), first match wins; `main` prints
# error[<code>] and `sweep` reports exit-2 and exit-3 outcomes per row.
_OUTCOMES = (
    (ProblemFileError, "parse-error", EXIT_PARSE),
    (ExprSyntaxError, "parse-error", EXIT_PARSE),
    (NoSolutionError, "no-solution", EXIT_NO_SOLUTION),
    (CharacteristicNumberError, "characteristic-number", EXIT_ROUTE),
    (SingularLoadSystemError, "singular-load-system", EXIT_ROUTE),
    (ConvergenceError, "no-convergence", EXIT_ROUTE),
    (RoutePreconditionError, "route-precondition", EXIT_ROUTE),
    (DomainEvalError, "domain-error", EXIT_PARSE),
    (FredloadError, "internal", EXIT_FAILURE),
)


def _outcome(exc: FredloadError) -> tuple[str, int]:
    return next((code, status) for cls, code, status in _OUTCOMES if isinstance(exc, cls))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _dispatch(prep: Prepared, lam: float, route: str, numerics: Numerics) -> Solution:
    """One solve on an analysis reused across lambda; `route` is not oracle."""
    if route == "auto":
        return solver.solve_prepared(prep, lam)
    if route == "successive":
        return solver.solve_successive(prep, lam, numerics.q, numerics.max_iter)
    return getattr(solver, f"solve_{route}")(prep, lam)  # regular, nilpotent, irregular


def _solve_once(
    problem: ProblemSpec, kernel: DiscreteKernel, lam: float, route: str, numerics: Numerics
) -> Solution:
    if route == "auto":
        return solver.solve_auto(problem, kernel, lam, numerics.truncation, numerics.tol)
    if route == "oracle":
        return oracle.dense_solve(problem, kernel, lam)
    prep = solver.prepare(problem, kernel, numerics.truncation, numerics.tol)
    return _dispatch(prep, lam, route, numerics)


def _finite_or_none(value: Optional[float]) -> bool:
    return value is None or math.isfinite(value)


def _setup(args) -> tuple[ProblemSpec, DiscreteKernel, Numerics]:
    parsed = load_problem_file(args.file)
    numerics = parsed.numerics
    # Every flag's dest is a Numerics field name; a given flag beats the file.
    for name in (f.name for f in dataclasses.fields(Numerics)):
        if getattr(args, name, None) is not None:
            setattr(numerics, name, getattr(args, name))
    # Numeric settings are outside input like the file, so a bad one exits 4.
    threshold = getattr(args, "threshold", 0.0)
    for label, value, rule, valid in (
        ("node count", numerics.nodes, ">= 1", numerics.nodes >= 1),
        ("tol", numerics.tol, "> 0", numerics.tol > 0),
        ("q", numerics.q, "in (0, 1)", 0 < numerics.q < 1),
        ("truncation", numerics.truncation, ">= 1", numerics.truncation >= 1),
        ("max_iter", numerics.max_iter, ">= 1", numerics.max_iter >= 1),
        ("lambda", numerics.lam, "finite", _finite_or_none(numerics.lam)),
        ("lambda_min", numerics.lam_min, "finite", _finite_or_none(numerics.lam_min)),
        ("lambda_max", numerics.lam_max, "finite", _finite_or_none(numerics.lam_max)),
        ("threshold", threshold, "finite and >= 0", 0 <= threshold < math.inf),
    ):
        if not valid:
            raise ProblemFileError(f"{label} must be {rule}, got {value}")
    try:
        problem = parsed.build(numerics.nodes)
    except ValueError as exc:
        raise ProblemFileError(str(exc))
    kernel = discretize(problem.kernel, problem.master_rule(numerics.nodes))
    return problem, kernel, numerics


def _required_lambda(numerics: Numerics) -> float:
    if numerics.lam is not None:
        return numerics.lam
    raise ProblemFileError(
        "no lambda given: pass --lambda or set it in the [numerics] block"
    )


def _required_range(numerics: Numerics) -> tuple[float, float]:
    lam_min, lam_max = numerics.lam_min, numerics.lam_max
    if lam_min is None or lam_max is None:
        raise ProblemFileError(
            "no lambda range given: pass --lambda-min/--lambda-max or set "
            "lambda_min/lambda_max in the [numerics] block"
        )
    if not lam_min < lam_max:
        raise ProblemFileError(f"need lambda_min < lambda_max, got [{lam_min}, {lam_max}]")
    return lam_min, lam_max


def cmd_analyze(args) -> int:
    problem, kernel, numerics = _setup(args)
    prep = solver.prepare(problem, kernel, numerics.truncation, numerics.tol)
    classification, pnil = prep.classification, prep.nilpotency
    norm = kernel.norm

    print(f"interval: [{_fmt(problem.a)}, {_fmt(problem.b)}]")
    print(f"nodes: {kernel.rule.n}")
    print(f"loads: {problem.n}")
    print("A0:")
    for row in prep.A0:
        print("  [" + ", ".join(_fmt(v) for v in row) + "]")
    print(f"det(E - A0): {_fmt(classification.det)}")
    print(f"classification: {classification.kind}")
    for k, report in enumerate(prep.reports, start=1):
        status = "holds" if report.holds else "fails"
        print(
            f"condition (load {k} annihilates kernel slices): {status} "
            f"(max deviation {_fmt(report.deviation)})"
        )
    if pnil is None:
        print(f"nilpotency index: none found within depth {numerics.truncation}")
    else:
        print(f"nilpotency index: {pnil}")
    print(f"operator norm: {_fmt(norm)}")
    if classification.is_regular:
        bound_l = prep.successive_l
        admissible = float("inf") if bound_l == 0.0 else numerics.q / bound_l
        print(f"successive bound l: {_fmt(bound_l)}")
        print(f"successive admissible |lambda| <= q/l: {_fmt(admissible)} (q = {numerics.q:g})")
    if classification.is_irregular_identity:
        pole, _ = prep.pole
        if pole is None:
            print(f"pole order: none (load coupling vanishes up to depth {numerics.truncation})")
        else:
            cond = float(np.linalg.cond(prep.taylor[pole - 1]))
            print(f"pole order: {pole}")
            print(f"leading coefficient condition number: {_fmt(cond)}")
    return EXIT_OK


def _solution_summary(solution: Solution) -> None:
    lines = [
        f"route: {solution.route}",
        f"lambda: {_fmt(solution.lam)}",
        "x_gamma: [" + ", ".join(_fmt(v) for v in solution.x_gamma) + "]",
        f"residual: {_fmt(solution.residual)}",
        f"classification: {solution.classification.kind}",
    ]
    if solution.pole_order is not None:
        lines.append(f"pole order: {solution.pole_order}")
    if solution.expansion is not None:
        lines.append(f"contraction q at lambda: {_fmt(solution.expansion.q)}")
        lines.append(f"certified radius rho: {_fmt(solution.expansion.rho)}")
    if solution.history is not None:
        lines.append(f"iterations: {len(solution.history)}")
    if solution.note:
        lines.append(f"note: {solution.note}")
    print("\n".join(lines), file=sys.stderr)


def cmd_solve(args) -> int:
    problem, kernel, numerics = _setup(args)
    lam = _required_lambda(numerics)
    solution = _solve_once(problem, kernel, lam, args.route, numerics)
    points = zip(kernel.rule.nodes.tolist(), solution.x.values.tolist())
    print("\n".join(["t,x", *(f"{_fmt(t)},{_fmt(x)}" for t, x in points)]))
    _solution_summary(solution)
    return EXIT_OK


def cmd_sweep(args) -> int:
    problem, kernel, numerics = _setup(args)
    lam_min, lam_max = _required_range(numerics)
    steps = numerics.steps
    if steps < 2:
        raise ProblemFileError("sweep needs at least 2 steps")
    probes = [problem.a, 0.5 * (problem.a + problem.b), problem.b]
    header = "lambda," + ",".join(f"x({p:g})" for p in probes) + ",x_gamma_norm,residual,status"
    print(header)
    # After the header: an error in the analysis leaves it on stdout, as a row's does.
    prep = None
    if args.route != "oracle":
        prep = solver.prepare(problem, kernel, numerics.truncation, numerics.tol)
    for lam in np.linspace(lam_min, lam_max, steps):
        lam = float(lam)
        try:
            solution = (oracle.dense_solve(problem, kernel, lam) if prep is None
                        else _dispatch(prep, lam, args.route, numerics))
        except FredloadError as exc:
            code, status = _outcome(exc)
            if status not in (EXIT_NO_SOLUTION, EXIT_ROUTE):
                raise
            print(f"{_fmt(lam)},,,,,,unsolvable:{code}")
            continue
        values = [interpolate(solution.x, p) for p in probes]
        norm = float(np.max(np.abs(solution.x_gamma)))
        row = ",".join(_fmt(v) for v in [lam, *values, norm, solution.residual])
        print(f"{row},ok")
    return EXIT_OK


def cmd_find_poles(args) -> int:
    problem, kernel, numerics = _setup(args)
    lam_min, lam_max = _required_range(numerics)
    if numerics.scan_points < 2:
        raise ProblemFileError("find-poles needs at least 2 scan points")
    roots = kernel_ops.find_characteristic_numbers(kernel, lam_min, lam_max, numerics.truncation)
    spacing = (lam_max - lam_min) / (numerics.scan_points - 1)
    print("lambda,abs_det_left,abs_det_right")
    for root in roots:
        left = max(lam_min, root - spacing)
        right = min(lam_max, root + spacing)
        dets = (kernel_ops.det_magnitude(kernel, left), kernel_ops.det_magnitude(kernel, right))
        print(",".join(_fmt(v) for v in (root, *dets)))
    print(f"characteristic numbers found: {len(roots)}", file=sys.stderr)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    problem, kernel, numerics = _setup(args)
    lam = _required_lambda(numerics)
    route = args.route if args.route != "oracle" else "auto"
    solution = _solve_once(problem, kernel, lam, route, numerics)
    reference = oracle.dense_solve(problem, kernel, lam)
    disagreement = float(np.max(np.abs(solution.x.values - reference.x.values)))
    print(f"route: {solution.route}")
    print(f"route residual: {_fmt(solution.residual)}")
    print(f"oracle residual: {_fmt(reference.residual)}")
    print(f"max disagreement: {_fmt(disagreement)}")
    # The oracle's own error grows with the solution, so the bound is relative above |x| = 1.
    bound = args.threshold * max(1.0, float(np.max(np.abs(reference.x.values))))
    if disagreement > bound:
        print(f"disagreement {_fmt(disagreement)} exceeds threshold {_fmt(bound)}",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which is reserved here
    # for "no solution exists"; remap to the parse-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[parse-error]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fredload",
        description="Solve second-kind Fredholm integral equations with loads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="problem file")
        p.add_argument("--nodes", type=int, default=None, help="master rule node count")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance for condition checks / iteration stopping")
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        p.add_argument("--truncation", type=int, default=None,
                       help="series/iterated-kernel depth")
        p.add_argument("--q", type=float, default=None,
                       help="contraction target in (0, 1)")

    p_analyze = sub.add_parser("analyze", help="report the problem's structure")
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_solve = sub.add_parser("solve", help="solve at one lambda, CSV of (t, x)")
    add_common(p_solve)
    p_solve.add_argument("--lambda", type=float, default=None, dest="lam")
    p_solve.add_argument("--route", choices=ROUTES, default="auto")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a lambda range, CSV per lambda")
    add_common(p_sweep)
    p_sweep.add_argument("--lambda-min", type=float, default=None, dest="lam_min")
    p_sweep.add_argument("--lambda-max", type=float, default=None, dest="lam_max")
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--route", choices=ROUTES, default="auto")
    p_sweep.set_defaults(func=cmd_sweep)

    p_poles = sub.add_parser("find-poles", help="locate characteristic numbers")
    add_common(p_poles)
    p_poles.add_argument("--lambda-min", type=float, default=None, dest="lam_min")
    p_poles.add_argument("--lambda-max", type=float, default=None, dest="lam_max")
    p_poles.add_argument("--scan-points", type=int, default=None, dest="scan_points")
    p_poles.set_defaults(func=cmd_find_poles)

    p_check = sub.add_parser("oracle-check", help="compare a route against the dense oracle")
    add_common(p_check)
    p_check.add_argument("--lambda", type=float, default=None, dest="lam")
    p_check.add_argument("--route", choices=ROUTES, default="auto")
    p_check.add_argument("--threshold", type=float, default=1e-6,
                         help="fail (exit 1) when max disagreement exceeds this "
                              "times max(1, max|x_oracle|)")
    p_check.set_defaults(func=cmd_oracle_check)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except FredloadError as exc:
        code, status = _outcome(exc)
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return status
    except Exception as exc:  # last resort: keep the exit-code contract
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
