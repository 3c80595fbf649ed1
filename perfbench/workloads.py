"""Workloads, set-up and the closed-loop op runner.

A workload is a list of rounds; a round is a list of ops, and every op is
one `fredload.cli.main(argv)` call. The runner is a single closed-loop
client: it starts the next op only when the previous one has returned, and
it runs whole rounds until the run's seconds are used up. Every round has
the same mix of problem families and commands, so the medians of a run do
not depend on where the clock happened to stop.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import problems as gen
from check import Checker, field
from fredload import cli
from fredload.errors import NoSolutionError
from fredload.kernel_ops import discretize
from fredload.load_system import assemble_A0, classify
from fredload.problemfile import load_problem_file
from fredload.solver import solve_auto, successive_bound
from problems import Problem
from tracer import OpStats, Tracer

# Generated instances per family; rounds cycle through them.
INSTANCES = 8
# Node count for confirming a generated problem's classification and route
# and for the warm-up ops; both stay outside the timed region.
CONFIRM_NODES = 16
SUCCESSIVE_Q = 0.9  # the CLI's default contraction target


@dataclass
class Op:
    command: str
    problem: Problem
    nodes: int
    lam: Optional[float] = None
    lam_range: Optional[tuple[float, float]] = None
    steps: Optional[int] = None
    route: str = "auto"

    def argv(self, nodes: Optional[int] = None) -> list[str]:
        args = [self.command, self.problem.path, "--nodes", str(nodes or self.nodes)]
        if self.lam is not None:
            args += ["--lambda", repr(self.lam)]
        if self.lam_range is not None:
            args += ["--lambda-min", repr(self.lam_range[0]), "--lambda-max", repr(self.lam_range[1])]
        if self.steps is not None:
            args += ["--steps", str(self.steps)]
        if self.route != "auto":
            args += ["--route", self.route]
        return args

    @property
    def label(self) -> str:
        text = f"{self.command} {self.problem.name} N={self.nodes}"
        if self.lam is not None:
            text += f" lambda={self.lam!r}"
        if self.route != "auto":
            text += f" --route {self.route}"
        return text

    @property
    def expected_exit(self) -> int:
        if self.command in ("solve", "oracle-check") and not self.problem.solvable:
            return cli.EXIT_NO_SOLUTION
        return cli.EXIT_OK

    @property
    def expected_route(self) -> Optional[str]:
        return "successive" if self.route == "successive" else self.problem.route


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    rounds: Callable[[np.random.Generator], list[list[Problem]]]
    ops: Callable[[Problem, int], list[Op]]
    successive: bool = False  # also solve with --route successive where admissible


def _instances(rng, family: str, prefix: str, solves: int, count: int = INSTANCES) -> list[Problem]:
    make = gen.FAMILIES[family]
    return [make(rng, f"{prefix}-{family}-{i}", solves) for i in range(count)]


# ------------------------------------------------------------------ scan-n64

SCAN_SWEEP_STEPS = 24


def _scan_rounds(rng) -> list[list[Problem]]:
    ex = gen.examples(rng, solves=3)
    reg, ide, nil = (_instances(rng, f, "scan", 3) for f in ("regular", "identity", "nilpotent"))
    return [
        [ex["loaded_regular"], reg[i], ex["identity_pole"], ide[i], ex["nilpotent"], nil[i],
         ex["no_solution"]]
        for i in range(INSTANCES)
    ]


def _scan_ops(p: Problem, nodes: int) -> list[Op]:
    lams = p.solve_lams
    ops = [
        Op("analyze", p, nodes),
        Op("find-poles", p, nodes, lam_range=p.poles_range),
        Op("solve", p, nodes, lam=lams[0]),
        Op("sweep", p, nodes, lam_range=p.sweep_range, steps=SCAN_SWEEP_STEPS),
        Op("solve", p, nodes, lam=lams[1]),
        Op("oracle-check", p, nodes, lam=lams[0]),
        Op("solve", p, nodes, lam=lams[2]),
    ]
    if p.successive_lam is not None:
        ops.append(Op("solve", p, nodes, lam=p.successive_lam, route="successive"))
    return ops


# ---------------------------------------------------------------- solve-n512


def _solve_rounds(rng) -> list[list[Problem]]:
    ex = gen.examples(rng, solves=1)
    return [[ex["loaded_regular"]]] + [[p] for p in _instances(rng, "regular", "solve", 1)]


def _solve_ops(p: Problem, nodes: int) -> list[Op]:
    return [Op("solve", p, nodes, lam=p.solve_lams[0]),
            Op("oracle-check", p, nodes, lam=p.solve_lams[0])]


# ----------------------------------------------------------------- pole-n512

POLE_SWEEP_STEPS = 4


def _pole_rounds(rng) -> list[list[Problem]]:
    ex = gen.examples(rng, solves=1)
    ide = [ex["identity_pole"]] + _instances(rng, "identity", "pole", 1, INSTANCES - 1)
    nil = _instances(rng, "nilpotent", "pole", 1)
    return [[ide[i], nil[i]] for i in range(INSTANCES)]


def _pole_ops(p: Problem, nodes: int) -> list[Op]:
    return [
        Op("analyze", p, nodes),
        Op("solve", p, nodes, lam=p.solve_lams[0]),
        Op("sweep", p, nodes, lam_range=p.sweep_range, steps=POLE_SWEEP_STEPS),
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-n64", 64, _scan_rounds, _scan_ops, successive=True),
        Workload("solve-n512", 512, _solve_rounds, _solve_ops),
        Workload("pole-n512", 512, _pole_rounds, _pole_ops),
    )
}


# --------------------------------------------------------------------- set-up


class SetupError(RuntimeError):
    """A generated problem does not have its intended structure."""


def _confirm(problem: Problem, workload: Workload) -> None:
    """Check classification and auto route with the library at a small node
    count, at the problem's largest |lambda| (the hardest for the irregular
    route). Sets the admissible lambda for the forced successive route."""
    spec = load_problem_file(problem.path).build(CONFIRM_NODES)
    kernel = discretize(spec.kernel, spec.master_rule(CONFIRM_NODES))
    kind = classify(assemble_A0(spec)).kind
    if kind != problem.classification:
        raise SetupError(f"{problem.name}: classification {kind}, expected {problem.classification}")
    lam = max(problem.solve_lams + problem.sweep_range, key=abs)
    try:
        route = solve_auto(spec, kernel, lam).route
    except NoSolutionError:
        route = None
    if route != problem.route:
        raise SetupError(f"{problem.name}: route {route} at lambda={lam}, expected {problem.route}")
    if workload.successive and problem.solvable and kind == "regular":
        full = load_problem_file(problem.path).build(workload.nodes)
        bound = successive_bound(full, discretize(full.kernel, full.master_rule(workload.nodes)))
        problem.successive_lam = gen.round_sig(0.5 * SUCCESSIVE_Q / bound)


def set_up(workload: Workload, seed: int, workdir: str) -> list[list[Op]]:
    """Generate, write and confirm the problems, build the rounds of ops and
    warm up every command once at a small node count."""
    rounds = workload.rounds(np.random.default_rng(seed))
    seen = {}
    for round_ in rounds:
        for p in round_:
            seen.setdefault(id(p), p)
    for p in seen.values():
        if p.text is not None:
            gen.write(p, workdir)
        _confirm(p, workload)
    ops = [[op for p in round_ for op in workload.ops(p, workload.nodes)] for round_ in rounds]
    warmed = set()
    for op in ops[0]:
        if op.command not in warmed:
            warmed.add(op.command)
            rc, _, err, _, _ = _call(op.argv(CONFIRM_NODES))
            if rc != op.expected_exit:
                raise SetupError(f"warm-up {op.label}: exit {rc}: {err.strip()[-200:]}")
    return ops


# --------------------------------------------------------------------- runner


@dataclass
class Record:
    op: Op
    round: int
    seconds: float
    failure: Optional[str]
    rows: int = 0  # sweep rows emitted
    disagreement: Optional[float] = None  # oracle-check max disagreement
    stats: Optional[OpStats] = None  # traced ops only


def _call(argv: list[str], tracer: Optional[Tracer] = None, label: str = "", nodes: int = 0):
    """Run one CLI invocation in-process; returns (exit, stdout, stderr,
    seconds, trace stats or None)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(label, nodes)
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a crashed benchmark
            rc = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    stats = tracer.end_op() if tracer is not None else None
    return rc, out.getvalue(), err.getvalue(), seconds, stats


def execute(op: Op, checker: Checker, round_index: int, tracer: Optional[Tracer] = None) -> Record:
    rc, out, err, seconds, stats = _call(op.argv(), tracer, op.label, op.nodes)
    record = Record(op, round_index, seconds, checker.check(op, rc, out, err), stats=stats)
    if op.command == "sweep":
        record.rows = max(0, len(out.splitlines()) - 1)
    if op.command == "oracle-check":
        value = field(out, "max disagreement")
        record.disagreement = None if value is None else float(value)
    return record


def measure(rounds: list[list[Op]], seconds: float, checker: Checker,
            tracer: Optional[Tracer] = None) -> tuple[list[Record], list[Record]]:
    """Run whole rounds, at least one, until `seconds` of wall time have
    passed. With a tracer, every op runs untraced and then traced; only
    the untraced runs feed the end-to-end metrics."""
    plain: list[Record] = []
    traced: list[Record] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for op in rounds[index % len(rounds)]:
            plain.append(execute(op, checker, index))
            if tracer is not None:
                traced.append(execute(op, checker, index, tracer))
        index += 1
    return plain, traced


# -------------------------------------------------------------------- metrics


def tail_percentile(samples: list[float]) -> Optional[tuple[float, float]]:
    """(p, value) for the highest of p99.9/p99/p95/p90/p75/p50 (nearest
    rank) that leaves at least 10 samples above it; None when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def round_rates(records: list[Record]) -> list[float]:
    """Ops per second of timed wall time, for each round."""
    per_round: dict[int, list[float]] = {}
    for r in records:
        per_round.setdefault(r.round, []).append(r.seconds)
    return [len(times) / sum(times) for times in per_round.values()]


def end_to_end(records: list[Record]) -> dict[str, tuple[float, str]]:
    """Metrics of the untraced ops; a command the workload never runs has
    no metric."""
    by_command: dict[str, list[Record]] = {}
    for r in records:
        by_command.setdefault(r.op.command, []).append(r)
    out: dict[str, tuple[float, str]] = {}
    for command, name in (("solve", "solve_ms_p50"), ("find-poles", "find_poles_ms_p50"),
                          ("analyze", "analyze_ms_p50"), ("oracle-check", "oracle_check_ms_p50")):
        if command in by_command:
            out[name] = (1000.0 * statistics.median(r.seconds for r in by_command[command]), "ms")
    if "solve" in by_command:
        tail = tail_percentile([1000.0 * r.seconds for r in by_command["solve"]])
        if tail is not None:
            out["solve_ms_tail"] = (tail[1], "ms")
    if "sweep" in by_command:
        sweeps = by_command["sweep"]
        out["sweep_lambda_per_s"] = (sum(r.rows for r in sweeps) / sum(r.seconds for r in sweeps), "1/s")
    out["ops_per_s"] = (len(records) / sum(r.seconds for r in records), "1/s")
    out["fail_ratio"] = (sum(r.failure is not None for r in records) / len(records), "1")
    return out


_ROUTES_READING_ITERATES = ("solver.route.nilpotent", "solver.route.irregular")


def per_layer(traced: list[Record], tracer: Tracer, plain_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-op means over the traced ops (README.md defines each metric)."""
    stats = [r.stats for r in traced]
    n_ops = len(stats)

    def calls(name):
        nid = tracer.name_id(name)
        return sum(s.calls[nid] for s in stats) / n_ops

    def layer_ms(*names):
        ids = [tracer.name_id(n) for n in names]
        return 1000.0 * sum(s.layer[i] for s in stats for i in ids) / n_ops

    def own_ms(*names):
        ids = [tracer.name_id(n) for n in names]
        return 1000.0 * sum(s.own[i] for s in stats for i in ids) / n_ops

    def counter(key):
        return sum(s.counters[key] for s in stats) / n_ops

    linalg = [n for n in tracer.names if n.startswith("linalg.")]
    nxn = [n for n in linalg if n.startswith("linalg.nxn.")]
    small = [n for n in linalg if n.startswith("linalg.small.")]
    m: dict[str, tuple[float, str]] = {
        "quadrature.interp_calls": (calls("quadrature.interp_weights"), "count"),
        "quadrature.interp_ms": (own_ms("quadrature.interp_weights", "quadrature.interpolate"), "ms"),
        "quadrature.gauss_legendre_calls": (calls("quadrature.gauss_legendre"), "count"),
        "quadrature.gauss_legendre_ms": (layer_ms("quadrature.gauss_legendre"), "ms"),
        "functionals.apply_calls": (calls("functionals.apply"), "count"),
        "functionals.apply_ms": (layer_ms("functionals.apply"), "ms"),
        "functionals.check_condition_one_calls": (calls("functionals.check_condition_one"), "count"),
        "functionals.check_condition_one_ms": (layer_ms("functionals.check_condition_one"), "ms"),
        "kernel_ops.iterate_kernels_calls": (calls("kernel_ops.iterate_kernels"), "count"),
        "kernel_ops.iterate_kernels_ms": (layer_ms("kernel_ops.iterate_kernels"), "ms"),
        "kernel_ops.iterated_mb_computed": (counter("kernel_ops.iterated_bytes") / 1e6, "MB"),
        "kernel_ops.resolvent_calls": (calls("kernel_ops.resolvent"), "count"),
        "kernel_ops.resolvent_ms": (layer_ms("kernel_ops.resolvent"), "ms"),
        "kernel_ops.resolvent_apply_ms": (layer_ms("kernel_ops.resolvent_apply"), "ms"),
        "kernel_ops.discretize_ms": (layer_ms("kernel_ops.discretize"), "ms"),
        "kernel_ops.find_characteristic_numbers_ms": (layer_ms("kernel_ops.find_characteristic_numbers"), "ms"),
        "kernel_ops.det_evals": (counter("kernel_ops.det_evals"), "count"),
        "linalg.nxn_calls": (sum(calls(n) for n in nxn), "count"),
        "linalg.nxn_ms": (own_ms(*nxn), "ms"),
        "linalg.nxn_gflop_computed": (counter("linalg.nxn_flop") / 1e9, "GFLOP"),
        "linalg.small_calls": (sum(calls(n) for n in small), "count"),
        "linalg.small_ms": (own_ms(*small), "ms"),
        "load_system.assemble_A0_calls": (calls("load_system.assemble_A0"), "count"),
        "load_system.assemble_A0_ms": (layer_ms("load_system.assemble_A0"), "ms"),
        "load_system.classify_calls": (calls("load_system.classify"), "count"),
        "load_system.A_lambda_ms": (layer_ms("load_system.A_lambda"), "ms"),
        "load_system.b_lambda_ms": (layer_ms("load_system.b_lambda"), "ms"),
        "load_system.taylor_A_ms": (layer_ms("load_system.taylor_A"), "ms"),
        "solver.solve_auto_ms": (layer_ms("solver.solve_auto"), "ms"),
        "solver.solve_regular_ms": (layer_ms("solver.solve_regular"), "ms"),
        "solver.solve_irregular_ms": (layer_ms("solver.solve_irregular"), "ms"),
        "solver.solve_nilpotent_ms": (layer_ms("solver.solve_nilpotent"), "ms"),
        "solver.solve_successive_ms": (layer_ms("solver.solve_successive"), "ms"),
        "solver.successive_iterations": (counter("solver.successive_iterations"), "count"),
        "oracle.dense_solve_ms": (layer_ms("oracle.dense_solve"), "ms"),
        "oracle.gamma_weights_ms": (layer_ms("oracle.gamma_weights"), "ms"),
        "problemfile.load_ms": (layer_ms("problemfile.load_problem_file"), "ms"),
        "problemfile.build_ms": (layer_ms("problemfile.build"), "ms"),
        "expr.evaluate_calls": (calls("expr.evaluate"), "count"),
        "expr.evaluate_ms": (layer_ms("expr.evaluate"), "ms"),
    }
    for i, layer in enumerate(tracer.layers):
        m[f"{layer}.self_ms"] = (1000.0 * sum(s.layer_self[i] for s in stats) / n_ops, "ms")
    keys = sorted({k for s in stats for k in s.counters if k.startswith(("solver.route.", "solver.errors."))})
    for key in keys:
        m[key] = (counter(key), "count")
    for route in ("regular", "successive", "nilpotent", "irregular"):
        m.setdefault(f"solver.route.{route}", (0.0, "count"))

    iterate = tracer.name_id("kernel_ops.iterate_kernels")
    total = sum(s.calls[iterate] for s in stats)
    unused = sum(
        s.calls[iterate] for r, s in zip(traced, stats)
        if r.op.command != "analyze" and not any(s.counters[k] for k in _ROUTES_READING_ITERATES)
    )
    m["kernel_ops.iterate_kernels_unused_ratio"] = (unused / total if total else 0.0, "1")
    disagreements = [r.disagreement for r in traced if r.disagreement is not None]
    if disagreements:
        m["oracle.disagreement_max"] = (max(disagreements), "1")
    m["trace.overhead_ratio"] = (sum(r.seconds for r in traced) / plain_seconds, "1")
    return m


def count_mismatches(traced: list[Record]) -> list[str]:
    """Labels of ops whose call counts differ between two traced runs of
    the same op; counts are deterministic, so this list should be empty."""
    first: dict[str, list[int]] = {}
    bad = []
    for r in traced:
        seen = first.setdefault(r.op.label, r.stats.calls)
        if seen != r.stats.calls and r.op.label not in bad:
            bad.append(r.op.label)
    return bad
