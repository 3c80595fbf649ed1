"""Output checks for every benchmark op.

An op passes when its exit code is the expected one (2 when no continuous
solution exists), its CSV header and row count are right (`steps` rows for
`sweep`, one per node for `solve`), and its values agree with a reference
within TOL. The reference is the family's closed form where one exists,
otherwise `fredload.oracle.dense_solve` at the same node count. References
are computed outside the timed region and cached per (problem, lambda).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from fredload import oracle
from fredload.kernel_ops import discretize
from fredload.problemfile import load_problem_file
from fredload.quadrature import GridFunction, interpolate

# The CLI's own oracle-check default threshold; no check here is looser.
TOL = 1e-6


class Checker:
    def __init__(self):
        self._grids: dict = {}
        self._refs: dict = {}
        self._roots: dict = {}

    # ------------------------------------------------------- references

    def grid(self, problem, nodes: int):
        key = (problem.path, nodes)
        if key not in self._grids:
            spec = load_problem_file(problem.path).build(nodes)
            self._grids[key] = (spec, discretize(spec.kernel, spec.master_rule(nodes)))
        return self._grids[key]

    def reference(self, problem, nodes: int, lam: float) -> tuple[GridFunction, np.ndarray]:
        """x on the master grid and the load vector at lambda."""
        key = (problem.path, nodes, lam)
        if key not in self._refs:
            spec, kernel = self.grid(problem, nodes)
            if problem.exact is not None:
                x = GridFunction(kernel.rule, problem.exact(kernel.rule.nodes, lam))
                gamma = problem.exact_gamma(lam)
            else:
                solution = oracle.dense_solve(spec, kernel, lam)
                x, gamma = solution.x, solution.x_gamma
            self._refs[key] = (x, np.asarray(gamma, dtype=float))
        return self._refs[key]

    def probe_values(self, problem, nodes: int, lam: float, probes) -> np.ndarray:
        if problem.exact is not None:
            return problem.exact(np.asarray(probes, dtype=float), lam)
        x, _ = self.reference(problem, nodes, lam)
        return np.array([interpolate(x, p) for p in probes])

    def characteristic_numbers(self, problem, nodes: int, lo: float, hi: float) -> list[float]:
        """Real 1/mu in [lo, hi] over the eigenvalues mu of K W: the zeros
        of det(I - lambda K W) (Bornemann, Math. Comp. 79, 2010)."""
        key = (problem.path, nodes, lo, hi)
        if key not in self._roots:
            _, kernel = self.grid(problem, nodes)
            mu = np.linalg.eigvals(kernel.values * kernel.rule.weights)
            scale = float(np.max(np.abs(mu))) if mu.size else 0.0
            real = mu[(np.abs(mu.imag) <= 1e-9 * np.abs(mu)) & (np.abs(mu) > 1e-12 * scale)]
            roots = sorted(1.0 / float(m.real) for m in real)
            self._roots[key] = [r for r in roots if lo <= r <= hi]
        return self._roots[key]

    # ------------------------------------------------------------ checks

    def check(self, op, rc, out: str, err: str) -> Optional[str]:
        """None when the op's output is right, else the reason it is not."""
        expected = op.expected_exit
        if rc != expected:
            tail = err.strip().splitlines()[-1:] or [""]
            return f"exit {rc}, expected {expected}: {tail[0][:200]}"
        if expected != 0:
            return None if "error[no-solution]" in err else "missing error[no-solution]"
        return getattr(self, "_" + op.command.replace("-", "_"))(op, out, err)

    def _analyze(self, op, out: str, err: str) -> Optional[str]:
        problem = op.problem
        fields = {}
        for line in out.splitlines():
            key, sep, value = line.partition(": ")
            if sep and not line.startswith(" "):
                fields.setdefault(key, value)
        want = {
            "nodes": str(op.nodes),
            "classification": problem.classification,
            "nilpotency index": (
                str(problem.nilpotency) if problem.nilpotency is not None
                else "none found within depth 30"
            ),
        }
        if problem.classification == "irregular-identity":
            want["pole order"] = str(problem.pole_order) if problem.pole_order else None
        for key, value in want.items():
            got = fields.get(key)
            if value is None:
                if got is None or not got.startswith("none"):
                    return f"analyze {key}: got {got!r}, expected none"
            elif got != value:
                return f"analyze {key}: got {got!r}, expected {value!r}"
        det = fields.get("det(E - A0)")
        if det is None or not math.isfinite(float(det)):
            return f"analyze det(E - A0): got {det!r}"
        return None

    def _solve(self, op, out: str, err: str) -> Optional[str]:
        route = field(err, "route")
        if route != op.expected_route:
            return f"route {route!r}, expected {op.expected_route!r}"
        lines = out.splitlines()
        if not lines or lines[0] != "t,x":
            return f"solve header {lines[:1]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != op.nodes or any(len(r) != 2 for r in rows):
            return f"solve rows: {len(rows)}, expected {op.nodes}"
        t = np.array([float(r[0]) for r in rows])
        x = np.array([float(r[1]) for r in rows])
        ref, _ = self.reference(op.problem, op.nodes, op.lam)
        if np.max(np.abs(t - ref.rule.nodes)) > 1e-14:
            return "solve t column differs from the master nodes"
        error = float(np.max(np.abs(x - ref.values)))
        if not error <= TOL:
            return f"solve max |x - reference| = {error:.3e} > {TOL}"
        return None

    def _oracle_check(self, op, out: str, err: str) -> Optional[str]:
        route = field(out, "route")
        if route != op.expected_route:
            return f"route {route!r}, expected {op.expected_route!r}"
        value = field(out, "max disagreement")
        if value is None:
            return "oracle-check printed no disagreement"
        if not float(value) <= TOL:
            return f"oracle-check disagreement {value} > {TOL}"
        return None

    def _sweep(self, op, out: str, err: str) -> Optional[str]:
        lines = out.splitlines()
        header = "lambda,x(0),x(0.5),x(1),x_gamma_norm,residual,status"
        if not lines or lines[0] != header:
            return f"sweep header {lines[:1]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != op.steps or any(len(r) != 7 for r in rows):
            return f"sweep rows: {len(rows)}, expected {op.steps}"
        problem = op.problem
        for lam, row in zip(np.linspace(*op.lam_range, op.steps), rows):
            lam = float(lam)
            if float(row[0]) != lam:
                return f"sweep lambda {row[0]} != {lam!r}"
            if not problem.solvable:
                if row[6] != "unsolvable:no-solution" or any(row[1:6]):
                    return f"sweep row at {lam!r}: {row!r}"
                continue
            if row[6] != "ok":
                return f"sweep status at lambda={lam!r}: {row[6]}"
            values = np.array([float(v) for v in row[1:6]])
            _, gamma = self.reference(problem, op.nodes, lam)
            want = np.append(
                self.probe_values(problem, op.nodes, lam, (0.0, 0.5, 1.0)),
                np.max(np.abs(gamma)),
            )
            error = float(np.max(np.abs(values[:4] - want)))
            if not error <= TOL:
                return f"sweep at lambda={lam!r}: max error {error:.3e} > {TOL}"
            if not abs(values[4]) <= TOL:
                return f"sweep residual {values[4]!r} at lambda={lam!r}"
        return None

    def _find_poles(self, op, out: str, err: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != "lambda,abs_det_left,abs_det_right":
            return f"find-poles header {lines[:1]!r}"
        found = [float(line.split(",")[0]) for line in lines[1:]]
        want = self.characteristic_numbers(op.problem, op.nodes, *op.lam_range)
        if len(found) != len(want):
            return f"find-poles found {found}, expected {want}"
        for got, ref in zip(found, want):
            if not abs(got - ref) <= TOL * max(1.0, abs(ref)):
                return f"find-poles root {got!r}, expected {ref!r}"
        return None


def field(text: str, key: str) -> Optional[str]:
    """The value of the first `key: value` line of a report, if any."""
    prefix = key + ": "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None
