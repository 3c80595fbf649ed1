"""Span tracer installed from outside the package.

`Tracer.install()` wraps every public module-level function of every
`fredload` module, `ParsedProblem.build`, and `numpy.linalg.{solve,
slogdet, svd, det, inv, cond, eigvals}`. It also rebinds every name a
module imported from a sibling (`solver.resolvent_apply`, `cli.discretize`,
...) so that calls made inside the package are caught. `uninstall()`
restores every original.

While an op is open (`begin_op` .. `end_op`) each wrapped call records a
span: name, start, end, parent span and op id, kept in flat arrays and
written out by `dump`. Closed spans also feed per-op aggregates:

  calls   number of calls of the name;
  own     self time: duration minus the time covered by child spans;
  layer   time in the name's own layer while it is on the stack: duration
          minus the time of descendants in other layers (a same-layer
          callee such as `apply` under `check_condition_one` stays in);
  layer self time per layer, and the counters described in README.md.

The layer of `fredload.<module>.<name>` is `<module>`; numpy.linalg calls
form the pseudo-layer `linalg`, split into `linalg.nxn` (an operand as
large as the master grid) and `linalg.small` (the n x n load system).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

LINALG = ("solve", "slogdet", "svd", "det", "inv", "cond", "eigvals")
# Determinant evaluations of the characteristic-number scan.
DET_SCANS = ("kernel_ops.find_characteristic_numbers", "kernel_ops.det_magnitude")


def _flops(fname: str, args) -> float:
    """Floating-point operations of one dense call, from operand shapes
    (standard LAPACK counts; a computed figure, not a measurement)."""
    n = float(np.shape(args[0])[-1])
    if fname == "solve":
        rhs = np.shape(args[1])
        k = 1.0 if len(rhs) == 1 else float(rhs[-1])
        return 2.0 / 3.0 * n**3 + 2.0 * n * n * k
    if fname in ("slogdet", "det"):
        return 2.0 / 3.0 * n**3
    if fname == "inv":
        return 2.0 * n**3
    if fname in ("svd", "cond"):
        return 8.0 / 3.0 * n**3
    return 10.0 * n**3  # eigvals: Hessenberg reduction plus QR iteration


class OpStats:
    """Aggregates of one traced op."""

    def __init__(self, op_id: int, label: str, n_names: int, n_layers: int):
        self.op_id = op_id
        self.label = label
        self.calls = [0] * n_names
        self.own = [0.0] * n_names
        self.layer = [0.0] * n_names
        self.layer_self = [0.0] * n_layers
        self.counters: Counter = Counter()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._layer_of: list[int] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.stack: list[list] = []
        self.current: OpStats | None = None
        self.nodes = 0
        self.ops: list[OpStats] = []

    # ----------------------------------------------------------- names

    def _id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            if layer not in self.layers:
                self.layers.append(layer)
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(self.layers.index(layer))
        return nid

    def name_id(self, name: str) -> int:
        return self._ids[name]

    def layer_id(self, layer: str) -> int:
        return self.layers.index(layer)

    # ----------------------------------------------------------- spans

    def _open(self, nid: int) -> list:
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.current.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [nid, idx, 0.0, 0.0]  # name, span index, child time, foreign time
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self.stack
        stack.pop()
        nid, idx, child, foreign = frame
        self.span_start[idx] = start
        self.span_end[idx] = end
        dur = end - start
        stats = self.current
        layer = self._layer_of[nid]
        stats.calls[nid] += 1
        stats.own[nid] += dur - child
        stats.layer[nid] += dur - foreign
        stats.layer_self[layer] += dur - child
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent[3] += dur if self._layer_of[parent[0]] != layer else foreign

    def _inside(self, layer: int) -> bool:
        return any(self._layer_of[f[0]] == layer for f in self.stack)

    def _wrap(self, name: str, layer: str, fn, hook=None):
        nid = self._id(name, layer)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current is None:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, start, clock())
                if hook is not None:
                    hook(tracer, None, exc)
                raise
            tracer._close(frame, start, clock())
            if hook is not None:
                hook(tracer, result, None)
            return result

        return wrapper

    def _wrap_linalg(self, fname: str, fn):
        big = self._id(f"linalg.nxn.{fname}", "linalg")
        small = self._id(f"linalg.small.{fname}", "linalg")
        scans = [self._id(n, n.split(".")[0]) for n in DET_SCANS]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current is None:
                return fn(*args, **kwargs)
            nxn = np.shape(args[0])[-1] >= tracer.nodes
            counters = tracer.current.counters
            if nxn:
                counters["linalg.nxn_flop"] += _flops(fname, args)
            if fname == "slogdet" and any(f[0] in scans for f in tracer.stack):
                counters["kernel_ops.det_evals"] += 1
            frame = tracer._open(big if nxn else small)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, clock())

        return wrapper

    # ----------------------------------------------------------- hooks

    @staticmethod
    def _iterated_hook(tracer, result, exc):
        if result is not None:
            n = result.rule.n
            tracer.current.counters["kernel_ops.iterated_bytes"] += result.depth * n * n * 8

    @staticmethod
    def _solver_hook(tracer, result, exc):
        # Only the outermost solver call decides the route of a solve.
        if tracer._inside(tracer.layer_id("solver")):
            return
        counters = tracer.current.counters
        if exc is not None:
            counters[f"solver.errors.{type(exc).__name__}"] += 1
        elif hasattr(result, "route"):
            counters[f"solver.route.{result.route}"] += 1
            if result.history is not None:
                counters["solver.successive_iterations"] += len(result.history)

    # ----------------------------------------------------------- install

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import fredload
        from fredload.problemfile import ParsedProblem

        modules = [
            importlib.import_module(f"fredload.{info.name}")
            for info in pkgutil.iter_modules(fredload.__path__)
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                hook = None
                if layer == "solver":
                    hook = self._solver_hook
                elif obj.__name__ == "iterate_kernels":
                    hook = self._iterated_hook
                wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj, hook)
        for mod in modules + [fredload]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        self._set(ParsedProblem, "build",
                  self._wrap("problemfile.build", "problemfile", ParsedProblem.build))
        for fname in LINALG:
            self._set(np.linalg, fname, self._wrap_linalg(fname, getattr(np.linalg, fname)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- ops

    def begin_op(self, label: str, nodes: int) -> None:
        self.nodes = nodes
        self.current = OpStats(len(self.ops), label, len(self.names), len(self.layers))

    def end_op(self) -> OpStats:
        stats, self.current = self.current, None
        self.stack.clear()
        self.ops.append(stats)
        return stats

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def dump(self, path: str) -> None:
        """Write every recorded span and op label to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            op_labels=np.array([op.label for op in self.ops]),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
