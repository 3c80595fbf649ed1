"""Self-check of the traced run: a tiny workload run twice in-process.

Run from the repository root with `python -m pytest perfbench`. No timing
is asserted: only that per-op counts repeat exactly, that every output
check passes, and that every layer recorded at least one span.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fredload.cli  # noqa: E402
import problems as gen  # noqa: E402
import workloads as wl  # noqa: E402
from check import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("cli", "problemfile", "expr", "quadrature", "functionals", "kernel_ops",
          "load_system", "solver", "oracle", "linalg")


def _tiny_rounds(rng):
    example = gen.examples(rng, solves=3)["loaded_regular"]
    return [[example, gen.identity(rng, "tiny-identity", 3)]]


TINY = wl.Workload("tiny", 16, _tiny_rounds, wl._scan_ops, successive=True)


def _traced_run(workdir):
    workdir.mkdir()
    rounds = wl.set_up(TINY, seed=3, workdir=str(workdir))
    tracer = Tracer()
    tracer.install()
    try:
        plain, traced = wl.measure(rounds, 0.0, Checker(), tracer)
    finally:
        tracer.uninstall()
    counts = [
        (r.op.label,
         {tracer.names[i]: c for i, c in enumerate(r.stats.calls) if c},
         dict(r.stats.counters))
        for r in traced
    ]
    return plain + traced, counts


def test_traced_run_repeats_and_covers_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    original_main = fredload.cli.main
    first_records, first = _traced_run(tmp_path / "first")
    second_records, second = _traced_run(tmp_path / "second")

    assert fredload.cli.main is original_main
    assert first == second
    failures = [(r.op.label, r.failure) for r in first_records + second_records if r.failure]
    assert failures == []
    recorded = {name.split(".")[0] for _, calls, _ in first for name in calls}
    assert set(LAYERS) <= recorded
