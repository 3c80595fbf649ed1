"""fredload benchmark: a closed-loop client driving `fredload.cli.main`.

    python3 perfbench/run.py --workload scan-n64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One run is one process and one workload:
it pins BLAS to one thread, imports the package from `src/`, generates the
workload's problem files from the seed, confirms and warms them up, then
runs whole rounds of ops in-process for `--seconds`, checking every op's
output. `--trace 1` runs each op untraced and then
traced and reports the per-layer metrics instead. `--workload all` runs
every workload, each in its own process, and prints every metric.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `metrics` holds exactly the
`end_to_end` (trace 0) or `per_layer` (trace 1) metrics of BENCHMARK.json.
`setup_s` is the median wall time of a fresh interpreter importing the CLI
plus the median of SETUP_REPEATS generate/confirm/warm-up passes.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Single-threaded numerics: the machine is small and shared, and BLAS
# threads move N = 512 timings by about 30% either way.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("scan-n64", "solve-n512", "pole-n512")
ALL_METRICS = "all metrics "  # prefix of the report line that lists every metric


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the program even in
    a checkout without git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "fredload")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def _environment(args, workload) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "nodes": workload.nodes,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    begin = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import fredload.cli",
         os.path.join(ROOT, "src")],
        check=True,
    )
    return time.perf_counter() - begin


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_op_counts(traced, tracer) -> None:
    """Call counts of the first traced run of each distinct op."""
    interp = tracer.name_id("quadrature.interp_weights")
    iterate = tracer.name_id("kernel_ops.iterate_kernels")
    nxn = [tracer.name_id(n) for n in tracer.names if n.startswith("linalg.nxn.")]
    print("per-op counts (first traced run of each op):")
    shown = set()
    for r in traced:
        if r.op.label not in shown:
            shown.add(r.op.label)
            calls = r.stats.calls
            print(f"  {r.op.label}: {r.seconds * 1000:.1f} ms, interp_calls={calls[interp]} "
                  f"linalg.nxn_calls={sum(calls[i] for i in nxn)} iterate_kernels_calls={calls[iterate]}")


def run_one(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads as wl
        from check import Checker
        from tracer import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    spec = _spec()
    workload = wl.WORKLOADS[args.workload]
    os.chdir(ROOT)

    workdirs = []
    try:
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(_import_seconds())
            workdirs.append(tempfile.mkdtemp(prefix=".work-", dir=HERE))
            begin = time.perf_counter()
            rounds = wl.set_up(workload, args.seed, workdirs[-1])
            setups.append(time.perf_counter() - begin)
        checker = Checker()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            plain, traced = wl.measure(rounds, args.seconds, checker, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except wl.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in workdirs:
            shutil.rmtree(path, ignore_errors=True)

    records = plain + traced
    failures = [r for r in records if r.failure is not None]
    metrics = wl.end_to_end(plain)
    metrics["setup_s"] = (statistics.median(imports) + statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"perfbench {workload.name}: {why}")
    print("env " + json.dumps(_environment(args, workload), sort_keys=True))
    print(f"setup: median of imports [{', '.join(f'{s:.4f}' for s in imports)}] s "
          f"+ median of set-ups [{', '.join(f'{s:.4f}' for s in setups)}] s")
    rounds_run = max(r.round for r in plain) + 1
    print(f"ops: {len(plain)} timed in {rounds_run} rounds over {sum(r.seconds for r in plain):.3f} s, "
          f"{len(failures)} failed of {len(records)} attempted")
    print("ops per second of each round: "
          + ", ".join(f"{rate:.4g}" for rate in wl.round_rates(plain)))
    solves = [1000.0 * r.seconds for r in plain if r.op.command == "solve"]
    tail = wl.tail_percentile(solves)
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = f"   (p{tail[0]:g} of {len(solves)} solve samples)" if name == "solve_ms_tail" else ""
        print(f"  {name} = {_fmt(value)} {unit}{note}")
    if tail is None:
        print(f"  solve_ms_tail: n/a, {len(solves)} solve samples leave fewer than 10 beyond p50")
    for r in failures:
        print(f"FAILED {r.op.label}{' [traced]' if r.stats else ''}: {r.failure}")

    wanted = spec["end_to_end"]
    if tracer is not None:
        layer_metrics = wl.per_layer(traced, tracer, sum(r.seconds for r in plain))
        print(f"traced: {len(traced)} ops, {tracer.span_count} spans")
        for name in sorted(layer_metrics):
            value, unit = layer_metrics[name]
            print(f"  {name} = {_fmt(value)} {unit}")
        _print_op_counts(traced, tracer)
        print(f"count mismatches between repeats of one op: {wl.count_mismatches(traced) or 'none'}")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}.npz")
        tracer.dump(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = layer_metrics
        wanted = spec["per_layer"]

    print(ALL_METRICS + json.dumps({name: list(entry) for name, entry in sorted(metrics.items())}))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, one process each, then one table of every metric."""
    status = 0
    reports = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        for line in proc.stdout.splitlines():
            if line.startswith(ALL_METRICS):
                reports[name] = json.loads(line[len(ALL_METRICS):])
    print("summary, every metric of every workload:")
    units = {metric: unit for report in reports.values() for metric, (_, unit) in report.items()}
    for metric in sorted(units):
        cells = "  ".join(
            f"{name}={_fmt(report[metric][0]) if metric in report else '-'}"
            for name, report in reports.items()
        )
        print(f"  {metric} [{units[metric]}]: {cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
