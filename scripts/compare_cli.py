"""Compare the CLI output of two source trees, byte for byte.

    python3 scripts/compare_cli.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository. The script runs the same matrix
of `fredload` commands on both, each tree in one worker process that imports
`fredload` from ROOT/src and calls `fredload.cli.main` in-process, and
compares every command's exit code, stdout and stderr. It prints each
mismatch and each internal error, a result on either tree whose stderr has
`error[internal]` or whose call escaped with an exception, then the counts,
and exits 1 on any of them. With both roots set to the same checkout it finds
output that changes from one run to the next, and any command that fails
with a bug, which a comparison of a tree with itself cannot show as a mismatch.

Inputs: the five `docs/examples` files, one file per family of
`perfbench/problems.py` at seed 1, and four copies of `loaded_regular.prob`
with another kernel (KERNELS), which take every branch of cross
approximation but its N / 8 row budget; all are read from this script's
checkout so both trees see the same files, each at N = 16, 64 and 512 nodes.
Commands: analyze; solve on the routes auto, regular, irregular, nilpotent and oracle
at the file's lambda (0.2 when it sets none) and on the successive route at
0.05; oracle-check with and without --threshold 1e-9; sweep on [0.05, 0.5]
in 20 steps, on the auto and the oracle route; find-poles on [-20, 20].
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NODES = (16, 64, 512)
SEED = 1
# Kernels put into loaded_regular.prob, by what cross approximation does with them at N = 512.
KERNELS = {
    # stalls, gives up and takes the dense sample
    "stall_kernel": "exp(-abs(t - s))",
    # grows U and V past their first size and keeps a rank-60 core
    "runge_kernel": "1/(1 + 25*(t - s)^2)",
    # misses the check after a small cross and goes on from the row of the largest miss
    "missed_check_kernel": "0.6541 + 0.1068*t*s + 0.109*cos(3.118*(t - s))",
    # fails on the check set; the dense sample names the failing node (exit 4)
    "singular_kernel": "1/(t - s)",
}

# Runs in each worker: argv lists read one JSON line each from the file argv[2], one JSON
# line [exit, stdout, stderr] printed per list.
WORKER = r"""
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
src = os.path.join(sys.argv[1], "src")
sys.path.insert(0, src)
import fredload.cli
if not os.path.abspath(fredload.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"fredload imported from {fredload.cli.__file__}, not from {src}")
with open(sys.argv[2], encoding="utf-8") as listing:
    argvs = [json.loads(line) for line in listing]
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = fredload.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a crash is a mismatch to report, not the end of the run
            rc = f"exception {type(exc).__name__}: {exc}"
    print(json.dumps([rc, out.getvalue(), err.getvalue()]), flush=True)
"""


def _problems_module():
    """perfbench/problems.py of this checkout, read as a plain module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_problems", os.path.join(HERE, "perfbench", "problems.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def input_files(directory: str) -> list[str]:
    """The example files, one generated file per benchmark family and the KERNELS
    copies of loaded_regular.prob, in `directory`."""
    examples = os.path.join(HERE, "docs", "examples")
    paths = []
    for name in sorted(os.listdir(examples)):
        if name.endswith(".prob"):
            with open(os.path.join(examples, name), encoding="utf-8") as handle:
                paths.append(_write(directory, name, handle.read()))
    problems = _problems_module()
    for family, make in sorted(problems.FAMILIES.items()):
        problem = make(np.random.default_rng(SEED), f"generated_{family}", 3)
        problems.write(problem, directory)
        paths.append(problem.path)
    with open(os.path.join(examples, "loaded_regular.prob"), encoding="utf-8") as handle:
        regular = handle.read()
    for name, kernel in KERNELS.items():
        text, count = re.subn(r"^kernel = .*$", f"kernel = {kernel}", regular, flags=re.MULTILINE)
        if count != 1:
            sys.exit(f"loaded_regular.prob has {count} kernel lines, not 1")
        paths.append(_write(directory, f"{name}.prob", text))
    return paths


def commands(path: str) -> list[list[str]]:
    """Every command of the matrix on one file, at each node count."""
    with open(path, encoding="utf-8") as handle:
        has_lambda = re.search(r"^lambda\s*=", handle.read(), re.MULTILINE) is not None
    lam = [] if has_lambda else ["--lambda", "0.2"]
    span = ["--lambda-min", "0.05", "--lambda-max", "0.5", "--steps", "20"]
    matrix = []
    for nodes in NODES:
        common = [path, "--nodes", str(nodes)]
        matrix.append(["analyze", *common])
        for route in ("auto", "regular", "irregular", "nilpotent", "oracle"):
            matrix.append(["solve", *common, *lam, "--route", route])
        matrix.append(["solve", *common, "--lambda", "0.05", "--route", "successive"])
        matrix.append(["oracle-check", *common, *lam])
        matrix.append(["oracle-check", *common, *lam, "--threshold", "1e-9"])
        matrix.append(["sweep", *common, *span])
        matrix.append(["sweep", *common, *span, "--route", "oracle"])
        matrix.append(["find-poles", *common, "--lambda-min", "-20", "--lambda-max", "20"])
    return matrix


def _start(root: str, listing: str) -> subprocess.Popen:
    """A worker running every command of `listing` on the tree at `root`."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", WORKER, os.path.abspath(root), listing],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=HERE)


def _results(worker: subprocess.Popen, count: int, root: str) -> list[list]:
    results = [json.loads(line) for line in worker.stdout]
    if worker.wait() != 0 or len(results) != count:
        sys.exit(f"the worker for {root} stopped after {len(results)} of {count} commands")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", help="checkout whose output is the reference")
    parser.add_argument("new_root", help="checkout compared against it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-cli-") as directory:
        argvs = [cmd for path in input_files(directory) for cmd in commands(path)]
        listing = os.path.join(directory, "commands.jsonl")
        with open(listing, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(argv_) + "\n" for argv_ in argvs)
        roots = (args.old_root, args.new_root)
        workers = [_start(root, listing) for root in roots]
        old, new = (_results(w, len(argvs), root) for w, root in zip(workers, roots))
        mismatches = internal = 0
        for argv_, before, after in zip(argvs, old, new):
            shown = " ".join(a.replace(directory + os.sep, "") for a in argv_)
            differ = [name for name, x, y in zip(("exit", "stdout", "stderr"), before, after)
                      if x != y]
            if differ:
                mismatches += 1
                print(f"MISMATCH ({', '.join(differ)}): fredload {shown}")
            for side, (code, _, err) in zip(("old", "new"), (before, after)):
                if isinstance(code, str) or "error[internal]" in err:  # a bug on either tree
                    internal += 1
                    print(f"INTERNAL ERROR ({side}): fredload {shown}")
    print(f"{len(argvs)} commands compared, {mismatches} mismatches, {internal} internal errors")
    return 1 if mismatches or internal else 0


if __name__ == "__main__":
    sys.exit(main())
