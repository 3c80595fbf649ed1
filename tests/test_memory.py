"""A solve allocates one N x N array, the kernel sample.

Sampling K, its norm and max|K|, and a load's Cauchy matrix work in row
blocks of at most GRID_BLOCK elements, so the traced peak of a whole CLI
solve exceeds the sample's 8 N^2 bytes by a few blocks at most, at any N.
"""

import contextlib
import io
import pathlib
import tracemalloc

import pytest

from fredload.cli import main
from fredload.tolerances import GRID_BLOCK

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def solve(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("nodes", [512, 1024])
def test_solve_allocates_one_grid_sized_array(nodes):
    # The warm-up call fills the per-N caches (Gauss-Legendre nodes, barycentric
    # weights, the probe block), which later solves share.
    solved = []
    for path in sorted(EXAMPLES.glob("*.prob")):
        argv = ["solve", str(path), "--nodes", str(nodes)]
        if solve(argv) != 0:
            continue
        tracemalloc.start()
        try:
            assert solve(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * nodes**2 <= 4 * 8 * GRID_BLOCK, (path.stem, peak)
        solved.append(path.stem)
    assert solved == ["identity_pole", "kinked_load", "loaded_regular", "nilpotent"]
