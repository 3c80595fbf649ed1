"""Kernel discretization, iterated kernels, resolvent, and the
characteristic numbers from the eigenvalues of K W."""

import contextlib
import io
import pathlib
import warnings

import numpy as np
import pytest

import fredload as fl
from fredload import cli, kernel_ops
from fredload.errors import CharacteristicNumberError, DomainEvalError
from fredload.expr import evaluate
from fredload.kernel_ops import Core
from fredload.problemfile import load_problem_file
from fredload.tolerances import CLUSTER_RADIUS, CORE_TOL, EIGEN_FLOOR, GRID_BLOCK, REAL_RATIO
from util import poly_integral, random_polynomial_kernel

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs" / "examples"


def _kernel(text, nodes=64, a=0.0, b=1.0):
    rule = fl.gauss_legendre(nodes, a, b)
    return fl.discretize(fl.parse(text, {"t", "s"}), rule)


def test_discretize_zero():
    kernel = _kernel("0", nodes=8)
    assert np.array_equal(kernel.values, np.zeros((8, 8)))


def test_discretize_rank_one_products():
    kernel = _kernel("t*s", nodes=4)
    t = kernel.rule.nodes
    assert kernel.values == pytest.approx(np.outer(t, t), rel=1e-15)


def test_discretize_exponential_entries():
    kernel = _kernel("exp(t - s)", nodes=5)
    t = kernel.rule.nodes
    expected = np.exp(t[:, None] - t[None, :])
    assert kernel.values == pytest.approx(expected, rel=1e-15)


# Every operator and function, both constants, unary minus, and terms in t
# alone, in s alone and in neither.
BLOCK_KERNELS = [
    "t*s + 0.5*(1-t)*(1-s)",
    "exp(t*s) - sin(t - s)/(2 + cos(pi*s))",
    "sqrt(1 + t^2*s) * log(e + abs(t - s))",
    "-(t - 1/2) + 3^s",
    "t^3 - 2",
    "cos(s)",
    "2.5",
]


def _whole_grid(expr, rule):
    return evaluate(expr, {"t": rule.nodes[:, None], "s": rule.nodes[None, :]})


@pytest.mark.parametrize("n", [191, 512, 1000])
@pytest.mark.parametrize("text", BLOCK_KERNELS)
def test_blocked_sample_equals_the_whole_grid_evaluation(n, text):
    # Rows per block: 191 rows fit one block, 512 rows come
    # in four blocks of 128, and 1000 rows in 15 blocks of 65 and a ragged 25.
    assert GRID_BLOCK // n == {191: 343, 512: 128, 1000: 65}[n]
    rule = fl.gauss_legendre(n, 0.0, 1.0)
    expr = fl.parse(text, {"t", "s"})
    kernel = fl.discretize(expr, rule)
    assert kernel.values.shape == (n, n)
    assert np.array_equal(kernel.values, _whole_grid(expr, rule))
    expected_max = float(np.max(np.abs(kernel.values)))
    expected_norm = float(np.max(np.abs(kernel.values) @ rule.weights))
    if kernel.core.Q is None:  # the pass over the sample itself
        assert kernel.max_abs == expected_max
        assert kernel.norm == pytest.approx(expected_norm, rel=1e-14, abs=0.0)
    else:  # the pass over the cross factors Q QtK: off by at most their error, and roundoff
        error = np.abs(kernel.values - kernel.core.Q @ kernel.core.QtK)
        slack = 8 * CORE_TOL * expected_max
        assert abs(kernel.max_abs - expected_max) <= float(np.max(error)) + slack
        assert abs(kernel.norm - expected_norm) <= float(np.max(error @ rule.weights)) + slack


def test_blocked_sample_names_the_node_the_whole_grid_names():
    # sqrt(0.95 - t) fails only in the last block of rows and log(t - 0.05) only
    # in the first: the first block alone meets the log, the whole grid the sqrt.
    rule = fl.gauss_legendre(512, 0.0, 1.0)
    expr = fl.parse("sqrt(0.95 - t) + log(t - 0.05) + s", {"t", "s"})
    with pytest.raises(DomainEvalError) as whole:
        _whole_grid(expr, rule)
    first_rows = rule.nodes[: GRID_BLOCK // rule.n, None]
    with pytest.raises(DomainEvalError) as first_block:
        evaluate(expr, {"t": first_rows, "s": rule.nodes[None, :]})
    assert first_block.value.node_text != whole.value.node_text
    with pytest.raises(DomainEvalError) as blocked:
        fl.discretize(expr, rule)
    assert blocked.value.node_text == whole.value.node_text == "sqrt((0.95 - t))"
    assert str(blocked.value) == str(whole.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_abs_is_the_finiteness_check(bad):
    # A sample is finite (expr.grid_blocks refuses it otherwise), but Q QtK may
    # overflow; a trivial core on a given array stands in for either.
    rule = fl.gauss_legendre(4, 0.0, 1.0)
    core = Core(None, np.full((4, 4), -3.0), rule.weights)
    assert fl.DiscreteKernel(rule, None, core).max_abs == 3.0
    values = np.full((4, 4), -3.0)
    values[2, 1] = bad
    with pytest.raises(ValueError, match="kernel values must be finite"):
        fl.DiscreteKernel(rule, None, Core(None, values, rule.weights))


def test_iterate_centered_kernel_vanishes_at_depth_two():
    # K(t,s) = t - 1/2 composes to (t - 1/2) * integral (z - 1/2) dz = 0.
    kernel = _kernel("t - 1/2")
    iterated = fl.iterate_kernels(kernel, 3)
    assert np.array_equal(iterated.kernel(1), kernel.values)
    assert np.max(np.abs(iterated.kernel(2))) <= 1e-12
    assert np.max(np.abs(iterated.kernel(3))) <= 1e-12


def test_iterate_constant_kernel_is_fixed():
    kernel = _kernel("1")
    iterated = fl.iterate_kernels(kernel, 4)
    for m in range(1, 5):
        assert iterated.kernel(m) == pytest.approx(np.ones((64, 64)), rel=1e-12)


def test_iterate_zero_kernel():
    kernel = _kernel("0", nodes=8)
    iterated = fl.iterate_kernels(kernel, 3)
    for m in range(1, 4):
        assert np.array_equal(iterated.kernel(m), np.zeros((8, 8)))


def test_iterate_needs_a_depth_of_one():
    kernel = _kernel("t*s", nodes=8)
    assert np.array_equal(fl.iterate_kernels(kernel, 1).kernel(1), kernel.values)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        fl.iterate_kernels(kernel, 0)


def test_nilpotency_index_centered():
    assert fl.nilpotency_index(_kernel("t - 1/2"), 6) == 1


def test_nilpotency_index_absent_for_constant():
    assert fl.nilpotency_index(_kernel("1"), 6) is None


def test_nilpotency_index_null_kernel():
    assert fl.nilpotency_index(_kernel("0", nodes=8), 3) == 0


def _dense_nilpotency_index(kernel, depth, tol=1e-10):
    # The criterion on max|K_m| of the dense iterated kernels, as a reference.
    mags = [float(np.max(np.abs(k))) for k in fl.iterate_kernels(kernel, depth).kernels]
    threshold = tol * (1.0 + mags[0])
    if mags[0] <= threshold:
        return 0
    return next(
        (
            p for p in range(1, depth)
            if mags[p - 1] > threshold >= max(mags[p:]) and mags[p] <= 1e-6 * mags[p - 1]
        ),
        None,
    )


@pytest.mark.parametrize(
    "text, index",
    [
        ("t - 1/2", 1),
        ("0", 0),
        ("1", None),
        ("t*s", None),
        # c (t - t0)(s - m) is nilpotent when integral (s - m)(s - t0) ds = 0.
        ("3*t*(s - 2/3)", 1),
        ("0.5*(t - 1)*(s - 1/3)", 1),
        ("3*(t - 1/2)*(s - 1/4)", None),
    ],
)
def test_nilpotency_index_from_probe_matches_iterated_kernels(text, index):
    kernel = _kernel(text)
    assert _dense_nilpotency_index(kernel, 30) == index
    assert fl.nilpotency_index(kernel, 30) == index


def test_nilpotency_index_of_examples_matches_iterated_kernels():
    expected = {"identity_pole": None, "loaded_regular": None, "nilpotent": 1, "no_solution": None}
    for name, index in expected.items():
        kernel = _example_kernel(f"{name}.prob")
        assert _dense_nilpotency_index(kernel, 30) == index
        assert fl.nilpotency_index(kernel, 30) == index


def test_scaled_powers_stay_bounded():
    # ||K W / g|| = 1 in the max norm, so the terms never grow, while the
    # unscaled K_m W y = g^m times them overflows for K = 1e12 from m = 26 on.
    kernel = _kernel("1e12*(1 + t*s)")
    g = fl.series_scale(kernel)
    y = np.ones((64, 1))
    terms = list(fl.kernel_ops.scaled_powers(kernel, y, 30))
    assert len(terms) == 30
    mags = [float(np.max(np.abs(q))) for q in terms]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip([1.0] + mags, mags))
    first = kernel.values @ (kernel.rule.weights[:, None] * y) / g
    assert terms[0] == pytest.approx(first, rel=1e-14)
    assert fl.series_scale(_kernel("0", nodes=8)) == 1.0


def test_operator_norm_cases():
    assert _kernel("1").norm == pytest.approx(1.0, rel=1e-12)
    assert _kernel("0", nodes=8).norm == 0.0
    kernel = _kernel("t")
    assert kernel.norm == pytest.approx(float(kernel.rule.nodes[-1]), rel=1e-12)


def test_resolvent_at_zero():
    kernel = _kernel("exp(t-s)", nodes=16)
    assert np.array_equal(fl.resolvent(kernel, 0.0), kernel.values)


def test_resolvent_rank_one_geometric():
    kernel = _kernel("1")
    gamma = fl.resolvent(kernel, 0.5)
    assert gamma == pytest.approx(np.full((64, 64), 2.0), rel=1e-10)


def test_resolvent_at_characteristic_number():
    kernel = _kernel("1")
    with pytest.raises(CharacteristicNumberError) as err:
        fl.resolvent(kernel, 1.0)
    assert 2.0 * err.value.inverse_norm > fl.kernel_ops.COND_LIMIT


def test_resolvent_apply_identity_at_zero():
    kernel = _kernel("exp(t-s)", nodes=16)
    g = fl.GridFunction(kernel.rule, np.sin(kernel.rule.nodes))
    y = fl.resolvent_apply(kernel, 0.0, g)
    assert y.values == pytest.approx(g.values, rel=1e-14)


def test_resolvent_apply_constant_case():
    kernel = _kernel("1")
    g = fl.GridFunction(kernel.rule, np.ones(64))
    y = fl.resolvent_apply(kernel, 0.5, g)
    assert y.values == pytest.approx(np.full(64, 2.0), rel=1e-12)


def test_resolvent_apply_zero_input():
    kernel = _kernel("1")
    g = fl.GridFunction(kernel.rule, np.zeros(64))
    y = fl.resolvent_apply(kernel, 0.5, g)
    assert np.array_equal(y.values, np.zeros(64))


def test_characteristic_numbers_constant_kernel():
    roots = fl.find_characteristic_numbers(_kernel("1"), -2.0, 2.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-6)


def test_characteristic_numbers_zero_kernel():
    assert fl.find_characteristic_numbers(_kernel("0", nodes=8), -2.0, 2.0) == []


def test_characteristic_numbers_rank_one_ts():
    roots = fl.find_characteristic_numbers(_kernel("t*s"), 0.0, 5.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(3.0, abs=1e-4)


def test_rank_one_determinant_zero_matches_moment():
    # K = (1+t)*s has char number 1 / integral_0^1 (1+s)s ds = 1/(5/6).
    expected = 1.0 / poly_integral([0.0, 1.0, 1.0], 0.0, 1.0)
    roots = fl.find_characteristic_numbers(_kernel("(1+t)*s"), 0.0, 5.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(expected, abs=1e-6)


def test_det_magnitude_constant_kernel():
    kernel = _kernel("1")
    assert fl.kernel_ops.det_magnitude(kernel, 0.3) == pytest.approx(0.7, rel=1e-10)


def test_resolvent_identity_and_neumann_on_random_kernels():
    rng = np.random.default_rng(11)
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    eye = np.eye(64)
    for _ in range(20):
        kernel = fl.discretize(
            fl.parse(random_polynomial_kernel(rng), {"t", "s"}), rule
        )
        norm = kernel.norm
        if norm == 0.0:
            continue
        lam = float(rng.uniform(-0.5, 0.5)) / norm
        gamma = fl.resolvent(kernel, lam)
        kw = kernel.values * rule.weights
        gw = gamma * rule.weights
        identity_defect = np.max(np.abs((eye - lam * kw) @ (eye + lam * gw) - eye))
        assert identity_defect <= 1e-8
        iterated = fl.iterate_kernels(kernel, 30)
        series = sum(lam ** (m - 1) * iterated.kernel(m) for m in range(1, 31))
        assert np.max(np.abs(series - gamma)) <= 1e-8


def test_semigroup_property():
    for text in ["exp(t-s)", "t*s + 0.3*(1+t)*(1-s)"]:
        kernel = _kernel(text, nodes=32)
        iterated = fl.iterate_kernels(kernel, 6)
        w = kernel.rule.weights
        for m in range(1, 6):
            for n in range(1, 7 - m):
                composed = iterated.kernel(m) @ (w[:, None] * iterated.kernel(n))
                assert np.max(np.abs(composed - iterated.kernel(m + n))) <= 1e-10


def test_scan_argument_validation():
    kernel = _kernel("1", nodes=8)
    with pytest.raises(ValueError):
        fl.find_characteristic_numbers(kernel, 2.0, 1.0)


def _example_kernel(name, nodes=64):
    problem = load_problem_file(str(EXAMPLES / name)).build(nodes)
    return fl.discretize(problem.kernel, problem.master_rule(nodes))


def test_characteristic_numbers_double_root_without_sign_change():
    # cos(t - s) = cos t cos s + sin t sin s on [0, 2 pi]: K W has the double
    # eigenvalue pi, so det(I - lambda K W) = (1 - pi lambda)^2 touches zero
    # at 1/pi without changing sign.
    kernel = _kernel("cos(t - s)", b=2.0 * np.pi)
    roots = fl.find_characteristic_numbers(kernel, -1.0, 1.0)
    assert len(roots) == 2
    assert np.max(np.abs(np.array(roots) - 1.0 / np.pi)) <= 1e-12


def test_characteristic_number_of_loaded_regular_example():
    # K = t s + (1 - t)(1 - s)/2 has the nonzero eigenvalues
    # (1/2 +- 1/(2 sqrt 3))/2; the larger gives the root 6 - 2 sqrt 3.
    roots = fl.find_characteristic_numbers(_example_kernel("loaded_regular.prob"), -6.0, 6.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(6.0 - 2.0 * np.sqrt(3.0), abs=1e-13)


@pytest.mark.parametrize("nodes", [8, 16, 64, 128, 512])
def test_defective_double_root_is_found(nodes):
    # K W has the eigenvalue 1 in a 2 x 2 Jordan block, det = (1 - lambda)^2;
    # eigvals splits it by about 5 sqrt(eps), sometimes into a complex pair.
    kernel = _kernel("(-2 + 6*s) + t*(-6 + 12*s)", nodes=nodes)
    mu = np.linalg.eigvals(kernel.values * kernel.rule.weights)
    assert np.max(np.abs(mu - 1.0)) > 1e-9
    roots = fl.find_characteristic_numbers(kernel, 0.0, 3.0)
    assert len(roots) == 2
    assert np.max(np.abs(np.array(roots) - 1.0)) <= 1e-12


def test_dense_tail_of_simple_roots_stays_apart():
    # min(t, s) has the simple eigenvalues 1/((k - 1/2) pi)^2, spaced far below
    # sqrt(eps) max|mu| in the tail; every one is still its own root.
    kernel = _kernel("(t + s - abs(t - s))/2", nodes=256)
    mu = np.linalg.eigvals(kernel.values * kernel.rule.weights)
    expected = sorted(1.0 / m.real for m in mu if abs(m) > 1e-12 * np.max(np.abs(mu)))
    roots = fl.find_characteristic_numbers(kernel, 0.0, 1e10)
    assert len(roots) == len(expected) == 256
    assert roots == expected


def _pairwise_roots(kernel, lam_min, lam_max):
    """The reference clustering: every pair at once, as N x N arrays."""
    mu = np.linalg.eigvals(kernel.core.M)
    top = float(np.max(np.abs(mu)))
    mu = mu[np.abs(mu) > EIGEN_FLOOR * kernel.norm]
    size = np.abs(mu)
    radius = CLUSTER_RADIUS * np.sqrt(top) * np.sqrt(np.maximum(size[:, None], size[None, :]))
    close = np.abs(mu[:, None] - mu[None, :]) <= radius
    label = np.arange(mu.size)
    while True:
        new = np.min(np.where(close, label[None, :], mu.size), axis=1)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, group, count = np.unique(label, return_inverse=True, return_counts=True)
    mean = (np.bincount(group, mu.real) + 1j * np.bincount(group, mu.imag)) / count
    real = np.abs(mean.imag) <= REAL_RATIO * np.abs(mean)
    roots = np.sort(np.repeat(1.0 / mean.real[real], count[real]))
    return [float(r) for r in roots if lam_min <= r <= lam_max]


@pytest.mark.parametrize("text, nodes", [
    ("(-2 + 6*s) + t*(-6 + 12*s)", 64), ("cos(t - s)", 64), ("exp(-abs(t - s))", 512),
    ("(t + s - abs(t - s))/2", 512), ("exp(-abs(t - s)) + (-2 + 6*s) + t*(-6 + 12*s)", 512)])
def test_close_pairs_in_row_blocks_give_the_pairwise_clusters(text, nodes, monkeypatch):
    # Blocks of one row each on these sampled kernels: a cluster spans blocks.
    kernel = _kernel(text, nodes=nodes)
    monkeypatch.setattr(kernel_ops, "GRID_BLOCK", nodes)
    roots = fl.find_characteristic_numbers(kernel, -1e10, 1e10)
    assert roots and roots == _pairwise_roots(kernel, -1e10, 1e10)


def test_nilpotent_example_has_no_characteristic_numbers():
    kernel = _example_kernel("nilpotent.prob")
    assert fl.find_characteristic_numbers(kernel, -1e6, 1e6) == []


@pytest.mark.parametrize("text", ["t - 1/2", "(t - 1/2) + (6*s^2 - 6*s + 1)"])
@pytest.mark.parametrize("nodes", [16, 64, 256, 512])
def test_nilpotent_kernel_has_no_characteristic_numbers_at_any_scale(text, nodes):
    # (K W)^2 = 0 and (K W)^3 = 0: eigvals splits the defective zero
    # eigenvalue into |mu| up to about 3e-9 g and 1.5e-6 g, which would read
    # as roots near 1e9 and 1e6.
    kernel = _kernel(text, nodes=nodes)
    assert fl.find_characteristic_numbers(kernel, -1e30, 1e30) == []


@pytest.mark.parametrize("nodes", [16, 64, 512])
def test_small_pair_of_opposite_eigenvalues_is_kept(nodes):
    # K W has the eigenvalues 1 and +-5e-6, a pair summing to zero like the
    # roundoff of a split nilpotent block: the roots +-2e5 stay.
    kernel = _kernel("1 + 1e-5*sin(2*pi*(t + s))", nodes=nodes)
    roots = fl.find_characteristic_numbers(kernel, -1e6, 1e6)
    assert roots == pytest.approx([-2e5, 1.0, 2e5], rel=1e-9)


def test_simple_roots_are_determinant_sign_changes():
    rng = np.random.default_rng(5)
    rule = fl.gauss_legendre(32, 0.0, 1.0)
    checked = 0
    for _ in range(8):
        kernel = fl.discretize(fl.parse(random_polynomial_kernel(rng), {"t", "s"}), rule)
        roots = fl.find_characteristic_numbers(kernel, -1e3, 1e3)
        for i, root in enumerate(roots):
            step = 1e-6 * (1.0 + abs(root))
            if any(abs(other - root) <= 2.0 * step for other in roots[:i] + roots[i + 1 :]):
                continue
            left, _ = np.linalg.slogdet(kernel.core.system(root - step))
            right, _ = np.linalg.slogdet(kernel.core.system(root + step))
            assert left * right < 0.0, (root, left, right)
            checked += 1
    assert checked >= 5


def test_nilpotency_index_is_none_on_overflowing_iterates():
    # max|K_m| grows like 1e12^m, so the late iterates overflow to inf / nan.
    kernel = _kernel("1e12*sin(3*(t - s))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iterated = fl.iterate_kernels(kernel, 30)
        assert not np.all(np.isfinite(iterated.kernel(30)))
        assert fl.nilpotency_index(kernel, 30) is None


def test_characteristic_numbers_of_a_huge_kernel_stay_apart(tmp_path):
    # The cluster radius is sqrt(max|mu|) sqrt(|mu|), not the root of their product:
    # at |mu| near 1e200 the product overflowed, every radius was inf, and the two
    # roots merged into one double root at 4.0e-200.
    huge = tmp_path / "huge.prob"
    huge.write_text((EXAMPLES / "loaded_regular.prob").read_text().replace(
        "kernel = t*s + 0.5*(1-t)*(1-s)", "kernel = 1e200*(t*s + 0.5*(1-t)*(1-s))"))
    wide = tmp_path / "wide.prob"
    wide.write_text("interval = -1e307 1e307\nkernel = 1\nsource = 1\n\n"
                    "[load]\ncoeff = 1\nintegral = 0.5 on [0, 1]\n")
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["find-poles", str(huge), "--nodes", "16",
                         "--lambda-min", "-1e-198", "--lambda-max", "1e-198"]) == 0
        assert cli.main(["find-poles", str(wide), "--nodes", "16",
                         "--lambda-min", "-1", "--lambda-max", "1"]) == 0
    rows = out.getvalue().splitlines()
    roots = [float(row.split(",")[0]) for row in rows if not row.startswith("lambda")]
    assert roots[:2] == pytest.approx([2.5358983848622e-200, 9.4641016151377e-200], rel=1e-12)
    assert len(roots) == 3 and roots[2] == pytest.approx(5e-308, rel=1e-12)
