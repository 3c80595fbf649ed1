"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them). Expected values come from closed forms,
the dense oracle, or independently stated identities; tolerances are
fixed here and nowhere loosened.
"""

import numpy as np

import fredload as fl
from fredload.cli import main as cli_main
from util import (
    GOLDEN_FILE_TEXT,
    NO_SOLUTION_FILE_TEXT,
    golden_identity_problem,
    make_problem,
    make_random_regular_problem,
    poly_integral,
    random_polynomial_kernel,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d}: {status} - {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _golden_lambdas():
    return np.linspace(0.05, 0.5, 20)


def _golden_closed_form(lam: float) -> float:
    # x(0, lam) = (1/(a,m)) * (-f(0)/(lam b(0)) - (f,m) + (f(0)/b(0)) (b,m))
    # instantiated at a = b = m = f = 1 on [0,1], all products computed by
    # the closed-form polynomial integral.
    am = poly_integral([1.0], 0.0, 1.0)
    fm = poly_integral([1.0], 0.0, 1.0)
    bm = poly_integral([1.0], 0.0, 1.0)
    return (1.0 / am) * (-1.0 / lam - fm + 1.0 * bm)


def test_criterion_01_golden_identity_example(tmp_path, capsys):
    path = tmp_path / "identity.prob"
    path.write_text(GOLDEN_FILE_TEXT)
    rc = cli_main(["analyze", str(path)])
    analyze_out = capsys.readouterr().out
    analyze_ok = (
        rc == 0
        and "classification: irregular-identity" in analyze_out
        and "pole order: 1" in analyze_out
    )

    problem, kernel = golden_identity_problem()
    worst_value = 0.0
    worst_residual = 0.0
    for lam in _golden_lambdas():
        solution = fl.solve_irregular(fl.prepare(problem, kernel), float(lam))
        x0 = fl.interpolate(solution.x, 0.0)
        worst_value = max(worst_value, abs(x0 - _golden_closed_form(float(lam))))
        worst_residual = max(worst_residual, solution.residual)
        assert solution.expansion.pole_order == 1
    ok = analyze_ok and worst_value <= 1e-6 and worst_residual <= 1e-6
    _report(
        1,
        "identity-load example: pole order 1, x(0,lambda) = -1/lambda on [0.05, 0.5]",
        ok,
        f"analyze_ok={analyze_ok} max|x0 err|={worst_value:.3e} max resid={worst_residual:.3e}",
    )


def test_criterion_02_laurent_coefficient_recovery():
    problem, kernel = golden_identity_problem()
    lams = _golden_lambdas()
    values = np.array(
        [fl.interpolate(fl.solve_irregular(fl.prepare(problem, kernel), float(l)).x, 0.0) for l in lams]
    )
    basis = np.column_stack([1.0 / lams, np.ones_like(lams)])
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    ok = abs(coeffs[0] - (-1.0)) <= 1e-6
    _report(
        2,
        "least-squares fit of c_-1/lambda + c_0 recovers c_-1 = -1",
        ok,
        f"c_-1={coeffs[0]!r} c_0={coeffs[1]!r}",
    )


def test_criterion_03_oracle_equivalence_50_random_problems():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        problem, kernel, lam = make_random_regular_problem(rng)
        mine = fl.solve_regular(fl.prepare(problem, kernel), lam)
        reference = fl.dense_solve(problem, kernel, lam)
        worst = max(worst, float(np.max(np.abs(mine.x.values - reference.x.values))))
    ok = worst <= 1e-8
    _report(
        3,
        "50 random regular problems: reduced route equals dense oracle",
        ok,
        f"max disagreement {worst:.3e}",
    )


def test_criterion_04_no_solution_detection(tmp_path, capsys):
    problem = make_problem("t*s", "1", [("1", fl.point_load(0.0))])
    kernel = fl.discretize(problem.kernel, problem.master_rule(64))
    (report,) = fl.check_condition_one(problem, kernel)
    raised = False
    try:
        fl.solve_auto(problem, kernel, 0.3)
    except fl.NoSolutionError:
        raised = True
    path = tmp_path / "nosolution.prob"
    path.write_text(NO_SOLUTION_FILE_TEXT)
    rc = cli_main(["solve", str(path), "--lambda", "0.3"])
    capsys.readouterr()
    ok = report.holds and raised and rc == 2
    _report(
        4,
        "incompatible zero-order system yields no-solution and exit code 2",
        ok,
        f"condition holds={report.holds} raised={raised} rc={rc}",
    )


def test_criterion_05_successive_rate():
    ok = True
    detail = []
    for source in ["1", "t"]:
        problem = make_problem(
            "1", source, [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
        )
        kernel = fl.discretize(problem.kernel, problem.master_rule(64))
        bound_l = fl.successive_bound(problem, kernel)
        lam = 0.5 / bound_l  # |lambda| * l = q = 0.5
        iterative = fl.solve_successive(fl.prepare(problem, kernel), lam, q=0.5)
        direct = fl.solve_regular(fl.prepare(problem, kernel), lam)
        gap = float(np.max(np.abs(iterative.x.values - direct.x.values)))
        ratios = [
            iterative.history[i + 1] / iterative.history[i]
            for i in range(1, len(iterative.history) - 1)
            if iterative.history[i] > 1e-13
        ]
        ok = ok and gap <= 1e-6 and all(r <= 0.55 for r in ratios)
        detail.append(f"f={source}: gap={gap:.3e} max ratio={max(ratios):.4f}")
    _report(
        5,
        "fixed-point iteration: difference ratios <= 0.55, limit matches direct solve",
        ok,
        "; ".join(detail),
    )


def test_criterion_06_nilpotent_polynomial_route():
    problem = make_problem(
        "t - 1/2", "1", [("0", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = fl.discretize(problem.kernel, problem.master_rule(64))
    pnil = fl.nilpotency_index(kernel, 6)
    ok = pnil == 1
    worst_err = 0.0
    worst_residual = 0.0
    for lam in [0.0, 1.0, 10.0]:
        solution = fl.solve_nilpotent(fl.prepare(problem, kernel, 6), lam)
        expected = 1.0 + lam * (kernel.rule.nodes - 0.5)
        worst_err = max(worst_err, float(np.max(np.abs(solution.x.values - expected))))
        worst_residual = max(worst_residual, solution.residual)
    ok = ok and worst_err <= 1e-8 and worst_residual <= 1e-8
    _report(
        6,
        "nilpotent kernel: exact polynomial solution at lambda in {0, 1, 10}",
        ok,
        f"p={pnil} max err={worst_err:.3e} max resid={worst_residual:.3e}",
    )


def test_criterion_07_degeneration_to_zero_order_system():
    problem = make_problem(
        "t - 1/2", "1 + t", [("t", fl.integral_load(0.0, 1.0, fl.parse("1", {"s"})))]
    )
    kernel = fl.discretize(problem.kernel, problem.master_rule(64))
    norm = kernel.norm
    worst_a = 0.0
    for lam in np.linspace(-0.5, 0.5, 11) / norm:
        worst_a = max(worst_a, float(np.max(np.abs(fl.A_lambda(problem, kernel, float(lam))))))
    prep = fl.prepare(problem, kernel)
    c, note = fl.solve_zero_order_system(prep.a0_units, prep.f_gamma, prep.units,
                                         prep.classification)
    solution = fl.solve_regular(prep, 0.5 / norm)
    gap = float(np.max(np.abs(solution.x_gamma - c)))
    ok = worst_a <= 1e-8 and gap <= 1e-8 and note is None
    _report(
        7,
        "annihilating loads: A(lambda) = 0 and the lambda-system collapses to the zero-order one",
        ok,
        f"max|A(lambda)|={worst_a:.3e} load gap={gap:.3e}",
    )


def test_criterion_08_characteristic_numbers():
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    const = fl.discretize(fl.parse("1", {"t", "s"}), rule)
    rank_one = fl.discretize(fl.parse("t*s", {"t", "s"}), rule)
    roots_const = fl.find_characteristic_numbers(const, -2.0, 2.0)
    roots_ts = fl.find_characteristic_numbers(rank_one, 0.0, 5.0)
    ok = (
        len(roots_const) == 1
        and abs(roots_const[0] - 1.0) <= 1e-6
        and len(roots_ts) == 1
        and abs(roots_ts[0] - 3.0) <= 1e-4
    )
    _report(
        8,
        "characteristic numbers: {1} for K = 1 on [-2,2], {3} for K = ts on [0,5]",
        ok,
        f"roots_const={roots_const} roots_ts={roots_ts}",
    )


def test_criterion_09_resolvent_identities_random_kernels():
    rng = np.random.default_rng(99)
    rule = fl.gauss_legendre(64, 0.0, 1.0)
    eye = np.eye(64)
    worst_identity = 0.0
    worst_neumann = 0.0
    checked = 0
    while checked < 20:
        kernel = fl.discretize(fl.parse(random_polynomial_kernel(rng), {"t", "s"}), rule)
        norm = kernel.norm
        if norm < 1e-6:
            continue
        lam = float(rng.uniform(-0.5, 0.5)) / norm
        gamma = fl.resolvent(kernel, lam)
        gw = gamma * rule.weights
        kw = kernel.values * rule.weights
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs((eye - lam * kw) @ (eye + lam * gw) - eye))),
        )
        iterated = fl.iterate_kernels(kernel, 30)
        series = sum(lam ** (m - 1) * iterated.kernel(m) for m in range(1, 31))
        worst_neumann = max(worst_neumann, float(np.max(np.abs(series - gamma))))
        checked += 1
    ok = worst_identity <= 1e-8 and worst_neumann <= 1e-8
    _report(
        9,
        "resolvent identity and iterated-kernel series agreement on 20 random kernels",
        ok,
        f"identity={worst_identity:.3e} series={worst_neumann:.3e}",
    )


def test_criterion_10_quadrature_and_parser_units():
    quad_ok = True
    worst = 0.0
    for m in [2, 4, 8]:
        rule = fl.gauss_legendre(m, 0.0, 1.0)
        for k in range(2 * m):
            exact = 1.0 / (k + 1)
            got = fl.integrate(rule, fl.GridFunction(rule, rule.nodes**k))
            rel = abs(got - exact) / abs(exact)
            worst = max(worst, rel)
            quad_ok = quad_ok and rel <= 1e-12
    cases = {"2+3*4": 14.0, "2^3^2": 512.0, "-2^2": -4.0}
    parser_ok = all(
        fl.evaluate(fl.parse(text, ()), {}) == expected for text, expected in cases.items()
    )
    ok = quad_ok and parser_ok
    _report(
        10,
        "Gauss-Legendre exactness through degree 2m-1 and parser precedence",
        ok,
        f"worst rel err={worst:.3e} parser_ok={parser_ok}",
    )
