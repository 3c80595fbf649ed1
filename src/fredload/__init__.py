"""Solver for second-kind Fredholm integral equations with loads.

The unknown x satisfies

    x(t) - sum_k a_k(t) <gamma_k, x> - lambda * integral_a^b K(t,s) x(s) ds = f(t)

where each load <gamma_k, x> is a finite combination of point values and
weighted integrals of x. The package reduces the problem to small linear
systems for the load vector, reconstructs x through the discretized
resolvent, and cross-checks everything against a brute-force dense
discretization.
"""

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
    UndefinedVariableError,
)
from .expr import Expr, evaluate, parse, unparse
from .functionals import (
    ConditionReport,
    Functional,
    IntegralTerm,
    PointTerm,
    apply,
    check_condition_one,
    functional_norm,
    integral_load,
    kernel_slices,
    point_load,
)
from .kernel_ops import (
    DiscreteKernel,
    discretize,
    find_characteristic_numbers,
    iterate_kernels,
    nilpotency_index,
    resolvent,
    resolvent_apply,
    series_scale,
)
from .load_system import (
    Classification,
    A_lambda,
    assemble_A0,
    assemble_f_gamma,
    b_lambda,
    classify,
    solve_zero_order_system,
    taylor_A,
)
from .oracle import DenseSystem, assemble_dense, dense_solve, gamma_weights
from .problem import Load, ProblemSpec
from .quadrature import (
    GridFunction,
    QuadratureRule,
    gauss_legendre,
    integrate,
    interp_weights,
    interpolate,
)
from .solver import (
    Laurent,
    Prepared,
    Solution,
    prepare,
    solve_auto,
    solve_irregular,
    solve_nilpotent,
    solve_prepared,
    solve_regular,
    solve_successive,
    successive_bound,
)

__version__ = "0.1.0"
