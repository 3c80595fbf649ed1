"""Exception types shared across the package.

Argument-validation failures (bad intervals, zero node counts, ...) raise
plain ValueError; the classes here mark mathematical outcomes that callers
are expected to catch and react to.
"""

from __future__ import annotations


class FredloadError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(FredloadError):
    """Malformed expression text. Carries the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndefinedVariableError(ExprSyntaxError):
    """Expression uses a variable that is not declared for its arity."""

    def __init__(self, name: str, position: int):
        super().__init__(f"undeclared variable '{name}'", position)
        self.name = name


class DomainEvalError(FredloadError):
    """Evaluation produced a non-finite value (log of non-positive,
    division by zero, ...). Carries the offending subexpression."""

    def __init__(self, message: str, node_text: str):
        super().__init__(message)
        self.node_text = node_text


class CharacteristicNumberError(FredloadError):
    """lambda is at or too close to a characteristic number: the discretized
    operator I - lambda*K*W is singular, its estimated condition number
    exceeds kernel_ops.COND_LIMIT (for a |lambda| g above COND_LIMIT, whatever
    the spectrum), or the estimate is below the 0.5 / sqrt(N) every exact
    solve reaches (a |lambda| so large the LU loses every digit).
    Carries the estimate of ||(I - lambda K W)^{-1}|| (inf when LAPACK finds
    it exactly singular); `reason` says which."""

    def __init__(self, lam: float, inverse_norm: float,
                 reason: str = "is too close to a characteristic number"):
        super().__init__(
            f"lambda={lam!r} {reason} "
            f"(estimated ||(I - lambda K W)^{{-1}}|| = {inverse_norm:.3e})"
        )
        self.lam = lam
        self.inverse_norm = inverse_norm


class SingularLoadSystemError(FredloadError):
    """The n x n load system is singular at the requested lambda (distinct
    from characteristic-number proximity of the kernel itself)."""


class NoSolutionError(FredloadError):
    """The load compatibility system is unsolvable: the equation has no
    solution in the class of continuous functions."""


class RoutePreconditionError(FredloadError):
    """A solver route was invoked outside its hypotheses (wrong
    classification, lambda beyond an admissible bound, ...)."""


class ConvergenceError(FredloadError):
    """An iterative route failed to converge within its iteration budget."""


class ProblemFileError(FredloadError):
    """Problem file cannot be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
