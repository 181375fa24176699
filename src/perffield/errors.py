"""Exception types shared across the package.

Every failure reachable from user input (CLI text, scripts) raises a
subclass of PerffieldError; bare ValueError/TypeError are reserved for
programming errors at API boundaries.
"""


class PerffieldError(Exception):
    """Base class for all structured errors raised by perffield."""


class ContextMismatch(PerffieldError):
    """Operands belong to different arithmetic contexts (p, field, mode)."""


class DivisionByZero(PerffieldError):
    """Division or inversion of a zero element."""


class ZeroDenominator(PerffieldError):
    """A rational function was constructed with denominator zero."""


class NotAPthPower(PerffieldError):
    """Polynomial p-th root requested of something that is not a p-th power."""


class NotDivisible(PerffieldError):
    """Exact polynomial division failed."""


class PoleAtPoint(PerffieldError):
    """Evaluation point makes a denominator vanish."""


class LevelTooLow(PerffieldError):
    """Requested representation level is below the element's canonical level."""


class LevelOverflow(PerffieldError):
    """Root-taking exceeded the configured level cap."""


class NotPerfectMode(PerffieldError):
    """A p-th root left the level-0 field; the witness that Z_p(X) is not perfect."""


class DerivativeNonzero(PerffieldError):
    """Polynomial p-th root requires the formal derivative to vanish."""


class ConstantPolynomial(PerffieldError):
    """Operation requires a nonconstant polynomial."""


class BoundExceeded(PerffieldError):
    """A size outside the supported desk-scale bounds: finite-field
    parameters, or a power or Frobenius whose result would be too large."""


class NoEmbedding(PerffieldError):
    """No field embedding exists (source degree does not divide target degree)."""


class SourceError(PerffieldError):
    """Error tied to a position in an input line."""

    def __init__(self, message, start, end=None):
        super().__init__(message)
        self.start = start
        self.end = start if end is None else end

    @property
    def span(self):
        return (self.start, self.end)


class ParseError(SourceError):
    """Syntax error; carries the byte offset and the set of expected tokens."""

    def __init__(self, offset, expected, found):
        self.expected = frozenset(expected)
        self.found = found
        what = ", ".join(sorted(self.expected))
        super().__init__(f"expected {what}, found {found}", offset)

    @property
    def offset(self):
        return self.start


class UnknownVariable(SourceError):
    """Name outside x1..xd, the bindings, and the reserved indeterminate t."""

    def __init__(self, name, start, end):
        self.name = name
        super().__init__(f"unknown variable '{name}'", start, end)


class EvalError(SourceError):
    """Evaluation failure, wrapping the algebraic error with a source span."""

    def __init__(self, cause, start, end):
        self.cause = cause
        super().__init__(f"{type(cause).__name__}: {cause}", start, end)


class UsageError(PerffieldError):
    """Malformed command line (wrong arguments, bad integers)."""


class UnknownCommand(UsageError):
    """Command word not recognized."""
