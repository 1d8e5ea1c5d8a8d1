"""Exception hierarchy shared across the package."""


class LoewnerLabError(Exception):
    """Base class for all library errors."""


class NonConvergence(LoewnerLabError):
    """The iterative eigensolver exceeded its sweep budget."""


class NotHermitian(LoewnerLabError):
    """Input matrix is too far from Hermitian to be symmetrized."""


class DimensionMismatch(LoewnerLabError):
    """Operands have incompatible dimensions."""


class DomainViolation(LoewnerLabError):
    """A scalar argument or eigenvalue lies outside a function's domain."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class DivisionByZero(LoewnerLabError):
    """A denominator in a scalar constant evaluated to zero."""


class DegenerateInterval(LoewnerLabError):
    """An operation requires m < M but received m >= M."""


class UnknownKind(LoewnerLabError):
    """Unrecognized map kind string."""


class SpecParseError(LoewnerLabError):
    """A function or map spec string does not match the accepted grammar."""


class ExhaustedRetries(LoewnerLabError):
    """Instance sampling failed to satisfy its constraints within the retry budget."""


class HypothesisViolation(LoewnerLabError):
    """An instance does not satisfy a theorem's hypotheses; names the failing condition."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}: {detail}" if detail else condition)


class ShapeMismatch(LoewnerLabError):
    """Instance or map shape does not match what the theorem expects."""


class UnknownRelaxation(LoewnerLabError):
    """The counterexample hunter does not know how to drop this hypothesis."""


class UnknownTheorem(LoewnerLabError):
    """Theorem id not present in the registry."""


class ConfigError(LoewnerLabError):
    """Invalid configuration value (campaign field, command-line option or
    tolerance); the message names the field."""


class IoError(LoewnerLabError):
    """Report or instance file could not be read or written."""
