"""Exception types shared across the package."""


class KappaInvError(Exception):
    """Base class for every error raised by this package."""


class ParseError(KappaInvError):
    """Polynomial text did not conform to the input grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(KappaInvError):
    """Input polynomial violates a structural requirement."""


class UnsupportedLiftError(KappaInvError):
    """Integer lift requested for coefficients outside a prime field."""


class ConfigurationError(KappaInvError):
    """Inconsistent field, weight or dimension configuration."""


class ContractViolation(KappaInvError):
    """A caller violated a documented precondition."""


class EngineError(KappaInvError):
    """An internal invariant broke; this is a bug, not bad input."""
