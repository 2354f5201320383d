"""Exception hierarchy shared by all modules.

Three top-level families matter for the CLI exit codes: ``ValidationError``
(rejected input, exit 1), ``NumericalError`` (a solve or iteration failed,
exit 2) and ``UsageError`` (bad invocation, exit 3).
"""


class CbpError(Exception):
    """Base class for all package errors."""


class ValidationError(CbpError):
    """A model description violates an invariant; ``state``, ``action`` and
    the offspring count ``k`` locate it where the check knows them."""

    def __init__(self, message, *, state=None, action=None, k=None):
        super().__init__(message)
        self.state = state
        self.action = action
        self.k = k


class NegativeRate(ValidationError):
    pass


class EntryForKEqualsOne(ValidationError):
    """The diagonal offspring rate is derived and must not be supplied."""


class TrivialMechanism(ValidationError):
    """All rates for two or more offspring vanish."""


class UnknownActionId(ValidationError):
    pass


class EmptyActionSet(ValidationError):
    pass


class MZero(ValidationError):
    """The head threshold must be a positive integer."""


class NonConservativeRow(ValidationError):
    pass


class ZeroExitRate(ValidationError):
    pass


class TargetNotAbsorbing(ValidationError):
    pass


class RateOverflow(ValidationError):
    """The rates are finite but their total is not."""


class InadmissibleAction(ValidationError):
    pass


class ModelFileError(ValidationError):
    """Malformed or unrecognized model file content."""


class NumericalError(CbpError):
    """A numerical procedure failed to produce a trustworthy result."""


class NoConvergence(NumericalError):
    pass


class SingularSystem(NumericalError):
    """Pivot breakdown: the linear system's hypotheses do not hold."""


class UsageError(CbpError):
    """Bad command-line invocation."""


class TooManyPolicies(UsageError):
    """Brute-force enumeration would exceed the requested cap."""
