"""Exception and warning taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError/RuntimeError never escape the public API.
"""

__all__ = [
    "RepsqError",
    "DomainError",
    "InfeasibleRepeatability",
    "InsufficientSamples",
    "DegenerateBatch",
    "NonTerminated",
    "ArtifactVersionMismatch",
    "BoundViolation",
    "ContractViolation",
    "OracleBudgetError",
    "ClampWarning",
]


class RepsqError(Exception):
    """Base class for all package errors."""


class DomainError(RepsqError):
    """An argument lies outside its mathematical domain."""


class InfeasibleRepeatability(RepsqError):
    """No quantization width exists for the requested (gamma, c, beta).

    Raised when (1-c)^2 < 1-beta: the accuracy confidence is too weak to
    support the requested repeatability level at any cell width.
    """


class InsufficientSamples(RepsqError):
    """A statistic was requested before enough samples were collected."""


class DegenerateBatch(RepsqError):
    """A batch has too little spread for a moment-based distribution fit."""


class NonTerminated(RepsqError):
    """A campaign hit its sample ceiling before the stopping radius fell
    below gamma. The partial state is attached as ``.result``."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ArtifactVersionMismatch(RepsqError):
    """A shared artifact failed its integrity or format-version check."""


class BoundViolation(RepsqError):
    """A bound on the weighted measure cannot be proved or does not hold."""


class ContractViolation(RepsqError):
    """A finished campaign breaks its own termination contract: the
    reported value is not its cell's midpoint, or the campaign stopped
    with both radii above gamma. Either means a defect, not bad input."""


class OracleBudgetError(RepsqError):
    """The oracle's error (oracle_se) is too large to grade accuracy at
    the requested gamma (it must be <= gamma/10)."""


class ClampWarning(UserWarning):
    """A Beta shape fit was clamped to [SHAPE_MIN, SHAPE_MAX]: by
    samplers.fit_beta, or in an AIS campaign's refits, which also count
    a refit with no weight to fit. A raw estimate clamped into the
    measure interval warns of nothing; it only sets TrialResult.clamped."""
