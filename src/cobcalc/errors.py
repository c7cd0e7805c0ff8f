"""Exception types shared across the package."""


class CobcalcError(Exception):
    """Base class for all cobcalc errors."""


class ConfigError(CobcalcError):
    """Invalid configuration (bad law/precision combination, unknown tag, ...)."""


class PrecisionTooSmallError(ConfigError):
    pass


class PrecisionTooLargeError(ConfigError):
    """A precision above what the packed series layout supports."""


class InsufficientGeneratorsError(ConfigError):
    """A universal law was requested with too few coefficient generators to be
    faithful at the requested truncation degree."""


class UnsupportedTypeError(ConfigError):
    pass


class NVarsMismatchError(CobcalcError):
    pass


class PrecisionMismatchError(CobcalcError):
    """Raised when two series of different precision are compared without an
    explicit truncation first."""


class ConstantTermError(CobcalcError):
    """A substitution image has a constant term, which would break truncation
    bookkeeping."""


class NotDivisibleError(CobcalcError):
    """Exact division failed. ``degree`` is the lowest total degree at which a
    nonzero remainder was detected."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class NonPrimitiveCharacterError(CobcalcError):
    """Division by the class of a character needs the character primitive
    (its entries coprime)."""


class IndexOutOfRangeError(CobcalcError):
    pass


class NotMinimalRankError(CobcalcError):
    pass


class InvolutionError(CobcalcError):
    pass


class PrecisionExhaustedError(CobcalcError):
    pass


class RepeatedWeightError(CobcalcError):
    pass


class InternalConsistencyError(CobcalcError):
    """An identity that must hold by construction failed; indicates a defect,
    never a user error."""
