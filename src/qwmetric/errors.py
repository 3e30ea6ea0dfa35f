"""Exception types shared across the package."""


class QwmError(Exception):
    """Base class for all qwmetric errors."""


class NonSquare(QwmError):
    pass


class NotHermitian(QwmError):
    pass


class MixedDimensions(QwmError):
    pass


class NotNested(MixedDimensions):
    """Raised with the index of the first level missing part of the last."""

    def __init__(self, message, level):
        super().__init__(message)
        self.level = level


class DimensionMismatch(QwmError):
    pass


class NegativeTime(QwmError):
    pass


class NotAPseudometric(QwmError):
    """Raised with the violating triple (x, y, z) attached."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDiagonalContext(QwmError):
    pass


class AlreadyInside(QwmError):
    pass


class ZeroProjection(QwmError):
    pass


class CommutantMember(QwmError):
    pass


class NotCentral(QwmError):
    pass


class NotSubalgebra(QwmError):
    pass


class NotSuperadditive(QwmError):
    """Raised with the witnessing pair (s, t) attached."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotOperatorSystem(QwmError):
    pass


class DegenerateChain(QwmError):
    pass


class ConstraintViolation(QwmError):
    pass


class NotCanonicalizable(QwmError):
    pass


class NotIsometry(QwmError):
    pass


class BridgeTooSmall(QwmError):
    pass


class SizeLimit(QwmError):
    pass


class NotACode(QwmError):
    pass


class PostconditionFailed(QwmError):
    """An internal consistency check on a computed result failed."""


class SchemaError(QwmError):
    """Carries the JSON pointer of the offending element."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer
