"""Exception hierarchy shared by all qdeg modules.

Every error carries a stable identifier (``ident``) that the CLI prints on
stderr; scripts can match on it.
"""


class QdegError(Exception):
    """Base class for all domain errors."""

    @property
    def ident(self):
        return type(self).__name__


class DivisionByZero(QdegError):
    pass


class NotInvertible(QdegError):
    pass


class NotPrime(QdegError):
    pass


class PrimeTooLarge(NotPrime):
    """A modulus too large for the deterministic primality test."""


class FieldMismatch(QdegError):
    pass


class EmptyInput(QdegError):
    pass


class LaurentNotFlattenable(QdegError):
    pass


class ConstantInput(QdegError):
    pass


class NotUnivariate(QdegError):
    pass


class ZeroPolynomial(QdegError):
    pass


class RootOrderMismatch(QdegError):
    pass


class PoleAtPoint(QdegError):
    pass


class PointNotOnVariety(QdegError):
    pass


class ScanTooLarge(QdegError):
    """A variety scan over more root prefixes than the fixed limit."""


class DegreeTooSmall(QdegError):
    pass


class DegreeLevelMismatch(QdegError):
    pass


class LevelTooLarge(DegreeLevelMismatch):
    """A level above the fixed limit of the operation."""


class CohomologyTooLarge(QdegError):
    """A closed-form Cech count or a cohomology basis above its fixed limit."""


class IntegerTooLong(QdegError):
    """An integer longer than sys.get_int_max_str_digits() decimal digits."""


class NegativeDimension(QdegError):
    pass


class MalformedComplex(QdegError):
    pass


class CompositionNotPolynomial(QdegError):
    pass


class NotPrimeField(QdegError):
    pass


class UnknownVariable(QdegError):
    pass


class ExpressionSyntaxError(QdegError):
    """Parse failure; ``position`` is a byte offset into the input."""

    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position

    @property
    def ident(self):
        return "SyntaxError"
