"""Exception types shared across the package."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


class SieveCapacityError(ValueError):
    """A prime query exceeded the sieve's precomputed limit."""


class IntegralityError(ArithmeticError):
    """A quantity that must be an exact integer is not: never rounded, as
    either the construction's integrality guarantee or the code is wrong."""

    def __init__(self, quantity: str, value):
        # imported here, as rational imports this module; format_rat is not
        # cut off at str()'s 4300-digit limit.  An int pair is num/den.
        from .rational import Rat, format_rat

        value = Rat(*value) if isinstance(value, tuple) else value
        self.quantity, self.value = quantity, value
        shown = format_rat(value) if isinstance(value, (int, Rat)) else value
        super().__init__(f"{quantity} is not an integer: {shown}")


class NonApplicableError(ArithmeticError):
    """A saddle-point precondition on the root configuration does not hold."""


class PrecisionError(ArithmeticError):
    """A published value's proven radius was too wide for its digits, the
    radii left open a sign that decides applicability, an exact root
    certificate failed, or a form's enclosure stayed too wide."""


class CertificateError(ArithmeticError):
    """An exact certificate of Omega's interval description did not hold: a
    step of the breakpoint walk did not join Farey neighbours beyond the
    denominator bound, a floor coefficient exceeded that bound, or an
    interval's closure disagreed with pointwise membership."""
