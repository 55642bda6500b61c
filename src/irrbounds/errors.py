"""Exception types shared across the package."""

from fractions import Fraction


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


class SieveCapacityError(ValueError):
    """A prime query exceeded the sieve's precomputed limit."""


class IntegralityError(ArithmeticError):
    """A quantity that must be an exact integer is not.

    Raised with the name of the offending scaled quantity; this is never
    silently rounded: it would mean either the integrality guarantee the
    whole construction rests on is false or the implementation is wrong.
    """

    def __init__(self, quantity: str, value):
        # imported here: exact_arith imports this module
        from .exact_arith import format_rat

        self.quantity = quantity
        self.value = value
        # format_rat is not cut off at str()'s 4300-digit limit
        shown = format_rat(value) if isinstance(value, (int, Fraction)) else value
        super().__init__(f"{quantity} is not an integer: {shown}")


class NonApplicableError(ArithmeticError):
    """A saddle-point precondition on the root configuration does not hold."""


class PrecisionError(ArithmeticError):
    """A published value's proven radius was wider than its printable
    digits allow, the radii left open a sign that decides applicability, an
    exact root certificate did not hold, or the enclosure of a form in
    alpha_k was still too wide for the requested digits after its last
    pass."""


class CertificateError(ArithmeticError):
    """An exact certificate of Omega's interval description did not hold: a
    step of the breakpoint walk did not join Farey neighbours beyond the
    denominator bound, a floor coefficient exceeded that bound, or an
    interval's closure disagreed with pointwise membership."""
