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
    """A precision-ladder recomputation disagreed with the reported value, an
    exact root certificate did not hold, or the enclosure of a form in
    alpha_k was still too wide for the requested digits after its last
    pass."""
