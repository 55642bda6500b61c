"""Exception types shared across the package.  IntegralityError holds its
value as an int pair (num, den) and renders it through
``exact_arith.format_pair``, imported when one is raised."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain."""


class SieveCapacityError(ValueError):
    """A prime query exceeded the sieve's precomputed limit."""


class IntegralityError(ArithmeticError):
    """A quantity that must be an exact integer is not: never rounded, as
    either the construction's integrality guarantee or the code is wrong."""

    def __init__(self, quantity: str, value: tuple[int, int]):
        # value is the int pair (num, den); format_pair (no 4300-digit limit)
        # is imported here, as exact_arith imports errors
        from .exact_arith import format_pair

        self.quantity, self.value = quantity, value
        super().__init__(f"{quantity} is not an integer: "
                         f"{format_pair(*value)}")


class NonApplicableError(ArithmeticError):
    """A saddle-point precondition on the root configuration does not hold."""


class PrecisionError(ArithmeticError):
    """A published value's proven radius was too wide for its digits, the
    radii left open a sign that decides applicability, an exact root
    certificate failed, or a form's enclosure stayed too wide."""


class CertificateError(ArithmeticError):
    """An exact certificate of Omega's interval description did not hold:
    the breakpoint walk did not run from 0/1 to 1/1 in increasing steps
    through every point j/m of each floor coefficient m, or an interval's
    closure disagreed with pointwise membership."""
