"""Exact integer substrate, which loads nothing but ``math`` and the
package's errors: ``format_pair`` for rationals, which the package takes
and returns as int pairs (num, den) only, ``format_int``, the integer cube
root, rational square-root bounds (``fractions`` imported when called), the
prime sieve, lcm(1..n), ``Frozen``, the base of the package's immutable
records, ``Params`` and the search grid, whose size the CLI's argv checks
read before the bound engine loads.  All of it is safe to share between
workers."""

from __future__ import annotations

from math import gcd, isqrt

from .errors import DomainError, SieveCapacityError

def format_int(x: int) -> str:
    """str(x), or past str()'s 4300-digit limit (Python 3.11), which verify
    --n 303 passes, Decimal, imported only then."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(x))


def format_pair(num: int, den: int) -> str:
    """num/den in lowest terms with a positive denominator, as ``num/den``
    (plain ``num`` when that denominator is 1), through :func:`format_int`,
    so without the 4300-digit limit."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return format_int(num)
    return f"{format_int(num)}/{format_int(den)}"


def icbrt(n: int) -> int:
    """floor(n^(1/3)) for an int n > 0, by integer Newton from above."""
    y = 1 << -(-n.bit_length() // 3)
    while (z := (2 * y + n // (y * y)) // 3) < y:
        y = z
    return y


def sqrt_bounds(d: int, digits: int):
    """Exact rational bounds lo <= sqrt(d) <= hi sharing denominator 10^digits."""
    from fractions import Fraction

    if d < 0:
        raise DomainError("sqrt of a negative integer")
    scale = 10**digits
    root = isqrt(d * scale * scale)
    lo = Fraction(root, scale)
    hi = lo if root * root == d * scale * scale else Fraction(root + 1, scale)
    return lo, hi


class Frozen:
    """Base of the package's immutable records: a subclass lists its fields
    in ``__slots__``, set once, by position or keyword.  Equality and hash go
    by the tuple of fields, which the repr shows: a frozen dataclass without
    the start-up cost of ``dataclasses``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args))
        if (len(args) > len(names) or values.keys() & kwargs.keys()
                or values.keys() | kwargs.keys() != set(names)):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        values.update(kwargs)
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), self._fields()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class Params(Frozen):
    """Index k of alpha_k plus the construction parameters (a, b, n): b and
    n odd, so that (bn+1)/2 and the scaling exponents are integers, and
    b > 4a, so that the three root blocks of A nest."""

    __slots__ = ("k", "a", "b", "n")
    k: int
    a: int
    b: int
    n: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.k < 1 or self.a < 1 or self.b < 1 or self.n < 1:
            raise ValueError("k, a, b, n must all be positive")
        if self.b % 2 == 0:
            raise ValueError(f"b must be odd, got {self.b}")
        if self.n % 2 == 0:
            raise ValueError(f"n must be odd, got {self.n}")
        if self.b <= 4 * self.a:
            raise ValueError(f"need b > 4a, got b={self.b}, a={self.a}")

    @property
    def degree(self) -> int:
        return 3 * (self.b - 2 * self.a) * self.n

    @property
    def half_bn1(self) -> int:
        return (self.b * self.n + 1) // 2


def _grid_a_max(a_max: int, b_max: int) -> int:
    """The largest a with a cell on the search grid: b > 4a needs 4a < b_max."""
    return max(0, min(a_max, (b_max - 1) // 4))


def grid_cells(a_max: int, b_max: int):
    """The (a, b) cells that search visits, row by row: 1 <= a <= a_max
    and odd b with 4a < b <= b_max."""
    for a in range(1, _grid_a_max(a_max, b_max) + 1):
        for b in range(4 * a + 1, b_max + 1, 2):
            yield a, b


def grid_size(a_max: int, b_max: int) -> int:
    """Number of :func:`grid_cells`.  Row a holds (b_max+1)//2 - 2a of
    them, so the count is a closed form and costs nothing for any a_max and
    b_max."""
    top = _grid_a_max(a_max, b_max)
    return top * ((b_max + 1) // 2) - top * (top + 1)


# -- primes and d_n = lcm(1..n) -----------------------------------------------

class PrimeSieve:
    """Bit-table sieve of Eratosthenes, built once and then read-only."""

    __slots__ = ("limit", "_table")

    def __init__(self, limit: int):
        if limit < 2:
            raise DomainError("sieve limit must be >= 2")
        self.limit = limit
        table = bytearray([1]) * (limit + 1)
        table[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if table[p]:
                step = len(range(p * p, limit + 1, p))
                table[p * p:: p] = b"\x00" * step
        self._table = bytes(table)

    def primes(self, lo: int = 2, hi: int | None = None) -> list[int]:
        """All primes p with lo <= p <= hi, ascending."""
        hi = self.limit if hi is None else hi
        if hi > self.limit:
            raise SieveCapacityError(f"{hi} exceeds sieve limit {self.limit}")
        return [p for p in range(max(lo, 2), hi + 1) if self._table[p]]


def d_upto(n: int) -> int:
    """lcm(1, ..., n), computed as the product of p^floor(log_p n)."""
    if n < 1:
        raise DomainError("d_upto requires n >= 1")
    if n == 1:
        return 1
    out = 1
    for p in PrimeSieve(n).primes():
        q = p
        while q * p <= n:
            q *= p
        out *= q
    return out
