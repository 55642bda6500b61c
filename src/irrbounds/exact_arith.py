"""Exact integer substrate, which every command loads: rationals as int
pairs (:func:`as_pair`), ``format_int``, the integer cube root, rational
square-root bounds (which import ``fractions`` when called), the prime
sieve, lcm(1..n), ``Frozen``, the base of the package's immutable records,
and ``Params``.  All of it is immutable and safe to share between workers."""

from __future__ import annotations

from math import isqrt

from .errors import DomainError, SieveCapacityError

DEFAULT_SIEVE_LIMIT = 2_000_000


def as_pair(x) -> tuple[int, int]:
    """An exact rational as the int pair (num, den), den > 0: a pair as it
    is, an int or a Fraction by its numerator and denominator."""
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


def format_int(x: int) -> str:
    """str(x), or past str()'s 4300-digit limit (Python 3.11), which verify
    --n 303 passes, Decimal, imported only then."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(x))


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
    by the tuple of fields, and the repr leaves out those in ``_hidden``: a
    frozen dataclass without the start-up cost of ``dataclasses``."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

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
                          for name in self.__slots__ if name not in self._hidden)
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


# -- primes and d_n = lcm(1..n) -----------------------------------------------

class PrimeSieve:
    """Bit-table sieve of Eratosthenes, built once and then read-only."""

    __slots__ = ("limit", "_table")

    def __init__(self, limit: int = DEFAULT_SIEVE_LIMIT):
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

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise SieveCapacityError(f"{n} exceeds sieve limit {self.limit}")
        return n >= 0 and bool(self._table[n])

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
