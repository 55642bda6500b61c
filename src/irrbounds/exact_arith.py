"""Exact arithmetic substrate: rationals, quadratic extensions, prime sieve,
lcm(1..n), ``Frozen``, the base of the package's immutable records, and
``Params``, the construction parameters every layer validates.

``Rat`` is an alias for :class:`fractions.Fraction`, which already keeps
values canonical (gcd-reduced, positive denominator).  Everything here is
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import isqrt

from .errors import DomainError, SieveCapacityError

Rat = Fraction

DEFAULT_SIEVE_LIMIT = 2_000_000


class Frozen:
    """Base of the package's immutable records: a subclass lists its fields
    in ``__slots__``, which are set once, by position or keyword, and never
    reassigned.  Equality and hash go by the tuple of fields, and the repr
    leaves out the fields named in ``_hidden``: the contract of a frozen
    dataclass, without the import of ``dataclasses`` and ``inspect`` that
    cost every CLI process about 10 ms of start-up."""

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
    """Index k of alpha_k plus the construction parameters (a, b, n).

    b and n must be odd so that (bn+1)/2 and the power-of-two exponents in
    the scaling factors are integers; b > 4a keeps the three root blocks of
    the product polynomial nested.
    """

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


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def format_int(x: int) -> str:
    """Decimal digits of an exact integer.  Unlike str(), the conversion
    through Decimal is not cut off by the interpreter's int-to-str digit
    limit (4300 digits by default), which the verify integers pass near
    degree 4500."""
    return str(Decimal(x))


def format_rat(x: Rat) -> str:
    """Render as ``num/den`` (plain ``num`` when the denominator is 1),
    through :func:`format_int`, so without the 4300-digit limit."""
    if x.denominator == 1:
        return format_int(x.numerator)
    return f"{format_int(x.numerator)}/{format_int(x.denominator)}"


def sqrt_bounds(d: int, digits: int) -> tuple[Rat, Rat]:
    """Exact rational bounds lo <= sqrt(d) <= hi sharing denominator 10^digits."""
    if d < 0:
        raise DomainError("sqrt of a negative integer")
    scale = 10**digits
    root = isqrt(d * scale * scale)
    lo = Fraction(root, scale)
    hi = lo if root * root == d * scale * scale else Fraction(root + 1, scale)
    return lo, hi


# ---------------------------------------------------------------------------
# quadratic extension Q(sqrt(D))
# ---------------------------------------------------------------------------

class QuadRat:
    """u + v*sqrt(D) with exact rational parts and a fixed positive integer D.

    A perfect-square D collapses to pure rational form at construction
    (v folded into u), so degenerate indices like k = 4 (D = 9) flow through
    the same code paths as the generic irrational case.  Values with v == 0
    combine with any D, which is what makes the collapse transparent.
    """

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v=0, D: int = 1):
        if D < 1:
            raise DomainError(f"D must be a positive integer, got {D}")
        u, v = Fraction(u), Fraction(v)
        r = isqrt(D)
        if r * r == D and v:
            u, v = u + v * r, Fraction(0)
        self.u = u
        self.v = v
        self.D = D

    @classmethod
    def sqrt_d(cls, D: int) -> "QuadRat":
        """The element sqrt(D) itself (collapses when D is a perfect square)."""
        return cls(0, 1, D)

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    def _join_d(self, other: "QuadRat") -> int:
        if self.D == other.D:
            return self.D
        if self.v == 0:
            return other.D
        if other.v == 0:
            return self.D
        raise DomainError(f"mismatched radicands: {self.D} vs {other.D}")

    def _coerce(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRat(other, 0, self.D)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.u + o.u, self.v + o.v, self._join_d(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.u - o.u, self.v - o.v, self._join_d(o))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadRat(-self.u, -self.v, self.D)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._join_d(o)
        return QuadRat(self.u * o.u + D * self.v * o.v,
                       self.u * o.v + self.v * o.u, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        n = self.norm()
        if n == 0:
            raise DomainError("inverse of zero (or of a zero-norm element)")
        return QuadRat(self.u / n, -self.v / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int) -> "QuadRat":
        if not isinstance(e, int):
            raise DomainError("QuadRat powers must be integers")
        base = self.inverse() if e < 0 else self
        e = abs(e)
        out = QuadRat(1, 0, self.D)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self) -> "QuadRat":
        return QuadRat(self.u, -self.v, self.D)

    def norm(self) -> Rat:
        return self.u * self.u - self.D * self.v * self.v

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.u != o.u or self.v != o.v:
            return False
        return self.v == 0 or self.D == o.D

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.D))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        if self.v == 0:
            return f"QuadRat({format_rat(self.u)})"
        return f"QuadRat({format_rat(self.u)} + {format_rat(self.v)}*sqrt({self.D}))"


# ---------------------------------------------------------------------------
# primes and d_n = lcm(1..n)
# ---------------------------------------------------------------------------

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
