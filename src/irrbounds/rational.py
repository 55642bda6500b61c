"""The ``Fraction`` layer: ``Rat`` (:class:`fractions.Fraction`, reduced),
its rendering, Omega's ``Fraction`` records, and :class:`QuadRat`, Q(sqrt D),
which only the tests use, as the reference for the forms' int tuples.  Only
omega's printing and IntegralityError's message import it, and with it
``fractions`` and ``decimal``."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import DomainError
from .exact_arith import Frozen, format_int

Rat = Fraction


def format_rat(x: Rat) -> str:
    """Render as ``num/den`` (plain ``num`` when the denominator is 1),
    through :func:`format_int`, so without the 4300-digit limit."""
    if x.denominator == 1:
        return format_int(x.numerator)
    return f"{format_int(x.numerator)}/{format_int(x.denominator)}"


class QuadRat:
    """u + v*sqrt(D) with exact rational parts and a fixed positive integer D.
    A perfect-square D folds v into u at construction, so degenerate k = 4
    (D = 9) takes the generic paths; values with v == 0 combine with any D.
    """

    __slots__ = ("u", "v", "D")

    def __init__(self, u, v=0, D: int = 1):
        if D < 1:
            raise DomainError(f"D must be a positive integer, got {D}")
        u, v = Fraction(u), Fraction(v)
        r = isqrt(D)
        if r * r == D and v:
            u, v = u + v * r, Fraction(0)
        self.u, self.v, self.D = u, v, D

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
        if (o := self._coerce(other)) is NotImplemented:
            return o
        return QuadRat(self.u + o.u, self.v + o.v, self._join_d(o))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadRat(-self.u, -self.v, self.D)

    def __mul__(self, other):
        if (o := self._coerce(other)) is NotImplemented:
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
        if (o := self._coerce(other)) is NotImplemented:
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
        if (o := self._coerce(other)) is NotImplemented:
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


# -- Omega as Fraction intervals ----------------------------------------------

class Interval(Frozen):
    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.lo > self.hi:
            raise DomainError("interval endpoints out of order")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise DomainError("a degenerate interval must be closed")

    def contains(self, y: Fraction) -> bool:
        return (self.lo < y < self.hi or y == self.lo and self.lo_closed
                or y == self.hi and self.hi_closed)

    def __str__(self):
        if self.lo == self.hi:
            return "{%s}" % format_rat(self.lo)
        return "%s%s, %s%s" % ("[" if self.lo_closed else "(",
                               format_rat(self.lo), format_rat(self.hi),
                               ")" if not self.hi_closed else "]")


class IntervalSet(Frozen):
    """Sorted, pairwise-disjoint rational-endpoint subintervals of [0, 1);
    immutable, as :func:`compute_omega` shares one instance per (a, b)."""

    __slots__ = ("intervals",)
    intervals: tuple[Interval, ...]

    def __init__(self, intervals):
        ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        for prev, cur in zip(ivs, ivs[1:]):
            # touching only where both sides exclude the shared point
            if cur.lo < prev.hi or (cur.lo == prev.hi
                                    and (cur.lo_closed or prev.hi_closed)):
                raise DomainError("intervals overlap or touch with closure")
        for iv in ivs:
            if iv.lo < 0 or iv.hi > 1 or (iv.hi == 1 and iv.hi_closed):
                raise DomainError("intervals must lie within [0, 1)")
        super().__init__(tuple(ivs))

    def contains(self, y: Fraction) -> bool:
        return any(iv.contains(y) for iv in self.intervals)

    def total_measure(self) -> Fraction:
        return sum(iv.hi - iv.lo for iv in self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __str__(self):
        if not self.intervals:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)


class OmegaReport(Frozen):
    __slots__ = ("a", "b", "omega", "denominator_bound")
    a: int
    b: int
    omega: IntervalSet
    denominator_bound: int


@lru_cache(maxsize=None)
def _report(a: int, b: int, runs: tuple, bound: int) -> OmegaReport:
    return OmegaReport(a, b, IntervalSet(
        Interval(Fraction(*lo), Fraction(*hi), *flags) for lo, hi, *flags in runs), bound)
