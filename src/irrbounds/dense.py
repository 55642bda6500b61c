"""The dense oracle of the forms for the tests: the expanded polynomial A
and its derivatives, the route ``forms.eval_UVW`` replaced.  Its coefficient
transform, radical sum and the tail series live with the tests
(tests/oracles.py)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError
from .exact_arith import Params


class IntPoly:
    """Dense polynomial with exact rational coefficients, ascending degree,
    kept as integer coefficients over one positive denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for c in fracs:
            den = lcm(den, c.denominator)
        nums = [int(c * den) for c in fracs]
        while nums and nums[-1] == 0:
            nums.pop()
        self._num = nums
        self._den = den

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "IntPoly":
        self = object.__new__(cls)
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if den < 0:
            den, nums = -den, [-c for c in nums]
        self._num = nums
        self._den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def __call__(self, t) -> Fraction:
        if isinstance(t, int):
            return Fraction(self._eval_num(t), self._den)
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self._num):
            acc = acc * t + c
        return acc / self._den

    def _eval_num(self, t: int) -> int:
        acc = 0
        for c in reversed(self._num):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        g = lcm(self._den, other._den)
        a, b = g // self._den, g // other._den
        return [c * a for c in self._num] == [c * b for c in other._num]

    def __repr__(self):
        return f"IntPoly(degree={self.degree})"


def build_A(params: Params) -> IntPoly:
    """The product of the three binomial-coefficient factors, of degree
    3(b-2a)n, in integers over the factorial normalizers: its roots fill
    -1..-bn, -(an+1)..-(b-a)n doubled and -(2an+1)..-(b-2a)n tripled."""
    a, b, n = params.a, params.b, params.n
    nums = [1]
    for lo, hi in ((2 * a * n + 1, (b - 2 * a) * n),
                   (a * n + 1, (b - a) * n),
                   (1, b * n)):
        for j in range(lo, hi + 1):
            out = [0] * (len(nums) + 1)
            for i, c in enumerate(nums):
                out[i] += j * c
                out[i + 1] += c
            nums = out
    den = 1
    for m in ((b - 4 * a) * n, (b - 2 * a) * n, b * n):
        f = 1
        for i in range(2, m + 1):
            f *= i
        den *= f
    return IntPoly._raw(nums, den)


def derivative(p: IntPoly, order: int = 1) -> IntPoly:
    if order < 0:
        raise DomainError("derivative order must be >= 0")
    nums = p._num
    for _ in range(order):
        nums = [i * c for i, c in enumerate(nums)][1:]
    return IntPoly._raw(nums, p._den)
