"""Dense oracles of the forms for the tests: the expanded polynomial A with
its coefficient transform and radical sum, the route ``forms.eval_UVW``
replaced, and the tail series with an exact tail bound."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError
from .exact_arith import Params, QuadRat, Rat
from .forms import _root_blocks


class IntPoly:
    """Dense polynomial with exact rational coefficients, ascending degree.

    Internally keeps integer coefficients over a single positive denominator;
    the heavy transforms below stay in pure integer arithmetic that way.
    """

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
    """The product of the three binomial-coefficient factors.

    Built by incremental multiplication with the factorial normalizers split
    off into the shared denominator, so intermediate coefficients never leave
    integer arithmetic.  Degree 3(b-2a)n; roots fill -1..-bn with the blocks
    -(an+1)..-(b-a)n doubled and -(2an+1)..-(b-2a)n tripled.
    """
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


def shift_poly(p: IntPoly, s: int) -> IntPoly:
    """Taylor shift: the polynomial q with q(x) = p(x + s)."""
    if not isinstance(s, int):
        raise DomainError("only integer shifts are supported")
    nums = list(p._num)
    for i in range(len(nums) - 1):
        for j in range(len(nums) - 2, i - 1, -1):
            nums[j] += s * nums[j + 1]
    return IntPoly._raw(nums, p._den)


def derivative(p: IntPoly, order: int = 1) -> IntPoly:
    if order < 0:
        raise DomainError("derivative order must be >= 0")
    nums = p._num
    for _ in range(order):
        nums = [i * c for i, c in enumerate(nums)][1:]
    return IntPoly._raw(nums, p._den)


# coefficient transform:  -sum_{k>=1} P(-k) z^k = sum_j c_j (z/(z-1))^{j+1}

def _transform_nums(p: IntPoly, offset: int = 0) -> tuple[list[int], int]:
    """Numerators of the transform coefficients of x -> p(x - offset).

    c_j = sum_{k=1}^{j+1} (-1)^{k-1} p(-k-offset) C(j, k-1) computed by the
    signed difference triangle T[s][j] = T[s][j-1] - T[s+1][j-1] seeded with
    T[s][0] = p(-1-offset-s): subtractions only, no bignum-by-binomial
    products.  Returns (numerators over p's denominator, denominator).
    """
    d = p.degree
    if d < 0:
        return [], p._den
    row = [p._eval_num(-(1 + offset + s)) for s in range(d + 1)]
    out = [row[0]]
    for j in range(1, d + 1):
        for s in range(d - j + 1):
            row[s] -= row[s + 1]
        out.append(row[0])
    return out, p._den


def tail_transform_coeffs(p: IntPoly) -> list[Rat]:
    """Exact coefficients c_0..c_d of the geometric-pole expansion of p's tail
    series; for |z| < 1 the identity
    -sum_{k>=1} p(-k) z^k = sum_j c_j (z/(z-1))^{j+1} holds."""
    nums, den = _transform_nums(p)
    return [Fraction(c, den) for c in nums]


def _radical_sum(nums: list[int], den: int, t: QuadRat) -> QuadRat:
    """sum_j (nums[j]/den) * t^(j+1) over a single common denominator."""
    td = lcm(t.u.denominator, t.v.denominator)
    tu = int(t.u * td)
    tv = int(t.v * td)
    D = t.D
    jmax = len(nums) - 1
    su = sv = 0
    pu, pv = tu, tv                 # integer pair of t^(j+1), scaled by td^(j+1)
    scale = td**jmax if jmax >= 0 else 1  # td^(jmax - j), common denominator below
    for j in range(jmax + 1):
        if nums[j]:
            m = nums[j] * scale
            su += m * pu
            sv += m * pv
        pu, pv = pu * tu + D * pv * tv, pu * tv + pv * tu
        scale //= td
    full = den * td ** (jmax + 1)
    return QuadRat(Fraction(su, full), Fraction(sv, full), D)


# ---------------------------------------------------------------------------
# series oracle (reference path; exact truncation + exact tail bound)
# ---------------------------------------------------------------------------

def series_uvw(params: Params, z: Rat, terms: int):
    """Truncated tail series for U, V, W at rational z plus exact tail bounds.

    Returns ((U, V, W), (tail_U, tail_V, tail_W)) where each value is the
    truncation of the defining series after ``terms`` summation indices and
    each tail is a proven Rat bound on the truncation error, from the
    geometric ratio of |A(-t) z^t| beyond the cutoff and the pointwise bounds
    |A'| <= |A|*h, |A''| <= |A|*(h^2 + h2) with h, h2 the (decreasing)
    inverse-distance sums to the root multiset.
    """
    z = Fraction(z)
    if not 0 < z < 1:
        raise DomainError("series converges for 0 < z < 1 only")
    a, b, n = params.a, params.b, params.n
    K = terms
    if K <= params.degree + b * n:
        raise DomainError("truncation must reach beyond the root blocks")

    A = build_A(params)
    A1 = derivative(A)
    A2 = derivative(A, 2)
    e = params.half_bn1
    pref = z ** (-e)

    sU = sum((A(-t) * z**t for t in range(b * n + 1, K + 1)), Fraction(0))
    sV = sum((A1(-t) * z**t for t in range((b - a) * n + 1, K + 1)), Fraction(0))
    sW = sum((A2(-t) * z**t for t in range((b - 2 * a) * n + 1, K + 1)), Fraction(0))

    t0 = K + 1
    ratio = z * Fraction((t0 - 2 * a * n) * (t0 - a * n) * t0,
                         (t0 - (b - 2 * a) * n) * (t0 - (b - a) * n) * (t0 - b * n))
    if ratio >= 1:
        raise DomainError(f"tail ratio {ratio} >= 1; increase terms")
    h = Fraction(0)
    h2 = Fraction(0)
    for lo, hi in _root_blocks(params):
        for c in range(lo, hi + 1):
            h += Fraction(1, t0 - c)
            h2 += Fraction(1, (t0 - c) ** 2)
    tail_first = abs(A(-t0)) * z**t0 / (1 - ratio)
    tails = (pref * tail_first,
             pref * h * tail_first,
             pref * (h * h + h2) * tail_first)
    return (-pref * sU, -pref * sV, -pref * sW), tails
