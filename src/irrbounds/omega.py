"""The set of fractional parts certifying extra prime divisors, the finite-n
prime products Delta and Delta1, and the asymptotic denominator-savings
constants N1 and N2.

Membership of a rational point num/den is always decided exactly, by integer
residues mod den derived from the three-group floor inequality (minimized
over six candidate x values); the interval description produced by
:func:`compute_omega` exists for the digamma sums, where endpoint closure has
measure zero, and certifies itself by the Farey-neighbour property.
Finite-n prime scans never consult the interval set, precisely because
closure matters there.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import CertificateError, DomainError, SieveCapacityError
from .exact_arith import Frozen, Params, PrimeSieve, Rat, format_rat

__all__ = [
    "Interval", "IntervalSet", "OmegaReport",
    "floor_sum_value", "floor_sum_min", "omega_contains",
    "compute_omega", "delta_products", "n_constants",
]


def _validate_ab(a: int, b: int) -> None:
    if a < 1 or b <= 4 * a or b % 2 == 0:
        raise DomainError(f"need b odd and b > 4a >= 4, got a={a}, b={b}")


# ---------------------------------------------------------------------------
# the floor inequality
# ---------------------------------------------------------------------------

def _groups(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """The three groups (c1, c2, c3) of the floor expression, each
    [x - c1*y] - [x - c2*y] - [c3*y] with c3 = c2 - c1."""
    return ((2 * a, b - 2 * a, b - 4 * a), (a, b - a, b - 2 * a), (0, b, b))


def _candidates(a: int, b: int) -> tuple[int, ...]:
    """Coefficients c0 of the x = c0*y at which the min over x is attained."""
    return (0, a, 2 * a, b - 2 * a, b - a, b)


@lru_cache(maxsize=None)
def _mod_table(a: int, b: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per candidate c0, the pairs (c0 - c1, c0 - c2) of the three groups.

    At x = c0*y a group [u] - [u - w] - [w] with u = (c0 - c1)*y and
    u - w = (c0 - c2)*y equals 1 exactly when {u} < {u - w}; for y = i/L
    that is ((c0 - c1)*i mod L) < ((c0 - c2)*i mod L).  Every coefficient
    satisfies |m| <= b.
    """
    return tuple(tuple((c0 - c1, c0 - c2) for c1, c2, _ in _groups(a, b))
                 for c0 in _candidates(a, b))


def floor_sum_value(a: int, b: int, x: Rat, y: Rat) -> int:
    """Exact value of the three-group floor expression at (x, y).

    Each group has the shape [u] - [u - w] - [w] and individually lies in
    {0, 1}; the certifying condition is that the sum is >= 1 for all real x.
    """
    x, y = Fraction(x), Fraction(y)
    den = x.denominator * y.denominator
    xn = x.numerator * y.denominator
    yn = y.numerator * x.denominator
    return sum((xn - c1 * yn) // den - (xn - c2 * yn) // den - (c3 * yn) // den
               for c1, c2, c3 in _groups(a, b))


def floor_sum_min(a: int, b: int, y: Rat) -> int:
    """min over all real x of the floor expression, for fixed y.

    In x the expression is piecewise constant, right-continuous and 1-periodic
    with jumps only at x = c0*y (mod 1) for the six candidates c0; each step
    takes its value at its left end, a jump, so the minimum is attained at
    one of them.  This is the literal reference for :func:`omega_contains`.
    """
    y = Fraction(y)
    return min(floor_sum_value(a, b, c0 * y, y) for c0 in _candidates(a, b))


def _member(table, num: int, den: int) -> bool:
    """Whether num/den (den > 0, not necessarily in lowest terms) lies in
    Omega: every candidate row of the :func:`_mod_table` ``table`` needs a
    group equal to 1.  The first row without one ends the test."""
    for row in table:
        for m_u, m_w in row:
            if m_u * num % den < m_w * num % den:
                break
        else:
            return False
    return True


def omega_contains(a: int, b: int, y: Rat) -> bool:
    """Pointwise membership test (the authoritative one for prime products)."""
    y = Fraction(y)
    return _member(_mod_table(a, b), y.numerator, y.denominator)


# ---------------------------------------------------------------------------
# interval description
# ---------------------------------------------------------------------------

class Interval(Frozen):
    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")
    lo: Rat
    hi: Rat
    lo_closed: bool
    hi_closed: bool

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.lo > self.hi:
            raise DomainError("interval endpoints out of order")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise DomainError("a degenerate interval must be closed")

    def contains(self, y: Rat) -> bool:
        if y < self.lo or y > self.hi:
            return False
        if y == self.lo and not self.lo_closed:
            return False
        if y == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self):
        if self.lo == self.hi:
            return "{%s}" % format_rat(self.lo)
        return "%s%s, %s%s" % ("[" if self.lo_closed else "(",
                               format_rat(self.lo), format_rat(self.hi),
                               ")" if not self.hi_closed else "]")


class IntervalSet:
    """Sorted, pairwise-disjoint rational-endpoint subintervals of [0, 1);
    immutable, as :func:`compute_omega` shares one instance per (a, b)."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals):
        ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        for prev, cur in zip(ivs, ivs[1:]):
            # touching is legal only when the shared point is excluded by
            # both sides; anything else overlaps or should have been merged
            if cur.lo < prev.hi or (cur.lo == prev.hi
                                    and (cur.lo_closed or prev.hi_closed)):
                raise DomainError("intervals overlap or touch with closure")
        for iv in ivs:
            if iv.lo < 0 or iv.hi > 1 or (iv.hi == 1 and iv.hi_closed):
                raise DomainError("intervals must lie within [0, 1)")
        object.__setattr__(self, "intervals", tuple(ivs))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    def contains(self, y: Rat) -> bool:
        y = Fraction(y)
        return any(iv.contains(y) for iv in self.intervals)

    def total_measure(self) -> Rat:
        return sum((iv.hi - iv.lo for iv in self.intervals), Fraction(0))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

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


def _breakpoints(bound: int):
    """The Farey sequence of order ``bound`` on [0, 1): every j/m with
    m <= bound as the pair (j, m), ascending, by the next-term recurrence of
    Farey neighbours."""
    p, q, r, s = 0, 1, 1, bound
    while p < q:
        yield p, q
        t = (bound + q) // s
        p, q, r, s = r, s, t * r - p, t * s - q


def compute_omega(a: int, b: int, denominator_bound: int | None = None) -> OmegaReport:
    """Exact interval description of the certifying set.

    For fixed y the min over x reduces to six candidate x values
    (:func:`floor_sum_min`).  At those candidates every floor term is [m*y]
    for an integer m of :func:`_mod_table` or a difference of two of them,
    and [m*y] changes only where m*y is an integer: at fractions whose
    reduced denominator divides |m|.  If p/q < r/s are Farey neighbours
    (r*q - p*s = 1), every fraction strictly between them has a denominator
    of at least q + s (Hardy & Wright, Thm. 28).  So on a gap with
    q + s > bound >= |m| no floor term changes, membership is constant, and
    the gap's mediant (p + r)/(q + s) decides all of it; each breakpoint is
    decided by itself.  One integer walk decides both and certifies each
    step as it goes: it runs from 0/1 to 1/1, each step joins neighbours
    with q + s > bound, and every coefficient is at most the bound;
    otherwise CertificateError.  The set depends on (a, b) alone, so it is
    computed once per process for each (a, b, denominator bound).
    """
    _validate_ab(a, b)
    bound = b if denominator_bound is None else denominator_bound
    if bound < b:
        raise DomainError("denominator bound below b misses breakpoints")
    return _omega_report(a, b, bound)


@lru_cache(maxsize=None)
def _omega_report(a: int, b: int, bound: int) -> OmegaReport:
    table = _mod_table(a, b)
    widest = max(max(abs(m_u), abs(m_w), abs(m_u - m_w))
                 for row in table for m_u, m_w in row)
    if widest > bound:
        raise CertificateError(f"floor coefficient {widest} exceeds the "
                               f"denominator bound {bound}")
    steps = iter(_breakpoints(bound))
    p, q = next(steps, (None, None))
    if (p, q) != (0, 1):
        raise CertificateError("the breakpoint walk does not start at 0/1")

    runs: list[list] = []
    cur: list | None = None  # [lo, hi, lo_closed, hi_closed], ends as (num, den)
    for r, s in itertools.chain(steps, ((1, 1),)):
        if r * q - p * s != 1 or q + s <= bound:
            raise CertificateError(
                f"{p}/{q} and {r}/{s} are not Farey neighbours beyond order "
                f"{bound}; a breakpoint may lie between them")
        # the point p/q, then the open gap (p/q, r/s)
        for hi, closed, inside in (((p, q), True, _member(table, p, q)),
                                   ((r, s), False, _member(table, p + r, q + s))):
            if inside:
                if cur is None:
                    cur = [(p, q), hi, closed, closed]
                    runs.append(cur)
                else:
                    cur[1], cur[3] = hi, closed
            else:
                cur = None
        p, q = r, s

    intervals = [Interval(Fraction(*lo), Fraction(*hi), lo_closed, hi_closed)
                 for lo, hi, lo_closed, hi_closed in runs]
    # each closure flag against the public predicate at the exact endpoint
    for iv in intervals:
        if (omega_contains(a, b, iv.lo) != iv.lo_closed
                or omega_contains(a, b, iv.hi) != iv.hi_closed):
            raise CertificateError(f"the closure of {iv} disagrees with "
                                   "pointwise membership")
    return OmegaReport(a=a, b=b, omega=IntervalSet(intervals),
                       denominator_bound=bound)


# ---------------------------------------------------------------------------
# finite-n prime products
# ---------------------------------------------------------------------------

def _omega_primes(a: int, b: int, n: int, sieve: PrimeSieve) -> list[int]:
    """The primes sqrt(bn) < p <= bn whose fractional part {n/p} lies in
    Omega(a, b), ascending.

    Primes above bn never qualify ({n/p} < 1/b there), and no product below
    counts a prime p <= sqrt(bn).  Membership is decided pointwise, never via
    the interval set.
    """
    _validate_ab(a, b)
    bn = b * n
    if sieve.limit < bn:
        raise SieveCapacityError(f"sieve limit {sieve.limit} < bn = {bn}")
    table = _mod_table(a, b)
    return [p for p in sieve.primes(math.isqrt(bn) + 1, bn)
            if _member(table, n % p, p)]


def delta_products(params: Params, sieve: PrimeSieve | None = None) -> tuple[int, int]:
    """(Delta, Delta1) for one n: products of the primes whose fractional
    part {n/p} satisfies the floor inequality, over p > sqrt(bn) and over
    p > (b-2a)n respectively.
    """
    a, b, n = params.a, params.b, params.n
    if sieve is None:
        sieve = PrimeSieve(max(b * n, 10))
    cut1 = (b - 2 * a) * n
    delta = delta1 = 1
    for p in _omega_primes(a, b, n, sieve):
        delta *= p
        if p > cut1:
            delta1 *= p
    return delta, delta1


# ---------------------------------------------------------------------------
# asymptotic constants
# ---------------------------------------------------------------------------

def n_constants(a: int, b: int, omega: IntervalSet, digits: int):
    """(N1, N2): the exponential rates of d_bn/Delta and d'*Delta1*d_bn/Delta.

    N1 = b - sum over components [u, v] of psi(v) - psi(u): the lcm grows at
    rate b while the digamma difference is the density of the primes counted
    in Delta.  N2 adds b - 2a for the second lcm plus the large-prime regime
    of Delta1, where {n/p} = n/p makes the density of p > (b-2a)n with
    n/p in [u, v) equal to 1/u - 1/v, restricted to [0, 1/(b-2a)) and with
    components split at the cut.  Both closed forms are certified against
    finite-n sieve oracles in the tests before anything downstream trusts
    them.  The pair is computed once per process for each (a, b, components,
    digits).
    """
    _validate_ab(a, b)
    if digits < 30:
        raise DomainError("digits must be >= 30")
    return _n_pair(a, b, omega.intervals, digits)


@lru_cache(maxsize=None)
def _n_pair(a: int, b: int, components: tuple[Interval, ...], digits: int):
    import mpmath as mp

    from .asymptotics import digamma

    with mp.workdps(digits + 10):
        psi_total = mp.mpf(0)
        for iv in components:
            if iv.lo < iv.hi:
                psi_total += digamma(iv.hi, digits + 10) - digamma(iv.lo, digits + 10)
        n1 = mp.mpf(b) - psi_total

        cut = Fraction(1, b - 2 * a)
        large = sum((1 / iv.lo - 1 / min(iv.hi, cut) for iv in components
                     if iv.lo < min(iv.hi, cut)), Fraction(0))  # exact
        n2 = n1 + (b - 2 * a) + mp.fdiv(large.numerator, large.denominator)
    return n1, n2
