"""The set Omega of fractional parts certifying extra prime divisors, the
finite-n prime products Delta and Delta1, and the asymptotic
denominator-savings constants N1 and N2.

Membership of num/den is decided by integer residues mod den from the
three-group floor inequality, as the prime scans need.  One walk certified
by the Farey-neighbour property yields Omega's runs as int pairs
(:func:`omega_runs`) for the digamma sums and N2's exact large-prime sum;
only :func:`compute_omega` (omega's printing, the tests) makes the
``Fraction`` records of :mod:`.rational` of them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import CertificateError, DomainError, SieveCapacityError
from .exact_arith import Params, PrimeSieve, as_pair
from .fixed import Ball, prec_of

__all__ = ["omega_contains", "omega_runs", "compute_omega", "delta_products",
           "n_constants"]


def _validate_ab(a: int, b: int) -> None:
    if a < 1 or b <= 4 * a or b % 2 == 0:
        raise DomainError(f"need b odd and b > 4a >= 4, got a={a}, b={b}")


# -- the floor inequality -----------------------------------------------------

def _groups(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """The three groups (c1, c2, c3) of the floor expression, each
    [x - c1*y] - [x - c2*y] - [c3*y] with c3 = c2 - c1."""
    return ((2 * a, b - 2 * a, b - 4 * a), (a, b - a, b - 2 * a), (0, b, b))


def _candidates(a: int, b: int) -> tuple[int, ...]:
    """Coefficients c0 of the x = c0*y at which the min over x is attained:
    in x the floor expression is piecewise constant, right-continuous and
    1-periodic, with jumps only at these x (mod 1), so each step takes its
    value at its left end, a jump."""
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


def omega_contains(a: int, b: int, y) -> bool:
    """Pointwise membership test (the authoritative one for prime products)
    of an exact rational y (:func:`exact_arith.as_pair`)."""
    return _member(_mod_table(a, b), *as_pair(y))


# -- interval description -----------------------------------------------------

def _breakpoints(bound: int):
    """The Farey sequence of order ``bound`` on [0, 1): every j/m with
    m <= bound as the pair (j, m), ascending, by the next-term recurrence of
    Farey neighbours."""
    p, q, r, s = 0, 1, 1, bound
    while p < q:
        yield p, q
        t = (bound + q) // s
        p, q, r, s = r, s, t * r - p, t * s - q


def omega_runs(a: int, b: int, denominator_bound: int | None = None) -> tuple:
    """Omega(a, b) as its runs ((lo_num, lo_den), (hi_num, hi_den),
    lo_closed, hi_closed), ascending, ends in lowest terms.  For fixed y the
    min over x reduces to six candidate x values (:func:`_candidates`).  At
    those candidates every floor term is [m*y] for an integer m of
    :func:`_mod_table` or a difference of two of them, and [m*y] changes
    only where m*y is an integer: at fractions whose reduced denominator
    divides |m|.  If p/q < r/s are Farey neighbours (r*q - p*s = 1), every
    fraction strictly between them has a denominator of at least q + s
    (Hardy & Wright, Thm. 28).  So on a gap with q + s > bound >= |m| no
    floor term changes, membership is constant, and the gap's mediant
    (p + r)/(q + s) decides all of it; each breakpoint is decided by itself.
    One integer walk decides both and certifies each step as it goes: it
    runs from 0/1 to 1/1, each step joins neighbours with q + s > bound,
    every coefficient is at most the bound, and each run's closure flags
    agree with pointwise membership; otherwise CertificateError.  Memoised
    per (a, b, denominator bound)."""
    _validate_ab(a, b)
    bound = b if denominator_bound is None else denominator_bound
    if bound < b:
        raise DomainError("denominator bound below b misses breakpoints")
    return _omega_report(a, b, bound)


def compute_omega(a: int, b: int, denominator_bound: int | None = None):
    """The certifying set as :func:`omega_runs` in ``Fraction`` intervals, a
    :class:`rational.OmegaReport` shared per (a, b, runs, bound)."""
    from .rational import _report
    return _report(a, b, omega_runs(a, b, denominator_bound), denominator_bound or b)


@lru_cache(maxsize=None)
def _omega_report(a: int, b: int, bound: int) -> tuple:
    """The certified walk of :func:`omega_runs`."""
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

    # each closure flag against the public predicate at the exact endpoint
    for lo, hi, *flags in runs:
        if [omega_contains(a, b, lo), omega_contains(a, b, hi)] != flags:
            raise CertificateError(f"the closure of the run {lo}-{hi} disagrees "
                                   "with pointwise membership")
    return tuple(map(tuple, runs))


# -- finite-n prime products --------------------------------------------------

def _omega_primes(a: int, b: int, n: int, sieve: PrimeSieve) -> list[int]:
    """The primes sqrt(bn) < p <= bn whose {n/p} lies in Omega(a, b),
    ascending, decided pointwise: primes above bn never qualify ({n/p} < 1/b
    there), and no product counts a prime p <= sqrt(bn)."""
    _validate_ab(a, b)
    bn = b * n
    if sieve.limit < bn:
        raise SieveCapacityError(f"sieve limit {sieve.limit} < bn = {bn}")
    table = _mod_table(a, b)
    return [p for p in sieve.primes(math.isqrt(bn) + 1, bn)
            if _member(table, n % p, p)]


def delta_products(params: Params, sieve: PrimeSieve | None = None) -> tuple[int, int]:
    """(Delta, Delta1) for one n: products of the primes with {n/p} in
    Omega, over p > sqrt(bn) and over p > (b-2a)n respectively."""
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


# -- asymptotic constants -----------------------------------------------------

def n_constants(a: int, b: int, runs: tuple, digits: int):
    """(N1, N2): the exponential rates of d_bn/Delta and d'*Delta1*d_bn/Delta,
    as balls, from Omega's runs (:func:`omega_runs`).
    N1 = b - sum over components [u, v] of psi(v) - psi(u): the lcm grows at
    rate b while the digamma difference is the density of the primes counted
    in Delta.  N2 adds b - 2a for the second lcm plus the large-prime regime
    of Delta1, where {n/p} = n/p makes the density of p > (b-2a)n with
    n/p in [u, v) equal to 1/u - 1/v, restricted to [0, 1/(b-2a)) and with
    components split at the cut.  The tests hold both to finite-n sieves."""
    _validate_ab(a, b)
    if digits < 30:
        raise DomainError("digits must be >= 30")
    return _n_pair(a, b, runs, digits)


@lru_cache(maxsize=None)
def _n_pair(a: int, b: int, runs: tuple, digits: int):
    """psi's balls at digits + 10 digits (asymptotics.digamma), summed and
    differenced, and the large-prime part, an exact int-pair sum, each
    rounded at digits + 10 digits: ball arithmetic carries the radii."""
    from .asymptotics import digamma

    p, cut = prec_of(digits + 10), b - 2 * a
    psi_total, num, den = Ball(0), 0, 1  # large-prime part num/den
    for lo, hi, _, _ in runs:
        if lo != hi:
            psi = digamma(hi, digits + 10) - digamma(lo, digits + 10)
            psi_total = (psi_total + psi.rnd(p)).rnd(p)
        (ln, ld), (hn, hd) = lo, hi if hi[0] * cut <= hi[1] else (1, cut)
        if ln * hd < hn * ld:  # 1/u - 1/min(v, cut) = (ld hn - hd ln)/(ln hn)
            num, den = num * ln * hn + (ld * hn - hd * ln) * den, den * ln * hn
    n1 = (b - psi_total).rnd(p)
    return n1, ((n1 + cut).rnd(p) + Ball(num).div(den, p)).rnd(p)
