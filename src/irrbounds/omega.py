"""The set Omega of fractional parts certifying extra prime divisors, the
finite-n prime products Delta and Delta1, and the asymptotic
denominator-savings constants N1 and N2.

Membership of num/den is decided by integer residues mod den from the
three-group floor inequality, as the prime scans need.  One walk over the
floor terms' own breakpoints j/m, with a direct certificate that it met
each of them in order, yields Omega's runs as int pairs
(:func:`compute_omega`): the digamma sums and N2's exact large-prime sum
read them, and omega prints them.  An exact rational argument, such as a
point tested for membership, is an int pair (num, den).
"""

from __future__ import annotations

import collections
import math
from functools import lru_cache

from .errors import CertificateError, DomainError, SieveCapacityError
from .exact_arith import Params, PrimeSieve
from .fixed import Ball, prec_of

__all__ = ["omega_contains", "compute_omega", "delta_products", "n_constants"]


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


def omega_contains(a: int, b: int, y: tuple[int, int]) -> bool:
    """Pointwise membership test (the authoritative one for prime products)
    of the exact rational y, an int pair (num, den), den > 0; any y, also
    outside [0, 1).  DomainError for den <= 0 or (a, b) outside the domain."""
    _validate_ab(a, b)
    if y[1] <= 0:
        raise DomainError(f"need a denominator > 0, got y = {y[0]}/{y[1]}")
    return _member(_mod_table(a, b), *y)


# -- interval description -----------------------------------------------------

def _coefficients(table) -> set[int]:
    """The distinct nonzero |m| of the floor terms [m*y] at the candidates:
    m_u, m_w and m_u - m_w of each pair of the :func:`_mod_table`
    ``table``, at most seven."""
    return {abs(m) for row in table for m_u, m_w in row
            for m in (m_u, m_w, m_u - m_w)} - {0}


def _points(table) -> list[tuple[int, int]]:
    """Every j/m, 0 <= j <= m, in lowest terms and ascending, for each
    coefficient m of :func:`_coefficients`.  Distinct such fractions differ
    by at least 1/M^2, M the largest m, so with 2^K > M^2 the key
    floor(j*2^K/m) sorts them and merges only equals."""
    coeffs = _coefficients(table)
    shift = 2 * max(coeffs).bit_length()
    points = {}
    for m in coeffs:
        for j in range(m + 1):
            g = math.gcd(j, m)
            points[(j << shift) // m] = j // g, m // g
    return [points[key] for key in sorted(points)]


@lru_cache(maxsize=None)
def compute_omega(a: int, b: int) -> tuple:
    """Omega(a, b) as its runs ((lo_num, lo_den), (hi_num, hi_den),
    lo_closed, hi_closed), ascending, ends in lowest terms.  For fixed y the
    min over x reduces to six candidate x values (:func:`_candidates`).
    There every floor term is [m*y] for an m of :func:`_mod_table` or a
    difference of two, and [m*y] changes only at the points j/m,
    0 <= j <= m.  At most seven |m| occur (a, 2a and b - 4a, ..., b), so
    the walk meets at most 7b + 7 points (:func:`_points`).  It decides each
    point, and each open gap between consecutive points by its mediant
    (p + r)/(q + s), which lies strictly inside: no floor term changes on
    the gap.  Its certificate is direct: the walk runs from 0/1 to 1/1,
    consecutive points strictly increase (r*q > p*s), for every coefficient
    m of the table exactly m + 1 walked points have a denominator dividing
    m (so all j/m were met, and no gap holds one), and each run's closure
    flags agree with pointwise membership; otherwise CertificateError.
    Memoised per (a, b)."""
    _validate_ab(a, b)
    table = _mod_table(a, b)
    points = _points(table)
    if points[:1] != [(0, 1)] or points[-1:] != [(1, 1)]:
        raise CertificateError("the breakpoint walk does not run from 0/1 to 1/1")

    runs: list[list] = []
    cur: list | None = None  # [lo, hi, lo_closed, hi_closed], ends as (num, den)
    for (p, q), (r, s) in zip(points, points[1:]):
        if r * q <= p * s:
            raise CertificateError(f"the breakpoints {p}/{q} and {r}/{s} are "
                                   "out of order; one may lie between them")
        # the point p/q, then the open gap (p/q, r/s)
        for hi, closed, inside in (((p, q), True, _member(table, p, q)),
                                   ((r, s), False, _member(table, p + r, q + s))):
            if not inside:
                cur = None
            elif cur is None:
                cur = [(p, q), hi, closed, closed]
                runs.append(cur)
            else:
                cur[1], cur[3] = hi, closed

    # each floor term's progression j/m walked in full, m read afresh from
    # the table, not from _points: the walked denominators dividing m
    dens = collections.Counter(q for _, q in points)
    for m in _coefficients(table):
        divisors = {d for q in range(1, math.isqrt(m) + 1) if m % q == 0
                    for d in (q, m // q)}
        if sum(dens[d] for d in divisors) != m + 1:
            raise CertificateError(f"the breakpoint walk misses a point j/{m}")
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


def delta_products(params: Params) -> tuple[int, int]:
    """(Delta, Delta1) for one n: products of the primes with {n/p} in
    Omega, over p > sqrt(bn) and over p > (b-2a)n respectively."""
    a, b, n = params.a, params.b, params.n
    cut1 = (b - 2 * a) * n
    delta = delta1 = 1
    for p in _omega_primes(a, b, n, PrimeSieve(max(b * n, 10))):
        delta *= p
        if p > cut1:
            delta1 *= p
    return delta, delta1


# -- asymptotic constants -----------------------------------------------------

@lru_cache(maxsize=None)
def n_constants(a: int, b: int, runs: tuple, digits: int):
    """(N1, N2): the exponential rates of d_bn/Delta and d'*Delta1*d_bn/Delta,
    as balls, from Omega's runs (:func:`compute_omega`), memoised per key.
    N1 = b - sum over components [u, v] of psi(v) - psi(u): the lcm grows at
    rate b while the digamma difference is the density of the primes counted
    in Delta.  N2 adds b - 2a for the second lcm plus the large-prime regime
    of Delta1, where {n/p} = n/p makes the density of p > (b-2a)n with
    n/p in [u, v) equal to 1/u - 1/v, restricted to [0, 1/(b-2a)) and with
    components split at the cut.  The tests hold both to finite-n sieves.

    psi's balls at digits + 10 digits (asymptotics.digamma), summed and
    differenced, and the large-prime part, an exact int-pair sum, are each
    rounded at digits + 10 digits: ball arithmetic carries the radii."""
    # imported on call: verify needs only delta_products, not asymptotics
    from .asymptotics import digamma

    _validate_ab(a, b)
    if digits < 30:
        raise DomainError("digits must be >= 30")
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
