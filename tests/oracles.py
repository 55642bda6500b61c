"""Oracles kept with the tests that use them: the interval description of
Omega(a, b), and the saddle rate by nine logarithms.  numpy is needed here
only; the package does not import it.

:func:`omega_by_fraction_probes` is the interval description built the way
the package built it before its integer walk: ``Fraction`` probes at every
point of the literal Farey set and at every gap's mediant.
:func:`grid_discrepancies` compares pointwise membership with the interval
set on a literal grid; :func:`certified_grid_check` extends that to every
point of a grid with per-gap constancy certificates plus a random literal
sample.

:func:`m_rate_nine_logs` is the saddle rate the way the package took it
before its one-logarithm form: one log per factor, and
:func:`cubic_roots_cardano` finds all three roots of the saddle cubic by
the radical formula, independently of the Newton and deflation path.
:func:`finite_n_n1` and :func:`finite_n_n2` are the finite-n sieve
estimates that N1 and N2 are held to.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from irrbounds.errors import DomainError, SieveCapacityError
from irrbounds.exact_arith import PrimeSieve
from irrbounds.omega import (Interval, IntervalSet, _breakpoints, _mod_table,
                             _omega_primes, _validate_ab, omega_contains)

# grid points per numpy pass of grid_discrepancies (int64: 8 MiB per column)
GRID_CHUNK = 1 << 20


def _contains_by_fraction(a: int, b: int, y: Fraction) -> bool:
    """Membership of y by the residue rows of :func:`_mod_table`, every row
    and every group tested on the reduced ``Fraction``."""
    num, den = y.numerator, y.denominator
    return all(any((m_u * num) % den < (m_w * num) % den for m_u, m_w in row)
               for row in _mod_table(a, b))


def omega_by_fraction_probes(a: int, b: int, bound: int) -> IntervalSet:
    """Omega(a, b) from ``Fraction`` probes: membership at each j/m with
    m <= bound in [0, 1), sorted from the literal set, and at the mediant of
    each gap up to 1, merged into maximal runs."""
    pts = sorted({Fraction(j, m) for m in range(1, bound + 1) for j in range(m)})
    events = []
    for p, hi in zip(pts, pts[1:] + [Fraction(1)]):
        events.append((p, p, True, _contains_by_fraction(a, b, p)))
        mediant = Fraction(p.numerator + hi.numerator,
                           p.denominator + hi.denominator)
        events.append((p, hi, False, _contains_by_fraction(a, b, mediant)))

    intervals = []
    cur = None  # [lo, hi, lo_closed, hi_closed]
    for lo, hi, is_point, inside in events:
        if inside:
            if cur is None:
                cur = [lo, hi, is_point, is_point]
            else:
                cur[1], cur[3] = hi, is_point
        elif cur is not None:
            intervals.append(Interval(*cur))
            cur = None
    if cur is not None:
        intervals.append(Interval(*cur))
    return IntervalSet(intervals)


def grid_discrepancies(a: int, b: int, L: int, omega: IntervalSet,
                       indices=None) -> int:
    """Count grid points y = i/L where pointwise membership disagrees with
    the interval description.

    ``indices`` picks the i to scan: a ``range`` (``range(L)`` by default)
    is scanned in chunks of ``GRID_CHUNK`` points, any other iterable as one
    array.  Membership is the integer residue test of :func:`_mod_table`,
    vectorized in int64, and interval containment maps to index windows.
    """
    import numpy as np

    _validate_ab(a, b)
    if b * L >= 2**63:
        raise DomainError(f"grid L = {L} too large: {b}*i overflows int64")
    windows = []
    for iv in omega:
        lo, hi = iv.lo * L, iv.hi * L
        windows.append((math.ceil(lo) if iv.lo_closed else math.floor(lo) + 1,
                        math.floor(hi) if iv.hi_closed else math.ceil(hi) - 1))
    if indices is None:
        indices = range(L)
    if isinstance(indices, range):
        chunks = (np.arange(r.start, r.stop, r.step, dtype=np.int64)
                  for r in (indices[j:j + GRID_CHUNK]
                            for j in range(0, len(indices), GRID_CHUNK)))
    else:
        chunks = [np.fromiter(indices, dtype=np.int64)]

    table = _mod_table(a, b)
    bad = 0
    for i in chunks:
        mods = {m: (m * i) % L for row in table for pair in row for m in pair}
        member = np.ones(i.shape, dtype=bool)
        for row in table:
            ok = np.zeros(i.shape, dtype=bool)
            for m_u, m_w in row:
                ok |= mods[m_u] < mods[m_w]
            member &= ok
        inside = np.zeros(i.shape, dtype=bool)
        for w_lo, w_hi in windows:
            inside |= (i >= w_lo) & (i <= w_hi)
        bad += int(np.count_nonzero(member != inside))
    return bad


@dataclass(frozen=True)
class GridCheck:
    grid_size: int
    breakpoints_checked: int
    gaps_certified: int
    sampled_literal: int
    discrepancies: int


def certified_grid_check(a: int, b: int, L: int, omega: IntervalSet,
                         sample: int = 0, seed: int = 0) -> GridCheck:
    """Establish zero discrepancies over the full grid i/L without touching
    every grid point individually.

    Every floor term in the six-candidate formula is of the form [m*y] with a
    fixed integer coefficient |m| <= b: the pairs of :func:`_mod_table` and
    their differences c3.  On an open gap between consecutive breakpoints,
    each such term is constant as soon as m*y crosses no integer strictly
    inside the gap; that crossing-freeness is checked exactly per gap and per
    coefficient.  Combined with exact membership at every breakpoint (all of
    which are grid points, since lcm(1..b) | L) and at one interior point per
    gap, agreement then holds at every one of the L grid points.  A
    deterministic random sample of grid points is scanned by
    :func:`grid_discrepancies` on top as an independent guard on this very
    argument.
    """
    _validate_ab(a, b)
    for m in range(1, b + 1):
        if L % m:
            raise DomainError(f"L = {L} is not divisible by {m}; breakpoints "
                              "would fall between grid points")
    coeffs = {m for row in _mod_table(a, b) for m_u, m_w in row
              for m in (m_u, m_w, m_u - m_w)}
    coeffs.discard(0)

    pts = [Fraction(p, q) for p, q in _breakpoints(b)]
    endpoints = {iv.lo for iv in omega} | {iv.hi for iv in omega}
    bad = 0
    for i, p in enumerate(pts):
        if omega_contains(a, b, p) != omega.contains(p):
            bad += 1
        hi = pts[i + 1] if i + 1 < len(pts) else Fraction(1)
        # constancy certificate: no integer strictly inside (m*p, m*hi)
        for m in coeffs:
            lo_m, hi_m = sorted((m * p, m * hi))
            count = math.ceil(hi_m) - math.floor(lo_m) - 1
            if count > 0:
                raise DomainError(
                    f"floor term {m}*y crosses an integer inside ({p}, {hi}); "
                    "breakpoint lattice is incomplete")
        # the interval description must not subdivide the gap either
        for q in endpoints:
            if p < q < hi:
                raise DomainError(f"interval endpoint {q} inside gap ({p}, {hi})")
        mid = (p + hi) / 2
        if omega_contains(a, b, mid) != omega.contains(mid):
            bad += 1

    sampled = 0
    if sample:
        rng = random.Random(seed)
        idx = (rng.randrange(L) for _ in range(sample))
        bad += grid_discrepancies(a, b, L, omega, indices=idx)
        sampled = sample
    return GridCheck(grid_size=L, breakpoints_checked=len(pts),
                     gaps_certified=len(pts), sampled_literal=sampled,
                     discrepancies=bad)


def m_rate_nine_logs(a: int, b: int, z, x):
    """ln of the six-factor modulus quotient at a root z of the saddle cubic,
    minus (b/2) ln x, one log per factor, at the working precision."""
    m1, m2, m3, m4, m5 = (mp.fabs(z - c)
                          for c in (b - 2 * a, b - a, b, 2 * a, a))
    return ((b - 2 * a) * mp.log(m1) + (b - a) * mp.log(m2) + b * mp.log(m3)
            - 2 * a * mp.log(m4) - a * mp.log(m5)
            - (b - 4 * a) * mp.log(b - 4 * a) - (b - 2 * a) * mp.log(b - 2 * a)
            - b * mp.log(b) - mp.mpf(b) / 2 * mp.log(x))


def cubic_roots_cardano(coeffs, digits: int) -> list[mp.mpc]:
    """All three roots of c3 z^3 + c2 z^2 + c1 z + c0 by the radical formula.

    Kept as an independent oracle against the Newton/deflation path.
    """
    with mp.workdps(digits + 15):
        c3, c2, c1, c0 = [mp.mpc(str(c)) if isinstance(c, Fraction) else mp.mpc(c)
                          for c in coeffs]
        if c3 == 0:
            raise DomainError("not a cubic")
        p2, p1, p0 = c2 / c3, c1 / c3, c0 / c3
        shift = p2 / 3
        p = p1 - p2 * p2 / 3
        q = 2 * p2**3 / 27 - p2 * p1 / 3 + p0
        disc = (q / 2) ** 2 + (p / 3) ** 3
        u3 = -q / 2 + mp.sqrt(disc)
        if mp.fabs(u3) < mp.mpf(10) ** (-(digits + 5)):
            u3 = -q / 2 - mp.sqrt(disc)
        u = u3 ** (mp.mpf(1) / 3)
        if u == 0:
            return [+(-shift)] * 3
        omega = mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2)
        roots = []
        for i in range(3):
            ui = u * omega**i
            roots.append(+(ui - p / (3 * ui) - shift))
        return roots


def log_d_upto(n: int, sieve: PrimeSieve) -> float:
    """ln lcm(1..n) as a float (finite-n oracle use; exact value is huge)."""
    if n > sieve.limit:
        raise SieveCapacityError(f"{n} exceeds sieve limit {sieve.limit}")
    total = 0.0
    for p in sieve.primes(2, n):
        e = 1
        q = p
        while q * p <= n:
            q *= p
            e += 1
        total += e * math.log(p)
    return total


def finite_n_n1(a: int, b: int, n: int, sieve: PrimeSieve) -> float:
    """Sieve-based estimate (1/n) ln(d_bn / Delta) for one finite n."""
    ln_delta = sum(math.log(p) for p in _omega_primes(a, b, n, sieve))
    return (log_d_upto(b * n, sieve) - ln_delta) / n


def finite_n_n2(a: int, b: int, n: int, sieve: PrimeSieve) -> float:
    """Sieve-based estimate (1/n) ln(d_(b-2a)n * Delta1 * d_bn / Delta)."""
    primes = _omega_primes(a, b, n, sieve)
    cut1 = (b - 2 * a) * n
    ln_delta = sum(math.log(p) for p in primes)
    ln_delta1 = sum(math.log(p) for p in primes if p > cut1)
    return (log_d_upto(cut1, sieve) + ln_delta1
            + log_d_upto(b * n, sieve) - ln_delta) / n
