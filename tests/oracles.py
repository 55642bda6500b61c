"""Oracles kept with the tests that use them: the interval description of
Omega(a, b), and the saddle rate by nine logarithms.  numpy is needed here
only; the package does not import it.

The ``Fraction`` layer the package printed through before its int pairs:
``Rat`` (:class:`fractions.Fraction`), :func:`format_rat`, Omega's
:class:`Interval` and :class:`IntervalSet`, with :func:`omega_intervals`
building the set from ``omega.compute_omega``'s runs, and :class:`QuadRat`,
Q(sqrt D), the reference for the forms' int tuples.

:func:`floor_sum_value` and :func:`floor_sum_min` evaluate the three-group
floor expression literally, the reference for ``omega.omega_contains``.
:func:`shift_poly`, :func:`tail_transform_coeffs` (by the difference
triangle of :func:`_transform_nums`), :func:`_radical_sum` and
:func:`series_uvw` complete the dense route of ``irrbounds.dense``: the
coefficient transform of the expanded A, its sum at a quadratic point, and
the truncated tail series with an exact tail bound.
:func:`fraction_uvw`, :func:`scaling_factors` and
:func:`fraction_integer_forms` are the edge of the forms as the package
computed it before its int tuples: t, the pole-sum seeds, the power of z
and the integer scaling in ``QuadRat`` and ``Fraction`` arithmetic, around
the same int kernel.  :func:`quad_tuple` and :func:`quad_rat` convert
between a ``QuadRat`` and the int tuple (u, v, e, D) the forms compute on,
and :func:`runs_of` turns an ``IntervalSet`` into Omega's int runs.
:func:`pair` turns a ``Fraction`` (or an int) into the int pair (num, den)
that every exact rational argument of the package is, and :func:`saddle_x`
makes the ball x of the saddle functions from an exact num/den, as they
made it themselves when they still took a ``Fraction``.
:func:`omega_by_fraction_probes` is the interval description built the way
the package built it before its integer walk: ``Fraction`` probes at every
point of the literal Farey set and at every gap's mediant.
:func:`farey_runs` is the integer walk the package made after that, over
the Farey sequence (:func:`farey_points`) instead of the floor terms' own
breakpoints, the reference for ``omega.compute_omega`` at large b.
:func:`grid_discrepancies` compares pointwise membership with the interval
set on a literal grid; :func:`certified_grid_check` scans a random sample
of a grid that holds every breakpoint.

:func:`m_rate_nine_logs` is the saddle rate the way the package took it
before its one-logarithm form: one log per factor, and
:func:`cubic_roots_cardano` finds all three roots of the saddle cubic by
the radical formula, independently of the Newton and deflation path.
:func:`_real_cubic_coeffs` and :func:`_eval_cubic` are that cubic's
coefficients at any x (a ``Fraction``, an mpf) and their Horner value, as
the package held them before its one integer cubic.
:func:`saddle_rates_iv` encloses M1 and M2 over a box of roots and x in
mpmath's ``iv`` interval context at full precision, the reference for the
radii the package proves without it.
:func:`finite_n_n1` and :func:`finite_n_n2` are the finite-n sieve
estimates that N1 and N2 are held to.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm

import mpmath as mp

from irrbounds.dense import IntPoly, build_A, derivative
from irrbounds.errors import DomainError
from irrbounds.asymptotics import guard_digits
from irrbounds.exact_arith import (Frozen, Params, PrimeSieve, check_cell,
                                   d_upto, format_int)
from irrbounds.fixed import Ball, prec_of
from irrbounds.errors import IntegralityError
from irrbounds.forms import (_alpha_combinations, _PoleSum, _root_blocks,
                             _walk, eval_UVW, x_point)
from irrbounds.omega import (_candidates, _groups, _member, _mod_table,
                             _omega_primes, compute_omega, delta_products)

# grid points per numpy pass of grid_discrepancies (int64: 8 MiB per column)
GRID_CHUNK = 1 << 20

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
        r = math.isqrt(D)
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
    """Sorted, pairwise-disjoint rational-endpoint subintervals of [0, 1),
    immutable."""

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


def omega_intervals(a: int, b: int) -> IntervalSet:
    """Omega(a, b) as ``Fraction`` intervals, built from the int runs of
    ``omega.compute_omega``."""
    return IntervalSet(Interval(Fraction(*lo), Fraction(*hi), *flags)
                       for lo, hi, *flags in compute_omega(a, b))


def quad_tuple(x: QuadRat) -> tuple[int, int, int, int]:
    """The int tuple (u, v, e, D) of x = (u + v sqrt(D))/e, in lowest terms."""
    return (*_int_pair(x), x.D)


def quad_rat(x: tuple[int, int, int, int]) -> QuadRat:
    """The QuadRat of the int tuple x = (u, v, e, D), (u + v sqrt(D))/e."""
    u, v, e, D = x
    return QuadRat(Fraction(u, e), Fraction(v, e), D)


def pair(x) -> tuple[int, int]:
    """The exact rational x, a ``Fraction`` or an int, as the int pair
    (num, den) in lowest terms, den > 0."""
    x = Fraction(x)
    return x.numerator, x.denominator


def saddle_x(num: int, den: int, digits: int) -> Ball:
    """The ball x = num/den that saddle_real and saddle_complex take: the
    quotient at their working bits, digits + 15 and the guard digits of
    1 - x (asymptotics._saddle_bits), as they built it from a ``Fraction``."""
    w = prec_of(digits + 15 + guard_digits((den - num, den)))
    return Ball(num).div(den, w)


def runs_of(omega: IntervalSet) -> tuple:
    """The intervals of ``omega`` as the int runs of ``omega.compute_omega``."""
    return tuple(((iv.lo.numerator, iv.lo.denominator),
                  (iv.hi.numerator, iv.hi.denominator), iv.lo_closed,
                  iv.hi_closed) for iv in omega)


def floor_sum_value(a: int, b: int, x, y) -> int:
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


def floor_sum_min(a: int, b: int, y) -> int:
    """min over all real x of the floor expression, for fixed y, attained at
    one of the six candidate x = c0*y (omega._candidates)."""
    y = Fraction(y)
    return min(floor_sum_value(a, b, c0 * y, y) for c0 in _candidates(a, b))


def dual_path_ell(k: int, a: int, b: int, n: int, digits: int = 60) -> mp.mpf:
    """ell recomputed without the integer detour: S*(d/Delta) stays an exact
    rational scalar on U(x_k)*alpha - sqrt(D)*V(x_k); agreement with
    P*alpha + Q cross-checks the integer assembly."""
    params = Params(k=k, a=a, b=b, n=n)
    uvw = eval_UVW(params, x_point(k))
    delta, _ = delta_products(params)
    _, s_factor, _ = scaling_factors(params)
    scale = s_factor * Fraction(d_upto(b * n), delta)
    sq_v = QuadRat.sqrt_d(2 * k + 1) * quad_rat(uvw.V)
    p, q = scale * quad_rat(uvw.U).u, -scale * sq_v.u
    # the forms' enclosure takes int coefficients: scaled by the lcm L of
    # the denominators, the combination is divided by L again
    den = lcm(p.denominator, q.denominator)
    ell = _alpha_combinations(k, [[(p.numerator * (den // p.denominator), 1),
                                   (q.numerator * (den // q.denominator), 0)]],
                              digits)[0]
    return ell.div(den, prec_of(digits + 10))


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


def farey_points(bound: int):
    """The Farey sequence of order ``bound`` on [0, 1): every j/m with
    m <= bound as the pair (j, m), ascending, by the next-term recurrence of
    Farey neighbours."""
    p, q, r, s = 0, 1, 1, bound
    while p < q:
        yield p, q
        t = (bound + q) // s
        p, q, r, s = r, s, t * r - p, t * s - q


def farey_runs(a: int, b: int, bound: int) -> tuple:
    """Omega(a, b)'s int runs by the walk the package made before it walked
    only the floor terms' own breakpoints: membership by ``omega._member``
    at each point of the Farey sequence of order ``bound`` >= b and at each
    gap's mediant, merged into maximal runs.  Every fraction strictly
    between Farey neighbours p/q < r/s has a denominator of at least q + s
    > bound (Hardy & Wright, Thm. 28), so no breakpoint j/m lies in a gap."""
    table = _mod_table(a, b)
    runs, cur = [], None  # cur: [lo, hi, lo_closed, hi_closed]
    points = [*farey_points(bound), (1, 1)]
    for (p, q), (r, s) in zip(points, points[1:]):
        for hi, closed, inside in (((p, q), True, _member(table, p, q)),
                                   ((r, s), False, _member(table, p + r, q + s))):
            if not inside:
                cur = None
            elif cur is None:
                cur = [(p, q), hi, closed, closed]
                runs.append(cur)
            else:
                cur[1], cur[3] = hi, closed
    return tuple(map(tuple, runs))


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

    check_cell(a, b)
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
    sampled_literal: int
    discrepancies: int


def certified_grid_check(a: int, b: int, L: int, omega: IntervalSet,
                         sample: int = 0, seed: int = 0) -> GridCheck:
    """A deterministic random sample of the grid i/L, scanned literally by
    :func:`grid_discrepancies`.  The grid must hold every breakpoint j/m of
    the floor terms (m <= b, so lcm(1..b) | L).  Agreement at every point
    of it is what ``omega.compute_omega`` certifies itself: it walks each
    breakpoint in order and decides each one and each gap between them.
    The sample guards that argument independently.
    """
    check_cell(a, b)
    for m in range(1, b + 1):
        if L % m:
            raise DomainError(f"L = {L} is not divisible by {m}; breakpoints "
                              "would fall between grid points")
    rng = random.Random(seed)
    bad = grid_discrepancies(a, b, L, omega,
                             indices=[rng.randrange(L) for _ in range(sample)])
    return GridCheck(grid_size=L, sampled_literal=sample, discrepancies=bad)


def m_rate_nine_logs(a: int, b: int, z, x):
    """ln of the six-factor modulus quotient at a root z of the saddle cubic,
    minus (b/2) ln x, one log per factor, at the working precision."""
    m1, m2, m3, m4, m5 = (mp.fabs(z - c)
                          for c in (b - 2 * a, b - a, b, 2 * a, a))
    return ((b - 2 * a) * mp.log(m1) + (b - a) * mp.log(m2) + b * mp.log(m3)
            - 2 * a * mp.log(m4) - a * mp.log(m5)
            - (b - 4 * a) * mp.log(b - 4 * a) - (b - 2 * a) * mp.log(b - 2 * a)
            - b * mp.log(b) - mp.mpf(b) / 2 * mp.log(x))


def saddle_rates_iv(a: int, b: int, z_lo: Fraction, z_hi: Fraction,
                    x_lo: Fraction, x_hi: Fraction, dps: int):
    """Enclosures of M1 and M2 at every root z in [z_lo, z_hi] and x in
    [x_lo, x_hi], in mp.iv at dps digits: the same one-logarithm product of
    the distances |z - c|^2, for M1 from the interval z, for M2 from
    c^2 - s c + p with the other roots' sum s and product p taken at the
    corners that asymptotics._deflation_bounds documents (s and p fall as z
    rises and rise with x)."""
    iv = mp.iv
    saved = iv.dps
    iv.dps = dps
    try:
        def enclose(lo, hi):
            return iv.mpf([(iv.mpf(lo.numerator) / lo.denominator).a,
                           (iv.mpf(hi.numerator) / hi.denominator).b])

        z, x = enclose(z_lo, z_hi), enclose(x_lo, x_hi)
        r1, r2, r3 = b - 2 * a, b - a, b
        q, c0 = r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3

        def deflation(xc, zc):
            xc, zc = enclose(xc, xc), enclose(zc, zc)
            gz = (1 - xc) * zc
            return (q - 2 * a * a * xc - c0 / zc) / gz, c0 / gz

        (s_lo, p_lo), (s_hi, p_hi) = deflation(x_lo, z_hi), deflation(x_hi, z_lo)
        s, p = iv.mpf([s_lo.a, s_hi.b]), iv.mpf([p_lo.a, p_hi.b])
        ints = (b - 4 * a) ** (b - 4 * a) * (b - 2 * a) ** (b - 2 * a) * b ** b
        rates = []
        for dist2 in (lambda c: (z - c) ** 2, lambda c: c * c - c * s + p):
            d1, d2, d3, d4, d5 = (dist2(c) for c in (r1, r2, r3, 2 * a, a))
            num = d1 ** (b - 2 * a) * d2 ** (b - a) * d3 ** b
            den = d4 ** (2 * a) * d5 ** a * x ** b
            rates.append(iv.log(num / (den * ints ** 2)) / 2)
        return tuple(rates)
    finally:
        iv.dps = saved


def _real_cubic_coeffs(a: int, b: int, x):
    """Coefficients (c3, c2, c1, c0) of the cleared saddle equation
    x*z(z-a)(z-2a) - (z-(b-2a))(z-(b-a))(z-b).

    The mirrored equation x*z(z+a)(z+2a) - (z+(b-2a))(z+(b-a))(z+b) is minus
    this cubic at -z, so its roots are these roots negated.
    """
    r1, r2, r3 = b - 2 * a, b - a, b
    c3 = x - 1
    c2 = x * (-3 * a) + (r1 + r2 + r3)
    c1 = x * (2 * a * a) - (r1 * r2 + r1 * r3 + r2 * r3)
    c0 = r1 * r2 * r3
    return c3, c2, c1, c0


def _eval_cubic(coeffs, z):
    c3, c2, c1, c0 = coeffs
    return ((c3 * z + c2) * z + c1) * z + c0


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
        raise DomainError(f"{n} exceeds sieve limit {sieve.limit}")
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


def shift_poly(p: IntPoly, s: int) -> IntPoly:
    """Taylor shift: the polynomial q with q(x) = p(x + s)."""
    if not isinstance(s, int):
        raise DomainError("only integer shifts are supported")
    nums = list(p._num)
    for i in range(len(nums) - 1):
        for j in range(len(nums) - 2, i - 1, -1):
            nums[j] += s * nums[j + 1]
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


def _int_pair(x: QuadRat) -> tuple[int, int, int]:
    """(u, v, e) with x = (u + v sqrt(D))/e in integers, e > 0."""
    e = lcm(x.u.denominator, x.v.denominator)
    return (x.u.numerator * (e // x.u.denominator),
            x.v.numerator * (e // x.v.denominator), e)


def fraction_uvw(params: Params, z: QuadRat) -> tuple:
    """(U, V, W) at z by the ``QuadRat`` formulas of eval_UVW before its int
    tuples: t = z/(z-1), the seeds of the one ``forms._PoleSum`` from
    t^(d+1) and (1-z) t, and z^(r*an - (bn+1)/2) times the sums, each
    divided by L^2, the scale of the walk at L = lcm(1..bn); the walk, the
    blocks and the recurrence are the package's own."""
    t = z / (z - QuadRat(1, 0, z.D))
    d, shift, L = params.degree, params.a * params.n, d_upto(params.b * params.n)
    zu, zv, zd = _int_pair(z)
    td = _int_pair(t)[2]
    common = (z.D, (-zu * td, -zv * td), zd * td)
    zt, tdp = (1 - z) * t, td ** (d + 1)
    top = zt * t ** (d + 1) * tdp
    g0, k = zt * tdp - top, top * zd * td
    pole = _PoleSum(d, common, tdp, (int(g0.u), int(g0.v)), (int(k.u), int(k.v)))
    pole.run(chain(repeat((0, 0, 0), (params.b - 2 * params.a) * params.n),
                   _walk(params, L, 2 * shift + d + 1)), shift)
    return tuple(z ** (r * shift - params.half_bn1) * QuadRat(
        Fraction(su, L * L * tdp), Fraction(sv, L * L * tdp), z.D)
        for r, (su, sv) in enumerate(pole.sums))


def stepped_pole_sums(delta: int, z: tuple[int, int, int], D: int, values,
                      shift: int) -> list[tuple[int, int]]:
    """The three sums S_r = sum_s (-1)^s v_r(s) g_s of ``forms._PoleSum``
    by their definition, one s at a time and in no blocks: from the seeds
    of ``_PoleSum.at``, k_(s+1) = k_s (delta+1-s)/(s+1) and
    g_(s+1) = (W g_s - k_(s+1))/step, each step checked exact; v_r(s) is
    the r-th entry of ``values[s + r shift]``, as ``_PoleSum.run`` reads."""
    pole = _PoleSum.at(delta, z, D)
    (wu, wv), step, g, k = pole.w, pole.step, pole.g, pole.k

    def exact(num: int, den: int) -> int:
        quo, rem = divmod(num, den)
        assert not rem, f"the step to s = {s + 1} is not exact"
        return quo

    sums = [(0, 0)] * 3
    for s in range(delta + 1):
        for r in range(3):
            c = (-1) ** s * values[s + r * shift][r]
            sums[r] = (sums[r][0] + c * g[0], sums[r][1] + c * g[1])
        k = tuple(exact(x * (delta + 1 - s), s + 1) for x in k)
        g = (exact(wu * g[0] + D * wv * g[1] - k[0], step),
             exact(wu * g[1] + wv * g[0] - k[1], step))
    return sums


def scaling_factors(params: Params) -> tuple[Fraction, Fraction, Fraction]:
    """The three normalizing factors (R, S, T) for k even / odd, by the
    ``Fraction`` formulas before the int pairs of ``forms._scaling``."""
    k, a, b, n = params.k, params.a, params.b, params.n
    e_r = (b * n + 1) // 2
    e_s = ((b - 2 * a) * n + 1) // 2
    e_t = ((b - 4 * a) * n + 1) // 2
    if k % 2 == 0:
        m = k // 2
        return Fraction(1, m**e_r), Fraction(1, m**e_s), Fraction(1, m**e_t)
    two = 2 ** ((3 * (b - 2 * a) * n + 1) // 2)
    return Fraction(two, k**e_r), Fraction(two, k**e_s), Fraction(two, k**e_t)


def _as_int(value: Fraction, quantity: str) -> int:
    if value.denominator != 1:
        raise IntegralityError(quantity, pair(value))
    return value.numerator


def fraction_integer_forms(params: Params, U: QuadRat, V: QuadRat,
                           W: QuadRat, delta: int, delta1: int) -> dict:
    """The fields of scaled_integer_forms at x_k by its ``Fraction``
    formulas before the int tuples, checks and their order included: every
    field is scaled directly, and A, B, C, the integers the package divides
    out, are checked first, though not returned."""
    k, a, b, n = params.k, params.a, params.b, params.n
    D = 2 * k + 1
    sqV = QuadRat.sqrt_d(D) * V
    for name, val in (("U(x_k)", U), ("sqrt(D)*V(x_k)", sqV), ("W(x_k)", W)):
        if val.v != 0:
            raise IntegralityError(f"radical part of {name}", pair(val.v))
    R, S, T = scaling_factors(params)
    d_bn = d_upto(b * n)
    d_b2an = d_upto((b - 2 * a) * n)
    dd = Fraction(d_bn, delta)
    if dd.denominator != 1:
        raise IntegralityError("d_bn/Delta", pair(dd))
    scale = T * d_b2an * delta1 * dd
    _as_int(R * U.u, "R*U(x_k)")
    _as_int(S * dd * sqV.u, "S*(d/Delta)*sqrt(D)*V(x_k)")
    _as_int(scale * W.u, "T*d'*Delta1*(d/Delta)*W(x_k)")
    return {"n": n, "P": _as_int(S * dd * U.u, "P"),
            "Q": _as_int(-S * dd * sqV.u, "Q"),
            "X": _as_int(scale * U.u, "X"),
            "Y": _as_int(-scale * sqV.u, "Y"),
            "Z": _as_int(-scale * D * W.u, "Z")}
