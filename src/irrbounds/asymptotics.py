"""Digamma at rational arguments, the saddle-point cubic whose real and
complex roots give the growth and decay rates M1 and M2, and the
scaling-rate constants K1 and K2: each a :class:`fixed.Ball` with a radius
proved end to end, on Python ints alone (no ``fractions``).

Every exact rational argument is an int pair (num, den).  Digamma comes
from Gauss's digamma theorem, memoised per argument, with one memoised row
of cosines and log-sines per denominator and precision.  The saddle
functions take x as a ball; the root beyond b is found by Newton and
certified by two exact probes for every x in an enclosure whose ends are
int pairs, all on one integer cubic (:func:`_cubic`), taken at x's centre
and at the enclosure's ends; near x = 1 the working precision carries
guard digits.
alpha_value, by mpmath, is the test oracle of forms._alpha_fixed.
"""

from __future__ import annotations

import math
from operator import mul
from functools import lru_cache

from .errors import DomainError, NonApplicableError, PrecisionError
from .exact_arith import check_cell, icbrt
from .fixed import Ball, cos_2pi, euler_fixed, ln_fixed, pi_fixed, prec_of

__all__ = ["digamma", "alpha_value", "saddle_real", "saddle_complex",
           "k_constants"]


# -- digamma at rational arguments --------------------------------------------

@lru_cache(maxsize=None)
def digamma(x: tuple[int, int], digits: int) -> Ball:
    """psi(p/q) for the int pair x = (p, q), 0 < p <= q in lowest terms,
    where all of Omega's endpoints lie, memoised, as they share many
    arguments: a ball of radius at most 2^-prec, prec the bits of
    digits + 10 digits.  Euler's constant has 2048 bits: PrecisionError
    above about 560 digits.  Gauss's digamma theorem (DLMF 5.4.19) gives,
    for q > 1,

        psi(p/q) = -gamma - ln 2q - (pi/2) cot(pi p/q)
                   + sum_{n=1}^{ceil(q/2)-1} cos(2 pi n p/q) ln sin^2(pi n/q),

    and psi(1) = -gamma, all in integers on the row of q
    (:func:`_gauss_row`): cot(pi p/q) = +-sqrt((1 + C_p)/(1 - C_p)), + for
    p/q < 1/2, by isqrt, and the n-sum one dot product.  The total, at
    B = prec + 6 bitlen(q) bits (prec + 2 for q = 1), is rounded to prec
    bits, its error in units of 2^-B at most 2^(B - prec), else
    PrecisionError.  From the row's bounds (|C_j err| <= q^2/4, L_n's
    q^4/32 + 2) and gamma, ln 2q and pi within 1 unit (1 more for their
    2^-20 excesses, :mod:`fixed`): (q^4 + 16 q^2 bitlen(q))/32 + 4 per dot
    term (|ln sin^2| < 2 bitlen(q)); q^5/16 + q/2 + 5 for pi/2 cot
    (|cot| < q), as d/dc sqrt((1+c)/(1-c)) = 1/((1 - c)|sin 2 pi p/q|) <
    q^3/8 near C_p (0 when q = 2); 1 per floor, 2 for gamma and ln 2q.
    """
    p, den = x
    if not 0 < p <= den:
        raise DomainError(f"digamma requires 0 < x <= 1, got {p}/{den}")
    prec = prec_of(digits + 10)
    wp = prec + 2 * den.bit_length()
    if den == 1:
        bits, total, err = wp, -euler_fixed(wp), 1
    else:
        bits, cos_row, log_row, base = _gauss_row(den, wp)
        one = 1 << bits
        c_p = cos_row[p]
        cot = math.isqrt(((one + c_p) << 2 * bits) // (one - c_p))
        if 2 * p > den:
            cot = -cot
        cos_np = [cos_row[i % den] for i in range(p, p * len(log_row) + 1, p)]
        dot = sum(map(mul, cos_np, log_row))
        total = base - (pi_fixed(bits) * cot >> bits + 1) + (dot >> bits)
        q2 = den * den
        err = (q2 * q2 * den // 16 + den // 2 + 10
               + len(log_row) * ((q2 * q2 + 16 * q2 * den.bit_length()) // 32 + 5))
    if err + 1 > 1 << bits - prec:
        raise PrecisionError(f"the fixed-point psi({p}/{den}) is not within "
                             f"2^-{prec}: {err + 1} units of 2^-{bits}")
    return Ball(total, -bits, err + 1).rnd(prec)


@lru_cache(maxsize=None)
def _gauss_row(q: int, prec: int):
    """(B, C, L, base) for denominator q > 1 at working precision prec, in
    integers scaled by 2^B, B = prec + 4 bitlen(q): C_j ~ cos(2 pi j/q) for
    j < q, L_n ~ ln((1 - C_n)/2) = ln sin^2(pi n/q) for 1 <= n < q/2, and
    base ~ -gamma - ln 2q.  The key carries the precision.

    C_(j+1) = 2 C_1 C_j / 2^B - C_(j-1), rounded, from C_1 = cos(2 pi/q)
    rounded, is the Chebyshev recurrence of cos(j t).  Its error
    e_j = C_j - 2^B cos(2 pi j/q) follows the same recurrence, forced by at
    most 3/2 per step (C_1 is within 1/2 + 2^-16, :func:`fixed.cos_2pi`),
    whose unforced solutions U_(j-1)(C_1/2^B) are at most j in size:
    |e_j| <= j^2 <= q^2/4 for j <= q/2, so 2 bitlen(q) guard bits keep C_j
    within 2^-(prec + 2 bitlen(q) + 2).  As sin^2(pi n/q) >= 4/q^2, that
    moves ln sin^2 by at most q^4/32 units, and the log's rounding by 1 more
    (:func:`fixed.ln_fixed`): the other 2 bitlen(q) keep L_n within
    2^-(prec + 3).
    """
    bits = prec + 4 * q.bit_length()
    one = 1 << bits
    c_1 = cos_2pi(q, bits)
    cos_row = [one, c_1]
    for _ in range(q // 2 - 1):
        cos_row.append(((c_1 * cos_row[-1] >> bits - 2) + 1 >> 1) - cos_row[-2])
    log_row = tuple(ln_fixed(one - c, -bits - 1, bits)
                    for c in cos_row[1:(q + 1) // 2])
    cos_row += cos_row[(q - 1) // 2:0:-1]  # C_(q-j) = C_j
    return (bits, tuple(cos_row), log_row,
            -euler_fixed(bits) - ln_fixed(2 * q, 0, bits))


# -- the target numbers alpha_k -----------------------------------------------

def alpha_value(k: int, digits: int):
    """alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1)) < 0, an mpf."""
    import mpmath as mp

    if k < 1:
        raise DomainError("k must be >= 1")
    with mp.workdps(digits + 10):
        r = mp.sqrt(2 * k + 1)
        return +(r * mp.log((r - 1) / (r + 1)))


# -- the saddle-point cubic ---------------------------------------------------

# why a cell has no M2: saddle_complex raises it, and bound prints it
NO_COMPLEX_SADDLE = "saddle cubic has three real roots; no complex saddle point"


def _cubic(a: int, b: int, x: tuple[int, int]) -> tuple[int, int, int, int]:
    """Integer coefficients (c3, c2, c1, c0) of xd times the saddle cubic
    x z(z-a)(z-2a) - (z-(b-2a))(z-(b-a))(z-b) at the exact x = xn/xd, an
    int pair with xd > 0.

    The mirrored equation x z(z+a)(z+2a) - (z+(b-2a))(z+(b-a))(z+b) is minus
    this cubic at -z, so its roots are these roots negated.
    """
    xn, xd = x
    r1, r2, r3 = b - 2 * a, b - a, b
    return (xn - xd, 3 * (r2 * xd - a * xn),
            2 * a * a * xn - (r1 * r2 + r1 * r3 + r2 * r3) * xd, r1 * r2 * r3 * xd)


def _value(c, zn: int, zd: int) -> int:
    """zd^3 times the cubic of the coefficients c at z = zn/zd: with zd > 0
    and c from :func:`_cubic`, an integer of the saddle cubic's sign."""
    c3, c2, c1, c0 = c
    return ((c3 * zn + c2 * zd) * zn + c1 * zd * zd) * zn + c0 * zd ** 3


def _certified_sign(ends, zn: int, zd: int) -> int | None:
    """Sign of the saddle cubic at z = zn/zd (zd > 0), certain for every x
    between the two x whose :func:`_cubic` are ``ends`` (it is linear in
    x); None when it is not."""
    lo, hi = (_value(c, zn, zd) for c in ends)
    return 1 if lo > 0 < hi else -1 if lo < 0 > hi else None


def _newton_polish(c, z0: tuple[int, int], prec: int, dps: int) -> Ball:
    """Newton on the cubic f of the integers c (:func:`_cubic` at x's
    centre) from z0 = m 2^e until a step is at most 10^(3-dps) max(1, |z|),
    rounded to prec bits.  With z = Z 2^-E, Z of prec bits or more, and
    c_i shifted by (3-i)E bits, f(z) 2^3E (:func:`_value` at Z/1) and
    f'(z) 2^2E are integers, and a step moves Z by their quotient, rounded:
    the only error.

    No step needs halving.  Per unit of x's denominator, f''(z) =
    6((x-1)z + b - a - ax) vanishes at z_i = a + B/u, B = b - 2a, u = 1 - x,
    where F = h/g (:func:`_solve_cubic`) is x(B^2 x^2 - a^2 u^2)/(B^2 -
    a^2 u^2) < x, as B > 2a > au: so f(z_i) = g(x - F) > 0 whenever
    z_i > b, and z_i lies below the root z0.  On [z0, oo) f is thus concave
    and falling, and Newton from the bound b/(1 - x^(1/3)) >= z0
    (:func:`_newton_start`) falls monotonically to z0, |f| never rising, up
    to the last unit's rounding."""
    zm, ze = z0
    shift = max(0, -ze, prec - ze - zm.bit_length())  # E
    z, u = zm << ze + shift, 1 << shift
    scaled = c[0], c[1] << shift, c[2] << 2 * shift, c[3] << 3 * shift
    c3, c2, c1, _ = scaled
    tol = 10 ** (dps - 3)
    for _ in range(200):
        fp = (3 * c3 * z + 2 * c2) * z + c1
        step = (2 * _value(scaled, z, 1) + fp) // (2 * fp)
        z -= step
        if abs(step) * tol <= max(u, abs(z)):
            break
    return Ball(z, -shift).rnd(prec)


def _newton_start(a: int, b: int, x: tuple[int, int],
                  prec: int) -> tuple[int, int]:
    """Start (m, e) of the integer Newton for the root beyond b at the exact
    x, an int pair: the proven bound b/(1 - x^(1/3)) (:func:`_solve_cubic`),
    rounded as mpmath's b/(1 - cbrt(x)) is: the cube root to prec + 4 bits
    or more and a sticky bit.  From there the polish makes 8-10 cubic
    evaluations per solve at 60 digits and 11-13 at 500 digits on the 97
    cells of the benchmark's table and searches."""
    xn, xd = x
    t = prec + 4 + max(0, xd.bit_length() - xn.bit_length()) // 3
    root = icbrt((xn << 3 * t) // xd)
    if root ** 3 * xd != xn << 3 * t:
        root, t = 2 * root + 1, t + 1
    bound = Ball(b).div((1 - Ball(root, -t).rnd(prec)).rnd(prec), prec)
    return bound.man, bound.exp


def _solve_cubic(a: int, b: int, x: Ball, digits: int, w: int):
    """(z0, s, p, box) at w bits for the ball x: the real root z0 > b of
    the saddle cubic at x's centre, the other two roots' sum s = -c2/c3 - z0
    and product p = -c0/(c3 z0), and the box (zn, en, e, ends, x_ball): the
    root's certified bracket [(zn -/+ en)/2^e], zn/2^e = z0, the
    :func:`_cubic` at x's two ends and x's ball.

    The cubic is x g - h = g (x - F), g = z(z-a)(z-2a),
    h = (z-(b-2a))(z-(b-a))(z-b), F = h/g.  On z > b each factor (z-r)/(z-c)
    of F has r > c >= 0 (as b > 4a), so it is positive and strictly
    increasing: F rises from 0 to 1, and for x in (0, 1) exactly one root
    lies beyond b, the cubic positive before it and negative after it.
    Each factor is also >= (z-b)/z, so that root is at most
    b/(1 - x^(1/3)), where Newton starts.  Two exact probes at lo, hi =
    z0 -/+ z0 10^-(digits+5)/2, rounded outward, certify it: lo > b, sign +1
    at lo and -1 at hi for every x in the enclosure (:func:`_value` of
    :func:`_cubic` at its ends); else PrecisionError.  Newton stops near
    10^-(digits+7), and x_k's enclosure moves the root by less
    (measures._x_numeric).  The last solve is kept, keyed on every exact
    input."""
    check_cell(a, b)
    if not 0 < x < 1:
        raise DomainError("x must lie in (0, 1)")
    return _certified_solve(a, b, (x.man, x.exp), digits, *x.bounds(), w)


@lru_cache(maxsize=1)
def _certified_solve(a: int, b: int, x_dyadic: tuple[int, int], digits: int,
                     x_lo, x_hi, prec: int):
    x = Ball(*x_dyadic)
    x_ball = x.spanning(x_lo, x_hi)
    (ln, ld), (hn, hd) = x_lo, x_hi
    c3, c2, _, c0 = c = _cubic(a, b, x.centre())
    # the deflation needs z0 to absolute, not relative, accuracy: its
    # z0 ~ 1/(1 - x) costs the guard digits once more
    z0 = _newton_polish(c, _newton_start(a, b, x.centre(), prec),
                        prec, digits + 10 + guard_digits((1 - x).centre()))
    e = max(0, -z0.exp)
    zn, zd = z0.man << z0.exp + e, 1 << e
    en = -(-zn // (2 * 10 ** (digits + 5)))
    ends = _cubic(a, b, x_lo), _cubic(a, b, x_hi)
    if not (zn - en > b * zd
            and _certified_sign(ends, zn - en, zd) == 1
            and _certified_sign(ends, zn + en, zd) == -1):
        raise PrecisionError(f"saddle root {z0.to_str(20)} beyond b={b} not "
                             f"certified for x = {x_ball.to_str(20)} +- "
                             f"{x_ball.radius().to_str(3)}")
    if not 0 < ln * hd <= hn * ld < hd * ld:
        raise PrecisionError(f"x's enclosure {x_ball.to_str(20)} +- "
                             f"{x_ball.radius().to_str(3)} leaves (0, 1)")
    s = (Ball(-c2).div(c3, prec) - z0).rnd(prec)
    p = Ball(-c0).div((c3 * z0).rnd(prec), prec)
    return z0, s, p, (zn, en, e, ends, x_ball)


def guard_digits(gap: tuple[int, int]) -> int:
    """Working digits to add to the saddle solve at x = 1 - gap, an int
    pair (a ball's centre, Ball.centre).  The root beyond b is about
    3(b - 2a)/(1 - x), so a relative error e in x moves it by about
    e/(1 - x) relative: past 1/(1 - x) = 10^8 each decimal costs one digit,
    max(0, ceil(log10(1/gap)) - 8).  1 - x_k is about sqrt(2/k): no guard
    for k <= 10^16."""
    num, den = gap
    if num <= 0 or num * 10**8 >= den:
        return 0
    return len(str(-(-den // num) - 1)) - 8


def _saddle_bits(x: Ball, digits: int) -> int:
    """Working bits of the saddle functions: digits + 15 and the guard."""
    return prec_of(digits + 15 + guard_digits((1 - x).centre()))


def _rate_cs(a: int, b: int) -> tuple[int, ...]:
    """The c of the rate's factors |z - c|^2: three above, two below."""
    return b - 2 * a, b - a, b, 2 * a, a


def _m_rate(a: int, b: int, x: Ball, dists, w: int) -> Ball:
    """M, the ln of the six-factor modulus quotient at a root z of the
    saddle cubic, minus (b/2) ln x, by one logarithm at w bits: (1/2) ln of
    prod_c d_c^(+-c) / (I^2 x^b), d_c = |z - c|^2 (:func:`_rate_cs`),
    I = (b-4a)^(b-4a) (b-2a)^(b-2a) b^b.  Each ball d_c holds |z - c|^2 over
    the root's bracket and x its enclosure, so M's ball holds the true
    rate."""
    ups = [d.pow(c, w) for c, d in zip(_rate_cs(a, b), dists)]
    num = ((ups[0] * ups[1]).rnd(w) * ups[2]).rnd(w)
    ints = (b - 4 * a) ** (b - 4 * a) * (b - 2 * a) ** (b - 2 * a) * b ** b
    den = ((((ups[3] * ups[4]).rnd(w) * x.pow(b, w)).rnd(w)) * ints ** 2).rnd(w)
    return num.div(den, w).log(w).ldexp(-1)


def _deflation_bounds(box, w: int):
    """((s_lo, p_lo), (s_hi, p_hi)): exact bounds, in units of 2^-w, on the
    other two roots' sum s and product p over the :func:`_solve_cubic` box.
    By Vieta, on the coefficients of :func:`_cubic` at x, p = -c0/(c3 z) and
    s = (c1 z + c0)/(c3 z^2): unlike the root sum -c2/c3 - z, no terms of
    size 1/(1 - x) cancel.  Per unit of x's denominator, -c3 = 1 - x,
    -c1 = Q - 2a^2 x and c0 = r1 r2 r3, Q = r1 r2 + r1 r3 + r2 r3.  Both fall
    as z > b rises and rise with x (ds/dz has the sign of 2 c0/z - Q + 2a^2 x
    < 4a^2 - b^2 < 0, ds/dx that of Q - 2a^2 - c0/z > 0): the corners
    (x_lo, z_hi), (x_hi, z_lo), read from the box's cubics at x's ends."""
    zn, en, e, ends, _ = box
    bounds = []
    for (c3, _, c1, c0), z, up in zip(ends, (zn + en, zn - en), (False, True)):
        den = -c3 * z * z
        bounds.append([-(-v // den) if up else v // den for v in (
            (-c1 * z - (c0 << e)) << w + e, c0 * z << w + e)])
    return bounds


def saddle_real(a: int, b: int, x: Ball, digits: int) -> tuple[Ball, Ball]:
    """(z0, M1): the unique root z0 > b of the saddle cubic at the centre of
    the ball x, certified by exact sign probes (:func:`_solve_cubic`), and
    the growth rate M1 of the U coefficients, a ball over the root's bracket
    and x's enclosure (:func:`_m_rate`)."""
    w = _saddle_bits(x, digits)
    z0, _, _, (zn, en, e, _, x_ball) = _solve_cubic(a, b, x, digits, w)
    z = z0.spanning((zn - en, 1), (zn + en, 1), -e)
    dists = [(z - c).rnd(w).pow(2, w) for c in _rate_cs(a, b)]
    return z0, _m_rate(a, b, x_ball, dists, w)


def saddle_complex(a: int, b: int, x: Ball,
                   digits: int) -> tuple[tuple[Ball, Ball], Ball]:
    """(z1, M2): z1 = (re, im), the upper-half-plane root of the mirrored
    saddle equation, and the decay rate M2 of the forms, as in
    :func:`saddle_real`.  z1 = -w for the root w = s/2 - i*sqrt(p - s^2/4)
    of the cubic, and |w - c|^2 = c^2 - s c + p, a ball over the exact
    bounds of s and p (:func:`_deflation_bounds`).  Where those prove
    p - s^2/4 <= 0, no complex saddle exists (NonApplicableError); where
    they leave its sign open, PrecisionError."""
    w = _saddle_bits(x, digits)
    _, s, p, box = _solve_cubic(a, b, x, digits, w)
    (s_lo, p_lo), (s_hi, p_hi) = _deflation_bounds(box, w)
    squares = s_lo * s_lo, s_hi * s_hi
    if p_hi - (0 if s_lo <= 0 <= s_hi else min(squares) >> w + 2) <= 0:
        raise NonApplicableError(NO_COMPLEX_SADDLE)
    im2 = (p - (s * s).rnd(w).ldexp(-2)).rnd(w)
    if p_lo + (-max(squares) >> w + 2) <= 0 or im2 <= 0:
        raise PrecisionError(f"the sign of p - s^2/4 = {im2.to_str(10)} at "
                             f"a={a}, b={b} is not certified")
    # |w - c|^2 = (c - s/2)^2 + p - s^2/4 = c^2 - s c + p
    half = s.ldexp(-1)
    dists = [((c - half).rnd(w).pow(2, w) + im2).rnd(w).spanning(
        ((c * c << w) - c * s_hi + p_lo, 1),
        ((c * c << w) - c * s_lo + p_hi, 1), -w) for c in _rate_cs(a, b)]
    return (-half, im2.sqrt(w)), _m_rate(a, b, box[-1], dists, w)


# -- scaling-rate constants ---------------------------------------------------

def k_constants(k: int, a: int, b: int, digits: int = 60) -> tuple[Ball, Ball]:
    """(K1, K2): exponential rates of the S and T scaling factors, as balls.

    Even k = 2m:  K1 = -((b-2a)/2) ln m,            K2 = -((b-4a)/2) ln m;
    odd k:        K1 = -((b-2a)/2) ln k + (3(b-2a)/2) ln 2, and K2 likewise
    with b-4a in the first coefficient.

    Each is a ball at digits + 10 digits (:meth:`fixed.Ball.log`), rounded
    after each product and sum.
    """
    check_cell(a, b, k)
    p = prec_of(digits + 10)
    if k % 2 == 0:
        ln, bonus = Ball(k // 2).rnd(p).log(p), 0
    else:
        ln = Ball(k).rnd(p).log(p)
        bonus = (Ball(2).log(p) * (3 * (b - 2 * a))).ldexp(-1).rnd(p)
    k1, k2 = (((ln * -c).ldexp(-1).rnd(p) + bonus).rnd(p)
              for c in (b - 2 * a, b - 4 * a))
    return k1, k2
