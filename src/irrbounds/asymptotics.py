"""Digamma at rational arguments, the saddle-point cubic whose real and
complex roots give the growth and decay rates M1 and M2, and the
scaling-rate constants K1 and K2: each a :class:`fixed.Ball` with a radius
proved end to end, on Python ints alone (no ``fractions``).

Digamma comes from Gauss's digamma theorem, one memoised row of cosines and
log-sines per denominator and precision.  The saddle root beyond b is found
by Newton and certified by two exact probes for every x in an enclosure
whose ends are int pairs; near x = 1 the working precision carries guard
digits.  alpha_value, by mpmath, is the test oracle of measures._alpha_fixed.
"""

from __future__ import annotations

import math
from operator import mul
from functools import lru_cache

from .errors import DomainError, NonApplicableError, PrecisionError
from .exact_arith import as_pair, icbrt
from .fixed import Ball, cos_2pi, euler_fixed, ln_fixed, pi_fixed, prec_of

__all__ = ["digamma", "alpha_value", "saddle_real", "saddle_complex",
           "k_constants"]


# -- digamma at rational arguments --------------------------------------------

def digamma(x, digits: int) -> Ball:
    """psi(x) for rational 0 < x <= 1 in lowest terms (exact_arith.as_pair),
    where all of Omega's endpoints lie, by Gauss's digamma theorem: a ball
    of radius at most 2^-prec, prec the bits of digits + 10 digits
    (:func:`_psi`).  Euler's constant has 2048 bits: PrecisionError above
    about 560 digits."""
    num, den = as_pair(x)
    if not 0 < num <= den:
        raise DomainError(f"digamma requires 0 < x <= 1, got {x}")
    return _psi(num, den, digits)


@lru_cache(maxsize=None)
def _psi(p: int, den: int, digits: int) -> Ball:
    """psi(p/q), q = den, 0 < p <= q, memoised: Omega's endpoints share many
    arguments.  Gauss's digamma theorem (DLMF 5.4.19) gives, for q > 1,

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


def _cleared_cubic(a: int, b: int, zn: int, zd: int, xn: int, xd: int) -> int:
    """The cleared cubic at z = zn/zd and x = xn/xd times zd^3 * xd: the
    integer xn*G - xd*H with G = zn(zn - a zd)(zn - 2a zd) and
    H = (zn - r1 zd)(zn - r2 zd)(zn - r3 zd), r1, r2, r3 = b-2a, b-a, b.
    With zd, xd > 0 it has the sign of the cubic."""
    g = zn * (zn - a * zd) * (zn - 2 * a * zd)
    h = (zn - (b - 2 * a) * zd) * (zn - (b - a) * zd) * (zn - b * zd)
    return xn * g - xd * h


def _certified_sign(a: int, b: int, zn: int, zd: int, x_lo, x_hi) -> int | None:
    """Sign of the cleared cubic at z = zn/zd (zd > 0), certain for every x
    in [x_lo, x_hi], int pairs (it is linear in x); None when it is not."""
    lo, hi = (_cleared_cubic(a, b, zn, zd, *x) for x in (x_lo, x_hi))
    return 1 if lo > 0 < hi else -1 if lo < 0 > hi else None


def _newton_polish(coeffs, z0: tuple[int, int], prec: int, dps: int) -> Ball:
    """Newton on the cubic of the ball centres ``coeffs`` from z0 = m 2^e
    until a step is at most 10^(3-dps) max(1, |z|), halving a step that
    raises |f| while it is above 10^(3-dps), rounded to prec bits.  With each
    C_i 2^e_i, e = min e_i, and z = Z 2^-E, Z of prec bits or more,
    f(z) 2^(3E-e) and f'(z) 2^(2E-e) are integers, and a step moves Z by
    their quotient, rounded: the only error."""
    e = min(c.exp for c in coeffs)
    zm, ze = z0
    shift = max(0, -ze, prec - ze - zm.bit_length())  # E
    z, u = zm << ze + shift, 1 << shift
    ints = c3, c2, c1, _ = [c.man << c.exp - e + i * shift
                            for i, c in enumerate(coeffs)]
    tol = 10 ** (dps - 3)
    fz = _eval_cubic(ints, z)
    for _ in range(200):
        fp = (3 * c3 * z + 2 * c2) * z + c1
        step = (2 * fz + fp) // (2 * fp)
        znew = z - step
        fnew = _eval_cubic(ints, znew)
        while abs(fnew) > abs(fz) and abs(step) * tol > u:
            step = step // 2 if step > 0 else -(-step // 2)
            znew = z - step
            fnew = _eval_cubic(ints, znew)
        z, fz = znew, fnew
        if abs(step) * tol <= max(u, abs(z)):
            break
    return Ball(z, -shift).rnd(prec)


def _newton_start(a: int, b: int, x, prec: int) -> tuple[int, int]:
    """Start (m, e) of the integer Newton for the root beyond b at an exact
    x (as_pair): Newton in doubles from the proven bound b/(1 - x^(1/3)), or
    where doubles fail (x rounds to 1 at huge k) or end at or below b, the
    bound rounded as mpmath's b/(1 - cbrt(x)) is: the cube root to prec + 4
    bits or more and a sticky bit.  The start sets the speed, not the result."""
    xn, xd = as_pair(x)
    try:
        xf = xn / xd
        c3, c2, c1, c0 = _real_cubic_coeffs(a, b, xf)
        z = b / (1 - xf ** (1 / 3))
        for _ in range(100):
            step = ((((c3 * z + c2) * z + c1) * z + c0)
                    / ((3 * c3 * z + 2 * c2) * z + c1))
            z -= step
            if not abs(step) > 1e-14 * z:
                break
    except (OverflowError, ZeroDivisionError):
        z = math.nan
    if math.isfinite(z) and z > b:
        num, den = z.as_integer_ratio()
        return num, 1 - den.bit_length()
    t = prec + 4 + max(0, xd.bit_length() - xn.bit_length()) // 3
    root = icbrt((xn << 3 * t) // xd)
    if root ** 3 * xd != xn << 3 * t:
        root, t = 2 * root + 1, t + 1
    bound = Ball(b).div((1 - Ball(root, -t).rnd(prec)).rnd(prec), prec)
    return bound.man, bound.exp


def _solve_cubic(a: int, b: int, x, digits: int, w: int):
    """(z0, s, p, box) at w bits for x, a ball (or an exact rational, made
    one at w bits): the real root z0 > b of the saddle cubic at x's centre,
    the other two roots' sum s = -c2/c3 - z0 and product p = -c0/(c3 z0),
    and the box (zn, en, e, x_lo, x_hi, x_ball): the root's certified
    bracket [(zn -/+ en)/2^e], zn/2^e = z0, x's ends as int pairs and ball.

    The cubic is z(z-a)(z-2a) (x - f(z)), f(z) = (z-(b-2a))(z-(b-a))(z-b) /
    (z(z-a)(z-2a)).  On z > b each factor (z-r)/(z-c) of f has r > c >= 0
    (as b > 4a), so it is positive and strictly increasing: f rises from 0
    to 1, and for x in (0, 1) exactly one root lies beyond b, the cubic
    positive before it and negative after it.  Each factor is also
    >= (z-b)/z, so that root is at most b/(1 - x^(1/3)), where Newton
    starts.  Two exact probes at lo, hi = z0 -/+ z0 10^-(digits+5)/2,
    rounded outward, certify it: lo > b, sign +1 at lo and -1 at hi for
    every x in the enclosure (:func:`_cleared_cubic` at its ends); else
    PrecisionError.  Newton stops near 10^-(digits+7), and x_k's enclosure
    moves the root by less (measures._x_numeric).  The last solve is kept,
    keyed on every exact input."""
    if a < 1 or b <= 4 * a:
        raise DomainError("need b > 4a >= 4")
    if not isinstance(x, Ball):
        x = Ball(x.numerator).div(x.denominator, w)
    if not 0 < x < 1:
        raise DomainError("x must lie in (0, 1)")
    return _certified_solve(a, b, (x.man, x.exp), digits, *x.bounds(), w)


@lru_cache(maxsize=1)
def _certified_solve(a: int, b: int, x_dyadic: tuple[int, int], digits: int,
                     x_lo, x_hi, prec: int):
    x = Ball(*x_dyadic)
    (ln, ld), (hn, hd) = x_lo, x_hi = as_pair(x_lo), as_pair(x_hi)
    c3, c2, c1, c0 = ((c if isinstance(c, Ball) else Ball(c)).rnd(prec)
                      for c in _real_cubic_coeffs(a, b, x))
    # the deflation needs z0 to absolute, not relative, accuracy: its
    # z0 ~ 1/(1 - x) costs the guard digits once more
    z0 = _newton_polish((c3, c2, c1, c0), _newton_start(a, b, x.centre(), prec),
                        prec, digits + 10 + guard_digits(1 - x))
    e = max(0, -z0.exp)
    zn, zd = z0.man << z0.exp + e, 1 << e
    en = -(-zn // (2 * 10 ** (digits + 5)))
    if not (zn - en > b * zd
            and _certified_sign(a, b, zn - en, zd, x_lo, x_hi) == 1
            and _certified_sign(a, b, zn + en, zd, x_lo, x_hi) == -1):
        raise PrecisionError(f"saddle root {z0.to_str(20)} beyond b={b} not "
                             f"certified for x in [{ln / ld}, {hn / hd}]")
    if not 0 < ln * hd <= hn * ld < hd * ld:
        raise PrecisionError(f"x's enclosure [{ln / ld}, {hn / hd}] leaves (0, 1)")
    s = ((-c2).div(c3, prec) - z0).rnd(prec)
    p = (-c0).div((c3 * z0).rnd(prec), prec)
    return z0, s, p, (zn, en, e, x_lo, x_hi, x.spanning(x_lo, x_hi))


def guard_digits(gap) -> int:
    """Working digits to add to the saddle solve at x = 1 - gap (a ball's
    centre or an exact rational, as_pair).  The root beyond b is about
    3(b - 2a)/(1 - x), so a relative error e in x moves it by about
    e/(1 - x) relative: past 1/(1 - x) = 10^8 each decimal costs one digit,
    max(0, ceil(log10(1/gap)) - 8).  1 - x_k is about sqrt(2/k): no guard
    for k <= 10^16."""
    num, den = as_pair(gap.centre() if isinstance(gap, Ball) else gap)
    if num <= 0 or num * 10**8 >= den:
        return 0
    return len(str(-(-den // num) - 1)) - 8


def _saddle_bits(x, digits: int) -> int:
    """Working bits of the saddle functions: digits + 15 and the guard."""
    return prec_of(digits + 15 + guard_digits(1 - x))


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


def _deflation_bounds(a: int, b: int, box, w: int):
    """((s_lo, p_lo), (s_hi, p_hi)): exact bounds, in units of 2^-w, on the
    other two roots' sum s and product p over the :func:`_solve_cubic` box.
    By Vieta, with g = 1 - x, p = c0/(g z) and s = (Q - 2a^2 x - c0/z)/(g z),
    Q = r1 r2 + r1 r3 + r2 r3, c0 = r1 r2 r3: unlike the root sum -c2/c3 - z,
    no terms of size 1/(1 - x) cancel.  Both fall as z > b rises and rise
    with x (ds/dz has the sign of 2 c0/z - Q + 2a^2 x < 4a^2 - b^2 < 0, ds/dx
    that of Q - 2a^2 - c0/z > 0): the corners (x_lo, z_hi), (x_hi, z_lo)."""
    zn, en, e, x_lo, x_hi, _ = box
    r1, r2, r3 = b - 2 * a, b - a, b
    q, c0 = r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3
    bounds = []
    for (xn, xd), z, up in ((x_lo, zn + en, False), (x_hi, zn - en, True)):
        den = (xd - xn) * z * z
        bounds.append([-(-v // den) if up else v // den for v in (
            (q * xd * z - 2 * a * a * xn * z - (c0 * xd << e)) << w + e,
            c0 * xd * z << w + e)])
    return bounds


def saddle_real(a: int, b: int, x, digits: int) -> tuple[Ball, Ball]:
    """(z0, M1): the unique root z0 > b of the saddle cubic at x's centre,
    certified by exact sign probes (:func:`_solve_cubic`), and the growth
    rate M1 of the U coefficients, a ball over the root's bracket and x's
    enclosure (:func:`_m_rate`)."""
    w = _saddle_bits(x, digits)
    z0, _, _, (zn, en, e, _, _, x_ball) = _solve_cubic(a, b, x, digits, w)
    z = z0.spanning(zn - en, zn + en, -e)
    dists = [(z - c).rnd(w).pow(2, w) for c in _rate_cs(a, b)]
    return z0, _m_rate(a, b, x_ball, dists, w)


def saddle_complex(a: int, b: int, x,
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
    (s_lo, p_lo), (s_hi, p_hi) = _deflation_bounds(a, b, box, w)
    squares = s_lo * s_lo, s_hi * s_hi
    if p_hi - (0 if s_lo <= 0 <= s_hi else min(squares) >> w + 2) <= 0:
        raise NonApplicableError("saddle cubic has three real roots; "
                                 "no complex saddle point")
    im2 = (p - (s * s).rnd(w).ldexp(-2)).rnd(w)
    if p_lo + (-max(squares) >> w + 2) <= 0 or im2 <= 0:
        raise PrecisionError(f"the sign of p - s^2/4 = {im2.to_str(10)} at "
                             f"a={a}, b={b} is not certified")
    # |w - c|^2 = (c - s/2)^2 + p - s^2/4 = c^2 - s c + p
    half = s.ldexp(-1)
    dists = [((c - half).rnd(w).pow(2, w) + im2).rnd(w).spanning(
        (c * c << w) - c * s_hi + p_lo, (c * c << w) - c * s_lo + p_hi, -w)
        for c in _rate_cs(a, b)]
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
    if k < 1 or a < 1 or b <= 4 * a:
        raise DomainError("need k >= 1 and b > 4a")
    p = prec_of(digits + 10)
    if k % 2 == 0:
        ln, bonus = Ball(k // 2).rnd(p).log(p), 0
    else:
        ln = Ball(k).rnd(p).log(p)
        bonus = (Ball(2).log(p) * (3 * (b - 2 * a))).ldexp(-1).rnd(p)
    k1, k2 = (((ln * -c).ldexp(-1).rnd(p) + bonus).rnd(p)
              for c in (b - 2 * a, b - 4 * a))
    return k1, k2
