"""High-precision real/complex evaluation: digamma at rational arguments, the
saddle-point cubic whose real and complex roots give the growth and decay
rates M1 and M2, and the scaling-rate constants K1 and K2.

The inner loops run on Python ints in fixed point; mpmath seeds the
transcendental values (cos, log, pi, gamma) and rounds each result once.
Digamma comes from Gauss's digamma theorem: one memoised row of cosines and
log-sines per denominator and working precision, as integers with a proven
error, serves every argument with that denominator.  Each constant is
computed once, with a proven error bound (a radius), which :func:`certify`
holds every published value to.  The bounds trust mpmath's transcendentals
(cos 2 pi/q, the log-sines, gamma, ln 2q, pi, the logs of K and M) to one
unit of their fixed-point scale or one ulp, as its ``iv`` context does.

The real saddle root is found by Newton from a proven bound, in doubles and
then in integers, then two exact probes: integer sign evaluations on a tight
dyadic bracket, certain for every x in a rational enclosure, so rounding can
never fool them.  Near x = 1 the root is ill-conditioned, and the working
precision carries guard digits (:func:`guard_digits`).  Each saddle rate is
one logarithm of a product of integer powers, with a radius
(:func:`_m_rate`).

alpha_value is alpha_k by mpmath's log, the reference the tests hold the
production route to: verify encloses alpha_k by a fixed-point integer sum
(measures._alpha_fixed) and never calls it.
"""

from __future__ import annotations

import math
from operator import mul
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import (dps_to_prec, euler_fixed, from_man_exp, from_rational,
                          log_int_fixed, mpf_cos_pi, mpf_log, mpf_neg, pi_fixed,
                          to_fixed)

from .errors import DomainError, NonApplicableError, PrecisionError
from .exact_arith import Rat

__all__ = [
    "digamma", "alpha_value", "saddle_real", "saddle_complex",
    "k_constants", "certify",
]


def certify(name: str, value, radius, digits: int) -> None:
    """PrecisionError unless the finite ``value`` has a finite radius of at
    most 10^-(digits-5) max(1, |value|), decided exactly: the rule that
    certifies the digits - 5 leading digits of every published value."""
    if mp.isfinite(value) and mp.isfinite(radius):
        (rm, re), (vm, ve) = _dyadic(radius), _dyadic(value)
        e = min(re, ve, 0)
        if abs(rm) * 10 ** (digits - 5) << re - e <= max(1 << -e, abs(vm) << ve - e):
            return
    raise PrecisionError(f"{name} = {value} is certified only to within "
                         f"{radius}, too wide for {digits} digits")


def units(x, w: int) -> tuple[int, int]:
    """floor and ceil of x 2^w, for a finite mpf x: radii are summed as ints
    in units of 2^-w."""
    return to_fixed(x._mpf_, w), -to_fixed(mpf_neg(x._mpf_), w)


# ---------------------------------------------------------------------------
# digamma at rational arguments
# ---------------------------------------------------------------------------

# the largest integer part of x that digamma accepts: psi(x) is psi of the
# fraction part plus one term 1/t per unit step, so this caps the steps.
# Omega's endpoints all lie in (0, 1].
MAX_DIGAMMA_SHIFT = 10_000


def digamma(x: Rat, digits: int) -> mp.mpf:
    """psi(x) for rational 0 < x < MAX_DIGAMMA_SHIFT + 1, by Gauss's
    digamma theorem, within 2^-prec (1 + |psi(x)|), prec the bits of
    digits + 10 digits (:func:`_psi`)."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"digamma requires a positive argument, got {x}")
    if x.numerator // x.denominator > MAX_DIGAMMA_SHIFT:
        raise DomainError(f"digamma needs an integer part of at most "
                          f"{MAX_DIGAMMA_SHIFT}, got {x.numerator // x.denominator}")
    return _psi(x.numerator, x.denominator, digits)


@lru_cache(maxsize=None)
def _psi(num: int, den: int, digits: int) -> mp.mpf:
    """psi(num/den), once per process for each key: the Omega endpoints of
    different (a, b) share many arguments.  The key holds the ints of x, not
    a copy of it, as the memo is the largest one on the bound path.

    With x = s + p/q, p/q in (0, 1], Gauss's digamma theorem (DLMF 5.4.19)
    gives, for q > 1,

        psi(p/q) = -gamma - ln 2q - (pi/2) cot(pi p/q)
                   + sum_{n=1}^{ceil(q/2)-1} cos(2 pi n p/q) ln sin^2(pi n/q),

    psi(1) = -gamma, and psi(x) = psi(p/q) + sum_{j<s} q/(p + jq).  All of
    it is integer arithmetic on the row of denominator q (:func:`_gauss_row`):
    cot(pi p/q) = +-sqrt((1 + C_p)/(1 - C_p)), + for p/q < 1/2, by isqrt,
    the n-sum one dot product, each q/(p + jq) a floor division to
    bitlen(s) more bits; the total is rounded once, to prec bits, from
    B = prec + 6 bitlen(q) (prec + 2 for q = 1).  Its error in units of
    2^-B must be at most 2^(B - prec), else PrecisionError.  From the row's
    bounds (|C_j err| <= q^2/4, L_n's q^4/32 + 2) and mpmath's gamma, ln 2q
    and pi, each trusted to 1 unit (the module's assumption):
    (q^4 + 16 q^2 bitlen(q))/32 + 4 per dot term (|ln sin^2| < 2 bitlen(q));
    q^5/16 + q/2 + 5 for pi/2 cot (|cot| < q), as d/dc sqrt((1+c)/(1-c)) =
    1/((1 - c)|sin 2 pi p/q|) < q^3/8 near C_p (0 exactly when q = 2);
    1 per floor in the count, 2 for gamma and ln 2q, 2 for the s steps.
    """
    s = -(-num // den) - 1
    p = num - s * den
    prec = dps_to_prec(digits + 10)
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
    g = s.bit_length()
    total += sum((den << bits + g) // (p + j * den) for j in range(s)) >> g
    if err + 2 > 1 << bits - prec:
        raise PrecisionError(f"the fixed-point psi({num}/{den}) is not within "
                             f"2^-{prec}: {err + 2} units of 2^-{bits}")
    return mp.make_mpf(from_man_exp(total, -bits, prec, "n"))


@lru_cache(maxsize=None)
def _gauss_row(q: int, prec: int):
    """(B, C, L, base) for denominator q > 1 at working precision prec, in
    integers scaled by 2^B, B = prec + 4 bitlen(q): C_j ~ cos(2 pi j/q) for
    j < q, L_n ~ ln((1 - C_n)/2) = ln sin^2(pi n/q) for 1 <= n < q/2, and
    base ~ -gamma - ln 2q.  The key carries the precision.

    C_(j+1) = 2 C_1 C_j / 2^B - C_(j-1), rounded, from C_1 = cos(2 pi/q)
    rounded, is the Chebyshev recurrence of cos(j t).  Its error
    e_j = C_j - 2^B cos(2 pi j/q) follows the same recurrence, forced by at
    most 3/2 per step, whose unforced solutions U_(j-1)(C_1/2^B) are at most
    j in size: |e_j| <= j^2 <= q^2/4 for j <= q/2, so 2 bitlen(q) guard bits
    keep C_j within 2^-(prec + 2 bitlen(q) + 2).  As sin^2(pi n/q) >= 4/q^2,
    that moves ln sin^2 by at most q^4/32 units, and the log's truncation by
    2 more: the other 2 bitlen(q) keep L_n within 2^-(prec + 3).
    """
    bits = prec + 4 * q.bit_length()
    one = 1 << bits
    wp = bits + 20
    c_1 = to_fixed(mpf_cos_pi(from_rational(2, q, wp), wp), bits + 1) + 1 >> 1
    cos_row = [one, c_1]
    for _ in range(q // 2 - 1):
        cos_row.append(((c_1 * cos_row[-1] >> bits - 2) + 1 >> 1) - cos_row[-2])
    log_row = tuple(to_fixed(mpf_log(from_man_exp(one - c, -bits - 1), wp), bits)
                    for c in cos_row[1:(q + 1) // 2])
    cos_row += cos_row[(q - 1) // 2:0:-1]  # C_(q-j) = C_j
    return (bits, tuple(cos_row), log_row,
            -euler_fixed(bits) - log_int_fixed(2 * q, bits))


# ---------------------------------------------------------------------------
# the target numbers alpha_k
# ---------------------------------------------------------------------------

def alpha_value(k: int, digits: int) -> mp.mpf:
    """alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1)), negative;
    the test oracle for the fixed-point enclosure of measures._alpha_fixed."""
    if k < 1:
        raise DomainError("k must be >= 1")
    with mp.workdps(digits + 10):
        r = mp.sqrt(2 * k + 1)
        return +(r * mp.log((r - 1) / (r + 1)))


# ---------------------------------------------------------------------------
# the saddle-point cubic
# ---------------------------------------------------------------------------

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


def _certified_sign(a: int, b: int, zn: int, zd: int, x_lo: Fraction,
                    x_hi: Fraction) -> int | None:
    """Sign of the cleared cubic at z = zn/zd (zd > 0), certain for every x
    in [x_lo, x_hi] (the cubic is linear in x); None when it is not."""
    lo = _cleared_cubic(a, b, zn, zd, x_lo.numerator, x_lo.denominator)
    hi = _cleared_cubic(a, b, zn, zd, x_hi.numerator, x_hi.denominator)
    if lo > 0 and hi > 0:
        return 1
    if lo < 0 and hi < 0:
        return -1
    return None


def _newton_polish(coeffs, z0: mp.mpf, dps: int) -> mp.mpf:
    """Newton on the cubic of ``coeffs`` from z0 until a step is at most
    10^(3-dps) max(1, |z|); a step that raises |f| is halved while it is
    above 10^(3-dps).  It runs on integers: with each coefficient the dyadic
    C_i 2^e its mpf holds and z = Z 2^E, E <= 0, Z of the working
    precision's bits, f(z) 2^-(e+3E) and f'(z) 2^-(e+2E) are exact integers
    and a step moves Z by their quotient, rounded: the only error."""
    parts = [_dyadic(mp.mpf(c)) for c in coeffs]
    e = min(exp for _, exp in parts)
    zm, ze = _dyadic(z0)
    shift = max(0, -ze, mp.mp.prec - ze - abs(zm).bit_length())  # -E
    z, u = zm << ze + shift, 1 << shift
    ints = c3, c2, c1, _ = [m << exp - e + i * shift
                            for i, (m, exp) in enumerate(parts)]
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
    return mp.mpf((z, -shift))


def _newton_start(a: int, b: int, x: mp.mpf) -> mp.mpf:
    """Start of the integer Newton for the root beyond b: Newton in doubles
    from the proven bound b/(1 - x^(1/3)), which leaves :func:`_newton_polish`
    3-5 steps at 60 and 120 digits instead of 9-10.  When doubles cannot
    hold the solve (float(x) rounds to 1 at huge k, say) or do not end
    beyond b, the start is that bound in mpf.  Only the exact probes after
    the polish certify the root, so the start decides the speed, never the
    result."""
    try:
        xd = float(x)
        c3, c2, c1, c0 = _real_cubic_coeffs(a, b, xd)
        z = b / (1 - xd ** (1 / 3))
        for _ in range(100):
            step = ((((c3 * z + c2) * z + c1) * z + c0)
                    / ((3 * c3 * z + 2 * c2) * z + c1))
            z -= step
            if not abs(step) > 1e-14 * z:
                break
    except (OverflowError, ZeroDivisionError):
        z = math.nan
    return mp.mpf(z) if math.isfinite(z) and z > b else b / (1 - mp.cbrt(x))


def _dyadic(x: mp.mpf) -> tuple[int, int]:
    """(m, e) with x = m * 2^e exactly, for a finite mpf x."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and x != 0:
        raise DomainError(f"cannot convert {x} to a fraction")
    return -man if sign else man, exp


def _dyadic_ratio(x: mp.mpf) -> tuple[int, int]:
    """(num, den) with x = num/den exactly, den a power of 2."""
    m, e = _dyadic(x)
    return (m << e, 1) if e >= 0 else (m, 1 << -e)


def _derive_x_bounds(x, digits: int) -> tuple[Fraction, Fraction]:
    xf = Fraction(*_dyadic_ratio(mp.mpf(x)))
    pad = Fraction(1, 10 ** (digits + 2))
    return xf - pad, xf + pad


def _solve_cubic(a: int, b: int, x, digits: int, x_bounds):
    """(x, z0, s, p, box) at the caller's working precision: x as mpf, the
    real root z0 > b of the saddle cubic, the sum s and product p of the
    other two roots (from deflation), and the box of the rates' radii.

    The cubic is z(z-a)(z-2a) * (x - f(z)) with
    f(z) = (z-(b-2a))(z-(b-a))(z-b) / (z(z-a)(z-2a)).  On z > b each factor
    (z-r)/(z-c) of f has r > c >= 0 (as b > 4a), so it is positive and
    strictly increasing: f rises strictly from 0 to 1, and for x in (0, 1)
    exactly one root lies beyond b, with the cubic positive before it and
    negative after it.  Each factor is also >= (z-b)/z, so
    f(z) >= ((z-b)/z)^3 and that root is at most b/(1 - x^(1/3)).

    Newton starts from that bound, first in doubles (:func:`_newton_start`)
    and then in integers (:func:`_newton_polish`).  The polished z0 is then
    certified by two exact probes at lo, hi = z0 -/+ z0*10^-digits/2: lo > b,
    sign +1 at lo and -1 at hi, for every x in the rational enclosure
    ``x_bounds``.  lo and hi are dyadic, so each probe is one integer
    (:func:`_cleared_cubic`) per end of the enclosure.  By the argument
    above, the unique root beyond b lies in [lo, hi]; if any of this fails,
    PrecisionError.

    The box is (zn, en, e, x_lo, x_hi, x_term): the bracket
    [(zn -/+ en)/2^e], the enclosure widened to hold x, inside (0, 1), and
    x_term >= 2^w (b/2)(x_hi - x_lo)/x_lo, w the working precision.

    :func:`saddle_real` and :func:`saddle_complex` both need this solve, and
    a cell asks for them in turn, so the last solve is kept, keyed on every
    exact input: a, b, x as the exact dyadic (m, e) the mpf holds, digits,
    the enclosure and the working precision.
    """
    if a < 1 or b <= 4 * a:
        raise DomainError("need b > 4a >= 4")
    x = mp.mpf(x)
    if not 0 < x < 1:
        raise DomainError("x must lie in (0, 1)")
    x_lo, x_hi = _derive_x_bounds(x, digits) if x_bounds is None else x_bounds
    return _certified_solve(a, b, _dyadic(x), digits,
                            Fraction(x_lo), Fraction(x_hi), mp.mp.prec)


@lru_cache(maxsize=1)
def _certified_solve(a: int, b: int, x_dyadic: tuple[int, int], digits: int,
                     x_lo: Fraction, x_hi: Fraction, prec: int):
    with mp.workprec(prec):
        x = mp.mpf(x_dyadic)  # exact: the caller's x at this precision
        coeffs = c3, c2, _, c0 = _real_cubic_coeffs(a, b, x)
        # the deflation s = -c2/c3 - z0 needs z0 to absolute, not relative,
        # accuracy: its z0 ~ 1/(1 - x) costs the guard digits once more
        z0 = _newton_polish(coeffs, _newton_start(a, b, x),
                            digits + 10 + guard_digits(1 - x))
        # lo, hi = z0 -/+ z0*10^-digits/2 as (zn -/+ en)/zd, zd = 2^-e
        zm, ze = _dyadic(z0)
        em, ee = _dyadic(z0 / (2 * mp.mpf(10) ** digits))
        e = min(ze, ee, 0)
        zn, en, zd = zm << (ze - e), em << (ee - e), 1 << -e
        if not (zn - en > b * zd
                and _certified_sign(a, b, zn - en, zd, x_lo, x_hi) == 1
                and _certified_sign(a, b, zn + en, zd, x_lo, x_hi) == -1):
            raise PrecisionError(f"saddle root {z0} beyond b={b} not certified "
                                 f"for x in [{float(x_lo)}, {float(x_hi)}]")
        xf = Fraction(*_dyadic_ratio(x))
        x_lo, x_hi = min(x_lo, xf), max(x_hi, xf)
        if not 0 < x_lo <= x_hi < 1:
            raise PrecisionError(f"x's enclosure [{float(x_lo)}, {float(x_hi)}] "
                                 "leaves (0, 1)")
        width = x_hi - x_lo
        x_term = -(-(b * width.numerator * x_lo.denominator << prec)
                   // (2 * width.denominator * x_lo.numerator))
        return (x, z0, -c2 / c3 - z0, -c0 / (c3 * z0),
                (zn, en, -e, x_lo, x_hi, x_term))


def guard_digits(gap) -> int:
    """Working digits to add to the saddle solve at x = 1 - gap (an mpf or
    an exact rational).

    The root beyond b is about 3(b - 2a)/(1 - x), so a relative error e in
    x moves it by about e/(1 - x) relative.  x carries digits + 10 digits
    and the root is certified to z0*10^-digits/2, which leaves room for
    1/(1 - x) up to about 10^8; each further decimal of it costs one digit:
    max(0, ceil(log10(1/gap)) - 8), decided in integers.  The same guard
    goes into Newton's stopping tolerance, which is relative to z0.  1 - x_k
    is about sqrt(2/k), so the guard is 0 for k <= 10^16.
    """
    num, den = (_dyadic_ratio(gap) if isinstance(gap, mp.mpf)
                else (gap.numerator, gap.denominator))
    if num <= 0 or num * 10**8 >= den:
        return 0
    # the least c with 10^c * num >= den, starting from a float estimate
    c = int(math.log10(den // num))
    while 10**c * num < den:
        c += 1
    while 10**(c - 1) * num >= den:
        c -= 1
    return c - 8


def _saddle_dps(x, digits: int) -> int:
    """Working digits of the saddle functions: digits + 15 and the guard."""
    x = x if isinstance(x, mp.mpf) else mp.mpf(x)
    return digits + 15 + guard_digits(1 - x)


def _m_rate(a: int, b: int, x: mp.mpf, dists, ranges, x_term: int):
    """(M, radius): ln of the six-factor modulus quotient at a root z of the
    saddle cubic, minus (b/2) ln x, by one logarithm: (1/2) ln of
    prod_c d_c^(+-c) / (I^2 x^b), c = b-2a, b-a, b (+), 2a, a (-), the mpf
    d_c = |z - c|^2 in ``dists``, I = (b-4a)^(b-4a) (b-2a)^(b-2a) b^b.

    The radius bounds M's distance from M at the true root and x.  Each true
    |z - c|^2 lies in [lo, hi] of ``ranges`` (units of 2^-w, w the working
    precision), so c/2 ln d_c errs by c/2 max(d_c - lo, hi - d_c)/min(d_c,
    lo), and (b/2) ln x by ``x_term``; from the d_c on, six powers round
    within 2 units of 2^-w (mpmath's works at w + 4 bitlen(e) + 4 bits),
    six other steps within 1 and the log within an ulp: 11 + 2.01 |M|.
    """
    d1, d2, d3, d4, d5 = dists
    num = d1 ** (b - 2 * a) * d2 ** (b - a) * d3 ** b
    den = d4 ** (2 * a) * d5 ** a * x ** b
    ints = (b - 4 * a) ** (b - 4 * a) * (b - 2 * a) ** (b - 2 * a) * b ** b
    rate = mp.log(num / (den * ints ** 2)) / 2
    w = mp.mp.prec
    radius = x_term + 19 + 3 * int(abs(rate))
    for c, d, (lo, hi) in zip((b - 2 * a, b - a, b, 2 * a, a), dists, ranges):
        d_lo, d_hi = units(d, w)
        if min(d_lo, lo) <= 0:
            raise PrecisionError("a saddle rate's factor |z - c| is not "
                                 "bounded away from 0")
        radius += -(-(c * max(d_hi - lo, hi - d_lo) << w) // (2 * min(d_lo, lo)))
    return rate, mp.make_mpf(from_man_exp(radius, -w))


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
    for x, z, up in ((x_lo, zn + en, False), (x_hi, zn - en, True)):
        xn, xd = x.numerator, x.denominator
        den = (xd - xn) * z * z
        bounds.append([-(-v // den) if up else v // den for v in (
            (q * xd * z - 2 * a * a * xn * z - (c0 * xd << e)) << w + e,
            c0 * xd * z << w + e)])
    return bounds


def saddle_real(a: int, b: int, x, digits: int,
                x_bounds: tuple[Rat, Rat] | None = None
                ) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(z0, M1, radius): the unique root z0 > b of the saddle cubic,
    certified by exact sign probes, the growth rate M1 of the U
    coefficients, and M1's radius (:func:`_m_rate`; |z - c|^2 rises with
    z > b >= c, so the bracket's ends bound it)."""
    with mp.workdps(_saddle_dps(x, digits)):
        x, z0, _, _, (zn, en, e, _, _, x_term) = _solve_cubic(a, b, x, digits, x_bounds)
        w, cs = mp.mp.prec, (b - 2 * a, b - a, b, 2 * a, a)
        ranges = [((zn - en - (c << e)) ** 2 << w >> 2 * e,
                   -(-((zn + en - (c << e)) ** 2 << w) >> 2 * e)) for c in cs]
        m1, radius = _m_rate(a, b, x, [(z0 - c) ** 2 for c in cs], ranges, x_term)
        return +z0, +m1, radius


def saddle_complex(a: int, b: int, x, digits: int,
                   x_bounds: tuple[Rat, Rat] | None = None
                   ) -> tuple[mp.mpc, mp.mpf, mp.mpf]:
    """(z1, M2, radius): the upper-half-plane root of the mirrored saddle
    equation, the decay rate M2 of the linear and quadratic forms, and M2's
    radius, as in :func:`saddle_real`.

    z1 = -w for the root w = s/2 - i*sqrt(p - s^2/4) of the saddle cubic, its
    pair recovered from the root sum and product after the real root z0 > b,
    and |w - c|^2 = c^2 - s c + p, bounded through :func:`_deflation_bounds`.
    Where those bounds prove p - s^2/4 <= 0 the configuration is all-real
    and the statement does not apply (NonApplicableError); where they leave
    its sign open, PrecisionError.
    """
    with mp.workdps(_saddle_dps(x, digits)):
        x, _, s, p, box = _solve_cubic(a, b, x, digits, x_bounds)
        w, cs = mp.mp.prec, (b - 2 * a, b - a, b, 2 * a, a)
        (s_lo, p_lo), (s_hi, p_hi) = _deflation_bounds(a, b, box, w)
        squares = s_lo * s_lo, s_hi * s_hi
        if p_hi - (0 if s_lo <= 0 <= s_hi else min(squares) >> w + 2) <= 0:
            raise NonApplicableError("saddle cubic has three real roots; "
                                     "no complex saddle point")
        im2 = p - s * s / 4
        if p_lo + (-max(squares) >> w + 2) <= 0 or im2 <= 0:
            raise PrecisionError(f"the sign of p - s^2/4 = {im2} at a={a}, "
                                 f"b={b} is not certified")
        # |w - c|^2 = (c - s/2)^2 + p - s^2/4 = c^2 - s c + p: no mpc
        ranges = [((c * c << w) - c * s_hi + p_lo, (c * c << w) - c * s_lo + p_hi)
                  for c in cs]
        m2, radius = _m_rate(a, b, x, [(c - s / 2) ** 2 + im2 for c in cs],
                             ranges, box[-1])
        return mp.mpc(-s / 2, mp.sqrt(im2)), +m2, radius


# ---------------------------------------------------------------------------
# scaling-rate constants
# ---------------------------------------------------------------------------

def k_constants(k: int, a: int, b: int,
                digits: int = 60) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """(K1, K2, radius): exponential rates of the S and T scaling factors.

    Even k = 2m:  K1 = -((b-2a)/2) ln m,            K2 = -((b-4a)/2) ln m;
    odd k:        K1 = -((b-2a)/2) ln k + (3(b-2a)/2) ln 2, and K2 likewise
    with b-4a in the first coefficient.

    Each is within radius = 4b (bitlen(k) + 2) units of 2^-p at the
    working precision p: the logs are within an ulp, products and the odd
    sum add half of one, of terms up to (b/2) ln k and (3b/2) ln 2.
    """
    if k < 1 or a < 1 or b <= 4 * a:
        raise DomainError("need k >= 1 and b > 4a")
    with mp.workdps(digits + 10):
        if k % 2 == 0:
            lnm = mp.log(k // 2)
            k1 = -mp.mpf(b - 2 * a) / 2 * lnm
            k2 = -mp.mpf(b - 4 * a) / 2 * lnm
        else:
            lnk = mp.log(k)
            ln2 = mp.log(2)
            bonus = mp.mpf(3 * (b - 2 * a)) / 2 * ln2
            k1 = -mp.mpf(b - 2 * a) / 2 * lnk + bonus
            k2 = -mp.mpf(b - 4 * a) / 2 * lnk + bonus
        return +k1, +k2, mp.ldexp(4 * b * (k.bit_length() + 2), -mp.mp.prec)
