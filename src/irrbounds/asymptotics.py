"""High-precision real/complex evaluation: digamma at rational arguments, the
saddle-point cubic whose real and complex roots give the growth and decay
rates M1 and M2, and the scaling-rate constants K1 and K2.

Digamma comes from Gauss's digamma theorem: one memoised row of cosines and
log-sines per denominator and working precision serves every argument with
that denominator, and the precision is part of the row's key, so the two
rungs of a precision ladder never share a value.

The real saddle root is found by Newton from a proven bound, then two exact
probes: integer sign evaluations on a tight dyadic bracket, certain for every
x in a rational enclosure, so rounding can never fool them.  Near x = 1 the
root is ill-conditioned, and the working precision carries guard digits
(:func:`guard_digits`).  Every published value carries a precision ladder:
recomputation at twice the digits must agree to the reported digits.

alpha_value is alpha_k by mpmath's log, the reference the tests hold the
production route to: verify encloses alpha_k by a fixed-point integer sum
(measures._alpha_fixed) and never calls it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import DomainError, NonApplicableError, PrecisionError
from .exact_arith import Rat

__all__ = [
    "digamma", "alpha_value", "saddle_real", "saddle_complex",
    "k_constants", "cubic_roots_cardano", "ladder_agrees",
]


def ladder_agrees(lo, hi, digits: int) -> bool:
    """The precision-ladder rule: the value at ``digits`` and the value at
    2*digits agree to digits-5 places.  A finite value never agrees with an
    infinite one, in either order."""
    with mp.workdps(2 * digits + 10):
        if mp.isfinite(lo) != mp.isfinite(hi):
            return False
        tol = mp.mpf(10) ** (-(digits - 5))
        return not mp.isfinite(lo) or mp.fabs(lo - hi) <= tol * max(1, mp.fabs(hi))


# ---------------------------------------------------------------------------
# digamma at rational arguments
# ---------------------------------------------------------------------------

# the largest integer part of x that digamma accepts: psi(x) is psi of the
# fraction part plus one term 1/t per unit step, so this caps the steps.
# Omega's endpoints all lie in (0, 1].
MAX_DIGAMMA_SHIFT = 10_000


def digamma(x: Rat, digits: int) -> mp.mpf:
    """psi(x) for rational 0 < x < MAX_DIGAMMA_SHIFT + 1, by Gauss's
    digamma theorem at digits + 10 working digits; the precision ladder of
    each caller checks the result."""
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

    psi(1) = -gamma, and psi(x) = psi(p/q) + sum_{j<s} 1/(p/q + j).  Every
    quantity on the right comes from the row of denominator q, and
    cot(pi p/q) = +-sqrt((1 + C_p)/(1 - C_p)), + for p/q < 1/2.
    """
    s = -(-num // den) - 1
    p = num - s * den
    with mp.workdps(digits + 10):
        # 1 - C_n loses about 2 log2(q) bits to cancellation near n = 0, and
        # the n-sum and the shift cancel terms of size up to q
        with mp.extraprec(2 * den.bit_length()):
            if den == 1:
                psi = -mp.euler
            else:
                cos_row, log_row, base = _gauss_row(den, mp.mp.prec)
                c_p = cos_row[min(p, den - p)]
                cot = mp.sqrt((1 + c_p) / (1 - c_p))
                if 2 * p > den:
                    cot = -cot
                psi = base - mp.pi / 2 * cot + mp.fsum(
                    cos_row[min(n * p % den, -n * p % den)] * ln_sin2
                    for n, ln_sin2 in enumerate(log_row, 1))
            psi += mp.fsum(mp.mpf(den) / (p + j * den) for j in range(s))
        return +psi


@lru_cache(maxsize=None)
def _gauss_row(q: int, prec: int):
    """(C, L, base) for denominator q > 1 at working precision prec:
    C_j = cos(2 pi j/q) for j <= q/2, L_n = ln((1 - C_n)/2) = ln sin^2(pi n/q)
    for 1 <= n < q/2, and base = -gamma - ln 2q.  All the endpoints of one
    denominator share the row; the key carries the precision, so the rungs of
    a precision ladder never share a value."""
    with mp.workprec(prec):
        cos_row = tuple(mp.cospi(mp.mpf(2 * j) / q) for j in range(q // 2 + 1))
        log_row = tuple(mp.log((1 - c) / 2) for c in cos_row[1:(q + 1) // 2])
        return cos_row, log_row, -mp.euler - mp.log(2 * q)


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
    c3, c2, c1, c0 = coeffs

    def f(z):
        return ((c3 * z + c2) * z + c1) * z + c0

    def fp(z):
        return (3 * c3 * z + 2 * c2) * z + c1

    z, fz = z0, f(z0)
    tol = mp.mpf(10) ** (-dps + 3)
    for _ in range(200):
        step = fz / fp(z)
        znew = z - step
        fnew = f(znew)
        while mp.fabs(fnew) > mp.fabs(fz) and mp.fabs(step) > tol:
            step /= 2
            znew = z - step
            fnew = f(znew)
        z, fz = znew, fnew
        if mp.fabs(step) <= tol * max(1, mp.fabs(z)):
            break
    return z


def _newton_start(a: int, b: int, x: mp.mpf) -> mp.mpf:
    """Start of the mpf Newton for the root beyond b: Newton in doubles from
    the proven bound b/(1 - x^(1/3)), which leaves the mpf Newton 3-5 steps
    at 60 and 120 digits instead of 9-10.  When doubles cannot hold the
    solve (float(x) rounds to 1 at huge k, say) or do not end beyond b, the
    start is that bound in mpf.  Only the exact probes after the polish
    certify the root, so the start decides the speed, never the result."""
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
    """(x, z0, s, p) at the caller's working precision: x as mpf, the real
    root z0 > b of the saddle cubic, and the sum s and product p of the
    other two roots (from deflation).

    The cubic is z(z-a)(z-2a) * (x - f(z)) with
    f(z) = (z-(b-2a))(z-(b-a))(z-b) / (z(z-a)(z-2a)).  On z > b each factor
    (z-r)/(z-c) of f has r > c >= 0 (as b > 4a), so it is positive and
    strictly increasing: f rises strictly from 0 to 1, and for x in (0, 1)
    exactly one root lies beyond b, with the cubic positive before it and
    negative after it.  Each factor is also >= (z-b)/z, so
    f(z) >= ((z-b)/z)^3 and that root is at most b/(1 - x^(1/3)).

    Newton starts from that bound, first in doubles and then in mpf
    (:func:`_newton_start`).  The polished z0 is then certified by two
    exact probes at lo, hi = z0 -/+ z0*10^-digits/2: lo > b, sign +1 at lo and
    -1 at hi, for every x in the rational enclosure ``x_bounds``.  lo and hi
    are dyadic, so each probe is one integer (:func:`_cleared_cubic`) per
    end of the enclosure.  By the argument above, the unique root beyond b
    lies in [lo, hi]; if any of this fails, PrecisionError.

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
        return x, z0, -c2 / c3 - z0, -c0 / (c3 * z0)


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


def _m_rate(a: int, b: int, z, x) -> mp.mpf:
    """ln of the six-factor modulus quotient at a root z of the saddle cubic,
    minus (b/2) ln x."""
    m1, m2, m3, m4, m5 = (mp.fabs(z - c)
                          for c in (b - 2 * a, b - a, b, 2 * a, a))
    return ((b - 2 * a) * mp.log(m1) + (b - a) * mp.log(m2) + b * mp.log(m3)
            - 2 * a * mp.log(m4) - a * mp.log(m5)
            - (b - 4 * a) * mp.log(b - 4 * a) - (b - 2 * a) * mp.log(b - 2 * a)
            - b * mp.log(b) - mp.mpf(b) / 2 * mp.log(x))


def saddle_real(a: int, b: int, x, digits: int,
                x_bounds: tuple[Rat, Rat] | None = None) -> tuple[mp.mpf, mp.mpf]:
    """(z0, M1): the unique root z0 > b of the saddle cubic, certified by
    exact sign probes, and the growth rate of the U coefficients."""
    with mp.workdps(_saddle_dps(x, digits)):
        x, z0, _, _ = _solve_cubic(a, b, x, digits, x_bounds)
        return +z0, +_m_rate(a, b, z0, x)


def saddle_complex(a: int, b: int, x, digits: int,
                   x_bounds: tuple[Rat, Rat] | None = None) -> tuple[mp.mpc, mp.mpf]:
    """(z1, M2): the upper-half-plane root of the mirrored saddle equation and
    the decay rate of the linear and quadratic forms.

    z1 = -w for the root w = s/2 - i*sqrt(p - s^2/4) of the saddle cubic, its
    pair recovered from the root sum and product after the real root z0 > b.
    An all-real configuration means the statement does not apply.
    """
    with mp.workdps(_saddle_dps(x, digits)):
        x, _, s, p = _solve_cubic(a, b, x, digits, x_bounds)
        im2 = p - s * s / 4
        if im2 <= 0:
            raise NonApplicableError("saddle cubic has three real roots; "
                                     "no complex saddle point")
        w = mp.mpc(s / 2, -mp.sqrt(im2))
        return -w, +_m_rate(a, b, w, x)


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


# ---------------------------------------------------------------------------
# scaling-rate constants
# ---------------------------------------------------------------------------

def k_constants(k: int, a: int, b: int, digits: int = 60) -> tuple[mp.mpf, mp.mpf]:
    """(K1, K2): exponential rates of the S and T scaling factors.

    Even k = 2m:  K1 = -((b-2a)/2) ln m,            K2 = -((b-4a)/2) ln m;
    odd k:        K1 = -((b-2a)/2) ln k + (3(b-2a)/2) ln 2, and K2 likewise
    with b-4a in the first coefficient.
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
        return +k1, +k2
