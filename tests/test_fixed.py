"""The fixed-point functions and the ball arithmetic of irrbounds.fixed, held
to mpmath, the oracle, over random arguments and precisions from 30 to 510
digits."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (from_man_exp, mpf_add, mpf_div, mpf_log, mpf_mul,
                          mpf_pow_int, mpf_sqrt)

from irrbounds.asymptotics import guard_digits
from irrbounds.errors import PrecisionError
from irrbounds.exact_arith import icbrt
from irrbounds.fixed import (Ball, cos_2pi, euler_fixed, ln_fixed,
                             pi_fixed, prec_of)

DIGITS = st.integers(30, 510)
# the precision of the saddle solve at k = 10^2000: digits + 15 and the
# guard digits of 1 - x_k ~ sqrt(2/k)
HUGE_K_PREC = prec_of(60 + 15 + guard_digits((1, 10**1000)))


def _check_floor(got, exact):
    """got = floor(exact) unless exact lies within 2^-20 of an integer, and
    within 1 + 2^-20 units of it always."""
    assert exact - 1 - mp.mpf(2) ** -20 < got <= exact + mp.mpf(2) ** -20
    if mp.fabs(exact - mp.nint(exact)) > mp.mpf(2) ** -20:
        assert got == mp.floor(exact)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 2**4000), st.integers(-4000, 4000),
       st.one_of(DIGITS.map(prec_of), st.just(HUGE_K_PREC)))
@example(1, 0, 200)
@example(10**2000, 0, HUGE_K_PREC)
@example(2**3000 - 1, -3000, HUGE_K_PREC)
def test_ln_fixed_is_the_floor(man, exp, prec):
    got = ln_fixed(man, exp, prec)
    with mp.workprec(prec + 4100):
        _check_floor(got, mp.ldexp(mp.log(mp.ldexp(man, exp)), prec))


@settings(deadline=None, max_examples=30)
@given(DIGITS.map(prec_of))
def test_pi_fixed_is_the_floor(prec):
    with mp.workprec(prec + 64):
        _check_floor(pi_fixed(prec), mp.ldexp(mp.pi, prec))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 10**6), DIGITS.map(prec_of))
@example(1, 100)
@example(2, 100)
def test_cos_2pi_within_half_a_unit(q, prec):
    with mp.workprec(prec + 64):
        exact = mp.ldexp(mp.cospi(mp.mpf(2) / q), prec)
        assert mp.fabs(cos_2pi(q, prec) - exact) <= mp.mpf(1) / 2 + mp.mpf(2) ** -16


def test_euler_literal_is_the_floor():
    with mp.workprec(2300):
        assert euler_fixed(2048) == mp.floor(mp.ldexp(mp.euler, 2048))
    for prec in (1, 100, prec_of(510), 2047):
        assert euler_fixed(prec) == euler_fixed(2048) >> 2048 - prec
    with pytest.raises(PrecisionError):
        euler_fixed(2049)


@given(st.integers(1, 2**3000))
@example(1)
@example(27)
@example(3**300 - 1)
def test_icbrt_is_the_floor(n):
    c = icbrt(n)
    assert c ** 3 <= n < (c + 1) ** 3


def _exact(ball):
    """An mpf holding the ball's centre exactly."""
    with mp.workprec(abs(ball.man).bit_length() + 10):
        return mp.mpf(ball)


_MAN = st.integers(1, 2**700).flatmap(lambda m: st.sampled_from([m, -m]))


@settings(deadline=None, max_examples=80)
@given(_MAN, st.integers(-800, 60), _MAN, st.integers(-800, 60),
       st.integers(0, 2**20), DIGITS.map(prec_of),
       st.sampled_from([2, 3, 5, 17, 203, 403]))
def test_ball_centres_round_as_mpmath(am, ae, bm, be, rad, prec, n):
    # each operation's centre is mpmath's value at the same precision, bit
    # for bit, and its radius holds the exact result at both ends of the
    # operands
    a, b = Ball(am, ae), Ball(bm, be)
    x, y = a._mpf_, b._mpf_
    pairs = [((a + b).rnd(prec), mpf_add(x, y, prec, "n")),
             ((a * b).rnd(prec), mpf_mul(x, y, prec, "n")),
             (a.div(b, prec), mpf_div(x, y, prec, "n")),
             (abs(a).sqrt(prec), mpf_sqrt(abs(a)._mpf_, prec, "n")),
             (abs(a).log(prec), mpf_log(abs(a)._mpf_, prec, "n")),
             (a.rnd(prec).pow(n, prec), mpf_pow_int(a.rnd(prec)._mpf_, n, prec, "n"))]
    for got, want in pairs:
        assert mp.mpf(got) == mp.mpf(want)
    wide = Ball(abs(am), ae, min(rad, abs(am) // (4 * n)))
    with mp.workprec(prec + 200):
        for got, fn in ((wide.log(prec), mp.log), (wide.sqrt(prec), mp.sqrt),
                        (wide.pow(n, prec), lambda v: v ** n)):
            centre, radius = _exact(got), _exact(got.radius())
            for num, den in wide.bounds():
                value = fn(mp.mpf(num) / den)
                assert mp.fabs(value - centre) <= radius


ENDS = st.one_of(st.integers(-2**90, 2**90),
                 st.fractions(-2**90, 2**90, max_denominator=2**200))


@settings(deadline=None, max_examples=400)
@given(st.integers(-2**80, 2**80), st.integers(-4000, 4000),
       st.integers(0, 2**40), ENDS, ENDS, st.integers(-4100, 4100))
@example(1, 61, 0, 0, 1, 0)
@example(-3, 1891, 1, F(-1, 3), 5, -4000)
@example(5, -2000, 0, F(1, 2), F(2, 3), -2100)
def test_ball_int_views_are_the_fraction_formulas(man, exp, rad, lo, hi, shift):
    # centre, bounds, float(), hash and spanning on ints and int pairs give
    # what the Fraction formulas they replace gave, spanning for the int
    # pairs of int and Fraction ends and scale exponents s = shift - exp + 32
    # of either sign
    ball, scale = Ball(man, exp, rad), F(2) ** exp
    assert F(*ball.centre()) == man * scale
    assert [F(*end) for end in ball.bounds()] == [(man - rad) * scale,
                                                   (man + rad) * scale]
    try:
        want = float(man * scale)
    except OverflowError:
        with pytest.raises(OverflowError):
            float(ball)
    else:
        assert float(ball) == want
    assert hash(ball) == hash(man * scale)
    # equal balls at different exponents, and a ball equal to an int
    finer = Ball(man << 75, exp - 75, rad)
    assert finer == ball and hash(finer) == hash(ball)
    if exp >= 0:
        assert ball == man << exp and hash(ball) == hash(man << exp)
    lo, hi = F(min(lo, hi)), F(max(lo, hi))
    s, m32 = F(2) ** (shift - exp + 32), man << 32
    want = Ball(m32, exp - 32, math.ceil(max(m32 - lo * s, hi * s - m32, 0)))
    got = ball.spanning((lo.numerator, lo.denominator),
                        (hi.numerator, hi.denominator), shift)
    assert (got.man, got.exp, got.rad) == (want.man, want.exp, want.rad)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 400), st.integers(-133, 133), st.data(),
       st.integers(1, 480), st.booleans())
@example(1, 0, None, 1, False)
def test_to_str_is_mpmath_nstr(bits, top, data, sig, negative):
    # random dyadics of decimal exponent -40 to 40: bits <= 400, top the
    # binary exponent of the leading bit, |top| <= 133
    man = 1 if data is None else data.draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
    ball = Ball(-man if negative else man, top - man.bit_length())
    assert ball.to_str(sig) == mp.nstr(_exact(ball), sig, strip_zeros=False)


def test_rnd_ties_to_even_as_mpmath():
    # every mantissa of up to 12 bits cut to each shorter precision,
    # exact ties among them
    for man in range(1, 1 << 12):
        for prec in range(1, man.bit_length()):
            got = Ball(man, -5).rnd(prec)
            assert got._mpf_ == from_man_exp(man, -5, prec, "n"), (man, prec)
