from fractions import Fraction as F

import mpmath as mp
import pytest
from mpmath.libmp import dps_to_prec
from hypothesis import given, settings
from hypothesis import strategies as st

from irrbounds import (DomainError, NonApplicableError, PrecisionError,
                       digamma, k_constants, saddle_complex, saddle_real)
from irrbounds import asymptotics
from irrbounds.asymptotics import alpha_value
from irrbounds.fixed import Ball, certify
from irrbounds.exact_arith import grid_cells
from irrbounds.measures import HEADLINE_KS, MU2_PARAMS, _x_numeric, mu_bound
from oracles import (_eval_cubic, _real_cubic_coeffs, cubic_roots_cardano,
                     m_rate_nine_logs, pair, saddle_rates_iv, saddle_x)

TABLE_KS = (3, 5, 6, 7, 8, 9, 10, 11, 12)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

def test_digamma_classical_values():
    with mp.workdps(70):
        assert mp.fabs(digamma((1, 1), 60) + mp.euler) < mp.mpf(10) ** -58
        assert mp.fabs(digamma((1, 2), 60) + mp.euler + 2 * mp.log(2)) < mp.mpf(10) ** -58
        # psi(1) - psi(1/2) = 2 ln 2
        gap = digamma((1, 1), 60) - digamma((1, 2), 60)
        assert mp.fabs(gap - 2 * mp.log(2)) < mp.mpf(10) ** -58


def test_digamma_reflection_quarter():
    with mp.workdps(70):
        lhs = digamma((3, 4), 60) - digamma((1, 4), 60)
        assert mp.fabs(lhs - mp.pi) < mp.mpf(10) ** -57


def _gauss_digamma(x):
    """psi(x), x = h/k in (0, 1] an int pair, from Gauss's digamma theorem
    (DLMF 5.4.19)."""
    h, k = x
    psi = -mp.euler
    if k > 1:
        psi += (-mp.log(k) - mp.pi / 2 * mp.cot(mp.pi * h / k)
                + sum(mp.cos(2 * mp.pi * j * h / k)
                      * mp.log(2 - 2 * mp.cos(2 * mp.pi * j / k))
                      for j in range(1, k)) / 2)
    return psi


@pytest.mark.parametrize("x", [(1, 6), (3, 7), (1, 1), (1, 2), (101, 203),
                               (1, 23), (22, 23)])
def test_digamma_against_mpmath(x):
    # the reference transcribes Gauss's theorem directly, with no shared row
    for digits in (40, 80):
        with mp.workdps(digits + 15):
            ref = _gauss_digamma(x)
            assert mp.fabs(digamma(x, digits) - ref) < mp.mpf(10) ** -(digits - 1)


@settings(deadline=None)
@given(st.integers(1, 400), st.data(), st.sampled_from([30, 60, 120, 300]))
def test_digamma_matches_mpmath_digamma(den, data, digits):
    num = data.draw(st.integers(1, den))
    psi = digamma(pair(F(num, den)), digits)
    with mp.workdps(digits + 30):
        ref = mp.digamma(mp.mpf(num) / den)
        assert mp.fabs(psi - ref) <= mp.mpf(10) ** -(digits + 5) * max(1, mp.fabs(ref))
        # the bound digamma states: 2^-prec (1 + |psi|), prec of digits + 10
        prec = dps_to_prec(digits + 10)
        assert mp.fabs(psi - ref) <= mp.ldexp(1 + mp.fabs(psi), -prec)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 400), st.sampled_from([100, 200, 400, 1000]))
def test_gauss_row_within_its_documented_bound(q, prec):
    # the bounds of _gauss_row's docstring, against mpmath at 30 more digits:
    # |e_j| <= j^2 <= 2^(B - prec - 2 bitlen(q) - 2) for C_j, q^4/32 + 2 and
    # 2^(B - prec - 3) for L_n, and C_(q-j) = C_j
    bits, cos_row, log_row, base = asymptotics._gauss_row(q, prec)
    with mp.workprec(bits + 100):
        scale = mp.mpf(2) ** bits
        for j in range(q // 2 + 1):
            err = mp.fabs(cos_row[j] - mp.cospi(mp.mpf(2 * j) / q) * scale)
            assert err <= min(j * j, 2 ** (bits - prec - 2 * q.bit_length() - 2))
            assert j == 0 or cos_row[q - j] == cos_row[j]
        for n, ln_sin2 in enumerate(log_row, 1):
            err = mp.fabs(ln_sin2 - mp.log(mp.sinpi(mp.mpf(n) / q) ** 2) * scale)
            assert err <= min(q ** 4 / 32 + 2, 2 ** (bits - prec - 3))
        assert len(cos_row) == q and len(log_row) == (q + 1) // 2 - 1
        assert mp.fabs(base + (mp.euler + mp.log(2 * q)) * scale) <= 2


def test_digamma_refuses_arguments_above_one():
    # Omega's endpoints all lie in (0, 1], the only arguments psi is taken at
    for x in ((101, 100), (5, 2), (2, 1), (10**4 + 1, 1), (3, 2)):
        with pytest.raises(DomainError, match="0 < x <= 1"):
            digamma(x, 40)


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma((0, 1), 40)
    with pytest.raises(DomainError):
        digamma((-3, 2), 40)


def test_digamma_precision_ladder():
    # the value at 60 digits agrees with the one at 120 to 55 places
    lo, hi = digamma((2, 7), 60), digamma((2, 7), 120)
    with mp.workdps(130):
        assert mp.fabs(lo - hi) <= mp.mpf(10) ** -55 * max(1, mp.fabs(hi))
    with mp.workdps(90):
        assert mp.fabs(hi - mp.digamma(mp.mpf(2) / 7)) < mp.mpf(10) ** -80


# ---------------------------------------------------------------------------
# alpha_k
# ---------------------------------------------------------------------------

def test_alpha_degenerate_values():
    with mp.workdps(70):
        assert mp.fabs(alpha_value(4, 60) + 3 * mp.log(2)) < mp.mpf(10) ** -58
        assert mp.fabs(alpha_value(12, 60) - 5 * mp.log(F(2, 3))) < mp.mpf(10) ** -58


def test_alpha_two_routes_agree():
    # sqrt(13) ln((sqrt(13)-1)/(sqrt(13)+1)) == sqrt(13) ln((7-sqrt(13))/6)
    with mp.workdps(70):
        direct = alpha_value(6, 60)
        other = mp.sqrt(13) * mp.log((7 - mp.sqrt(13)) / 6)
        assert mp.fabs(direct - other) < mp.mpf(10) ** -58
        assert direct < 0


# ---------------------------------------------------------------------------
# saddle points
# ---------------------------------------------------------------------------

@given(st.sampled_from([(1, 7), (1, 13), (2, 23), (3, 29)]),
       st.fractions(0, 1, max_denominator=10**6),
       st.fractions(-100, 100, max_denominator=1000))
def test_cubic_coeffs_match_product_form(ab, x, z):
    a, b = ab

    def direct(z):
        return x * z * (z - a) * (z - 2 * a) - (z - (b - 2 * a)) * (z - (b - a)) * (z - b)

    def mirrored(z):
        return x * z * (z + a) * (z + 2 * a) - (z + (b - 2 * a)) * (z + (b - a)) * (z + b)

    coeffs = _real_cubic_coeffs(a, b, x)
    assert _eval_cubic(coeffs, z) == direct(z)
    # the mirrored saddle equation is minus the same cubic at -z
    assert mirrored(z) == -_eval_cubic(coeffs, -z)
    # the package's integer cubic is the same one times x's denominator
    assert asymptotics._cubic(a, b, pair(x)) == tuple(x.denominator * c for c in coeffs)


def _ratio(a, b, z):
    """f(z) of the saddle equation x = f(z), in exact arithmetic."""
    return ((z - (b - 2 * a)) * (z - (b - a)) * (z - b)
            / (z * (z - a) * (z - 2 * a)))


# b odd in (4a, 4a+40]
_AB = st.integers(1, 5).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, 20).map(lambda j: 4 * a + 2 * j - 1)))


@given(_AB, st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1),
       st.fractions(0, 1000, max_denominator=1000).filter(lambda t: t > 0),
       st.fractions(0, 1000, max_denominator=1000).filter(lambda t: t > 0))
def test_one_root_beyond_b_and_its_bound(ab, x, t, dt):
    # the argument behind _solve_cubic: on z > b the cubic is
    # z(z-a)(z-2a)(x - f(z)), f rises strictly and f(z) >= ((z-b)/z)^3
    a, b = ab
    z1, z2 = b + t, b + t + dt
    assert (_eval_cubic(_real_cubic_coeffs(a, b, x), z1)
            == z1 * (z1 - a) * (z1 - 2 * a) * (x - _ratio(a, b, z1)))
    assert _ratio(a, b, z1) >= ((z1 - b) / z1) ** 3
    assert _ratio(a, b, z1) < _ratio(a, b, z2)


@given(st.integers(1, 5).flatmap(lambda a: st.tuples(
           st.just(a), st.integers(1, 21).map(lambda j: 4 * a + 2 * j - 1))),
       st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1))
def test_inflection_point_lies_below_the_root(ab, x):
    # the proof that lets Newton go without step-halving
    # (asymptotics._newton_polish): f'' = 6((x-1)z + b - a - ax) vanishes at
    # z_i = a + B/u, B = b - 2a, u = 1 - x, where h/g = x(B^2 x^2 - a^2 u^2)/
    # (B^2 - a^2 u^2) < x, so the cubic is positive at z_i if z_i > b: z_i
    # lies below the root beyond b, and f is concave past it
    a, b = ab
    big, u = b - 2 * a, 1 - x
    zi = a + big / u
    c3, c2, _, _ = c = asymptotics._cubic(a, b, pair(x))
    assert (c3, 2 * c2) == (x.denominator * (x - 1),
                            6 * x.denominator * (b - a - a * x))
    assert 6 * c3 * zi + 2 * c2 == 0
    ratio = _ratio(a, b, zi)
    assert ratio == x * (big**2 * x**2 - a**2 * u**2) / (big**2 - a**2 * u**2)
    assert ratio < x
    if zi > b:
        assert asymptotics._value(c, zi.numerator, zi.denominator) > 0


@settings(deadline=None)
@given(st.integers(1, 200), _AB)
def test_saddle_real_certifies_on_the_grid(k, ab):
    a, b = ab
    digits = 40
    x = _x_numeric(k, digits)
    z0, _ = saddle_real(a, b, x, digits)
    with mp.workdps(digits + 10):
        roots = cubic_roots_cardano(_real_cubic_coeffs(a, b, mp.mpf(x)), digits)
        assert min(mp.fabs(r - z0) for r in roots) < mp.mpf(10) ** -30
        assert b < z0 <= b / (1 - mp.cbrt(x))


def test_newton_start_is_the_rounded_bound():
    # the start is b/(1 - cbrt(x)) as mpmath rounds it at the solve's
    # precision, above z0 on the table cells, and so where float(x) rounds
    # to 1
    for k in TABLE_KS:
        x = _x_numeric(k, 60)
        prec = asymptotics._saddle_bits(x, 60)
        for a, b in ((1, 7), (2, 23), (1, 13)):
            z0, _ = saddle_real(a, b, x, 60)
            start = asymptotics._newton_start(a, b, x.centre(), prec)
            with mp.workprec(prec):
                assert mp.mpf(start) == b / (1 - mp.cbrt(mp.mpf(x)))
            with mp.workdps(75):
                assert mp.mpf(start) > mp.mpf(z0)
    with mp.workdps(75):
        x = 1 - mp.mpf(10) ** -40
        assert float(x) == 1
        _, man, exp, _ = x._mpf_
        start = asymptotics._newton_start(1, 7, (man, 2**-exp), mp.mp.prec)
        assert mp.mpf(start) == 7 / (1 - mp.cbrt(x))


def test_newton_polish_evaluations_per_solve(monkeypatch):
    # from the bound, on the 97 solves of the benchmark's table and
    # searches, the polish makes at most 11 cubic evaluations at 60 digits
    # and 14 at 500; the counts repeat exactly, so a slower start or step
    # fails here.  Newton's evaluations are all but the probes' (which take
    # the cubic at the ends of x's enclosure), and |f| never rises from one
    # iterate to the next: f is concave and falling past the root
    calls = []
    evaluate = asymptotics._value

    def counted(c, zn, zd):
        value = evaluate(c, zn, zd)
        calls.append((c, abs(value)))
        return value

    monkeypatch.setattr(asymptotics, "_value", counted)
    cells = [*((k, 1, 7) for k in HEADLINE_KS),
             *((k, *ab) for k, ab in MU2_PARAMS.items()),
             *((k, a, b) for k in (5, 7, 9, 11) for a, b in grid_cells(3, 21))]
    assert len(cells) == 97
    for digits, most in ((60, 11), (500, 14)):
        for k, a, b in cells:
            asymptotics._certified_solve.cache_clear()  # each solve runs
            calls.clear()
            x = _x_numeric(k, digits)
            saddle_real(a, b, x, digits)
            ends = [asymptotics._cubic(a, b, end) for end in x.bounds()]
            newton = [f for c, f in calls if c not in ends]
            assert 0 < len(newton) <= most, (k, a, b, digits, len(newton))
            assert all(f1 <= f0 for f0, f1 in zip(newton, newton[1:])), (
                k, a, b, digits)


def test_solve_cubic_makes_four_exact_evaluations(monkeypatch):
    calls = []
    evaluate = asymptotics._value

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(asymptotics, "_value", counted)
    asymptotics._certified_solve.cache_clear()  # the solve must really run
    x = _x_numeric(8, 60)
    saddle_real(1, 13, x, 60)  # one _solve_cubic call
    # the probes: exact rationals z = zn/zd, zd > 0, in the integer cubic at
    # each end x = xn/xd, xd > 0, of x's enclosure; every other evaluation
    # is Newton's, of the cubic at x's centre with z's scale in its
    # coefficients: c3 as it is, and zd = 1
    ends = [asymptotics._cubic(1, 13, end) for end in x.bounds()]
    probes = [args for args in calls if args[0] in ends]
    assert len(probes) == 4
    assert all(type(v) is int for c, zn, zd in probes for v in (*c, zn, zd))
    assert all(zd > 0 for _, _, zd in probes)
    assert all(xd > 0 for _, xd in x.bounds())
    c3 = asymptotics._cubic(1, 13, x.centre())[0]
    assert all(c[0] == c3 and zd == 1 for c, _, zd in calls if c not in ends)


@given(_AB, st.fractions(-1, 2, max_denominator=10**30),
       st.fractions(-100, 10**6, max_denominator=10**30))
def test_integer_probe_has_the_sign_of_the_cubic(ab, x, z):
    a, b = ab
    probe = asymptotics._value(asymptotics._cubic(a, b, pair(x)),
                               z.numerator, z.denominator)
    # the product form x z(z-a)(z-2a) - (z-(b-2a))(z-(b-a))(z-b), times
    # zd^3 xd, so of the cubic's sign
    value = (x * z * (z - a) * (z - 2 * a)
             - (z - (b - 2 * a)) * (z - (b - a)) * (z - b))
    assert probe == value * z.denominator ** 3 * x.denominator
    assert (probe > 0) == (value > 0) and (probe < 0) == (value < 0)
    # the same integer for an unreduced z and x
    assert asymptotics._value(
        asymptotics._cubic(a, b, (7 * x.numerator, 7 * x.denominator)),
        3 * z.numerator, 3 * z.denominator) == 27 * 7 * probe


def test_saddle_certificate_fails_closed():
    # an enclosure that misses x, or one widened to 10^-3, must not yield an
    # uncertified root; widened on one side, it leaves one probe's sign
    # certain, so the other probe alone must reject it
    x = _x_numeric(6, 60)
    x_lo, x_hi = (F(*end) for end in x.bounds())
    w = asymptotics._saddle_bits(x, 60)

    def solve(lo, hi):
        return asymptotics._certified_solve(1, 7, (x.man, x.exp), 60, pair(lo),
                                            pair(hi), w)

    shift, wide = F(1, 10**40), F(1, 10**3)
    for xb in ((x_lo + shift, x_hi + shift), (x_lo, x_lo + wide),
               (x_hi - wide, x_hi)):
        # a solve certified for the true enclosure must not serve another
        solve(x_lo, x_hi)
        # the refusal prints x's enclosure as a ball, centre +- radius
        with pytest.raises(PrecisionError, match=r"not certified for x = "
                           r"0\.56574145408933511781 \+- \d"):
            solve(*xb)


def test_guard_digits_only_near_one():
    # max(0, ceil(log10(1/gap)) - 8), exact at the powers of ten
    assert asymptotics.guard_digits((1, 10**8)) == 0
    assert asymptotics.guard_digits((1, 2 * 10**8)) == 1
    assert asymptotics.guard_digits((1, 10**50)) == 42
    assert asymptotics.guard_digits((3, 10**50)) == 42
    assert asymptotics.guard_digits((1, 2)) == 0
    assert asymptotics.guard_digits(Ball(3).div(10**50, 100).centre()) == 42
    assert asymptotics.guard_digits(Ball(1, -1).centre()) == 0
    # 1 - x_k is about sqrt(2/k): no guard, so no change, up to k = 10^16
    for k in (6, 10**9, 10**16):
        x = _x_numeric(k, 60)
        assert asymptotics.guard_digits((1 - x).centre()) == 0
    x = _x_numeric(10**30, 60)
    assert asymptotics.guard_digits((1 - x).centre()) == 7


@pytest.mark.parametrize("e, bound", [(30, "3.0268974"), (60, "3.0136297"),
                                      (100, "3.0082221"), (300, "3.0027556"),
                                      (2000, "3.0004143")])
def test_huge_k_certifies_with_guard_digits(e, bound):
    # 1/(1 - x_k) is about 10^(e/2): without the guard digits in x and in
    # the solve, the saddle certificate refused the root (k >= 10^24); without
    # them in Newton's tolerance, M2 from the deflation lost digits that its
    # radius must certify (a 60/120-digit comparison caught it from 10^215)
    res = mu_bound(10**e, 1, 7, 60)
    assert res.applicable and mp.nstr(res.bound, 8) == bound


def test_saddle_certificate_rejects_a_root_below_b(monkeypatch):
    # at x = 0.001 the smallest root (near 5.03) has the same sign change as
    # the root beyond b; only lo > b tells them apart
    polish = asymptotics._newton_polish
    monkeypatch.setattr(asymptotics, "_newton_polish",
                        lambda coeffs, z, prec, dps: polish(coeffs, (5, 0), prec, dps))
    asymptotics._certified_solve.cache_clear()  # the solve must really run
    with pytest.raises(PrecisionError):
        saddle_real(1, 7, saddle_x(1, 1000, 40), 40)


def test_saddle_real_residual_and_location():
    digits = 60
    x = _x_numeric(6, digits)
    z0, m1 = saddle_real(1, 7, x, digits)
    with mp.workdps(digits + 10):
        res = _eval_cubic(_real_cubic_coeffs(1, 7, mp.mpf(x)), mp.mpf(z0))
        assert mp.fabs(res) < mp.mpf(10) ** (-digits + 5)
    assert z0 > 7
    assert mp.isfinite(m1)


def test_saddle_constants_for_table_parameter_sets():
    # z0 beyond b, and both rates finite, for every headline cell
    for k in TABLE_KS:
        x = _x_numeric(k, 40)
        z0, m1 = saddle_real(1, 7, x, 40)
        assert z0 > 7
        assert mp.isfinite(m1)
        z1, m2 = saddle_complex(1, 7, x, 40)
        assert z1[1] > 0
        assert mp.isfinite(m2)
    for k, a, b in ((6, 2, 23), (8, 1, 13), (10, 1, 13), (12, 1, 13)):
        x = _x_numeric(k, 40)
        _, m1 = saddle_real(a, b, x, 40)
        _, m2 = saddle_complex(a, b, x, 40)
        assert mp.isfinite(m1) and mp.isfinite(m2)


def test_saddle_complex_upper_half_and_residual():
    digits = 60
    x = _x_numeric(6, digits)
    z1, m2 = saddle_complex(1, 7, x, digits)
    assert z1[1] > 0
    with mp.workdps(digits + 10):
        res = _eval_cubic(_real_cubic_coeffs(1, 7, mp.mpf(x)), -mp.mpc(*z1))
        assert mp.fabs(res) < mp.mpf(10) ** (-digits + 5)
    assert mp.isfinite(m2)


@pytest.mark.parametrize("k,a,b", [(6, 1, 7), (8, 1, 13)])
def test_saddles_against_cardano_oracle(k, a, b):
    digits = 60
    x = _x_numeric(k, digits)
    z0, _ = saddle_real(a, b, x, digits)
    z1, _ = saddle_complex(a, b, x, digits)
    with mp.workdps(digits + 10):
        tol = mp.mpf(10) ** -30
        z1 = mp.mpc(*z1)
        roots = cubic_roots_cardano(_real_cubic_coeffs(a, b, mp.mpf(x)), digits)
        # root count matches the degree
        assert len(roots) == 3
        assert min(mp.fabs(r - z0) for r in roots) < tol
        # z1 is a root of the mirrored equation, so -z1 is one of the cubic
        assert min(mp.fabs(r + z1) for r in roots) < tol


_RATE_AB = st.integers(1, 5).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(0, 99).map(lambda i: 4 * a + 2 * i + 1)))


@settings(deadline=None, max_examples=60)
@given(_RATE_AB, st.one_of(st.integers(1, 200), st.sampled_from([10**20, 10**100])),
       st.sampled_from([30, 60, 120, 300]))
def test_one_log_rate_matches_nine_logs(ab, k, digits):
    # M1 and M2 from one log of a product of powers, against one log per
    # factor at the same root and x
    a, b = ab
    x = _x_numeric(k, digits)
    z0, m1 = saddle_real(a, b, x, digits)
    try:
        z1, m2 = saddle_complex(a, b, x, digits)
    except NonApplicableError:
        z1 = None
    with mp.workprec(asymptotics._saddle_bits(x, digits)):
        x = mp.mpf(x)
        # the cubic's complex root is w = -z1, negated at this precision
        pairs = [(z0, m1)] + ([] if z1 is None else [(-mp.mpc(*z1), m2)])
        for z, rate in pairs:
            ref = m_rate_nine_logs(a, b, z, x)
            assert mp.fabs(rate - ref) <= mp.mpf(10) ** -(digits + 8) * max(1, mp.fabs(ref))


def test_saddle_complex_all_real_rejected():
    # at tiny x the saddle cubic has three real roots and the complex
    # saddle construction does not apply
    with pytest.raises(NonApplicableError):
        saddle_complex(1, 7, saddle_x(1, 1000, 40), 40)


def test_saddle_domain_checks():
    with pytest.raises(DomainError):
        saddle_real(1, 7, saddle_x(3, 2, 40), 40)
    with pytest.raises(DomainError):
        saddle_real(1, 3, saddle_x(1, 2, 40), 40)


def test_saddle_complex_decides_the_discriminant_on_its_bounds(monkeypatch):
    # p - s^2/4 from the exact bounds on s and p: provably <= 0 is an
    # all-real configuration (not applicable), undecided is a precision
    # failure, even where the mpf p - s^2/4 alone would pass
    bounds = asymptotics._deflation_bounds
    x = _x_numeric(6, 60)
    for shift, error in ((10**6, PrecisionError), (-(10**6), NonApplicableError)):
        def moved(box, w, shift=shift):
            (s_lo, p_lo), (s_hi, p_hi) = bounds(box, w)
            if shift > 0:  # p's bounds widened to hold 0
                return (s_lo, p_lo - (shift << w)), (s_hi, p_hi)
            return (s_lo, p_lo + (shift << w)), (s_hi, p_hi + (shift << w))

        monkeypatch.setattr(asymptotics, "_deflation_bounds", moved)
        with pytest.raises(error):
            saddle_complex(1, 7, x, 60)


def _deflation(a, b, x, z):
    """The other two roots' sum and product by the forms that
    asymptotics._deflation_bounds bounds, in exact arithmetic."""
    r1, r2, r3 = b - 2 * a, b - a, b
    q, c0 = r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3
    gz = (1 - x) * z
    return (q - 2 * a * a * x - c0 / z) / gz, c0 / gz


@given(_AB, st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1),
       st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1),
       st.fractions(0, 1000, max_denominator=1000).filter(lambda t: t > 0),
       st.fractions(0, 1000, max_denominator=1000).filter(lambda t: t > 0))
def test_deflation_forms_fall_with_z_and_rise_with_x(ab, x1, x2, t, dt):
    # the monotonicity that puts the bounds of s and p at two corners
    a, b = ab
    z = b + t
    s, p = _deflation(a, b, x1, z)
    s_z, p_z = _deflation(a, b, x1, z + dt)
    assert s_z < s and p_z < p
    if x1 != x2:
        (s_x, p_x), low = _deflation(a, b, x2, z), x1 < x2
        assert (s < s_x) == low and (p < p_x) == low


@pytest.mark.parametrize("k,a,b", [(6, 1, 7), (8, 1, 13), (3, 2, 23), (1, 1, 7)])
def test_deflation_bounds_hold_the_other_roots(k, a, b):
    # the exact bounds on s and p hold the sum and product of the two roots
    # that Cardano's formula gives besides the one beyond b
    digits = 60
    x = _x_numeric(k, digits)
    w = asymptotics._saddle_bits(x, digits)
    z0, _, _, box = asymptotics._solve_cubic(a, b, x, digits, w)
    (s_lo, p_lo), (s_hi, p_hi) = asymptotics._deflation_bounds(box, w)
    with mp.workdps(digits + 30):
        roots = cubic_roots_cardano(_real_cubic_coeffs(a, b, mp.mpf(x)), digits + 20)
        roots.sort(key=lambda r: mp.fabs(r - z0))
        s, p = mp.re(roots[1] + roots[2]), mp.re(roots[1] * roots[2])
        for value, lo, hi in ((s, s_lo, s_hi), (p, p_lo, p_hi)):
            assert mp.ldexp(lo, -w) <= value <= mp.ldexp(hi, -w)
            assert hi - lo < 2 ** (w - 190)


def _box(x, z0, digits):
    """The box the radii are taken over, rebuilt from what the solve states:
    the bracket z0 (1 -/+ 10^-(digits+5)/2) the probes certify, and the hull
    of x's enclosure and x."""
    z, half = F(*z0.centre()), F(1, 2 * 10 ** (digits + 5))
    (x_lo, x_hi), xf = (F(*end) for end in x.bounds()), F(*x.centre())
    return z * (1 - half), z * (1 + half), min(x_lo, xf), max(x_hi, xf)


@pytest.mark.parametrize("k,a,b", [(6, 1, 7), (8, 1, 13), (6, 2, 23), (12, 1, 13),
                                   (5, 3, 13), (11, 3, 21), (1, 1, 7),
                                   (10**30, 1, 7), (10**300, 1, 13)],
                         ids=lambda v: f"1e{len(str(v)) - 1}" if v > 10**6 else str(v))
def test_rate_radii_against_the_iv_oracle(k, a, b):
    # the full-precision iv enclosure of each rate over the root's box lies
    # within the rate's radius, and the radius is no wider than it
    digits = 60
    x = _x_numeric(k, digits)
    z0, m1 = saddle_real(a, b, x, digits)
    _, m2 = saddle_complex(a, b, x, digits)
    dps = 200 + len(str(k))
    enclosures = saddle_rates_iv(a, b, *_box(x, z0, digits), dps)
    for rate, enclosure in zip((m1, m2), enclosures):
        with mp.workdps(dps):
            rate, radius = mp.mpf(rate), mp.mpf(rate.radius())
            lo, hi = mp.mpf(enclosure.a), mp.mpf(enclosure.b)
            assert rate - radius <= lo and hi <= rate + radius
            assert radius <= (hi - lo) / 2 * mp.mpf("1.01") + mp.mpf(10) ** -(digits + 8)


@pytest.mark.parametrize("digits", [30, 60, 120])
def test_x_enclosure_holds_x_k(digits):
    # x_k = (k + 1 - sqrt(2k+1))/k lies in the rational enclosure that the
    # root's probes and the radii rest on, decided exactly: with
    # t = k + 1 - k x, x <= x_k <= x' means t' <= sqrt(2k+1) <= t
    for k in [*range(1, 60), 10**9, 10**30, 10**300]:
        x_lo, x_hi = _x_numeric(k, digits).bounds()
        t_hi, t_lo = k + 1 - k * F(*x_lo), k + 1 - k * F(*x_hi)
        d = 2 * k + 1
        assert t_lo <= 0 or t_lo.numerator ** 2 <= d * t_lo.denominator ** 2
        assert t_hi > 0 and d * t_hi.denominator ** 2 <= t_hi.numerator ** 2


def _ball(value, radius):
    """The ball of an mpf centre and radius, exactly."""
    (vm, ve), (rm, re) = [((-1) ** sign * int(man), exp)
                          for sign, man, exp, _ in (value._mpf_, radius._mpf_)]
    e = min(ve, re)
    return Ball(vm << ve - e, e, rm << re - e)


def test_certify_rule():
    # radius <= 10^-(digits-5) max(1, |value|), decided exactly; a value
    # that is not finite (a float; a ball's radius is always finite) never
    # passes
    with mp.workdps(80):
        tol, slack = mp.mpf(10) ** -55, mp.mpf(10) ** -20
        below, above = tol * (1 - slack), tol * (1 + slack)
        certify("v", _ball(mp.mpf(3), 3 * below), 60)
        certify("v", _ball(mp.mpf("0.5"), below), 60)
        for value in (_ball(mp.mpf(3), 3 * above), _ball(mp.mpf("0.5"), above),
                      float(mp.inf), float(mp.nan)):
            with pytest.raises(PrecisionError):
                certify("v", value, 60)


# ---------------------------------------------------------------------------
# scaling-rate constants
# ---------------------------------------------------------------------------

def test_k_constants_values():
    with mp.workdps(70):
        k1, k2 = k_constants(6, 1, 7, 60)
        assert mp.fabs(k1 + F(5, 2) * mp.log(3)) < mp.mpf(10) ** -55
        assert mp.fabs(k2 + F(3, 2) * mp.log(3)) < mp.mpf(10) ** -55
        k1, _ = k_constants(2, 1, 7, 60)
        assert k1 == 0
        k1, k2 = k_constants(7, 1, 7, 60)
        expect = -F(5, 2) * mp.log(7) + F(15, 2) * mp.log(2)
        assert mp.fabs(k1 - expect) < mp.mpf(10) ** -55


def test_k1_finite_n_cross_check():
    # (1/n) ln S_{6,n} at n = 10^5 + 1 sits within 1e-3 of the limit
    import math

    n = 10**5 + 1
    b, a, m = 7, 1, 3
    fin = -((b - 2 * a) * n + 1) / 2 * math.log(m) / n
    k1, _ = k_constants(6, a, b, 60)
    assert abs(fin - float(k1)) < 1e-3


@settings(deadline=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(10**20, 10**40),
                 st.just(10**300)), _AB, st.sampled_from([30, 60, 120]))
def test_k_radius_holds_the_rates(k, ab, digits):
    a, b = ab
    k1, k2 = k_constants(k, a, b, digits)
    with mp.workdps(2 * digits + 30):
        if k % 2 == 0:
            exact = [-mp.mpf(c) / 2 * mp.log(k // 2) for c in (b - 2 * a, b - 4 * a)]
        else:
            exact = [-mp.mpf(c) / 2 * mp.log(k) + mp.mpf(3 * (b - 2 * a)) / 2 * mp.log(2)
                     for c in (b - 2 * a, b - 4 * a)]
        assert mp.fabs(k1 - exact[0]) <= k1.radius()
        assert mp.fabs(k2 - exact[1]) <= k2.radius()
