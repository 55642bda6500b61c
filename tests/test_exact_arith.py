import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrbounds.errors import DomainError, SieveCapacityError
from irrbounds.exact_arith import d_upto, format_int, sqrt_bounds
from irrbounds.rational import QuadRat, format_rat

SRC = Path(__file__).resolve().parents[1] / "src"

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

@given(rationals)
def test_fraction_render_roundtrip(x):
    assert F(format_rat(x)) == x


@given(st.integers(-10**40, 10**40))
def test_format_int_matches_str(x):
    assert format_int(x) == str(x)


def test_format_int_past_str_digit_limit():
    # str() refuses ints above 4300 digits; the verify integers pass that
    x = -(7 ** 6000)
    text = format_int(x)
    assert text.startswith("-") and text[1:].isdigit()
    assert Decimal(text) == x


def test_format_int_exact_across_the_str_limit():
    # integers of known digits on both sides of str()'s 4300-digit limit
    rng = random.Random(4300)
    for size in (4299, 4300, 4301, 9000):
        digits = str(rng.randint(1, 9)) + "".join(
            str(rng.randint(0, 9)) for _ in range(size - 1))
        x = sum(int(c) * 10**i for i, c in enumerate(reversed(digits)))
        assert format_int(x) == digits and format_int(-x) == "-" + digits


def test_format_int_loads_decimal_only_past_the_limit():
    # a bare interpreter: str() renders 4300 digits, and decimal loads for
    # 4301; Python 3.10 has no limit, so str() renders both
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from irrbounds.exact_arith import format_int; "
            "text = format_int(10**4299); before = 'decimal' in sys.modules; "
            "longer = format_int(-10**4300); "
            "print(len(text), before, len(longer), 'decimal' in sys.modules, "
            "hasattr(sys, 'get_int_max_str_digits'))")
    child = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code,
                            str(SRC)], capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    length, before, longer, after, limited = child.stdout.split()
    assert (length, before, longer) == ("4300", "False", "4302")
    assert after == limited


def test_sqrt_bounds_enclose():
    for d in (2, 13, 17, 25, 101):
        lo, hi = sqrt_bounds(d, 30)
        assert lo * lo <= d <= hi * hi
        assert hi - lo <= F(1, 10**30)


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------

def test_t1_t2_product_is_minus_k_half():
    # the two transform values for k = 6 multiply to -k/2 = -3
    t1 = QuadRat(F(1, 2), F(-1, 2), 13)
    t2 = QuadRat(F(1, 2), F(1, 2), 13)
    assert t1 * t2 == QuadRat(-3)
    assert t1 + t2 == QuadRat(1)


def test_norm_t1_direct_expansion():
    # norm(u + v sqrt(D)) = u^2 - D v^2 expanded by hand
    t1 = QuadRat(F(1, 2), F(-1, 2), 13)
    assert t1.norm() == F(1, 4) - F(13, 4) == -3


quadrats = st.builds(
    QuadRat,
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.sampled_from([2, 3, 13, 17]),
)


@given(quadrats)
def test_conj_involution(x):
    assert x.conj().conj() == x


@given(quadrats, quadrats)
def test_norm_multiplicative(x, y):
    if x.D != y.D:
        y = QuadRat(y.u, y.v, x.D)
    assert (x * y).norm() == x.norm() * y.norm()


@given(quadrats, st.integers(0, 8))
def test_pow_matches_repeated_multiplication(x, e):
    expected = QuadRat(1, 0, x.D)
    for _ in range(e):
        expected = expected * x
    assert x**e == expected


@given(quadrats)
def test_inverse(x):
    if x and x.norm() != 0:
        assert x * x.inverse() == QuadRat(1, 0, x.D)
        assert x**-2 == (x.inverse()) ** 2


@given(quadrats, quadrats)
def test_division_round_trip(x, y):
    if y.D != x.D:
        y = QuadRat(y.u, y.v, x.D)
    if y and y.norm() != 0:
        assert (x / y) * y == x


def test_mismatched_radicands_rejected():
    x = QuadRat(1, 1, 13)
    y = QuadRat(1, 1, 17)
    with pytest.raises(DomainError):
        x * y
    # rational values mix with anything
    assert QuadRat(2, 0, 17) * x == QuadRat(2, 2, 13)


def test_perfect_square_collapse():
    assert QuadRat(0, 1, 9) == QuadRat(3)
    assert QuadRat(F(5, 4), F(-1, 4), 9) == QuadRat(F(1, 2))
    assert QuadRat(1, 2, 25).is_rational


def test_division_by_zero_signals():
    with pytest.raises(DomainError):
        QuadRat(1, 1, 13) / QuadRat(0, 0, 13)


# ---------------------------------------------------------------------------
# d_n and primes
# ---------------------------------------------------------------------------

def _lcm_fold(n):
    out = 1
    for i in range(1, n + 1):
        out = out * i // math.gcd(out, i)
    return out


def test_d_upto_examples():
    assert d_upto(1) == 1
    assert d_upto(6) == _lcm_fold(6) == 60
    assert d_upto(10) == _lcm_fold(10) == 2520


@pytest.mark.parametrize("n", [2, 3, 17, 30, 100, 257])
def test_d_upto_against_fold_oracle(n):
    assert d_upto(n) == _lcm_fold(n)


@given(st.integers(2, 300))
def test_d_upto_divisibility_and_steps(n):
    d = d_upto(n)
    assert all(d % m == 0 for m in range(1, n + 1))
    step = d // d_upto(n - 1)
    assert step == 1 or _is_prime_trial(step)


def _is_prime_trial(n):
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_sieve_against_trial_division(small_sieve):
    expected = [p for p in range(2, 2000) if _is_prime_trial(p)]
    assert small_sieve.primes(2, 1999) == expected


def test_sieve_capacity_error(small_sieve):
    with pytest.raises(SieveCapacityError):
        small_sieve.primes(2, 100_000)
    with pytest.raises(SieveCapacityError):
        small_sieve.is_prime(100_000)
