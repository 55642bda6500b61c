import random
import sys
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, log, sqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrbounds.dense import IntPoly, build_A, derivative
from irrbounds.errors import DomainError, IntegralityError
import irrbounds.forms as forms_mod
from irrbounds.exact_arith import Params, PrimeSieve, d_upto
from irrbounds.forms import (IntegerForms, UVWValues, _PoleSum, _root_blocks,
                             _walk, eval_UVW, scaled_integer_forms, x_point)
from oracles import (QuadRat, _radical_sum, _transform_nums,
                     fraction_integer_forms, fraction_uvw, quad_rat, quad_tuple,
                     scaling_factors, series_uvw, shift_poly,
                     stepped_pole_sums, tail_transform_coeffs)
from irrbounds.omega import delta_products


def _quads(uvw, names="UVW"):
    """The named int-tuple fields of ``uvw`` as QuadRats."""
    return tuple(quad_rat(getattr(uvw, name)) for name in names)


def _eval(params, z):
    """eval_UVW at the QuadRat z, its U, V, W as QuadRats."""
    return _quads(eval_UVW(params, quad_tuple(z)))


# ---------------------------------------------------------------------------
# Params and the evaluation point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(k=1, a=1, b=4, n=1),    # b even
    dict(k=1, a=1, b=3, n=1),    # b <= 4a
    dict(k=1, a=1, b=7, n=2),    # n even
    dict(k=0, a=1, b=7, n=1),    # k < 1
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_x_point_values():
    assert quad_rat(x_point(4)) == QuadRat(F(1, 2))    # sqrt(9) collapses
    assert quad_rat(x_point(12)) == QuadRat(F(2, 3))   # sqrt(25) collapses
    x6 = quad_rat(x_point(6))
    assert x6.D == 13 and not x6.is_rational
    assert x6 + x6**-1 == QuadRat(F(7, 3))
    assert x6 - x6**-1 == QuadRat(0, F(-1, 3), 13)  # -2 sqrt(13)/6


# ---------------------------------------------------------------------------
# the product polynomial
# ---------------------------------------------------------------------------

def test_build_A_small_case():
    p = Params(k=6, a=1, b=7, n=1)
    A = build_A(p)
    assert A.degree == 15 == p.degree
    # direct binomial products
    assert A(0) == 10 * 6 * 1 == 60
    assert A(-3) == 0
    assert A(-8) == (-10) * (-6) * (-1) == -60


@pytest.mark.parametrize("params", [
    Params(k=6, a=1, b=7, n=1),
    Params(k=6, a=1, b=7, n=3),
    Params(k=6, a=2, b=23, n=1),
])
def test_root_pattern(params):
    a, b, n = params.a, params.b, params.n
    A = build_A(params)
    A1 = derivative(A)
    A2 = derivative(A, 2)
    for j in range(1, b * n + 1):
        assert A(-j) == 0
    for j in range(a * n + 1, (b - a) * n + 1):
        assert A1(-j) == 0
    for j in range(2 * a * n + 1, (b - 2 * a) * n + 1):
        assert A2(-j) == 0
    # just outside the blocks the values are nonzero
    assert A(-(b * n + 1)) != 0
    assert A1(-(a * n)) != 0
    assert A2(-(2 * a * n)) != 0


def test_shift_and_derivative_examples():
    sq = IntPoly([0, 0, 1])
    assert shift_poly(sq, -1).coeffs == (F(1), F(-2), F(1))
    cube = IntPoly([0, 0, 0, 1])
    assert derivative(cube, 2).coeffs == (F(0), F(6))


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                min_size=1, max_size=7),
       st.integers(-6, 6), st.integers(-8, 8))
def test_shift_is_composition(coeffs, s, t):
    p = IntPoly(coeffs)
    assert shift_poly(p, s)(t) == p(t + s)


def test_shifted_derivative_roots():
    # A1 = A(. - an) has vanishing first derivative at -1..-( b-2a)n
    p = Params(k=6, a=1, b=7, n=1)
    A1 = shift_poly(build_A(p), -p.a * p.n)
    dA1 = derivative(A1)
    for j in range(1, 6):
        assert dA1(-j) == 0


# ---------------------------------------------------------------------------
# the coefficient transform
# ---------------------------------------------------------------------------

def test_transform_constant_and_linear():
    assert tail_transform_coeffs(IntPoly([1])) == [F(1)]
    assert tail_transform_coeffs(IntPoly([0, 1])) == [F(-1), F(1)]


def _tail_series(poly, z, terms):
    return -sum((poly(-k) * z**k for k in range(1, terms + 1)), F(0))


def _pole_sum(coeffs, z):
    t = z / (z - 1)
    return sum((c * t ** (j + 1) for j, c in enumerate(coeffs)), F(0))


def test_transform_identity_linear_poly():
    # both sides expanded to 10 terms at z = 1/7; the remainder of the
    # truncated side is strictly smaller than the gap tolerance below
    p = IntPoly([0, 1])
    z = F(1, 7)
    lhs = _tail_series(p, z, 10)
    rhs = _pole_sum(tail_transform_coeffs(p), z)
    assert abs(lhs - rhs) < F(1, 7**9)


@given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
@settings(max_examples=25)
def test_transform_identity_random_quintic(coeffs):
    p = IntPoly(coeffs)
    if p.degree < 0:
        return
    z = F(1, 3)
    K = 60
    lhs = _tail_series(p, z, K)
    rhs = _pole_sum(tail_transform_coeffs(p), z)
    # |p(-k)| <= (sum |a_i|) k^d, and the term ratio beyond K is at most
    # z ((K+2)/(K+1))^d < 1, giving a geometric tail bound
    amax = sum(abs(c) for c in coeffs)
    d = p.degree
    ratio = z * F(K + 2, K + 1) ** d
    tail = amax * F(K + 1) ** d * z ** (K + 1) / (1 - ratio)
    assert abs(lhs - rhs) <= tail


def test_transform_matches_literal_binomial_sum():
    # the difference-triangle computation against the definition
    # c_j = sum_{t=1}^{j+1} (-1)^(t-1) P(-t) C(j, t-1)
    from math import comb

    p = Params(k=6, a=1, b=7, n=1)
    for poly in (build_A(p), derivative(build_A(p))):
        got = tail_transform_coeffs(poly)
        for j in range(poly.degree + 1):
            literal = sum(((-1) ** (t - 1) * poly(-t) * comb(j, t - 1)
                           for t in range(1, j + 2)), F(0))
            assert got[j] == literal


def test_internal_offset_equals_shifted_polynomial_route():
    # the dense oracle reads A'(-l-an) directly; the shift-then-differentiate
    # route must produce identical transform coefficients
    p = Params(k=6, a=1, b=7, n=3)
    A = build_A(p)
    direct_nums, direct_den = _transform_nums(derivative(A), offset=p.a * p.n)
    shifted = derivative(shift_poly(A, -p.a * p.n))
    shifted_nums, shifted_den = _transform_nums(shifted)
    assert [F(c, direct_den) for c in direct_nums] == \
           [F(c, shifted_den) for c in shifted_nums]


def test_transform_support_vanishes_below_bn():
    for n in (1, 3):
        p = Params(k=6, a=1, b=7, n=n)
        coeffs = tail_transform_coeffs(build_A(p))
        assert all(c == 0 for c in coeffs[: p.b * n])
        assert coeffs[p.b * n] != 0


def test_transform_support_for_derivative_routes():
    # the doubled and tripled root blocks push the first nonzero transform
    # coefficient of the V route to (b-2a)n and of the W route to (b-4a)n
    for a, b, n in ((1, 7, 1), (1, 7, 3), (2, 23, 1)):
        p = Params(k=6, a=a, b=b, n=n)
        A = build_A(p)
        v_nums, _ = _transform_nums(derivative(A), offset=a * n)
        w_nums, _ = _transform_nums(derivative(A, 2), offset=2 * a * n)
        cut_v = (b - 2 * a) * n
        cut_w = (b - 4 * a) * n
        assert all(c == 0 for c in v_nums[:cut_v])
        assert v_nums[cut_v] != 0
        assert all(c == 0 for c in w_nums[:cut_w])
        assert w_nums[cut_w] != 0


# ---------------------------------------------------------------------------
# U, V, W evaluation
# ---------------------------------------------------------------------------

def test_rationality_at_xk():
    p = Params(k=6, a=1, b=7, n=1)
    U, V, W = _eval(p, quad_rat(x_point(6)))
    assert U.v == 0
    assert V.u == 0
    assert W.v == 0


@pytest.mark.parametrize("z", [F(1, 3), F(2, 5), F(3, 7)])
def test_symmetry_under_inversion(z):
    # U(z) = U(1/z), V(z) = -V(1/z), W(z) = W(1/z) exactly
    p = Params(k=6, a=1, b=7, n=1)
    (hU, hV, hW), (tU, tV, tW) = _eval(p, QuadRat(z)), _eval(p, QuadRat(1 / z))
    assert hU == tU
    assert hV == -tV
    assert hW == tW


@given(st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40))
@settings(max_examples=20, deadline=None)
def test_symmetry_under_inversion_random(z):
    if z == 0:
        return
    p = Params(k=3, a=1, b=5, n=1)
    (hU, hV, hW), (tU, tV, tW) = _eval(p, QuadRat(z)), _eval(p, QuadRat(1 / z))
    assert hU == tU
    assert hV == -tV
    assert hW == tW


def test_closed_form_matches_series_at_half():
    # k = 4 makes x rational (1/2): the closed forms must agree with the
    # 300-term truncations within the exact geometric tail bounds
    p = Params(k=4, a=1, b=7, n=1)
    U, V, W = _eval(p, QuadRat(F(1, 2)))
    (su, sv, sw), (tu, tv, tw) = series_uvw(p, F(1, 2), 300)
    assert abs(U.u - su) <= tu
    assert abs(V.u - sv) <= tv
    assert abs(W.u - sw) <= tw


def test_eval_rejects_poles():
    p = Params(k=6, a=1, b=7, n=1)
    with pytest.raises(DomainError):
        eval_UVW(p, quad_tuple(QuadRat(0)))
    with pytest.raises(DomainError):
        eval_UVW(p, quad_tuple(QuadRat(1)))


@pytest.mark.parametrize("z", [(1, 0, 0, 13), (1, 1, 2, -3), (1, 1, 2, 0)])
def test_eval_rejects_points_outside_its_domain(z):
    # a zero denominator e or D < 1 is outside the documented domain of the
    # int tuple (u + v sqrt(D))/e: DomainError, not a bare arithmetic error
    with pytest.raises(DomainError):
        eval_UVW(Params(k=6, a=1, b=7, n=1), z)


# ---------------------------------------------------------------------------
# the root-multiset path against the dense oracle
# ---------------------------------------------------------------------------

def _dense_uvw(params, z):
    """U, V, W by the expanded-polynomial route eval_UVW replaced: build_A,
    the O(d^2) transform of A^(order)(. - order*an), its radical sum in t,
    and the power of z in front."""
    A = build_A(params)
    t = z / (z - QuadRat(1, 0, z.D))
    shift = params.a * params.n
    out = []
    for order in range(3):
        nums, den = _transform_nums(derivative(A, order), offset=order * shift)
        out.append(z ** (order * shift - params.half_bn1)
                   * _radical_sum(nums, den, t))
    return tuple(out)


@lru_cache(maxsize=None)
def _dense_at_x(k, a, b, n):
    """The dense oracle at x_k, computed once per cell for all tests."""
    return _dense_uvw(Params(k=k, a=a, b=b, n=n), quad_rat(x_point(k)))


@st.composite
def _cells_and_points(draw):
    k = draw(st.integers(1, 13))
    a = draw(st.integers(1, 2))
    b = 4 * a + 1 + 2 * draw(st.integers(0, 4))
    n = draw(st.sampled_from([1, 3, 5]))
    D = 2 * k + 1
    small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    z = draw(st.one_of(
        st.just(quad_rat(x_point(k))),
        small.map(QuadRat),
        st.tuples(small, small).map(lambda uv: QuadRat(uv[0], uv[1], D))))
    return Params(k=k, a=a, b=b, n=n), z


@given(_cells_and_points(), st.integers(1, 40))
@example((Params(k=4, a=1, b=7, n=3), quad_rat(x_point(4))), forms_mod._BLOCK)
@example((Params(k=12, a=1, b=9, n=3), quad_rat(x_point(12))), 1)
@example((Params(k=12, a=2, b=11, n=1), QuadRat(F(1, 2))), 5)
@settings(max_examples=40, deadline=None)
def test_eval_matches_dense_oracle(cell, block):
    # the block size of the pole sum is drawn too: it must not matter
    params, z = cell
    if not z or z == QuadRat(1):
        return
    with patch.object(forms_mod, "_BLOCK", block):
        assert _eval(params, z) == _dense_uvw(params, z)


@given(_cells_and_points())
@example((Params(k=4, a=1, b=7, n=3), quad_rat(x_point(4))))
@example((Params(k=12, a=1, b=9, n=3), quad_rat(x_point(12))))
@example((Params(k=12, a=2, b=11, n=5), quad_rat(x_point(12))))
@settings(max_examples=60, deadline=None)
def test_int_edge_matches_fraction_formulas(cell):
    # U, V, W from the int tuples equal the QuadRat formulas they replace,
    # at x_k (converted from a QuadRat and as the int tuple verify passes)
    # and at other points; at x_k so does every IntegerForms field
    params, z = cell
    if not z or z == QuadRat(1):
        return
    uvw = eval_UVW(params, quad_tuple(z))
    want = fraction_uvw(params, z)
    assert _quads(uvw) == want
    if z != quad_rat(x_point(params.k)):
        return
    at_x = eval_UVW(params, x_point(params.k))
    assert at_x.params == uvw.params and _quads(at_x, "UVWx") == _quads(uvw, "UVWx")
    forms = scaled_integer_forms(uvw)
    got = {name: getattr(forms, name) for name in IntegerForms.__slots__}
    assert got == fraction_integer_forms(params, *want, *delta_products(params))


@pytest.mark.parametrize("field,part", [(f, p) for f in "UVW" for p in (0, 1)])
def test_corrupted_remainder_names_quantity_and_exact_rational(field, part):
    # one unit added to the rational (0) or radical (1) numerator of U, V or
    # W at x_6 leaves a remainder or a radical part: the int path raises
    # what the Fraction formulas raise, quantity and exact rational alike
    p = Params(k=6, a=1, b=7, n=3)
    uvw = eval_UVW(p, x_point(6))
    parts = {name: list(getattr(uvw, name)) for name in "UVW"}
    parts[field][part] += 1
    bad = UVWValues(*map(tuple, parts.values()), params=p, x=uvw.x)
    with pytest.raises(IntegralityError) as got:
        scaled_integer_forms(bad)
    with pytest.raises(IntegralityError) as want:
        fraction_integer_forms(p, *_quads(bad), *delta_products(p))
    assert got.value.quantity == want.value.quantity
    assert F(*got.value.value) == F(*want.value.value)
    assert str(got.value) == str(want.value)


def test_eval_matches_dense_oracle_at_n31():
    # the degree-1023 forms behind `verify --k 8 --a 1 --b 13 --n 31`
    p = Params(k=8, a=1, b=13, n=31)
    assert _eval(p, quad_rat(x_point(8))) == _dense_at_x(8, 1, 13, 31)


def _first_value(params, order):
    """Index s of the first nonzero value of order ``order``, m = hi + 1 of
    its root block, where the walk starts or restarts."""
    hi = _root_blocks(params)[2 - order][1]
    return hi - order * params.a * params.n


@pytest.mark.parametrize("cell", [(8, 1, 13, 31), (6, 2, 23, 3)],
                         ids=["8-1-13-31", "6-2-23-3"])
@pytest.mark.parametrize("block", [1, 2, 7, None],
                         ids=["1", "2", "7", "one-block"])
def test_block_size_does_not_matter(monkeypatch, cell, block):
    # one step per block, two, an odd size, and one block over all delta+1
    # values; at (6,2,23,3) a block of 2 or 7 straddles the first nonzero
    # value of some order, so that block holds zeros and values
    p = Params(*cell)
    if block is None:
        block = p.degree + 2
    if cell == (6, 2, 23, 3) and block in (2, 7):
        assert any(_first_value(p, order) % block for order in range(3))
    monkeypatch.setattr(forms_mod, "_BLOCK", block)
    assert _eval(p, quad_rat(x_point(p.k))) == _dense_at_x(*cell)


# (delta, shift, k, z): z = x_k, or a random rational at D = 2k + 1
_POLE_CASES = [(12, 0, 6, "x"), (12, 5, 6, "q"), (25, 1, 4, "x"),
               (25, 9, 8, "q"), (40, 9, 8, "x"), (40, 0, 12, "q")]


@pytest.mark.parametrize("block", [1, 2, 3, 7, "d", "d+1", "d+2"])
@pytest.mark.parametrize("case", _POLE_CASES,
                         ids=["-".join(map(str, c)) for c in _POLE_CASES])
def test_pole_sum_matches_its_definition(monkeypatch, case, block):
    # 40-digit random values, which the walk never supplies (its leading
    # values are zero), summed in blocks against the one-step recurrence:
    # one value per block, a few, a last block cut short at delta, and one
    # block over all delta + 1 values or more, which takes no advance
    delta, shift, k, kind = case
    rng = random.Random(repr(case))
    D = 2 * k + 1
    if kind == "x":
        z = x_point(k)[:3]
    else:
        num = rng.randrange(2, 10**6)
        den = num + rng.choice([-1, 1]) * rng.randrange(1, num)  # z != 0, 1
        g = gcd(num, den)
        z = (rng.choice([-1, 1]) * num // g, 0, den // g)
    values = [tuple(rng.randrange(-10**40, 10**40) for _ in range(3))
              for _ in range(delta + 1 + 2 * shift)]
    size = {"d": delta, "d+1": delta + 1, "d+2": delta + 2}.get(block, block)
    want = stepped_pole_sums(delta, z, D, values, shift)
    monkeypatch.setattr(forms_mod, "_BLOCK", size)
    pole = _PoleSum.at(delta, z, D)
    pole.run(values, shift)
    assert [tuple(x) for x in pole.sums] == want


def test_pole_sum_streams_its_values():
    # run keeps no value past its block: order r sums each block as it
    # fills, and only per-block results wait for order 2.  With the shift
    # 32 blocks long, a design that holds the values between order 0 and
    # order 2 keeps 2 shift = 64 blocks of them alive; the bound admits 8.
    # The values are made as they are read, each entry 2,000 bits
    delta, shift = 2 * forms_mod._BLOCK - 1, 32 * forms_mod._BLOCK

    def values():
        for i in range(delta + 1 + 2 * shift):
            yield tuple((1 << 2000) - 3 * i - r for r in range(3))

    first = next(values())
    one = sys.getsizeof(first) + sum(map(sys.getsizeof, first))
    z = x_point(6)
    pole = _PoleSum.at(delta, z[:3], z[3])
    tracemalloc.start()
    try:
        pole.run(values(), shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * forms_mod._BLOCK * one, (peak, one)


def test_d_upto_called_once_per_eval_UVW(monkeypatch):
    # one walk serves all three orders at the one scale L = lcm(1..bn)
    p = Params(k=6, a=1, b=13, n=5)
    want = _eval(p, quad_rat(x_point(6)))
    calls = []

    def counting(n):
        calls.append(n)
        return d_upto(n)

    monkeypatch.setattr(forms_mod, "d_upto", counting)
    assert _eval(p, quad_rat(x_point(6))) == want
    assert calls == [p.b * p.n]


def _assert_walk_matches_dense(p):
    """Every value the walk yields at L = lcm(1..bn), across both restarts
    and beyond bn, is L^2 A^(r)(-m); below its first m, every value a
    transform sum reads is 0."""
    A = build_A(p)
    polys = [derivative(A, order) for order in range(3)]
    L = d_upto(p.b * p.n)
    first = (p.b - 2 * p.a) * p.n + 1
    last = 2 * p.a * p.n + p.degree + 1
    got = list(_walk(p, L, last))
    assert len(got) == last - first + 1
    for m, u in zip(range(first, last + 1), got):
        assert list(u) == [L * L * q(-m) for q in polys]
    for m in range(1, first):
        for order in range(3):
            if m > order * p.a * p.n:
                assert polys[order](-m) == 0


_WALK_CELLS = [(1, 7, 1), (1, 7, 3), (2, 23, 1), (1, 13, 5)]


@pytest.mark.parametrize("a,b,n", _WALK_CELLS)
def test_root_multiset_values_match_dense_derivatives(a, b, n):
    _assert_walk_matches_dense(Params(k=6, a=a, b=b, n=n))


@pytest.mark.parametrize("a,b,n", _WALK_CELLS)
def test_uvw_in_lowest_terms(a, b, n):
    # U, V and W come back in _canon's form, so UVWValues compare by value;
    # unreduced, V's denominator at (6, 1, 7, 3) has 95 bits, not 8
    p = Params(k=6, a=a, b=b, n=n)
    for z in (x_point(6), (1, 0, 2, 13)):
        uvw = eval_UVW(p, z)
        for value in (uvw.U, uvw.V, uvw.W):
            assert (*forms_mod._canon(*value), value[3]) == value


_PRIMES = (5, 7, 11, 13, 17, 19, 23)


@st.composite
def _small_cells(draw):
    # any small cell, or one with n = 1 and b prime, so that bn, the
    # largest root of A, is a prime that lcm(1..bn - 1) lacks
    a = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return Params(k=1, a=a, b=draw(st.sampled_from(
            [b for b in _PRIMES if b > 4 * a])), n=1)
    b = 4 * a + 1 + 2 * draw(st.integers(0, 5))
    return Params(k=1, a=a, b=b, n=draw(st.sampled_from([1, 3])))


@given(_small_cells())
@example(Params(k=1, a=1, b=5, n=1))
@example(Params(k=1, a=3, b=23, n=1))
@example(Params(k=1, a=2, b=19, n=3))
@settings(max_examples=30, deadline=None)
def test_walk_at_lcm_to_bn_is_integral(p):
    # the scale lcm(1..bn) suffices: the walk never raises, and every value
    # is the dense L^2 A^(r)(-m)
    _assert_walk_matches_dense(p)


def test_walk_below_lcm_to_bn_raises():
    # at lcm(1..bn - 1) the prime bn = 7 is missing from the scale, and the
    # restart at m = 6 leaves L^2 A''(-6) = 240/7
    p = Params(k=6, a=1, b=7, n=1)
    with pytest.raises(IntegralityError) as got:
        list(_walk(p, d_upto(p.b * p.n - 1), 2 * p.a * p.n + p.degree + 1))
    assert got.value.quantity == "L^2 A^(2)(-6)"
    assert F(*got.value.value) == F(240, 7)


# ---------------------------------------------------------------------------
# integer scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,a,b,n", [
    (6, 1, 7, 1),   # even k
    (8, 1, 7, 3),   # even k, larger n
    (7, 1, 7, 1),   # odd k exercises the power-of-two branch
])
def test_scaled_forms_are_integers(k, a, b, n):
    p = Params(k=k, a=a, b=b, n=n)
    uvw = eval_UVW(p, x_point(k))
    forms = scaled_integer_forms(uvw)
    for name in ("P", "Q", "X", "Y", "Z"):
        assert isinstance(getattr(forms, name), int)
    # internal consistency of the assembly: Z = -D C and X/P = Y/Q = t
    assert forms.Z % (2 * k + 1) == 0
    assert forms.X * forms.Q == forms.P * forms.Y
    want = fraction_integer_forms(p, *_quads(uvw), *delta_products(p))
    assert want == {name: getattr(forms, name) for name in IntegerForms.__slots__}


@pytest.mark.parametrize("k,a,b,n", [(6, 1, 7, 1), (6, 1, 7, 3), (7, 1, 7, 1)])
def test_scaling_ratio_consistency(k, a, b, n):
    # P = (S/R) (d/Delta) A with S/R = m^{an} (even k) or k^{an} (odd k)
    p = Params(k=k, a=a, b=b, n=n)
    uvw = eval_UVW(p, x_point(k))
    forms = scaled_integer_forms(uvw)
    R, S, T = scaling_factors(p)
    base = k // 2 if k % 2 == 0 else k
    assert S / R == base ** (a * n)
    assert T / R == base ** (2 * a * n)
    # A = R U(x_k), an integer, from the oracle's R and U
    A = R * quad_rat(uvw.U).u
    assert A.denominator == 1
    delta, delta1 = delta_products(p)
    dd = d_upto(b * n) // delta
    assert forms.P == base ** (a * n) * dd * A
    assert forms.X == (base ** (2 * a * n) * dd * A
                       * d_upto((b - 2 * a) * n) * delta1)


@pytest.mark.parametrize("k,n", [(4, 1), (4, 3), (12, 1), (12, 3)])
def test_scaled_forms_degenerate_k(k, n):
    # 2k+1 a perfect square: everything collapses to rationals but the
    # integer scaling must still come out exact
    p = Params(k=k, a=1, b=7, n=n)
    uvw = eval_UVW(p, x_point(k))
    assert all(x.is_rational for x in _quads(uvw))
    forms = scaled_integer_forms(uvw)
    assert forms.Z % (2 * k + 1) == 0
    want = fraction_integer_forms(p, *_quads(uvw), *delta_products(p))
    assert want == {name: getattr(forms, name) for name in IntegerForms.__slots__}


def test_scaled_forms_guards(monkeypatch):
    p = Params(k=6, a=1, b=7, n=1)
    uvw = eval_UVW(p, x_point(6))
    with pytest.raises(DomainError):
        scaled_integer_forms(eval_UVW(p, quad_tuple(QuadRat(F(1, 3)))))
    # a delta that does not divide d_bn must be reported, never rounded
    monkeypatch.setattr(forms_mod, "delta_products", lambda params: (11, 1))
    with pytest.raises(IntegralityError) as err:
        scaled_integer_forms(uvw)
    assert "d_bn/Delta" in str(err.value)


@pytest.mark.parametrize("k,a,b", [(6, 1, 7), (8, 1, 13)])
def test_common_factor_of_the_forms_stays_small(k, a, b):
    # g = gcd(P, Q) or gcd(X, Y, Z), the factor the published forms still
    # share: all of it from primes p <= bn, with ln g / sqrt(bn) below 3.0
    # (2.60 the largest measured here, (6, 1, 7) at n = 11, quadratic) and
    # ln g / n falling as n grows, as ln g = O(sqrt(bn)) would have it.  A
    # claim about the construction: a failure is a finding, never a bound
    # to widen
    rates = {"linear": [], "quadratic": []}
    for n in (11, 31, 51, 101):
        forms = scaled_integer_forms(eval_UVW(Params(k=k, a=a, b=b, n=n),
                                              x_point(k)))
        primes = PrimeSieve(b * n).primes()
        for kind, g in (("linear", gcd(forms.P, forms.Q)),
                        ("quadratic", gcd(forms.X, forms.Y, forms.Z))):
            rest = g
            for p in primes:
                while rest % p == 0:
                    rest //= p
            assert rest == 1, (kind, n)
            assert log(g) / sqrt(b * n) < 3.0, (kind, n)
            rates[kind].append(log(g) / n)
    for kind, rate in rates.items():
        assert all(x > y for x, y in zip(rate, rate[1:])), (kind, rate)
