import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrbounds import (alpha_value, asymptotics, forms, headline_table,
                       measures, mu2_bound, mu_bound, omega, predicted_decay,
                       search_params, verify_forms)
from irrbounds.errors import NonApplicableError, PrecisionError
from irrbounds.measures import HEADLINE_KS, MU2_PARAMS, grid_size, is_degenerate
from oracles import dual_path_ell
from pinned_digits import MU2_8_1_13, MU_6_1_7

# the once-per-key memos of the bound path, one per dependency layer
MEMOS = (omega._omega_report, omega._n_pair, asymptotics._psi,
         asymptotics._gauss_row, asymptotics._certified_solve)


def _cold(fn, *args):
    for memo in MEMOS:
        memo.cache_clear()
    return fn(*args)


def test_mu_bound_table_spots():
    assert abs(float(mu_bound(6, 1, 7).bound) - 3.51433) < 1e-4
    assert abs(float(mu_bound(3, 1, 7).bound) - 6.64610) < 1e-4


def test_mu2_bound_table_spots():
    assert abs(float(mu2_bound(8, 1, 13).bound) - 10.9056) < 1e-3


def test_bound_metadata():
    res = mu_bound(6, 1, 7)
    assert res.applicable and res.kind == "irrationality"
    assert res.bound > 2  # anything at or below 2 would signal a bug
    assert res.digits == 60
    assert not res.degenerate
    assert mu_bound(4, 1, 7).degenerate
    assert is_degenerate(12) and not is_degenerate(10)


def test_inapplicable_is_data_not_error():
    # odd k: the quadratic route's scaling grows too fast at (1, 7)
    res = mu2_bound(3, 1, 7)
    assert not res.applicable
    assert res.bound is None
    assert res.M2 + res.K + res.N >= 0


def test_missing_saddle_is_data_not_error():
    # at k=1 with (a, b) = (7, 29) the mirrored cubic has three real roots;
    # the cell must report inapplicable instead of raising, so grid searches
    # can walk past it
    res = mu2_bound(1, 7, 29)
    assert not res.applicable and res.bound is None
    assert mp.isnan(res.M2)
    assert search_params(1, 7, 29, quadratic=True) == []


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_bound_assembly_monotone_in_growth_rate(m1a, m1b):
    # with M2+K+N < 0 fixed, a larger M1+K+N gives a larger bound
    denom = mp.mpf(-3)

    def bound(m1):
        return 1 - (m1 + mp.mpf("0.25")) / denom

    if m1a < m1b:
        assert bound(m1a) < bound(m1b)
    elif m1a > m1b:
        assert bound(m1a) > bound(m1b)


def test_verify_forms_rows_and_decay():
    rows = verify_forms(6, 1, 7, [1, 3, 5, 7, 9])
    assert [r.n for r in rows] == [1, 3, 5, 7, 9]
    for r in rows:
        assert r.ell != 0 and r.m != 0
        assert mp.isfinite(r.decay_linear) and mp.isfinite(r.decay_quadratic)
    # the linear form shrinks, roughly at the predicted rate already
    pred_l, _ = predicted_decay(6, 1, 7)
    assert abs(float(rows[-1].decay_linear - pred_l) / float(pred_l)) < 0.2


def test_coefficient_growth_matches_rate():
    # the other side of the bound: (1/n) ln|P_n| approaches M1+K1+N1
    res = mu_bound(6, 1, 7)
    row = verify_forms(6, 1, 7, [31])[0]
    with mp.workdps(70):
        growth = mp.log(abs(row.P)) / 31
        pred = res.M1 + res.K + res.N
        assert abs(float((growth - pred) / pred)) < 0.05


def test_dual_path_ell_agreement():
    # same ell through integers and through the rational-scaled route
    digits = 60
    rows = verify_forms(4, 1, 7, [3], digits)
    other = dual_path_ell(4, 1, 7, 3, digits)
    with mp.workdps(digits + 10):
        rel = mp.fabs(mp.mpf(rows[0].ell) / mp.mpf(other) - 1)
        assert rel < mp.mpf(10) ** (-(digits - 10))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(64, 6000))
@example(4, 64)
@example(12, 6000)
def test_alpha_enclosure_contains_alpha(k, bits):
    # |alpha_k 2^bits - A| < E against mpmath's log at bits + 200 bits,
    # degenerate k = 4 and 12 included
    a, e = forms._alpha_fixed(k, bits)
    alpha = alpha_value(k, (bits + 200) * 30103 // 100000 + 1)
    with mp.workprec(bits + 300):
        assert mp.fabs(mp.ldexp(alpha, bits) - a) < e


def test_alpha_radius_is_the_proven_bound():
    # E = 4(J + 1) for the J nonzero terms 2^bits // D^j: two floors per term
    # and the tail, each doubled by alpha's factor -2
    for k in (1, 4, 8, 200):
        d = 2 * k + 1
        for bits in (0, 1, 64, 1000):
            terms = sum(1 for j in range(bits + 1) if d ** j <= 2 ** bits)
            assert forms._alpha_fixed(k, bits)[1] == 4 * (terms + 1)


def test_verify_never_calls_alpha_value(monkeypatch):
    # ell and m come from the fixed-point enclosure alone, every binding of
    # alpha_value in the package raises, and both match P alpha + Q and
    # X alpha^2 + Z at 1300 digits to 10^-(digits+10), plus the final rounding
    digits, dps = 60, 1300
    alpha = alpha_value(8, dps)

    def refused(*args, **kwargs):
        raise AssertionError("alpha_value called on the verify path")

    for name, mod in list(sys.modules.items()):
        if name == "irrbounds" or name.startswith("irrbounds."):
            for attr, value in list(vars(mod).items()):
                if value is alpha_value:
                    monkeypatch.setattr(mod, attr, refused)
    row = verify_forms(8, 1, 13, [31], digits)[0]
    with mp.workdps(dps):
        for got, want in ((row.ell, row.P * alpha + row.Q),
                          (row.m, row.X * alpha ** 2 + row.Z)):
            assert mp.fabs(got / want - 1) < 2 * mp.mpf(10) ** -(digits + 10)


def test_alpha_enclosure_resolves_deep_cancellation():
    # q alpha - p for a best approximation p/q of alpha_8 with q near 2^4000
    # is about 2^-4000, so the first pass sees only noise and bits must
    # grow by about 4000 within MAX_ALPHA_PASSES, as at verify --n 303
    digits = 60
    with mp.workdps(3000):
        near = Fraction(int(mp.ldexp(alpha_value(8, 3000), 9000)), 2 ** 9000)
    best = near.limit_denominator(2 ** 4000)
    p, q = best.numerator, best.denominator
    got = forms._alpha_combinations(8, [[(q, 1), (-p, 0)]], digits)[0]
    with mp.workdps(3000):
        want = q * alpha_value(8, 3000) - p
        assert mp.fabs(want) < mp.mpf(2) ** -3900
        assert mp.fabs(got / want - 1) < 2 * mp.mpf(10) ** -(digits + 10)


def test_vanishing_form_is_never_certified():
    # an enclosure of 0 never excludes 0, so the passes run out
    with pytest.raises(PrecisionError):
        forms._alpha_combinations(8, [[(0, 1), (0, 0)]], 60)


def test_verify_rejects_even_n():
    with pytest.raises(ValueError):
        verify_forms(6, 1, 7, [2])


def test_search_small_grid_best_pair():
    results = search_params(6, 2, 9)
    assert results
    best = results[0]
    assert (best.a, best.b) == (1, 7)
    assert [r.bound for r in results] == sorted(r.bound for r in results)


def test_search_quadratic_k8():
    results = search_params(8, 3, 15, quadratic=True)
    assert results
    assert (results[0].a, results[0].b) == (1, 13)


def test_search_empty_grid():
    assert search_params(6, 1, 3) == []


def test_headline_table_shape():
    table = headline_table()
    assert [t.k for t in table] == [3, 5, 6, 7, 8, 9, 10, 11, 12]
    k10 = next(t for t in table if t.k == 10)
    assert abs(float(k10.mu.bound) - 3.45356) < 1e-4
    assert abs(float(k10.mu2.bound) - 10.0339) < 1e-3
    assert all(t.mu2 is None for t in table if t.k in (3, 5, 7, 9, 11))


def test_headline_table_computes_each_constant_once_per_key():
    # 13 cells over 3 distinct (a, b), each cell once, at 60 digits
    cold = _cold(headline_table, 60)
    assert omega._omega_report.cache_info().misses == 3
    assert omega._n_pair.cache_info().misses == 3
    assert asymptotics._certified_solve.cache_info().misses == 13
    psi = asymptotics._psi.cache_info()
    assert psi.misses == psi.currsize and psi.hits > 0
    assert headline_table(60) == cold  # served from the memos


def test_ladder_rungs_share_no_digit_dependent_value():
    # mu_bound at 60 digits fills the memos at 60 digits; a following call
    # at 120 digits must still equal its own cold run
    warm60 = _cold(mu_bound, 6, 1, 7, 60)
    warm120 = mu_bound(6, 1, 7, 120)
    assert warm60 == _cold(mu_bound, 6, 1, 7, 60)
    assert warm120 == _cold(mu_bound, 6, 1, 7, 120)


def test_digamma_runs_once_per_argument(monkeypatch):
    # psi comes from Gauss's theorem: production never calls mp.digamma, each
    # of the 130 endpoints is computed once, at the one working precision,
    # and the 19 denominators share one cosine row each
    def refused(*args, **kwargs):
        raise AssertionError("mp.digamma called on the bound path")

    monkeypatch.setattr(mp, "digamma", refused)
    _cold(search_params, 7, 3, 21)
    psi = asymptotics._psi.cache_info()
    assert psi.misses == psi.currsize == 130
    assert asymptotics._gauss_row.cache_info().currsize == 19


def _published(k, a, b, quadratic, digits):
    """Each value a bound cell publishes, with its radius, from one pass."""
    m1, m2, k1, k2, n1, n2 = measures._constants(k, a, b, digits)
    kk, nn = (k2, n2) if quadratic else (k1, n1)
    balls = {"M1": m1, "M2": m2, "K": kk, "N": nn}
    denom, value = measures._quotient(m1, m2, kk, nn, digits)
    balls["bound" if denom < 0 else "M2+K+N"] = value
    return {name: (v, v.radius()) for name, v in balls.items()}


_CELLS = {
    "table": ([(k, 1, 7, False) for k in HEADLINE_KS]
              + [(k, a, b, True) for k, (a, b) in MU2_PARAMS.items()]),
    "search-grid": [(k, a, b, False) for k in (5, 7, 9, 11) for a in (1, 2, 3)
                    for b in range(4 * a + 1, 22, 2)],
    "huge-k": [(10**e, 1, 7, False) for e in (30, 60, 100, 300)],
}


@pytest.mark.parametrize("group", list(_CELLS))
def test_one_pass_radius_holds_the_120_digit_value(group):
    # every published value at 60 digits, its radius against the value the
    # same cell gives at 120 digits, and no wider than the 55 digits printed
    checked = 0
    for k, a, b, quadratic in _CELLS[group]:
        try:
            low = _published(k, a, b, quadratic, 60)
        except NonApplicableError:
            continue
        high = (mu2_bound if quadratic else mu_bound)(k, a, b, 120)
        with mp.workdps(130):
            ref = {"M1": high.M1, "M2": high.M2, "K": high.K, "N": high.N,
                   "bound": high.bound, "M2+K+N": high.M2 + high.K + high.N}
            for name, (value, radius) in low.items():
                assert mp.fabs(ref[name] - value) <= radius, (k, a, b, name)
                assert radius <= mp.mpf(10) ** -55 * max(1, mp.fabs(value))
        checked += 1
    assert checked == len(_CELLS[group])


def _digits(value, sig):
    with mp.workdps(sig + 20):
        return mp.nstr(value, sig, strip_zeros=False)


def test_high_precision_bounds_pinned():
    # all the digits printed here must survive any change to how psi, the
    # saddle or K are computed
    for res, sig, pinned in ((_cold(mu_bound, 6, 1, 7, 500), 480, MU_6_1_7),
                             (_cold(mu2_bound, 8, 1, 13, 300), 280, MU2_8_1_13)):
        for name, digits in pinned.items():
            assert _digits(getattr(res, name), sig) == digits, name


def test_grid_size_counts_the_searched_cells():
    for a_max in range(-1, 8):
        for b_max in range(-2, 40):
            cells = sum(1 for a in range(1, a_max + 1)
                        for b in range(4 * a + 1, b_max + 1) if b % 2)
            assert grid_size(a_max, b_max) == cells
