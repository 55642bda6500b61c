import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrbounds import (alpha_value, asymptotics, headline_table, mu2_bound,
                       mu_bound, omega, predicted_decay, search_params,
                       verify_forms)
from irrbounds.measures import dual_path_ell, grid_size, is_degenerate

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
        rel = mp.fabs(rows[0].ell / other - 1)
        assert rel < mp.mpf(10) ** (-(digits - 10))


def test_one_alpha_ladder_serves_both_forms(monkeypatch):
    # ell and m share each alpha of the doubling ladder: three levels, not
    # three for ell and three more for m
    from irrbounds import measures

    calls = []

    def counted(k, dps):
        calls.append(dps)
        return alpha_value(k, dps)

    monkeypatch.setattr(measures, "alpha_value", counted)
    row = verify_forms(8, 1, 13, [31])[0]
    assert calls == [1038, 2076, 4152]
    assert row.ell != 0 and row.m != 0


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
    # 13 cells over 3 distinct (a, b), each cell at 60 and 120 digits
    cold = _cold(headline_table, 60)
    assert omega._omega_report.cache_info().misses == 3
    assert omega._n_pair.cache_info().misses == 6
    assert asymptotics._certified_solve.cache_info().misses == 26
    psi = asymptotics._psi.cache_info()
    assert psi.misses == psi.currsize and psi.hits > 0
    assert headline_table(60) == cold  # served from the memos


def test_ladder_rungs_share_no_digit_dependent_value():
    # mu_bound at 60 digits fills the memos at 60 and 120 digits; a following
    # call at 120 digits must still equal its own cold run
    warm60 = _cold(mu_bound, 6, 1, 7, 60)
    warm120 = mu_bound(6, 1, 7, 120)
    assert warm60 == _cold(mu_bound, 6, 1, 7, 60)
    assert warm120 == _cold(mu_bound, 6, 1, 7, 120)


def test_digamma_runs_once_per_argument(monkeypatch):
    # psi comes from Gauss's theorem: production never calls mp.digamma, each
    # of the 260 endpoints is computed once, and the 19 denominators share
    # one cosine row per ladder rung
    def refused(*args, **kwargs):
        raise AssertionError("mp.digamma called on the bound path")

    monkeypatch.setattr(mp, "digamma", refused)
    _cold(search_params, 7, 3, 21)
    psi = asymptotics._psi.cache_info()
    assert psi.misses == psi.currsize == 260
    assert asymptotics._gauss_row.cache_info().currsize == 38


def _digits(value, sig):
    with mp.workdps(sig + 20):
        return mp.nstr(value, sig, strip_zeros=False)


def test_high_precision_bounds_pinned():
    # recorded with mp.digamma in the bound path; all the digits printed here
    # must survive any change to how psi, the saddle or K are computed
    res = _cold(mu_bound, 6, 1, 7, 500)
    assert _digits(res.bound, 480) == (
        "3.51433368250497276720812758589870508006296216671696362453562617501412"
        "2169535978304040760706770022101686348944172789239849659043323649372586"
        "0755635231280289961006415756010582987099759704558010018212728261255163"
        "4767996061423496992015218045843384873656761416260952333834446174687386"
        "0945990679835188921649457216542863242156717530247880316070600673667149"
        "9340375752820728385630900938897082454752407762634310253308342346157112"
        "4945316989636277179171072382983770490458073848074053169741323")
    assert _digits(res.N, 480) == (
        "2.00489766418234388744925765881385175892937370225142009899050050043865"
        "0039200789137305852754633159707141146734807773883546146334909549460727"
        "0542449274810158962640688369879957064401747560198645923169760158228827"
        "5037232825761993322775619681703869916321658815562218835627534902665006"
        "8566800173230074179578070862976299256554359559247168596402567423489922"
        "7418233504841017822881804716856957376130762889361661162810384889056375"
        "4845714531500435892474220028925492991771069136003686331331703")
    res = _cold(mu2_bound, 8, 1, 13, 300)
    assert _digits(res.bound, 280) == (
        "10.9056453024049136393626748869951907340657701924096346945638458202005"
        "9905814268564922935212526775832434037798794834338727265093858345232390"
        "4375611356209279841961087680067685707702072654820172258010964949321383"
        "0278243834287087831947475954718192408141038281594849675078113637502411"
        "9")
    assert _digits(res.N, 280) == (
        "17.5057509176852568644391791080274711604601731246674985105158775711677"
        "8626729852286659039736737942314276487295905503348748706256873457694102"
        "0101458273484030928886155697134655425735369193785317099842702375629931"
        "9881781530384578584014477492441362885986456209462995153913003771441745"
        "8")


def test_grid_size_counts_the_searched_cells():
    for a_max in range(-1, 8):
        for b_max in range(-2, 40):
            cells = sum(1 for a in range(1, a_max + 1)
                        for b in range(4 * a + 1, b_max + 1) if b % 2)
            assert grid_size(a_max, b_max) == cells
