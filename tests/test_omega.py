import math
import random
from fractions import Fraction as F

import pytest

from irrbounds.errors import CertificateError, DomainError
from irrbounds.exact_arith import Params
from irrbounds import omega as omega_module
from irrbounds.fixed import Ball, prec_of
from irrbounds.omega import (compute_omega, delta_products, n_constants,
                             omega_contains)
from oracles import (Interval, IntervalSet, certified_grid_check, farey_points,
                     farey_runs, finite_n_n1, finite_n_n2, floor_sum_min,
                     floor_sum_value, grid_discrepancies,
                     omega_by_fraction_probes, omega_intervals, pair, runs_of)


# ---------------------------------------------------------------------------
# the floor expression
# ---------------------------------------------------------------------------

def test_floor_sum_zero_at_y_zero():
    for a, b in ((1, 7), (2, 23)):
        for x in (F(0), F(1, 3), F(-22, 7), F(999, 4)):
            assert floor_sum_value(a, b, x, F(0)) == 0


def test_floor_sum_hand_value():
    # (a=1, b=7), y = 1/2, x = 0:
    # ([-1] - [-5/2] - [3/2]) + ([-1/2] - [-3] - [5/2]) + ([0] - [-7/2] - [7/2])
    # = (-1 + 3 - 1) + (-1 + 3 - 2) + (0 + 4 - 3) = 1 + 0 + 1 = 2
    assert floor_sum_value(1, 7, F(0), F(1, 2)) == 2


def test_each_group_in_01_on_random_rationals():
    rng = random.Random(20240811)
    for _ in range(2000):
        a, b = rng.choice(((1, 7), (2, 23), (1, 13)))
        x = F(rng.randrange(-400, 400), rng.randrange(1, 60))
        y = F(rng.randrange(0, 300), 300)
        for c1, c2, c3 in ((2 * a, b - 2 * a, b - 4 * a),
                           (a, b - a, b - 2 * a),
                           (0, b, b)):
            group = (math.floor(x - c1 * y) - math.floor(x - c2 * y)
                     - math.floor(c3 * y))
            assert group in (0, 1)


def test_residue_membership_matches_literal_floor_min():
    # the modular table against the literal floor expression, on pairs well
    # past the ones the table uses and on y beyond [0, 1)
    rng = random.Random(20261017)
    for _ in range(15_000):
        a = rng.randrange(1, 5)
        b = rng.randrange(4 * a + 1, 4 * a + 40, 2)
        y = F(rng.randrange(-500, 2000), rng.randrange(1, 400))
        assert omega_contains(a, b, pair(y)) == (floor_sum_min(a, b, y) >= 1)


def test_min_over_x_is_attained_on_candidates():
    # brute force over a fine x grid can never beat the six-candidate min
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.choice(((1, 7), (2, 23)))
        y = F(rng.randrange(0, 120), 120)
        best = floor_sum_min(a, b, y)
        for i in range(0, 840):
            assert floor_sum_value(a, b, F(i, 840), y) >= best


# ---------------------------------------------------------------------------
# the interval description
# ---------------------------------------------------------------------------

def test_omega_17_structure():
    omega = omega_intervals(1, 7)
    ivs = omega.intervals
    assert ivs[0].lo >= F(1, 7)
    assert ivs == (
        Interval(F(1, 6), F(3, 7), True, False),
        Interval(F(1, 2), F(5, 7), True, False),
        Interval(F(3, 4), F(6, 7), True, False),
    )
    assert omega.total_measure() == F(7, 12)


def test_omega_avoids_low_interval():
    for a, b in ((1, 7), (2, 23), (1, 13)):
        omega = omega_intervals(a, b)
        for iv in omega:
            assert iv.lo >= F(1, b)
        assert not omega.contains(F(1, 2 * b))
        assert not omega_contains(a, b, (1, 2 * b))


@pytest.mark.parametrize("a,b,y", [(1, 7, (1, 0)), (1, 7, (1, -3)),
                                   (1, 3, (1, 2))],
                         ids=["den-0", "den-negative", "b-below-4a"])
def test_omega_contains_rejects_what_compute_omega_rejects(a, b, y):
    # a zero or negative denominator, or an (a, b) that compute_omega
    # refuses, is a DomainError, not a ZeroDivisionError or an answer
    with pytest.raises(DomainError):
        omega_contains(a, b, y)


def test_omega_dense_grid_17():
    omega = omega_intervals(1, 7)
    assert grid_discrepancies(1, 7, 5040, omega) == 0


def test_breakpoints_are_the_farey_sequence():
    # the points of the reference walk
    for n in range(1, 60):
        literal = sorted({F(j, m) for m in range(1, n + 1) for j in range(m)})
        assert [F(p, q) for p, q in farey_points(n)] == literal


def test_walk_matches_the_fraction_probes():
    # the walk over the floor terms' own breakpoints against the two it
    # replaced: Fraction probes, and the integer walk through every fraction
    # of order b; probes at a finer set of points find the same set
    cells = [(a, b) for b in range(5, 62, 2) for a in range(1, (b - 1) // 4 + 1)]
    for a, b in cells + [(1, 203)]:
        assert omega_intervals(a, b) == omega_by_fraction_probes(a, b, b)
    for a, b in cells + [(1, 203), (1, 1001), (2, 1001)]:
        assert compute_omega(a, b) == farey_runs(a, b, b), (a, b)
    assert omega_intervals(2, 23) == omega_by_fraction_probes(2, 23, 40)


def test_walk_probes_membership_o_of_b_times(monkeypatch):
    # a cold walk at b = 1001 makes at most 12 b membership probes, its
    # closure checks included; the Farey walk of order b makes about 0.6 b^2
    member, calls = omega_module._member, []
    monkeypatch.setattr(omega_module, "_member",
                        lambda *args: calls.append(args) or member(*args))
    omega_module.compute_omega.cache_clear()
    compute_omega(1, 1001)
    assert 0 < len(calls) <= 12 * 1001


def test_runs_are_the_fraction_intervals():
    # the int runs the bound path reads are the Fraction probes' intervals,
    # end for end and flag for flag, in lowest terms; N1 and N2 come out
    # ball for ball from either input, and N2's int-pair large-prime sum is
    # the Fraction sum it replaced
    for a in (1, 2, 3):
        for b in range(4 * a + 1, 42, 2):
            runs, omega = compute_omega(a, b), omega_by_fraction_probes(a, b, b)
            assert [(F(*lo), F(*hi), *flags) for lo, hi, *flags in runs] == [
                (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in omega]
            assert all(math.gcd(*end) == 1 for lo, hi, _, _ in runs
                       for end in (lo, hi))
            balls = []
            for given in (runs, runs_of(omega)):
                n_constants.cache_clear()
                balls.append([(v.man, v.exp, v.rad)
                              for v in n_constants(a, b, given, 40)])
            assert balls[0] == balls[1]
            n1, n2 = n_constants(a, b, runs, 40)
            cut, p = F(1, b - 2 * a), prec_of(50)
            large = sum((1 / iv.lo - 1 / min(iv.hi, cut) for iv in omega
                         if iv.lo < min(iv.hi, cut)), F(0))
            want = ((n1 + (b - 2 * a)).rnd(p)
                    + Ball(large.numerator).div(large.denominator, p)).rnd(p)
            assert (n2.man, n2.exp, n2.rad) == (want.man, want.exp, want.rad)


# the walk's points, kept from monkeypatching
_walk_points = omega_module._points


def _dropped(table):
    # the progression j/7 of the coefficient b = 7, which divides no other
    return [(p, q) for p, q in _walk_points(table) if q != 7]


def _swapped(table):
    pts = _walk_points(table)
    pts[3], pts[4] = pts[4], pts[3]
    return pts


BROKEN = {_dropped: "misses a point j/7", _swapped: "out of order"}


@pytest.mark.parametrize("mutate", list(BROKEN))
def test_broken_walk_raises(monkeypatch, mutate):
    # without one coefficient's progression, or with two points out of
    # order, a gap may hide a breakpoint, and the walk must not return a set
    monkeypatch.setattr(omega_module, "_points", mutate)
    omega_module.compute_omega.cache_clear()
    try:
        with pytest.raises(CertificateError, match=BROKEN[mutate]):
            compute_omega(1, 7)
    finally:
        omega_module.compute_omega.cache_clear()


def test_walk_checks_its_start_and_its_coefficients(monkeypatch):
    omega_module.compute_omega.cache_clear()
    try:
        for cut in (slice(1, None), slice(None, -1)):
            monkeypatch.setattr(omega_module, "_points",
                                lambda table: _walk_points(table)[cut])
            with pytest.raises(CertificateError, match="from 0/1 to 1/1"):
                compute_omega(1, 7)
        # every fraction of order b - 1 misses the points j/b
        monkeypatch.setattr(omega_module, "_points",
                            lambda table: [*farey_points(6), (1, 1)])
        with pytest.raises(CertificateError, match="misses a point j/7"):
            compute_omega(1, 7)
        # a walk through more points than the breakpoints finds the same runs
        monkeypatch.setattr(omega_module, "_points",
                            lambda table: [*farey_points(9), (1, 1)])
        assert compute_omega(1, 7) == farey_runs(1, 7, 7)
    finally:
        omega_module.compute_omega.cache_clear()


def test_omega_is_shared_and_immutable():
    runs = compute_omega(1, 7)
    assert compute_omega(1, 7) is runs
    with pytest.raises(TypeError):
        runs[0] = ()
    with pytest.raises(TypeError):
        runs[0][2] = False


def test_omega_refinement_stability():
    for a, b in ((1, 7), (2, 23)):
        assert compute_omega(a, b) == farey_runs(a, b, 2 * b)


def test_certified_grid_check_2_23():
    omega = omega_intervals(2, 23)
    L = math.lcm(*range(1, 24)) * 10
    res = certified_grid_check(2, 23, L, omega, sample=5000, seed=3)
    assert res.discrepancies == 0
    assert res.grid_size == L


def test_full_literal_grid_1_13():
    # the pair behind three of the four non-quadraticity table values;
    # its grid is small enough to scan literally in full
    omega = omega_intervals(1, 13)
    L = math.lcm(*range(1, 14)) * 10
    assert grid_discrepancies(1, 13, L, omega) == 0
    assert runs_of(omega) == farey_runs(1, 13, 26)


def test_vectorized_grid_matches_pure_python():
    omega = omega_intervals(1, 7)
    assert grid_discrepancies(1, 7, 4200, omega) == 0
    assert grid_discrepancies(1, 7, 4199, omega) == 0  # endpoints off the grid
    # force disagreements by shifting an interval or flipping its closure:
    # the kernel must count the mismatches a literal floor_sum_min scan of
    # every i/L counts, also on a grid (L = 4199) no endpoint lies on
    shifted = IntervalSet([Interval(iv.lo + F(1, 4200), iv.hi, iv.lo_closed,
                                    iv.hi_closed) for iv in omega])
    flipped = IntervalSet([Interval(iv.lo, iv.hi, not iv.lo_closed,
                                    not iv.hi_closed) for iv in omega])
    for L in (4200, 4199):
        for broken in (shifted, flipped):
            literal = sum((floor_sum_min(1, 7, F(i, L)) >= 1)
                          != broken.contains(F(i, L)) for i in range(L))
            assert literal > 0 or L == 4199
            assert grid_discrepancies(1, 7, L, broken) == literal
            # an explicit index list scans as one array and counts the same
            assert grid_discrepancies(1, 7, L, broken,
                                      indices=list(range(L))) == literal


def test_vectorized_grid_on_large_l_subrange():
    # the acceptance-scale grid, scanned literally on a window around 1e10
    omega = omega_intervals(2, 23)
    L = math.lcm(*range(1, 24)) * 10
    assert grid_discrepancies(2, 23, L, omega,
                              indices=range(10**10, 10**10 + 10**6)) == 0


def test_certified_grid_rejects_bad_l():
    omega = omega_intervals(1, 7)
    with pytest.raises(DomainError):
        certified_grid_check(1, 7, 1000, omega)  # 7 does not divide 1000


def test_interval_set_validation():
    with pytest.raises(DomainError):
        IntervalSet([Interval(F(0), F(1, 2), True, True),
                     Interval(F(1, 2), F(2, 3), True, False)])
    with pytest.raises(DomainError):
        Interval(F(1, 2), F(1, 3), True, True)
    # mergeable adjacency is non-canonical and rejected
    with pytest.raises(DomainError):
        IntervalSet([Interval(F(0), F(1, 2), True, False),
                     Interval(F(1, 2), F(2, 3), True, False)])
    # touching with the shared point excluded on both sides is fine
    ok = IntervalSet([Interval(F(0), F(1, 2), True, False),
                      Interval(F(1, 2), F(2, 3), False, False)])
    assert not ok.contains(F(1, 2))
    assert ok.contains(F(1, 3)) and ok.contains(F(3, 5))


# ---------------------------------------------------------------------------
# prime products
# ---------------------------------------------------------------------------

def test_delta_products_n1():
    # primes in (sqrt(7), 7] are 3, 5, 7; memberships of 1/3 and 1/5 hold,
    # 1/7 sits below the certified set
    p = Params(k=6, a=1, b=7, n=1)
    delta, delta1 = delta_products(p)
    assert delta == 15
    assert delta1 == 1


def test_delta_brute_force_oracle_n5():
    p = Params(k=6, a=1, b=7, n=5)
    delta, delta1 = delta_products(p)

    def trial_prime(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    expect = 1
    expect1 = 1
    for q in range(2, 36):
        if not trial_prime(q):
            continue
        member = min(floor_sum_value(1, 7, F(c * 5, q), F(5 % q, q))
                     for c in (0, 1, 2, 5, 6, 7)) >= 1
        if q * q > 35 and member:
            expect *= q
        if q > 25 and member:
            expect1 *= q
    assert delta == expect == 13 * 17 * 19 * 23 * 29
    assert delta1 == expect1 == 29


def test_delta_squarefree_and_prime_range():
    for k, a, b, n in ((6, 1, 7, 9), (8, 1, 13, 5)):
        p = Params(k=k, a=a, b=b, n=n)
        delta, delta1 = delta_products(p)
        for q in range(2, b * n + 1):
            if delta % q == 0 and all(q % f for f in range(2, q)):
                assert delta % (q * q) != 0
                assert q * q > b * n
            if delta1 % q == 0 and all(q % f for f in range(2, q)):
                assert q > (b - 2 * a) * n
        assert delta % delta1 == 0  # the delta1 range is a subrange


# ---------------------------------------------------------------------------
# asymptotic constants
# ---------------------------------------------------------------------------

def test_n_constants_empty_set():
    n1, n2 = n_constants(1, 7, runs_of(IntervalSet([])), 40)
    assert abs(float(n1 - 7)) < 1e-30
    assert abs(float(n2 - 12)) < 1e-30  # 2b - 2a


def test_n_constants_digit_guard():
    with pytest.raises(DomainError):
        n_constants(1, 7, runs_of(IntervalSet([])), 10)


def test_n1_finite_n_convergence_monotone(big_sieve):
    n1, _ = n_constants(1, 7, compute_omega(1, 7), 40)
    errs = [abs(finite_n_n1(1, 7, n, big_sieve) - float(n1))
            for n in (10**3 + 1, 10**4 + 1, 10**5 + 1)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / float(n1) < 0.02


@pytest.mark.parametrize("a,b", [(1, 7), (1, 13), (2, 23)])
def test_n2_finite_n_agrees(a, b, big_sieve):
    # every parameter pair the non-quadraticity table depends on
    _, n2 = n_constants(a, b, compute_omega(a, b), 40)
    est = finite_n_n2(a, b, 10**4 + 1, big_sieve)
    assert abs(est - float(n2)) / float(n2) < 0.02
