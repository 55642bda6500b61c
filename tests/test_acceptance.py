"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Environment knobs:
  IRRBOUNDS_DECAY_N=51   extend the decay checks from n = 31 to n = 51
  IRRBOUNDS_FULL_GRID=1  run the literal 5.35e10-point grid scan for (2, 23)
                         (hours of CPU; by default Omega's own walk
                         certificate proves the same zero-discrepancy
                         claim, and a large random literal sample guards it)
"""

import math
import os
import random
import time
from fractions import Fraction as F

from irrbounds.exact_arith import Params, d_upto
from irrbounds.forms import (eval_UVW, scaled_integer_forms, verify_forms,
                             x_point)
from irrbounds.measures import mu2_bound, mu_bound, predicted_decay
from irrbounds.omega import compute_omega, delta_products, n_constants
from oracles import (QuadRat, certified_grid_check, finite_n_n1, finite_n_n2,
                     grid_discrepancies, omega_intervals, quad_rat, quad_tuple,
                     scaling_factors, series_uvw)

MU_TABLE = {3: 6.64610, 5: 5.82337, 6: 3.51433, 7: 5.45248, 8: 3.47834,
            9: 5.23162, 10: 3.45356, 11: 5.08120, 12: 3.43506}
MU2_TABLE = {(6, 2, 23): 12.4084, (8, 1, 13): 10.9056,
             (10, 1, 13): 10.0339, (12, 1, 13): 9.46081}

DECAY_N = 51 if os.environ.get("IRRBOUNDS_DECAY_N") == "51" else 31


def report(num: str, desc: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_table_irrationality():
    t0 = time.monotonic()
    errs = {}
    for k, expect in MU_TABLE.items():
        res = mu_bound(k, 1, 7, digits=60)
        errs[k] = abs(float(res.bound) - expect)
    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 60
    assert report("1", "irrationality table, 9 values at (1,7), tol 1e-4",
                  ok, f"worst |err| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_table_non_quadraticity():
    t0 = time.monotonic()
    errs = {}
    for (k, a, b), expect in MU2_TABLE.items():
        res = mu2_bound(k, a, b, digits=60)
        errs[k] = abs(float(res.bound) - expect)
    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    ok = worst < 1e-3 and elapsed < 120
    assert report("2", "non-quadraticity table, 4 values, tol 1e-3",
                  ok, f"worst |err| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_integrality():
    checked = 0
    for k, a, b in ((6, 1, 7), (7, 1, 7), (8, 1, 13)):
        for n in range(1, 16, 2):
            params = Params(k=k, a=a, b=b, n=n)
            # raises IntegralityError on any fractional part
            forms = scaled_integer_forms(eval_UVW(params, x_point(k)))
            for name in ("P", "Q", "X", "Y", "Z"):
                assert isinstance(getattr(forms, name), int)
                checked += 1
    assert report("3", "integer scaling for 3 parameter sets, odd n <= 15",
                  True, f"{checked} integer quantities")


def test_criterion_4_decay_linear():
    pred, _ = predicted_decay(6, 1, 7, digits=60)
    row = verify_forms(6, 1, 7, [DECAY_N], digits=60)[0]
    rel = abs(float(row.decay_linear - pred) / float(pred))
    ok = rel < 0.10
    assert report("4 (linear)",
                  f"(1/n) ln|P alpha + Q| at n={DECAY_N} within 10% of "
                  "M2+K1+N1 for (6,1,7)", ok,
                  f"observed {float(row.decay_linear):.5f}, predicted "
                  f"{float(pred):.5f}, rel {rel:.4f}")


def test_criterion_4_decay_quadratic(big_sieve):
    # The method promises only the n -> oo limit M2+K2+N2 of
    # (1/n) ln|X alpha^2 + Z|.  X alpha^2 + Z is the exact scaling
    # T*d'*Delta1*d_bn/Delta times the analytic core U alpha^2 - D*W at x_k,
    # so the claim is checked in two halves, each where it can be checked:
    #   analytic:   the observed decay within 10% of M2 plus the exact
    #               (1/n) ln of the scaling at n;
    #   arithmetic: that scaling tends to K2+N2.  (1/n) ln T - K2 is exactly
    #               -ln 4/(2n) (T = 4^-((9n+1)/2) for k = 8), and the sieve
    #               rate of d'*Delta1*d_bn/Delta matches the exact integers
    #               at n and is near N2 at n = 10^4+1.  At n = 31 it is still
    #               far above N2: Delta never holds the primes p <= sqrt(bn).
    k, a, b, n = 8, 1, 13, DECAY_N
    far_n = 10**4 + 1
    res = mu2_bound(k, a, b, digits=60)
    m2, k2, n2 = float(res.M2), float(res.K), float(res.N)
    row = verify_forms(k, a, b, [n], digits=60)[0]
    observed = float(row.decay_quadratic)
    params = Params(k=k, a=a, b=b, n=n)
    T = scaling_factors(params)[2]
    delta, delta1 = delta_products(params)
    rate_t = (math.log(T.numerator) - math.log(T.denominator)) / n
    rate_n = (math.log(d_upto((b - 2 * a) * n)) + math.log(delta1)
              + math.log(d_upto(b * n)) - math.log(delta)) / n
    reference = m2 + rate_t + rate_n
    rel = abs((observed - reference) / reference)
    t_gap = rate_t - k2 + math.log(4) / (2 * n)
    sieve_n = finite_n_n2(a, b, n, big_sieve)
    sieve_far = finite_n_n2(a, b, far_n, big_sieve)
    far_rel = abs(sieve_far - n2) / n2

    analytic_ok = rel < 0.10
    t_ok = abs(t_gap) < 1e-12
    sieve_ok = abs(sieve_n - rate_n) < 1e-9
    far_ok = far_rel < 0.02
    analytic = (f"observed {observed:.5f} vs finite-n reference "
                f"M2+(1/n)ln(T d' Delta1 d_bn/Delta) {reference:.5f}, "
                f"rel {rel:.4f}; core {observed - rate_t - rate_n:.5f} vs "
                f"M2 {m2:.5f}")
    arithmetic = (f"(1/n)ln T - K2 + ln4/(2n) {t_gap:.1e}; "
                  f"(1/n)ln(d' Delta1 d_bn/Delta) {rate_n:.5f} exact vs "
                  f"{sieve_n:.5f} sieve at n={n}, {sieve_far:.5f} at "
                  f"n={far_n} vs N2 {n2:.5f}, rel {far_rel:.4f}")
    report("4 (quadratic)",
           f"(1/n) ln|X alpha^2 + Z| at n={n} within 10% of its finite-n "
           "reference, and the scaling tends to K2+N2, for (8,1,13)",
           analytic_ok and t_ok and sieve_ok and far_ok,
           f"{analytic}; limit M2+K2+N2 {m2 + k2 + n2:.5f}; {arithmetic}")
    assert analytic_ok, f"analytic half: {analytic} exceeds the 0.10 band"
    assert t_ok, f"arithmetic half, T: {arithmetic}"
    assert sieve_ok, f"arithmetic half, sieve vs exact integers: {arithmetic}"
    assert far_ok, f"arithmetic half, N2 limit: {arithmetic}"


def test_criterion_5_series_oracle():
    worst = F(0)
    for n in (1, 3):
        params = Params(k=6, a=1, b=7, n=n)
        for z in (F(1, 3), F(1, 2)):
            closed = eval_UVW(params, quad_tuple(QuadRat(z)))
            (su, sv, sw), (tu, tv, tw) = series_uvw(params, z, 300)
            for val, trunc, tail in ((quad_rat(closed.U).u, su, tu),
                                     (quad_rat(closed.V).u, sv, tv),
                                     (quad_rat(closed.W).u, sw, tw)):
                gap = abs(val - trunc)
                assert gap <= tail
                worst = max(worst, gap / tail if tail else F(0))
    assert report("5", "closed forms match 300-term series within exact "
                  "tail bounds at z in {1/3, 1/2}, n in {1, 3}",
                  True, f"worst gap/tail {float(worst):.2e}")


def test_criterion_6_omega_grids():
    omega7 = omega_intervals(1, 7)
    L7 = math.lcm(*range(1, 8)) * 10
    bad7 = grid_discrepancies(1, 7, L7, omega7)

    omega23 = omega_intervals(2, 23)
    L23 = math.lcm(*range(1, 24)) * 10
    cert = certified_grid_check(2, 23, L23, omega23, sample=200_000, seed=11)
    bad23 = cert.discrepancies
    mode = "certified+sampled"
    if os.environ.get("IRRBOUNDS_FULL_GRID") == "1":
        bad23 += grid_discrepancies(2, 23, L23, omega23)
        mode = "full literal scan"

    low_ok = (all(iv.lo >= F(1, 7) for iv in omega7)
              and all(iv.lo >= F(1, 23) for iv in omega23)
              and not omega7.contains(F(1, 14))
              and not omega23.contains(F(1, 46)))

    ok = bad7 == 0 and bad23 == 0 and low_ok
    assert report("6", f"grid agreement at L={L7} for (1,7) and L={L23} "
                  f"for (2,23) [{mode}]; low interval empty", ok,
                  f"discrepancies {bad7}+{bad23}")


def test_criterion_7_n1_convergence(big_sieve):
    t0 = time.monotonic()
    n1, _ = n_constants(1, 7, compute_omega(1, 7), 60)
    n = 10**5 + 1
    est = finite_n_n1(1, 7, n, big_sieve)
    rel = abs(est - float(n1)) / float(n1)
    elapsed = time.monotonic() - t0
    ok = rel < 0.02 and elapsed < 60
    assert report("7", "finite-n (1/n) ln(d_bn/Delta) at n=10^5+1 within 2% "
                  "of N1 for (1,7)", ok,
                  f"estimate {est:.6f}, N1 {float(n1):.6f}, rel {rel:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_8_property_suites():
    # symmetry identities at three rational points
    params = Params(k=6, a=1, b=7, n=1)
    for z in (F(1, 3), F(2, 5), F(3, 7)):
        here, there = (eval_UVW(params, quad_tuple(QuadRat(y)))
                       for y in (z, 1 / z))
        assert quad_rat(here.U) == quad_rat(there.U)
        assert quad_rat(here.V) == -quad_rat(there.V)
        assert quad_rat(here.W) == quad_rat(there.W)

    # rationality: radical components vanish exactly at x_k
    for k, a, b, n in ((6, 1, 7, 1), (6, 1, 7, 3), (7, 1, 7, 1),
                       (8, 1, 13, 1), (4, 1, 7, 3)):
        p = Params(k=k, a=a, b=b, n=n)
        uvw = eval_UVW(p, x_point(k))
        assert quad_rat(uvw.U).v == 0 and quad_rat(uvw.W).v == 0
        assert (QuadRat.sqrt_d(2 * k + 1) * quad_rat(uvw.V)).v == 0

    # floor groups stay in {0, 1} on 10^4 random rationals
    rng = random.Random(1789)
    for _ in range(10_000):
        a, b = rng.choice(((1, 7), (2, 23), (1, 13)))
        x = F(rng.randrange(-500, 500), rng.randrange(1, 100))
        y = F(rng.randrange(0, 1000), 1000)
        for c1, c2, c3 in ((2 * a, b - 2 * a, b - 4 * a),
                           (a, b - a, b - 2 * a),
                           (0, b, b)):
            g = (math.floor(x - c1 * y) - math.floor(x - c2 * y)
                 - math.floor(c3 * y))
            assert g in (0, 1)

    # every published table value agrees with its value at twice the digits
    ladder_worst = 0.0
    for k in MU_TABLE:
        lo = mu_bound(k, 1, 7, digits=60).bound
        hi = mu_bound(k, 1, 7, digits=120).bound
        ladder_worst = max(ladder_worst, float(abs(lo - hi)))
    for (k, a, b) in MU2_TABLE:
        lo = mu2_bound(k, a, b, digits=60).bound
        hi = mu2_bound(k, a, b, digits=120).bound
        ladder_worst = max(ladder_worst, float(abs(lo - hi)))
    assert ladder_worst < 1e-55

    assert report("8", "property suites: symmetry, rationality, floor groups "
                  "on 10^4 rationals, precision ladders", True,
                  f"ladder worst gap {ladder_worst:.1e}")
