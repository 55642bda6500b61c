"""Scale invariance of the bound path and of the exact forms, end-to-end
checks across layers.

For odd t the parameters (ta, tb, n) build the same polynomial A as
(a, b, tn), so M1, M2, K and N of (ta, tb) are t times those of (a, b), and
the bound is the same.  Omega(ta, tb), its psi denominators and the saddle
cubic all differ from those of (a, b), so the relation crosses the psi rows,
the Omega walk, the saddle solve and the K logarithms.  Each scaled constant
must lie within t r + r' of t times the unscaled one, r and r' the two
proven radii.

The exact forms obey the same identity with nothing left to round: the
floor expression is 1-periodic in y, so Omega(ta, tb) = {y : {ty} in
Omega(a, b)} and Delta and Delta1 pick the same primes, and P, Q, X, Y and
Z of (ta, tb, n) equal those of (a, b, tn).  Their decays, (1/n) ln|ell|,
are then t times each other, within t r + r'.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrbounds import measures
from irrbounds.errors import NonApplicableError
from irrbounds.forms import verify_forms
from irrbounds.measures import HEADLINE_KS, MU2_PARAMS

TABLE_CELLS = ([(k, 1, 7, False) for k in HEADLINE_KS]
               + [(k, a, b, True) for k, (a, b) in MU2_PARAMS.items()])
# the largest b a cell may reach: the b of the 100-cell search's last column
B_CAP = 203


def _published(k, a, b, quadratic, digits=60):
    """M1, M2, K, N and the bound of one cell, each a (value, radius) pair
    of mpf."""
    m1, m2, k1, k2, n1, n2 = measures._constants(k, a, b, digits)
    kk, nn = (k2, n2) if quadratic else (k1, n1)
    balls = {"M1": m1, "M2": m2, "K": kk, "N": nn}
    denom, value = measures._quotient(m1, m2, kk, nn, digits)
    # 1 - A/D where D = M2+K+N < 0, else D
    balls["bound" if denom < 0 else "M2+K+N"] = value
    with mp.workdps(150):
        return {name: (mp.mpf(v), mp.mpf(v.radius())) for name, v in balls.items()}


def _check_scaled(k, a, b, t, quadratic):
    base = _published(k, a, b, quadratic)
    scaled = _published(k, t * a, t * b, quadratic)
    with mp.workdps(150):
        for name, (value, radius) in base.items():
            factor = 1 if name == "bound" else t
            other, other_radius = scaled[name]  # KeyError: D's sign moved
            assert (mp.fabs(other - factor * value)
                    <= factor * radius + other_radius), (k, a, b, t, name)


@pytest.mark.parametrize("t", [3, 5, 7])
@pytest.mark.parametrize("cell", TABLE_CELLS,
                         ids=lambda c: f"{'mu2' if c[3] else 'mu'}-{c[0]}-{c[1]}-{c[2]}")
def test_table_cells_scale_with_t(cell, t):
    k, a, b, quadratic = cell
    _check_scaled(k, a, b, t, quadratic)


@settings(deadline=None, max_examples=15)
@given(st.one_of(st.integers(1, 10**6), st.sampled_from([10**24, 10**100, 10**300])),
       st.integers(1, 3), st.integers(0, 12), st.sampled_from([3, 5, 7]),
       st.booleans())
@example(10**300, 1, 0, 3, True)
def test_random_cells_scale_with_t(k, a, gap, t, quadratic):
    b = 4 * a + 2 * gap + 1
    if t * b > B_CAP:
        t = 3 if 3 * b <= B_CAP else 1
    try:
        _check_scaled(k, a, b, t, quadratic)
    except NonApplicableError:
        # no complex saddle for (a, b), and then none for (ta, tb): the
        # scaled cubic is the same cubic in z/t
        with pytest.raises(NonApplicableError):
            measures._constants(k, t * a, t * b, 60)


def _exact(ball):
    """A ball's centre and radius as exact rationals."""
    scale = Fraction(2) ** ball.exp
    return ball.man * scale, ball.rad * scale


def _check_scaled_forms(k, a, b, n, t):
    [base] = verify_forms(k, a, b, [t * n])
    [scaled] = verify_forms(k, t * a, t * b, [n])
    for name in "PQXYZ":
        assert getattr(scaled, name) == getattr(base, name), name
    for name in ("decay_linear", "decay_quadratic"):
        (value, radius), (other, other_radius) = (
            _exact(getattr(base, name)), _exact(getattr(scaled, name)))
        assert abs(other - t * value) <= t * radius + other_radius, name


@pytest.mark.parametrize("a,b,n,t", [(1, 13, 3, 3), (1, 13, 3, 5), (1, 7, 7, 3)])
def test_forms_scale_with_t(a, b, n, t):
    # (1, 13, 9) against (3, 39, 3), (1, 13, 15) against (5, 65, 3) and
    # (1, 7, 21) against (3, 21, 7), at k = 8: degrees 297, 495 and 315
    _check_scaled_forms(8, a, b, n, t)


# the cells (k, a, gap, n, t) of the @examples below, which each run
# checks.  A huge k forces n = 1, so a draw that differs from one of them
# in n alone, or not at all, would check it again; the strategy skips
# such draws (explicit examples do not pass through it)
PINNED_CELLS = frozenset({(10**300, 1, 0, 1, 3), (4, 1, 0, 3, 3),
                          (10**24, 2, 4, 1, 5), (10**100, 2, 4, 1, 5),
                          (10**300, 2, 4, 1, 5)})


def _unpinned(cell):
    k, a, gap, n, t = cell
    return (k, a, gap, 1 if k > 10**6 else n, t) not in PINNED_CELLS


@settings(deadline=None, max_examples=15, derandomize=True)
@given(st.tuples(
    st.one_of(st.integers(1, 10**6), st.sampled_from([10**24, 10**100, 10**300])),
    st.integers(1, 2), st.integers(0, 4), st.sampled_from([1, 3, 5]),
    st.sampled_from([3, 5])).filter(_unpinned))
@example((10**300, 1, 0, 1, 3))
@example((4, 1, 0, 3, 3))  # 2k + 1 = 9, a perfect square
# each huge k at its costliest draw, degree 195, so every run pays for it
@example((10**24, 2, 4, 1, 5))
@example((10**100, 2, 4, 1, 5))
@example((10**300, 2, 4, 1, 5))
def test_random_forms_scale_with_t(cell):
    # degree 3 (b - 2a) t n at most 975, and 195 at a huge k, where each
    # coefficient carries about log2(k) bits per degree; the draws are
    # derived from the test, so each run draws the same examples
    k, a, gap, n, t = cell
    _check_scaled_forms(k, a, 4 * a + 2 * gap + 1, 1 if k > 10**6 else n, t)
