"""Scale invariance of the bound path, an end-to-end check across layers.

For odd t the parameters (ta, tb, n) build the same polynomial A as
(a, b, tn), so M1, M2, K and N of (ta, tb) are t times those of (a, b), and
the bound is the same.  Omega(ta, tb), its psi denominators and the saddle
cubic all differ from those of (a, b), so the relation crosses the psi rows,
the Omega walk, the saddle solve and the K logarithms.  Each scaled constant
must lie within t r + r' of t times the unscaled one, r and r' the two
proven radii.
"""

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrbounds import measures
from irrbounds.errors import NonApplicableError
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
