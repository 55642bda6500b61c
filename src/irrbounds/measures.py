"""Assembly of the two measure bounds from the growth, scaling and
denominator-savings constants, the finite-n verification harness for the
integrality and decay claims, and the small parameter-space search.

Applicability (the sign condition on the decay rate) is a data outcome, not
an exception: searches iterate past inapplicable cells.

The form values ell = P alpha_k + Q and m = X alpha_k^2 + Z are certified,
not checked by agreement: one fixed-point integer sum encloses alpha_k * 2^M
with a proven radius, the forms become integer enclosures, and each is
accepted only when it is narrow enough for digits + 10 digits and excludes
0.  No mpmath enters until the accepted center is rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

import mpmath as mp
from mpmath.libmp import from_man_exp

from .asymptotics import (certify, guard_digits, k_constants, saddle_complex,
                          saddle_real, units)
from .errors import NonApplicableError, PrecisionError
from .exact_arith import Frozen, Params, PrimeSieve, sqrt_bounds
from .omega import compute_omega, delta_products, n_constants

__all__ = [
    "BoundResult", "VerificationRow", "TableRow",
    "mu_bound", "mu2_bound", "verify_forms", "search_params",
    "predicted_decay", "headline_table", "table_row", "HEADLINE_KS",
    "is_degenerate", "grid_size",
]

# k values of the headline table, with the parameter choices that produce it:
# (1, 7) for every irrationality bound; non-quadraticity bounds exist for the
# even k below with (2, 23) at k = 6 and (1, 13) at k = 8, 10, 12.
HEADLINE_KS = (3, 5, 6, 7, 8, 9, 10, 11, 12)
MU2_PARAMS = {6: (2, 23), 8: (1, 13), 10: (1, 13), 12: (1, 13)}


def is_degenerate(k: int) -> bool:
    """True when 2k+1 is a perfect square, making alpha_k the logarithm of a
    rational scaled by an integer (k = 4, 12, ...)."""
    d = 2 * k + 1
    return isqrt(d) ** 2 == d


class BoundResult(Frozen):
    __slots__ = ("kind", "k", "a", "b", "M1", "M2", "K", "N", "bound",
                 "applicable", "digits", "degenerate")
    kind: str               # "irrationality" | "non-quadraticity"
    k: int
    a: int
    b: int
    M1: mp.mpf
    M2: mp.mpf
    K: mp.mpf
    N: mp.mpf
    bound: mp.mpf | None
    applicable: bool
    digits: int
    degenerate: bool


class VerificationRow(Frozen):
    __slots__ = ("n", "P", "Q", "X", "Y", "Z", "ell", "m", "decay_linear",
                 "decay_quadratic", "forms")
    n: int
    P: int
    Q: int
    X: int
    Y: int
    Z: int
    ell: mp.mpf
    m: mp.mpf
    decay_linear: mp.mpf
    decay_quadratic: mp.mpf
    forms: IntegerForms  # of .forms, which only verify imports


def _x_numeric(k: int, digits: int):
    """x_k as mpf together with exact rational bounds for certified probing.

    The mpf carries digits + 10 digits and the guard digits that the saddle
    solve adds near x = 1, from 1 - x_hi = (lo - 1)/k <= 1 - x_k
    (asymptotics.guard_digits)."""
    lo, hi = sqrt_bounds(2 * k + 1, digits + 6)
    x_lo = (k + 1 - hi) / k
    x_hi = (k + 1 - lo) / k
    with mp.workdps(digits + 10 + guard_digits((lo - 1) / k)):
        x = (k + 1 - mp.sqrt(2 * k + 1)) / mp.mpf(k)
    return x, (x_lo, x_hi)


def _constants(k: int, a: int, b: int, digits: int):
    """(M1, M2, K1, K2, N1, N2) at ``digits`` working digits, each a
    (value, radius) pair."""
    x, xb = _x_numeric(k, digits)
    _, *m1 = saddle_real(a, b, x, digits, x_bounds=xb)
    _, *m2 = saddle_complex(a, b, x, digits, x_bounds=xb)
    k1, k2, r_k = k_constants(k, a, b, digits)
    n1, n2, r_n = n_constants(a, b, compute_omega(a, b).omega, digits)
    return tuple(m1), tuple(m2), (k1, r_k), (k2, r_k), (n1, r_n), (n2, r_n)


def _add(parts, w: int):
    """(sum, radius) of (value, radius) ``parts`` added left to right at the
    context's precision p = w - 16, the radius in units of 2^-w: the parts'
    radii and one rounding per addition, within 2^-p of a partial sum."""
    total = parts[0][0]
    for value, _ in parts[1:]:
        total += value
    return total, (sum(units(r, w)[1] for _, r in parts)
                   + ((len(parts) - 1) * sum(int(abs(v)) + 1 for v, _ in parts) << 16))


def _quotient(m1, m2, kk, nn, digits: int):
    """(D, value, radius) at digits + 10 digits from the (value, radius)
    pairs of M1, M2, K, N: D = M2+K+N, and value = 1 - A/D, A = M1+K+N, when
    D < 0, else D.  With A and D within r_A and r_D of their true values,
    |A/D - A*/D*| <= (r_A |D| + |A| r_D)/(|D| (|D| - r_D)), plus the two
    roundings; PrecisionError when |D| <= r_D leaves the sign of D open."""
    with mp.workdps(digits + 10):
        w = mp.mp.prec + 16
        (num, r_num), (denom, r_den) = _add((m1, kk, nn), w), _add((m2, kk, nn), w)
        den_lo, den_hi = units(abs(denom), w)
        if den_lo <= r_den:
            raise PrecisionError(f"the sign of M2+K+N = {denom} is not certified")
        if denom > 0:
            return denom, denom, mp.make_mpf(from_man_exp(r_den, -w))
        val = 1 - num / denom
        r_val = (-(-(r_num * den_hi + units(abs(num), w)[1] * r_den << w)
                   // (den_lo * (den_lo - r_den))) + (2 * int(abs(val)) + 3 << 16))
        return denom, val, mp.make_mpf(from_man_exp(r_val, -w))


def _bound(kind: str, k: int, a: int, b: int, digits: int) -> BoundResult:
    quadratic = kind == "non-quadraticity"
    Params(k=k, a=a, b=b, n=1)  # parameter validation only
    try:
        m1, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    except NonApplicableError:
        # no saddle point exists for this cell; a structured outcome, so
        # parameter searches can iterate past it
        return BoundResult(kind=kind, k=k, a=a, b=b, M1=mp.nan, M2=mp.nan,
                           K=mp.nan, N=mp.nan, bound=None, applicable=False,
                           digits=digits, degenerate=is_degenerate(k))
    kk, nn = (k2, n2) if quadratic else (k1, n1)
    for name, (value, radius) in zip(("M1", "M2", "K", "N"), (m1, m2, kk, nn)):
        certify(f"{name} of bound({k},{a},{b})", value, radius, digits)
    denom, val, radius = _quotient(m1, m2, kk, nn, digits)
    applicable = denom < 0
    certify(f"{'bound' if applicable else 'M2+K+N'} of bound({k},{a},{b})",
            val, radius, digits)
    return BoundResult(kind=kind, k=k, a=a, b=b, M1=m1[0], M2=m2[0], K=kk[0],
                       N=nn[0], bound=val if applicable else None,
                       applicable=applicable, digits=digits,
                       degenerate=is_degenerate(k))


def mu_bound(k: int, a: int, b: int, digits: int = 60) -> BoundResult:
    """Irrationality-measure bound 1 - (M1+K1+N1)/(M2+K1+N1), when the
    denominator is negative; inapplicable otherwise."""
    return _bound("irrationality", k, a, b, digits)


def mu2_bound(k: int, a: int, b: int, digits: int = 60) -> BoundResult:
    """Non-quadraticity-measure bound 1 - (M1+K2+N2)/(M2+K2+N2)."""
    return _bound("non-quadraticity", k, a, b, digits)


def predicted_decay(k: int, a: int, b: int, digits: int = 60):
    """(M2+K1+N1, M2+K2+N2): the limits of (1/n) ln of the two forms, each
    certified to its radius."""
    _, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    with mp.workdps(digits + 10):
        w = mp.mp.prec + 16
        decays = [_add((m2, kk, nn), w) for kk, nn in ((k1, n1), (k2, n2))]
    for name, (decay, radius) in zip(("linear", "quadratic"), decays):
        certify(f"the {name} decay of ({k},{a},{b})", decay,
                mp.make_mpf(from_man_exp(radius, -w)), digits)
    return tuple(decay for decay, _ in decays)


# ---------------------------------------------------------------------------
# finite-n verification harness
# ---------------------------------------------------------------------------

# passes of the alpha-enclosure loop before a form counts as unresolved
MAX_ALPHA_PASSES = 8


def _alpha_fixed(k: int, bits: int) -> tuple[int, int]:
    """(A, E) with |alpha_k * 2^bits - A| < E, from one fixed-point sum.

    With D = 2k+1 and t = 1/sqrt(D), ln((1-t)/(1+t)) = -2 atanh(t), so
    alpha_k = -2 sum_{j>=0} 1/((2j+1) D^j).  Here term_j = term_(j-1) // D
    from term_0 = 2^bits, and A = -2 sum_{j<J} term_j // (2j+1), where J is
    the number of nonzero terms.  Nested floors compose, so term_j is the
    floor of 2^bits / D^j; with the floor of the quotient by 2j+1, each of
    the two floors of a term loses less than 1, and each of the J summands
    is within 2 of
    2^bits / ((2j+1) D^j).  The tail j >= J sums to less than 2, because
    term_J = 0 makes 2^bits / D^J < 1 and D >= 3 sums the geometric rest to
    under 3/2.  So A / (-2) is within 2J + 2 of alpha_k 2^bits / (-2), and
    |alpha_k 2^bits - A| < 4(J + 1) = E.
    """
    d = 2 * k + 1
    term, total, j = 1 << bits, 0, 0
    while term:
        total += term // (2 * j + 1)
        term //= d
        j += 1
    return -2 * total, 4 * (j + 1)


def _alpha_combinations(k: int, combos, digits: int,
                        depth: int = 0) -> list[mp.mpf]:
    """each sum of c * alpha_k^p over exact (c, p) pairs, p in {0, 1, 2},
    one list of pairs per combination, certified to 10^-(digits+10)
    relative and nonzero, rounded to digits + 10 digits; ``depth`` bits
    widen the first pass for sums near 2^-depth.

    A combination is exponentially small against coefficients of thousands
    of bits.  Its coefficients c are scaled to integers by the lcm L of
    their denominators, and with top its largest p and (A, E) the enclosure
    of alpha_k * 2^bits, its value times L 2^(top bits) lies within
        radius = sum |c| ((|A| + E)^p - |A|^p) 2^((top-p) bits)
    of
        center = sum c A^p 2^((top-p) bits),
    as |x^p - A^p| <= (|A| + E)^p - |A|^p when |x - A| <= E.  It is
    accepted when radius * 10^(digits+10) < |center| - radius, which also
    certifies that the value is not 0, and center / (L 2^(top bits)) is
    rounded.  Otherwise bits grows by the shortfall read from the bit
    lengths of center and radius, plus 16 bits as E grows with bits, and by
    at least twice its last growth: while the enclosure still holds 0, the
    center is noise and that reading is only a lower bound.  After
    MAX_ALPHA_PASSES passes PrecisionError is raised.
    """
    scaled = []
    for terms in combos:
        terms = [(Fraction(c), p) for c, p in terms]
        den = lcm(*(c.denominator for c, _ in terms))
        ints = [(c.numerator * (den // c.denominator), p) for c, p in terms]
        scaled.append((den, max(p for _, p in ints), ints))
    scale = 10 ** (digits + 10)
    need = scale.bit_length() + 2  # 2^need > 4 * scale
    bits = (max(abs(c).bit_length() for *_, terms in scaled for c, _ in terms)
            + scale.bit_length() + 64 + depth)
    grow = 0
    for _ in range(MAX_ALPHA_PASSES):
        a, e = _alpha_fixed(k, bits)
        wide = [0, e, (abs(a) + e) ** 2 - a * a]
        vals, shortfall = [], 0
        for den, top, terms in scaled:
            center = sum(c * (a ** p) << (top - p) * bits for c, p in terms)
            radius = sum(abs(c) * wide[p] << (top - p) * bits for c, p in terms)
            if radius * scale < abs(center) - radius:
                vals.append(mp.ldexp(mp.fdiv(center, den, dps=digits + 10),
                                     -top * bits))
            else:
                shortfall = max(shortfall, radius.bit_length() + need
                                - center.bit_length())
        if len(vals) == len(scaled):
            return vals
        grow = max(shortfall + 16, 2 * grow)
        bits += grow
    raise PrecisionError(f"the enclosure of a form in alpha_{k} is still too "
                         f"wide for {digits} digits after {MAX_ALPHA_PASSES} "
                         "passes")


def verify_forms(k: int, a: int, b: int, n_list, digits: int = 60,
                 sieve: PrimeSieve | None = None,
                 decays=()) -> list[VerificationRow]:
    """Exact integer forms and high-precision form values for each odd n.

    Integrality violations raise IntegralityError naming the quantity.  ell
    and m come from certified enclosures that exclude 0; a form whose
    enclosure stays too wide, as a vanishing form would, raises
    PrecisionError.  ``decays``, the rates of ``predicted_decay``, size the
    enclosure's first pass for forms of about exp(n * rate).
    """
    from .forms import eval_UVW, scaled_integer_forms, x_point

    rows = []
    for n in n_list:
        params = Params(k=k, a=a, b=b, n=n)
        uvw = eval_UVW(params, x_point(k))
        delta, delta1 = delta_products(params, sieve)
        forms = scaled_integer_forms(params, uvw, delta, delta1)
        ell, m = _alpha_combinations(
            k, [[(forms.P, 1), (forms.Q, 0)], [(forms.X, 2), (forms.Z, 0)]], digits,
            max(0, -int(n * min(decays, default=0) / mp.ln2)))
        with mp.workdps(digits + 10):
            rows.append(VerificationRow(
                n=n, P=forms.P, Q=forms.Q, X=forms.X, Y=forms.Y, Z=forms.Z,
                ell=ell, m=m,
                decay_linear=mp.log(mp.fabs(ell)) / n,
                decay_quadratic=mp.log(mp.fabs(m)) / n,
                forms=forms))
    return rows


# ---------------------------------------------------------------------------
# search and table
# ---------------------------------------------------------------------------

def _grid_a_max(a_max: int, b_max: int) -> int:
    """The largest a with a cell on the grid: b > 4a needs 4a < b_max."""
    return max(0, min(a_max, (b_max - 1) // 4))


def grid_size(a_max: int, b_max: int) -> int:
    """Number of (a, b) cells search_params visits: 1 <= a <= a_max and odd
    b with 4a < b <= b_max.  Row a holds (b_max+1)//2 - 2a of them, so the
    count is a closed form and costs nothing for any a_max and b_max."""
    top = _grid_a_max(a_max, b_max)
    return top * ((b_max + 1) // 2) - top * (top + 1)


def search_params(k: int, a_max: int, b_max: int, digits: int = 60,
                  quadratic: bool = False) -> list[BoundResult]:
    """All applicable (a, b) cells on the grid, ascending by bound; ties break
    toward smaller b, then smaller a."""
    out = []
    fn = mu2_bound if quadratic else mu_bound
    for a in range(1, _grid_a_max(a_max, b_max) + 1):
        for b in range(4 * a + 1, b_max + 1, 2):
            res = fn(k, a, b, digits)
            if res.applicable:
                out.append(res)
    out.sort(key=lambda r: (r.bound, r.b, r.a))
    return out


class TableRow(Frozen):
    __slots__ = ("k", "mu", "mu2")
    k: int
    mu: BoundResult
    mu2: BoundResult | None


def table_row(k: int, digits: int = 60) -> TableRow:
    """One headline-table row: mu at (1, 7), and mu2 where MU2_PARAMS has
    parameters for k."""
    mu = mu_bound(k, 1, 7, digits)
    mu2 = mu2_bound(k, *MU2_PARAMS[k], digits) if k in MU2_PARAMS else None
    return TableRow(k=k, mu=mu, mu2=mu2)


def headline_table(digits: int = 60) -> list[TableRow]:
    """The headline table: mu bounds at (1, 7) for the nine k values, plus
    the non-quadraticity bounds where parameters exist."""
    return [table_row(k, digits) for k in HEADLINE_KS]
