"""Assembly of the two measure bounds from the growth, scaling and
denominator-savings constants, the finite-n verification harness for the
integrality and decay claims, and the small parameter-space search.

Applicability (the sign condition on the decay rate) is a data outcome, not
an exception: searches iterate past inapplicable cells.  Every constant is a
:class:`fixed.Ball`, and the bound 1 - A/D is ball arithmetic on them.  The
form values ell = P alpha_k + Q and m = X alpha_k^2 + Z are certified from
one fixed-point integer enclosure of alpha_k * 2^M.
"""

from __future__ import annotations

from math import isqrt, lcm, log, nan

from .asymptotics import guard_digits, k_constants, saddle_complex, saddle_real
from .errors import NonApplicableError, PrecisionError
from .exact_arith import Frozen, Params, PrimeSieve
from .fixed import Ball, certify, prec_of
from .omega import delta_products, n_constants, omega_runs

__all__ = ["BoundResult", "VerificationRow", "TableRow", "mu_bound",
           "mu2_bound", "verify_forms", "search_params", "predicted_decay",
           "headline_table", "table_row", "HEADLINE_KS", "is_degenerate",
           "grid_size"]

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
    M1: Ball                # each nan where no saddle point exists
    M2: Ball
    K: Ball
    N: Ball
    bound: Ball | None
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
    ell: Ball
    m: Ball
    decay_linear: Ball
    decay_quadratic: Ball
    forms: IntegerForms  # of .forms, which only verify imports


def _x_numeric(k: int, digits: int) -> Ball:
    """x_k = (k + 1 - sqrt(2k+1))/k as a ball, whose ends are the exact
    enclosure the saddle probes are certified on.  It carries digits + 10
    digits and, near x = 1, the guard digits of 10^-5 (1 - x_k), from
    1 - x_k >= (isqrt(2k+1) - 1)/k (asymptotics.guard_digits): so its
    rounding moves the saddle root by under 10^-(digits+7) relative."""
    d = 2 * k + 1
    p = prec_of(digits + 10 + guard_digits((isqrt(d) - 1, k * 10**5)))
    return (k + 1 - Ball(d).rnd(p).sqrt(p)).rnd(p).div(Ball(k).rnd(p), p)


def _constants(k: int, a: int, b: int, digits: int):
    """(M1, M2, K1, K2, N1, N2) at ``digits`` working digits, each a ball."""
    x = _x_numeric(k, digits)
    _, m1 = saddle_real(a, b, x, digits)
    _, m2 = saddle_complex(a, b, x, digits)
    k1, k2 = k_constants(k, a, b, digits)
    n1, n2 = n_constants(a, b, omega_runs(a, b), digits)
    return m1, m2, k1, k2, n1, n2


def _quotient(m1, m2, kk, nn, digits: int):
    """(D, value) from the balls of M1, M2, K, N: D = M2+K+N, and
    value = 1 - A/D, A = M1+K+N, when D < 0, else D, each rounded at
    digits + 10 digits after every operation (:func:`_sum`).
    PrecisionError when D's ball holds 0 and so leaves its sign open."""
    p = prec_of(digits + 10)
    num, denom = _sum((m1, kk, nn), p), _sum((m2, kk, nn), p)
    if abs(denom.man) <= denom.rad:
        raise PrecisionError(f"the sign of M2+K+N = {denom.to_str(10)} is not "
                             "certified")
    return denom, (denom if denom > 0 else (1 - num.div(denom, p)).rnd(p))


def _sum(balls, prec: int) -> Ball:
    """The balls added left to right, each partial sum rounded to prec
    bits."""
    total = balls[0]
    for ball in balls[1:]:
        total = (total + ball).rnd(prec)
    return total


def _bound(kind: str, k: int, a: int, b: int, digits: int) -> BoundResult:
    quadratic = kind == "non-quadraticity"
    Params(k=k, a=a, b=b, n=1)  # parameter validation only
    try:
        m1, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    except NonApplicableError:
        # no saddle point exists for this cell; a structured outcome, so
        # parameter searches can iterate past it
        return BoundResult(kind=kind, k=k, a=a, b=b, M1=nan, M2=nan,
                           K=nan, N=nan, bound=None, applicable=False,
                           digits=digits, degenerate=is_degenerate(k))
    kk, nn = (k2, n2) if quadratic else (k1, n1)
    for name, value in zip(("M1", "M2", "K", "N"), (m1, m2, kk, nn)):
        certify(f"{name} of bound({k},{a},{b})", value, digits)
    denom, val = _quotient(m1, m2, kk, nn, digits)
    applicable = denom < 0
    certify(f"{'bound' if applicable else 'M2+K+N'} of bound({k},{a},{b})",
            val, digits)
    return BoundResult(kind=kind, k=k, a=a, b=b, M1=m1, M2=m2, K=kk,
                       N=nn, bound=val if applicable else None,
                       applicable=applicable, digits=digits,
                       degenerate=is_degenerate(k))


def mu_bound(k: int, a: int, b: int, digits: int = 60) -> BoundResult:
    """Irrationality-measure bound 1 - (M1+K1+N1)/(M2+K1+N1), when the
    denominator is negative; inapplicable otherwise.  Digits up to about 560
    (digamma), PrecisionError above."""
    return _bound("irrationality", k, a, b, digits)


def mu2_bound(k: int, a: int, b: int, digits: int = 60) -> BoundResult:
    """Non-quadraticity-measure bound 1 - (M1+K2+N2)/(M2+K2+N2)."""
    return _bound("non-quadraticity", k, a, b, digits)


def predicted_decay(k: int, a: int, b: int, digits: int = 60):
    """(M2+K1+N1, M2+K2+N2): the limits of (1/n) ln of the two forms, balls
    each certified to its radius."""
    _, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    decays = tuple(_sum((m2, kk, nn), prec_of(digits + 10))
                   for kk, nn in ((k1, n1), (k2, n2)))
    for name, decay in zip(("linear", "quadratic"), decays):
        certify(f"the {name} decay of ({k},{a},{b})", decay, digits)
    return decays


# -- finite-n verification harness --------------------------------------------

# passes of the alpha-enclosure loop before a form counts as unresolved
MAX_ALPHA_PASSES = 8


def _alpha_fixed(k: int, bits: int) -> tuple[int, int]:
    """(A, E) with |alpha_k * 2^bits - A| < E, from one fixed-point sum.

    With D = 2k+1 and t = 1/sqrt(D), ln((1-t)/(1+t)) = -2 atanh(t), so
    alpha_k = -2 sum_{j>=0} 1/((2j+1) D^j).  term_j = term_(j-1) // D from
    2^bits is floor(2^bits/D^j), as nested floors compose, so each of the J
    nonzero summands term_j // (2j+1) is within 2 of 2^bits/((2j+1) D^j),
    and the tail j >= J sums to under 2 (2^bits/D^J < 1, D >= 3): A, -2
    times their sum, is within 4(J + 1) = E."""
    d = 2 * k + 1
    term, total, j = 1 << bits, 0, 0
    while term:
        total += term // (2 * j + 1)
        term //= d
        j += 1
    return -2 * total, 4 * (j + 1)


def _alpha_combinations(k: int, combos, digits: int,
                        depth: int = 0) -> list[Ball]:
    """each sum of c * alpha_k^p over (c, p) pairs, c an int or Fraction and
    p in {0, 1, 2}, one list of pairs per combination, certified to
    10^-(digits+10) relative and nonzero, as a ball at digits + 10 digits;
    ``depth`` bits widen the first pass for sums near 2^-depth.

    A combination is exponentially small against coefficients of thousands
    of bits.  Scaled to integers by the lcm L of their denominators, the
    ball sum of c (A +- E)^p 2^(-p bits), (A, E) the enclosure of
    alpha_k 2^bits, holds its value times L.  It is accepted when radius
    10^(digits+10) < |centre| - radius, which also proves it nonzero, and
    divided by L.  Otherwise bits grows by the shortfall read from the bit
    lengths of centre and radius, plus 16 as E grows with bits, and by at
    least twice its last growth (while the ball holds 0 the centre is
    noise); after MAX_ALPHA_PASSES passes, PrecisionError."""
    scaled = []
    for terms in combos:
        den = lcm(*(c.denominator for c, _ in terms))
        scaled.append((den, [(c.numerator * (den // c.denominator), p)
                             for c, p in terms]))
    scale, prec = 10 ** (digits + 10), prec_of(digits + 10)
    need = scale.bit_length() + 2  # 2^need > 4 * scale
    bits = (max(abs(c).bit_length() for _, terms in scaled for c, _ in terms)
            + scale.bit_length() + 64 + depth)
    grow = 0
    for _ in range(MAX_ALPHA_PASSES):
        a, e = _alpha_fixed(k, bits)
        alpha = Ball(a, -bits, e)
        powers = [Ball(1), alpha, alpha * alpha]
        vals, shortfall = [], 0
        for den, terms in scaled:
            value = sum((powers[p] * c for c, p in terms), Ball(0))
            if value.rad * scale < abs(value.man) - value.rad:
                vals.append(value.div(den, prec))
            else:
                shortfall = max(shortfall, value.rad.bit_length() + need
                                - abs(value.man).bit_length())
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
            max(0, -int(n * float(min(decays, default=0)) / log(2))))
        prec = prec_of(digits + 10)
        rows.append(VerificationRow(
            n=n, P=forms.P, Q=forms.Q, X=forms.X, Y=forms.Y, Z=forms.Z,
            ell=ell, m=m, decay_linear=abs(ell).log(prec).div(n, prec),
            decay_quadratic=abs(m).log(prec).div(n, prec), forms=forms))
    return rows


# -- search and table ---------------------------------------------------------

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
    """All applicable (a, b) cells on the grid, ascending by the bound's
    centre, equal centres toward smaller b, then smaller a.  Equal bounds,
    as scale invariance makes (1, 5) and (3, 15), mostly differ in their
    rounded centres' last bit, which then orders them, not b or a."""
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
