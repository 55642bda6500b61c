"""Assembly of the two measure bounds from the growth, scaling and
denominator-savings constants, the predicted decay of the forms, and the
small parameter-space search.  The finite-n verification harness lives in
:mod:`.forms`, which only verify loads; ``verify_forms`` resolves here.

Applicability (the sign condition on the decay rate) is a data outcome, not
an exception: searches iterate past inapplicable cells.  Every constant is a
:class:`fixed.Ball`, and the bound 1 - A/D is ball arithmetic on them; a
cell without a complex saddle has no M1, M2, K or N, and records each as
None.
"""

from __future__ import annotations

from math import isqrt

from .asymptotics import guard_digits, k_constants, saddle_complex, saddle_real
from .errors import NonApplicableError, PrecisionError
from .exact_arith import Frozen, check_cell, grid_cells
from .fixed import Ball, certify, prec_of
from .omega import compute_omega, n_constants

__all__ = ["BoundResult", "TableRow", "mu_bound", "mu2_bound",
           "search_params", "predicted_decay", "headline_table", "table_row",
           "HEADLINE_KS", "is_degenerate"]

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
    M1: Ball | None         # each None where no complex saddle exists
    M2: Ball | None
    K: Ball | None
    N: Ball | None
    bound: Ball | None
    applicable: bool
    digits: int
    degenerate: bool


def __getattr__(name):
    # the verify harness lives in .forms, which only verify loads
    if name == "verify_forms":
        from . import forms
        return getattr(forms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """(M1, M2, K1, K2, N1, N2) at ``digits`` working digits, each a ball,
    for the (k, a, b) of :func:`exact_arith.check_cell`, checked first."""
    check_cell(a, b, k)
    x = _x_numeric(k, digits)
    _, m1 = saddle_real(a, b, x, digits)
    _, m2 = saddle_complex(a, b, x, digits)
    k1, k2 = k_constants(k, a, b, digits)
    n1, n2 = n_constants(a, b, compute_omega(a, b), digits)
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
    try:
        m1, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    except NonApplicableError:
        # no complex saddle exists for this cell; a structured outcome, so
        # parameter searches can iterate past it
        return BoundResult(kind=kind, k=k, a=a, b=b, M1=None, M2=None,
                           K=None, N=None, bound=None, applicable=False,
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
    each certified to its radius, which text-format verify prints."""
    _, m2, k1, k2, n1, n2 = _constants(k, a, b, digits)
    decays = tuple(_sum((m2, kk, nn), prec_of(digits + 10))
                   for kk, nn in ((k1, n1), (k2, n2)))
    for name, decay in zip(("linear", "quadratic"), decays):
        certify(f"the {name} decay of ({k},{a},{b})", decay, digits)
    return decays


# -- search and table ---------------------------------------------------------

def search_params(k: int, a_max: int, b_max: int, digits: int = 60,
                  quadratic: bool = False) -> list[BoundResult]:
    """All applicable cells of ``exact_arith.grid_cells``, ascending by the
    bound's centre, equal centres toward smaller b, then smaller a.  Equal
    bounds, as scale invariance makes (1, 5) and (3, 15), mostly differ in
    their rounded centres' last bit, which then orders them, not b or a."""
    out = []
    fn = mu2_bound if quadratic else mu_bound
    for a, b in grid_cells(a_max, b_max):
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
