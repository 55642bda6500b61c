"""Exact evaluation of the three rational functions U, V, W that make up the
linear and quadratic forms, and their scaling to integers.

The evaluation route is fully finite: the tail-series transform turns each
tail series into a polynomial in t = z/(z-1), which at the algebraic point
x_k has t = (1 - sqrt(2k+1))/2, so every value lives in Q(sqrt(2k+1)) and is
computed in integer arithmetic.  The product polynomial A is never expanded:
the values of A, A' and A'' at the integers come from its root multiset, and
each transform sum is a two-term recurrence.  The recurrence runs in blocks
of a few dozen steps (the grouping of Paterson and Stockmeyer, 1973): inside
a block each value meets only multipliers of a few hundred bits, and the
full-size products with the recurrence's state come once per block.  A form
of degree d thus costs O(d) big-by-small operations and O(d/block) full-size
products.  The expanded polynomial is kept only as the cross-check oracle
``build_A`` in ``irrbounds.dense``, loaded on first access, so verify never
compiles it; its O(d^2) transform and the original tail series (with an
explicit geometric tail bound) are oracles of the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial, lcm, prod

from .errors import DomainError, IntegralityError
from .exact_arith import Frozen, Params, QuadRat, Rat, d_upto

__all__ = [
    "Params", "IntPoly", "UVWValues", "IntegerForms",
    "x_point", "build_A", "derivative", "eval_UVW", "scaled_integer_forms",
]


def x_point(k: int) -> QuadRat:
    """The evaluation point x_k = (k+1 - sqrt(2k+1))/k in (0, 1)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return QuadRat(Fraction(k + 1, k), Fraction(-1, k), 2 * k + 1)


# ---------------------------------------------------------------------------
# values of A, A', A'' from the root multiset
# ---------------------------------------------------------------------------

def _root_blocks(params: Params) -> tuple[tuple[int, int], ...]:
    """The three root blocks (lo, hi) of A, innermost first: A(x) times its
    denominator is the product over the blocks of prod_{j=lo..hi} (x + j)."""
    a, b, n = params.a, params.b, params.n
    return ((2 * a * n + 1, (b - 2 * a) * n),
            (a * n + 1, (b - a) * n),
            (1, b * n))


def _a_denominator(params: Params) -> int:
    a, b, n = params.a, params.b, params.n
    return (factorial((b - 4 * a) * n) * factorial((b - 2 * a) * n)
            * factorial(b * n))


def _derivative_values(params: Params, order: int):
    """A^(order)(-m) as pairs (v, scale) with value v/scale, for
    m = 1 + order*a*n + s and s = 0..degree - order.

    Write den * A(x) = (x + m)^mu * R(x), mu the number of blocks holding m.
    Then den * A^(order)(-m) = order!/r! * R^(r)(-m) with r = order - mu, and
    0 when mu > order, which holds below the first m the walk visits.  At -m,
    R = q, the product of (j - m) over the roots j != m, R'/R = h1 and
    R''/R = h1^2 - h2, where h_i = sum over the roots j != m of 1/(j - m)^i;
    h1 and h2 are kept as integers over L = lcm(1..last) and L^2.

    Stepping m -> m + 1 multiplies q per block by (lo - 1 - m)/(hi - m) (no
    divisor at m = hi) and adds 1/(lo - 1 - m)^i - 1/(hi - m)^i to h_i: small
    numbers only.  Beyond bn, mu = 0 and A(-m) = q/den is an integer product
    of binomial coefficients, so the walk drops den there and the values
    come over L^order, a far smaller scale than den.

    Each order walks only the sums it reads: order 0 starts beyond bn and
    reads q alone, so it needs neither L nor h1 nor h2; order 1 reads h1
    beyond bn and never h2.
    """
    blocks = _root_blocks(params)
    bn = blocks[2][1]
    first = blocks[2 - order][1] + 1
    start = 1 + order * params.a * params.n
    last = start + params.degree - order
    den = _a_denominator(params)
    yield from repeat((0, den), first - start)
    q, h1, h2 = 1, 0, 0
    L = L2 = 1
    if order:
        L = d_upto(last)
        L2 = L * L
    scale = L ** order
    for lo, hi in blocks:
        for j in range(lo, hi + 1):
            if j != first:
                q *= j - first
                if order:
                    h1 += L // (j - first)
                if order == 2:
                    h2 += L2 // (j - first) ** 2
    for m in range(first, last + 1):
        if m <= bn:
            # mu >= 1, so r <= 1, and r = 1 only for order 2
            r = order - sum(lo <= m <= hi for lo, hi in blocks)
            yield (factorial(order) * q if r == 0 else order * q * h1 // L), den
        else:
            if m == bn + 1:
                q //= den
            if order == 0:
                yield q, scale
            elif order == 1:
                yield q * h1, scale
            else:
                yield q * (h1 * h1 - h2), scale
        num = div = 1
        for lo, hi in blocks:
            num *= lo - 1 - m
            if order:
                h1 -= L // (m + 1 - lo)
            if order == 2:
                h2 += L2 // (m + 1 - lo) ** 2
            if m != hi:
                div *= hi - m
                if order:
                    h1 -= L // (hi - m)
                if order == 2:
                    h2 -= L2 // (hi - m) ** 2
        q = q * num // div


# ---------------------------------------------------------------------------
# the transform sum in O(d) big operations, and U, V, W
# ---------------------------------------------------------------------------

def _int_pair(x: QuadRat) -> tuple[int, int, int]:
    """(u, v, e) with x = (u + v sqrt(D))/e in integers, e > 0."""
    e = lcm(x.u.denominator, x.v.denominator)
    return (x.u.numerator * (e // x.u.denominator),
            x.v.numerator * (e // x.v.denominator), e)


# steps per block of _pole_sum.  Median CPU time of eval_UVW by block size
# on a shared 2-core machine, at (8,1,13,31), d = 1023, 15 runs each: 203 ms
# at 1 (one step per block), 105 at 8, 87 at 12, 90 at 16 and 20, 87 at 24,
# 86 at 32, 92 at 48, 102 at 64; at (8,1,13,101), d = 3333, 5 runs each:
# 1.73 s at 8, 1.34 at 16, 1.19 at 24, 1.20 at 32 and 48, 1.24 at 64.
_BLOCK = 24


def _block_coeffs(w: tuple[int, int], D: int, step: int, delta: int,
                  s0: int):
    """The small coefficients of the pole-sum block from s0 (see
    ``_pole_sum``): (alpha_u, alpha_v, beta_u, beta_v, eps) of
    alpha_i, beta_i, eps_i for i = 0, 1, 2, ...; each row adds about 20
    bits.  Rows are made one at a time, so no table outlives its step."""
    wu, wv = w
    Dwv = D * wv
    au, av, bu, bv, eps, nk, sp = 1, 0, 0, 0, 1, 1, 1
    r = s0
    while True:
        yield au, av, bu, bv, eps
        r += 1
        nk *= delta + 2 - r
        au, av = (wu * au + Dwv * av) * r, (wu * av + wv * au) * r
        bu, bv = (wu * bu + Dwv * bv) * r + nk * sp, (wu * bv + wv * bu) * r
        sp *= step
        eps *= step * r


def _exact_div(num: int, den: int, s0: int) -> int:
    """num/den, which the block identity makes an integer; a remainder is a
    fault and is reported, never rounded."""
    quo, rem = divmod(num, den)
    if rem:
        raise IntegralityError(f"pole-sum block at s0 = {s0}",
                               Fraction(num, den))
    return quo


def _combine(c, g: tuple[int, int], k: tuple[int, int], D: int, den: int,
             s0: int) -> tuple[int, int]:
    """(alpha g - beta k)/den as an integer pair, for alpha = c[0] + c[1]
    sqrt(D) and beta = c[2] + c[3] sqrt(D); each quadratic product takes
    three multiplications instead of four."""
    au, av, bu, bv = c[:4]
    (gu, gv), (ku, kv) = g, k
    p, q, r, s = au * gu, av * gv, bu * ku, bv * kv
    return (_exact_div(p - r + D * (q - s), den, s0),
            _exact_div((au + av) * (gu + gv) - p - q
                       - (bu + bv) * (ku + kv) + r + s, den, s0))


def _pole_sum(values, delta: int, z: QuadRat, t: QuadRat) -> QuadRat:
    """sum_j c_j t^(j+1) for the transform c_j of a degree-delta polynomial p.

    ``values`` yields p(-1-s) (any offset already applied), s = 0..delta, as
    pairs (v_s, scale) with value v_s/scale; a few distinct scales may occur.
    Since c_j = sum_s (-1)^s C(j, s) p(-1-s), the sum is
    S = sum_s (-1)^s p(-1-s) G_s with G_s = sum_{j=s..delta} C(j, s) t^(j+1).
    As 1/(1 - t) = 1 - z,
        G_0 = t (1 - t^(delta+1)) (1 - z),
        G_s = -z G_(s-1) - C(delta+1, s) (1 - z) t^(delta+2).
    G_s is a polynomial in t of degree delta + 1, so g_s = G_s td^(delta+1)
    is an integer pair.  With W = -z zd td, step = zd td and
    k_s = C(delta+1, s) (1 - z) t^(delta+2) td^(delta+2) zd, the recurrence
    reads g_(s+1) = (W g_s - k_(s+1))/step, k_(s+1) = k_s (delta+1-s)/(s+1).

    The sum runs in blocks of B = _BLOCK steps (the last may be shorter),
    so that the full-size values v_s and g_s meet once per block instead of
    once per step.  From s0,
        g_(s0+i) = (alpha_i g_s0 - beta_i k_s0)/eps_i,
        alpha_i = W alpha_(i-1) (s0+i),  eps_i = eps_(i-1) step (s0+i),
        beta_i = W beta_(i-1) (s0+i) + n_i step^(i-1),
    from alpha_0 = eps_0 = 1 and beta_0 = 0, with n_i the product of
    (delta+2-r) for r = s0+1..s0+i: small quadratic integers.  The block's
    terms add up to (X g_s0 - Y k_s0)/eps_(B-1), X = sum (-1)^s v_s alpha_i
    eps_(B-1)/eps_i and Y the same with beta_i, one (X, Y) per scale, and
    g and k advance once by i = B.  Every g_s and k_s is an integer pair,
    so each term v_s g_s is, and so is every block's sum over one scale:
    each division is exact, and a remainder raises ``IntegralityError``.
    """
    D = z.D
    zu, zv, zd = _int_pair(z)
    td = _int_pair(t)[2]
    step = zd * td
    w = (-zu * td, -zv * td)
    tdp = td ** (delta + 1)
    t_top = t ** (delta + 1)
    g0 = t * (1 - t_top) * (1 - z) * tdp
    k = (1 - z) * t_top * t * tdp * step
    g, k = (int(g0.u), int(g0.v)), (int(k.u), int(k.v))
    sums: dict[int, list[int]] = {}
    values = iter(values)
    s0 = 0
    while s0 <= delta:
        size = min(_BLOCK, delta + 1 - s0)
        coeffs = _block_coeffs(w, D, step, delta, s0)
        # X and Y per scale by Horner's rule: each step first scales the
        # block's sums so far by eps_i/eps_(i-1) = step (s0+i)
        acc: dict[int, list[int]] = {}
        for s, (v, scale), (au, av, bu, bv, eps) in zip(
                range(s0, s0 + size), values, coeffs):
            if acc:
                m = step * s
                for x in acc.values():
                    x[0] *= m
                    x[1] *= m
                    x[2] *= m
                    x[3] *= m
            if v:
                if s & 1:
                    v = -v
                x = acc.setdefault(scale, [0, 0, 0, 0])
                x[0] += v * au
                x[1] += v * av
                x[2] += v * bu
                x[3] += v * bv
        for scale, x in acc.items():
            su, sv = _combine(x, g, k, D, eps, s0)
            total = sums.setdefault(scale, [0, 0])
            total[0] += su
            total[1] += sv
        row = next(coeffs)
        g = _combine(row, g, k, D, row[4], s0)
        # k_(s0+size) = k_s0 C(delta+1, s0+size)/C(delta+1, s0)
        num = prod(range(delta + 2 - s0 - size, delta + 2 - s0))
        den = prod(range(s0 + 1, s0 + size + 1))
        k = _exact_div(k[0] * num, den, s0), _exact_div(k[1] * num, den, s0)
        s0 += size
    return sum((QuadRat(Fraction(su, scale * tdp), Fraction(sv, scale * tdp), D)
                for scale, (su, sv) in sums.items()), QuadRat(0, 0, D))


class UVWValues(Frozen):
    """Exact values of the three rational functions at one point.

    At z = x_k the radical parts of U and W and the rational part of V vanish
    identically: U, W and sqrt(2k+1)*V are rational there.
    """

    __slots__ = ("U", "V", "W", "params", "x")
    U: QuadRat
    V: QuadRat
    W: QuadRat
    params: Params
    x: QuadRat


def eval_UVW(params: Params, z: QuadRat) -> UVWValues:
    """Evaluate U, V, W exactly at z (z != 0, 1) via the finite closed forms.

    U uses the transform of A itself; V the transform of A'(. - an) with the
    extra z^{an} factor; W the transform of A''(. - 2an) with z^{2an}.  The
    two shifts land the sums on the index ranges where the transform values
    are nonzero (the doubled and tripled root blocks).  The values of A, A'
    and A'' come from A's root multiset and the transform sums from a
    blocked two-term recurrence, so no polynomial is ever expanded.  A
    transform block that does not divide exactly raises
    ``IntegralityError`` naming the order and the block's first index s0.
    """
    if not z:
        raise DomainError("z = 0 is outside the domain of U, V, W")
    if z == QuadRat(1):
        raise DomainError("z = 1 is a pole of the transform variable")
    t = z / (z - QuadRat(1, 0, z.D))
    shift = params.a * params.n
    e = params.half_bn1
    uvw = []
    for order in range(3):
        try:
            total = _pole_sum(_derivative_values(params, order),
                              params.degree - order, z, t)
        except IntegralityError as exc:
            raise IntegralityError(f"order-{order} {exc.quantity}",
                                   exc.value) from None
        uvw.append(z ** (order * shift - e) * total)
    U, V, W = uvw
    return UVWValues(U=U, V=V, W=W, params=params, x=z)


# ---------------------------------------------------------------------------
# scaling to integers (the construction guarantees integrality; a violation
# is a bug, never something to round away)
# ---------------------------------------------------------------------------

class IntegerForms(Frozen):
    """The integer coefficient pairs of the linear and quadratic forms.

    ell_n = P*alpha_k + Q and m_n = X*alpha_k^2 + Z are exponentially small;
    Y pairs with X in the intermediate linear form X*alpha_k + Y.  A, B, C
    are the three directly scaled integers (R*U, S*(d/Delta)*sqrt(D)*V and
    T*d'*Delta1*(d/Delta)*W); P..Z are assembled from the same ingredients.
    The repr leaves out the scaling ingredients R..d_b2an.
    """

    __slots__ = ("n", "P", "Q", "X", "Y", "Z", "A", "B", "C",
                 "R", "S", "T", "delta", "delta1", "d_bn", "d_b2an")
    _hidden = ("R", "S", "T", "delta", "delta1", "d_bn", "d_b2an")
    n: int
    P: int
    Q: int
    X: int
    Y: int
    Z: int
    A: int
    B: int
    C: int
    R: Rat
    S: Rat
    T: Rat
    delta: int
    delta1: int
    d_bn: int
    d_b2an: int


def scaling_factors(params: Params) -> tuple[Rat, Rat, Rat]:
    """The three normalizing factors (R, S, T) for k even / odd."""
    k, a, b, n = params.k, params.a, params.b, params.n
    e_r = (b * n + 1) // 2
    e_s = ((b - 2 * a) * n + 1) // 2
    e_t = ((b - 4 * a) * n + 1) // 2
    if k % 2 == 0:
        m = k // 2
        return Fraction(1, m**e_r), Fraction(1, m**e_s), Fraction(1, m**e_t)
    two = 2 ** ((3 * (b - 2 * a) * n + 1) // 2)
    return Fraction(two, k**e_r), Fraction(two, k**e_s), Fraction(two, k**e_t)


def _as_int(value: Rat, quantity: str) -> int:
    if value.denominator != 1:
        raise IntegralityError(quantity, value)
    return value.numerator


def scaled_integer_forms(params: Params, uvw: UVWValues,
                         delta: int, delta1: int) -> IntegerForms:
    """Scale the exact U, V, W at x_k into the integer form coefficients.

    Every quantity here is an exact integer; a fractional result aborts with
    the offending name rather than being rounded.
    """
    k = params.k
    D = 2 * k + 1
    if uvw.x != x_point(k):
        raise DomainError("integer forms are defined only at the point x_k")
    U, V, W = uvw.U, uvw.V, uvw.W
    sqV = QuadRat.sqrt_d(D) * V
    for name, val in (("U(x_k)", U), ("sqrt(D)*V(x_k)", sqV), ("W(x_k)", W)):
        if val.v != 0:
            raise IntegralityError(f"radical part of {name}", val.v)

    R, S, T = scaling_factors(params)
    d_bn = d_upto(params.b * params.n)
    d_b2an = d_upto((params.b - 2 * params.a) * params.n)
    dd = Fraction(d_bn, delta)
    if dd.denominator != 1:
        raise IntegralityError("d_bn/Delta", dd)

    A_int = _as_int(R * U.u, "R*U(x_k)")
    B_int = _as_int(S * dd * sqV.u, "S*(d/Delta)*sqrt(D)*V(x_k)")
    C_int = _as_int(T * d_b2an * delta1 * dd * W.u,
                    "T*d'*Delta1*(d/Delta)*W(x_k)")
    P = _as_int(S * dd * U.u, "P")
    Q = _as_int(-S * dd * sqV.u, "Q")
    X = _as_int(T * d_b2an * delta1 * dd * U.u, "X")
    Y = _as_int(-T * d_b2an * delta1 * dd * sqV.u, "Y")
    Z = _as_int(-T * d_b2an * delta1 * dd * D * W.u, "Z")
    return IntegerForms(n=params.n, P=P, Q=Q, X=X, Y=Y, Z=Z,
                        A=A_int, B=B_int, C=C_int, R=R, S=S, T=T,
                        delta=delta, delta1=delta1, d_bn=d_bn, d_b2an=d_b2an)


def __getattr__(name):
    # the oracles of .dense load on first use, never for dunders (__path__)
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dense

    return getattr(dense, name)
