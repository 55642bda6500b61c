"""Exact evaluation of the three rational functions U, V, W that make up the
linear and quadratic forms, and their scaling to integers.

The evaluation route is fully finite: the tail-series transform turns each
tail series into a polynomial in t = z/(z-1), which at the algebraic point
x_k has t = (1 - sqrt(2k+1))/2, so every value lives in Q(sqrt(2k+1)) and is
computed in integer arithmetic.  A of degree d is never expanded (the
expanded A is the test oracle ``build_A`` of ``irrbounds.dense``): one walk
over the integers m yields u_r(m) = L^r A^(r)(-m), r = 0, 1, 2, at one scale
L = lcm(1..d), and the three transform sums take it in lockstep, streamed,
in blocks (after Paterson and Stockmeyer, 1973): O(d) big-by-small
operations and O(d/block) full-size products per form.

Every u_r is an integer.  A is a product of binomial coefficients, so
y -> A(y0 + y) maps integers to integers for each integer y0, and
A(y0 + y) = sum_{j<=d} c_j C(y, j) with integers c_j.  In this basis
C(y, j)'(0) = (-1)^(j-1)/j and C(y, j)''(0) = 2 (-1)^j H_(j-1)/j, H the
harmonic number, whose denominator divides lcm(1..j-1) j and so
lcm(1..j)^2.  As j <= d, L A'(y0) and L^2 A''(y0) are integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import comb, factorial, lcm, prod

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


def _exact_div(num: int, den: int, where: str) -> int:
    """num/den, exact by construction: a remainder is reported, never rounded."""
    quo, rem = divmod(num, den)
    if rem:
        raise IntegralityError(where, Fraction(num, den))
    return quo


# ---------------------------------------------------------------------------
# L^r A^(r)(-m), r = 0, 1, 2, from one walk over m
# ---------------------------------------------------------------------------

def _root_blocks(params: Params) -> tuple[tuple[int, int], ...]:
    """The three root blocks (lo, hi) of A, innermost first: A(x) times its
    denominator is the product over the blocks of prod_{j=lo..hi} (x + j)."""
    a, b, n = params.a, params.b, params.n
    return ((2 * a * n + 1, (b - 2 * a) * n), (a * n + 1, (b - a) * n), (1, b * n))


def _ends(lo: int, hi: int, m: int) -> tuple[int, int]:
    """(e, f) with sum 1/(j - m) = H(e) - H(f) over the block's roots j != m."""
    return (hi - m if m <= hi else m - hi - 1), m - lo


def _restart(blocks, m: int, L: int, S1: dict, S2: dict) -> list[int]:
    """The six states of ``_walk`` at m, from the root multiset.  With
    den A(x) = (x + m)^mu R(x), den = prod cnt! over the blocks,
    cnt = hi - lo + 1, and mu blocks holding m, den A^(r)(-m) is
    r!/(r-mu)! R^(r-mu)(-m) for r >= mu, else 0; at -m, R = q = prod (j - m)
    over the other roots, R'/R = h1, R''/R = h1^2 - h2, h_i = sum 1/(j-m)^i.
    A block holding m puts (-1)^(m-lo)/(cnt C(cnt-1, m-lo)) into q/den, one
    below m (-1)^cnt C(m-lo, cnt); h1, h2 come from S1 = L H, S2 = L^2 H2.
    So u_r = C(r, mu) u_mu P_(r-mu), P = (1, L h1, L^2 (h1^2 - h2)): h2 is
    read only where mu = 0, so only blocks below m add to it.
    """
    mu, num, den, h1, h2 = 0, 1, 1, 0, 0
    for lo, hi in blocks:
        cnt, (e, f) = hi - lo + 1, _ends(lo, hi, m)
        h1 += S1[e] - S1[f]
        if m <= hi:
            mu += 1
            num *= (-1) ** f
            den *= cnt * comb(cnt - 1, f)
        else:
            num *= (-1) ** cnt * comb(f, cnt)
            h2 += S2[f] - S2[e]
    base = _exact_div(factorial(mu) * L**mu * num, den, f"L^{mu} A^({mu})(-{m})")
    u0, u1, u2 = (comb(r, mu) * base * (1, h1, h1 * h1 - h2)[r - mu]
                  if r >= mu else 0 for r in range(3))
    return [u0, L * u0, L * L * u0, u1, L * u1, u2]


def _walk(params: Params, L: int, last: int):
    """(u0, u1, u2), u_r = L^r A^(r)(-m), for m = (b-2a)n + 1 .. last; below
    that m every value a transform sum reads is 0.

    With C = prod (x + hi) and E = prod (x + lo - 1) over the blocks,
    A(x - 1) C(x) = A(x) E(x); with F(x) = A(x - 1) and its derivatives,
        F C = A E,   F' C = A' E + A E' - F C',
        F'' C = A'' E + 2 A' E' + A E'' - 2 F' C' - F C''.
    At x = -m, F^(r) = A^(r)(-m-1).  Scaled by L^r, these step six integer
    states, u0, L u0, L^2 u0, u1, L u1 and u2, from m to m + 1 by small
    products and one exact division by C(-m) each (a remainder raises
    ``IntegralityError``).  C(-m) = 0 at m = hi, so the walk starts and
    restarts at each hi + 1, its harmonic sums all from one sweep.
    """
    blocks = _root_blocks(params)
    points = [hi + 1 for _, hi in blocks]
    want = {x for m in points for lo, hi in blocks for x in _ends(lo, hi, m)}
    S1, S2, s1, s2, L2 = {0: 0}, {0: 0}, 0, 0, L * L
    for x in range(1, max(want) + 1):
        s1 += L // x
        s2 += L2 // (x * x)
        if x in want:
            S1[x], S2[x] = s1, s2
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = blocks
    for m in range(points[0], last + 1):
        if m in points:
            u0, la, l2a, u1, la1, u2 = _restart(blocks, m, L, S1, S2)
        else:
            x1, x2, x3 = hi1 - m + 1, hi2 - m + 1, hi3 - m + 1
            y1, y2, y3 = lo1 - m, lo2 - m, lo3 - m
            C, C1, C2 = x1 * x2 * x3, x1 * x2 + (x1 + x2) * x3, 2 * (x1 + x2 + x3)
            E, E1, E2 = y1 * y2 * y3, y1 * y2 + (y1 + y2) * y3, 2 * (y1 + y2 + y3)
            nla, r0 = divmod(la * E, C)
            nl2a, r1 = divmod(l2a * E, C)
            nla1, r2 = divmod(la1 * E + l2a * E1 - nl2a * C1, C)
            u0, r3 = divmod(u0 * E, C)
            u1, r4 = divmod(u1 * E + la * E1 - nla * C1, C)
            u2, r5 = divmod(u2 * E + la1 * (2 * E1) + l2a * E2
                            - nla1 * (2 * C1) - nl2a * C2, C)
            if r0 or r1 or r2 or r3 or r4 or r5:
                raise IntegralityError(f"shift-identity step to m = {m}", next(
                    q + Fraction(r, C) for q, r in ((nla, r0), (nl2a, r1), (nla1, r2),
                                                    (u0, r3), (u1, r4), (u2, r5)) if r))
            la, l2a, la1 = nla, nl2a, nla1
        yield u0, u1, u2


# ---------------------------------------------------------------------------
# the transform sums in O(d) big operations, and U, V, W
# ---------------------------------------------------------------------------

def _int_pair(x: QuadRat) -> tuple[int, int, int]:
    """(u, v, e) with x = (u + v sqrt(D))/e in integers, e > 0."""
    e = lcm(x.u.denominator, x.v.denominator)
    return (x.u.numerator * (e // x.u.denominator),
            x.v.numerator * (e // x.v.denominator), e)


# values per block of _PoleSum.  Median CPU time of eval_UVW by block size,
# shared 2-core machine: d = 1023 (21 runs) 48 ms at 32, 46 at 48 and 64, 49
# at 96; d = 3333 (7 runs) 0.40 s at 32 and 48, 0.37 at 64, 0.43 at 96;
# d = 6633 (3 runs) 1.95 s at 48, 1.82 at 64, 1.77 at 96.
_BLOCK = 64


def _beta(w: tuple[int, int], D: int, step: int, delta: int, s0: int,
          size: int) -> tuple[int, int]:
    """beta_size of ``_PoleSum``, an integer pair; nk is n_i step^(i-1)."""
    wu, wv = w
    bu, bv, nk = 0, 0, 1
    for r in range(s0 + 1, s0 + size + 1):
        nk *= delta + 2 - r
        bu, bv = bu * (wu * r) + bv * (D * wv * r) + nk, bu * (wv * r) + bv * (wu * r)
        nk *= step
    return bu, bv


def _combine(c, g: tuple[int, int], k: tuple[int, int], D: int, den: int,
             where: str) -> tuple[int, int]:
    """(alpha g - beta k)/den as an integer pair, alpha = c[0] + c[1] sqrt(D),
    beta = c[2] + c[3] sqrt(D); three multiplications per quadratic product."""
    au, av, bu, bv = c
    (gu, gv), (ku, kv) = g, k
    p, q, r, s = au * gu, av * gv, bu * ku, bv * kv
    return (_exact_div(p - r + D * (q - s), den, where),
            _exact_div((au + av) * (gu + gv) - p - q
                       - (bu + bv) * (ku + kv) + r + s, den, where))


class _PoleSum:
    """sum_j c_j t^(j+1) for the transform c_j of a degree-delta polynomial p,
    fed v_s = p(-1-s) times a fixed scale, s = 0..delta, one at a time.

    Since c_j = sum_s (-1)^s C(j, s) p(-1-s), the sum is
    S = sum_s (-1)^s p(-1-s) G_s with G_s = sum_{j=s..delta} C(j, s) t^(j+1).
    As 1/(1 - t) = 1 - z,
        G_0 = t (1 - t^(delta+1)) (1 - z),
        G_s = -z G_(s-1) - C(delta+1, s) (1 - z) t^(delta+2).
    G_s is a polynomial in t of degree delta + 1, so g_s = G_s td^(delta+1)
    is an integer pair.  With W = -z zd td, step = zd td and
    k_s = C(delta+1, s) (1 - z) t^(delta+2) td^(delta+2) zd, the recurrence
    reads g_(s+1) = (W g_s - k_(s+1))/step, k_(s+1) = k_s (delta+1-s)/(s+1).

    In blocks of B = _BLOCK values (the last may be shorter) the full-size
    v_s and g_s meet once per block.  From s0,
        g_(s0+i) = (alpha_i g_s0 - beta_i k_s0)/eps_i,
        alpha_i = W alpha_(i-1) (s0+i),  eps_i = eps_(i-1) step (s0+i),
        beta_i = W beta_(i-1) (s0+i) + n_i step^(i-1),
    from alpha_0 = eps_0 = 1 and beta_0 = 0, with n_i the product of
    (delta+2-r) for r = s0+1..s0+i.  So the block's terms add up to
    (X g_s0 - Y k_s0)/E, E = eps_(B-1), with X = sum_i c_i alpha_i mu_i and
    Y = sum_i c_i beta_i mu_i, c_i = (-1)^s v_s at s = s0 + i and
    mu_i = E/eps_i.  Two descending Horner passes make them from small
    multipliers and one mu_i per value: from H_B = K_B = 0,
        H_i = H_(i+1) W (s0+i+1) + c_i mu_i,
        K_i = H_i + (delta+1-s0-i) step K_(i+1),
    X = H_0 and Y = (delta+1-s0) K_1, as Y = sum_(i>=1) n_i step^(i-1) H_i.
    Then g and k advance by i = B.  Every g_s, k_s and v_s g_s, so every
    block sum, is an integer pair: a remainder raises ``IntegralityError``
    naming the order and the block's first index s0.
    """

    __slots__ = ("order", "delta", "D", "w", "step", "tdp", "g", "k", "s0",
                 "buf", "su", "sv", "w_block", "step_block")

    def __init__(self, order: int, delta: int, z: QuadRat, t: QuadRat):
        self.order, self.delta, self.D = order, delta, z.D
        zu, zv, zd = _int_pair(z)
        td = _int_pair(t)[2]
        self.step = zd * td
        self.w = (-zu * td, -zv * td)
        # alpha_B = W^B rise and eps_B = step^B rise, rise = (s0+B)!/s0!
        w_block = QuadRat(*self.w, z.D) ** _BLOCK
        self.w_block = int(w_block.u), int(w_block.v)
        self.step_block = self.step ** _BLOCK
        self.tdp = td ** (delta + 1)
        t_top = t ** (delta + 1)
        g0 = t * (1 - t_top) * (1 - z) * self.tdp
        k = (1 - z) * t_top * t * self.tdp * self.step
        self.g, self.k = (int(g0.u), int(g0.v)), (int(k.u), int(k.v))
        self.s0, self.buf, self.su, self.sv = 0, [], 0, 0

    def push(self, v: int) -> None:
        buf = self.buf
        buf.append(v)
        if len(buf) == _BLOCK or self.s0 + len(buf) > self.delta:
            self._block()

    def _block(self) -> None:
        buf, s0, delta, step, D = self.buf, self.s0, self.delta, self.step, self.D
        size = len(buf)
        where = f"order-{self.order} pole-sum block at s0 = {s0}"
        if any(buf):
            wu, wv = self.w
            hu, hv, ku, kv, mu = 0, 0, 0, 0, 1
            for i in range(size - 1, -1, -1):
                f = s0 + i + 1
                c = buf[i] * (-mu if (s0 + i) & 1 else mu)
                hu, hv = (hu * (wu * f) + hv * (D * wv * f) + c,
                          hu * (wv * f) + hv * (wu * f))
                if i:
                    x = (delta + 1 - s0 - i) * step
                    ku, kv = hu + x * ku, hv + x * kv
                    mu *= step * (s0 + i)
            n1 = delta + 1 - s0
            su, sv = _combine((hu, hv, n1 * ku, n1 * kv), self.g, self.k, D,
                              mu, where)
            self.su, self.sv = self.su + su, self.sv + sv
        buf.clear()
        self.s0 += size
        if self.s0 <= delta:
            rise = prod(range(s0 + 1, s0 + size + 1))
            row = (*(x * rise for x in self.w_block),
                   *_beta(self.w, D, step, delta, s0, size))
            self.g = _combine(row, self.g, self.k, D, self.step_block * rise, where)
            # k_(s0+B) = k_s0 C(delta+1, s0+B)/C(delta+1, s0)
            num = prod(range(delta + 2 - s0 - size, delta + 2 - s0))
            self.k = tuple(_exact_div(x * num, rise, where) for x in self.k)


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
    are nonzero (the doubled and tripled root blocks).  One ``_walk`` yields
    L^r A^(r)(-m) for all three orders, and the three ``_PoleSum`` take each
    value as it comes, so no list of values is kept.  An inexact step raises
    ``IntegralityError`` naming m, or the order and s0 of a block.
    """
    if not z:
        raise DomainError("z = 0 is outside the domain of U, V, W")
    if z == QuadRat(1):
        raise DomainError("z = 1 is a pole of the transform variable")
    t = z / (z - QuadRat(1, 0, z.D))
    d, shift, L = params.degree, params.a * params.n, d_upto(params.degree)
    sums = [_PoleSum(r, d - r, z, t) for r in range(3)]
    values = chain(repeat((0, 0, 0), (params.b - 2 * params.a) * params.n),
                   _walk(params, L, 2 * shift + d - 1))
    # order r reads A^(r)(-m) at m = 1 + r*shift + s, s = 0..d-r
    for i, u in enumerate(values):
        for r, pole_sum in enumerate(sums):
            if 0 <= i - r * shift <= d - r:
                pole_sum.push(u[r])
    U, V, W = (z ** (r * shift - params.half_bn1) * QuadRat(
        Fraction(s.su, L**r * s.tdp), Fraction(s.sv, L**r * s.tdp), z.D)
        for r, s in enumerate(sums))
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
