"""Exact evaluation of the three rational functions U, V, W that make up the
linear and quadratic forms, their scaling to integers, and verify's harness,
which certifies ell = P alpha_k + Q and m = X alpha_k^2 + Z from one
fixed-point integer enclosure of alpha_k * 2^M.

The evaluation route is fully finite: the tail-series transform turns each
tail series into a polynomial in t = z/(z-1), which at the algebraic point
x_k has t = (1 - sqrt(2k+1))/2, so every value lives in Q(sqrt(2k+1)) and is
computed on int tuples (u, v, e, D) for (u + v sqrt(D))/e, the form the
records hold them in too.  A of degree d is never expanded (the expanded A
is the test oracle ``build_A`` of ``irrbounds.dense``): one walk over the
integers m yields u_r(m) = L^r A^(r)(-m), r = 0, 1, 2, at one scale
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

from itertools import chain, repeat
from math import comb, factorial, gcd, isqrt, lcm, log, prod

from .errors import DomainError, IntegralityError, PrecisionError
from .exact_arith import Frozen, Params, PrimeSieve, d_upto
from .fixed import Ball, prec_of
from .omega import delta_products

__all__ = [
    "Params", "IntPoly", "UVWValues", "IntegerForms", "VerificationRow",
    "x_point", "build_A", "derivative", "eval_UVW", "scaled_integer_forms",
    "verify_forms",
]


# -- Q(sqrt D) on ints --------------------------------------------------------

def _canon(u: int, v: int, e: int, D: int) -> tuple[int, int, int]:
    """(u + v sqrt(D))/e in canonical form: v folded into u where D is a
    perfect square, then in lowest terms with e > 0."""
    r = isqrt(D)
    if r * r == D:
        u, v = u + v * r, 0
    g = gcd(u, v, e) if e > 0 else -gcd(u, v, e)
    return u // g, v // g, e // g


def _mul(x: tuple[int, int], y: tuple[int, int], D: int) -> tuple[int, int]:
    """The product of the int pairs x and y, (u, v) meaning u + v sqrt(D)."""
    return x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pow(x: tuple[int, int], e: int, D: int) -> tuple[int, int]:
    """x^e, e >= 0, left to right, so each product takes the small x."""
    out = (1, 0)
    for bit in bin(e)[2:]:
        out = _mul(out, out, D)
        if bit == "1":
            out = _mul(out, x, D)
    return out


def x_point(k: int) -> tuple[int, int, int, int]:
    """x_k = (k+1 - sqrt(2k+1))/k in (0, 1) as the int tuple (u, v, e, D)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return (*_canon(k + 1, -1, k, 2 * k + 1), 2 * k + 1)


def _exact_div(num: int, den: int, where: str) -> int:
    """num/den, exact by construction: a remainder is reported, never rounded."""
    quo, rem = divmod(num, den)
    if rem:
        raise IntegralityError(where, (num, den))
    return quo


# -- L^r A^(r)(-m), r = 0, 1, 2, from one walk over m -------------------------

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
                    (q * C + r, C) for q, r in ((nla, r0), (nl2a, r1), (nla1, r2),
                                                (u0, r3), (u1, r4), (u2, r5)) if r))
            la, l2a, la1 = nla, nl2a, nla1
        yield u0, u1, u2


# -- the transform sums in O(d) big operations, and U, V, W -------------------

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

    def __init__(self, order: int, delta: int, common, tdp: int, g, k):
        # common = (D, W, step, W^B, step^B), tdp = td^(delta+1)
        self.order, self.delta, self.tdp, self.g, self.k = order, delta, tdp, g, k
        self.D, self.w, self.step, self.w_block, self.step_block = common
        self.s0, self.buf, self.su, self.sv = 0, [], 0, 0

    @classmethod
    def orders(cls, d: int, z: tuple, D: int) -> list[_PoleSum]:
        """The sums for delta = d, d - 1, d - 2 at z = (zu + zv sqrt(D))/zd,
        from one W^B and step^B (alpha_B = W^B rise and eps_B = step^B rise,
        rise = (s0+B)!/s0!), and one T^(d-1), T = t td, and td^(d-1),
        carried up a delta by T and td.  As (1 - z) t = -z, the seeds are
        g_0 = z (T^(delta+1) - td^(delta+1)) and k_0 = -z zd td T^(delta+1)."""
        zu, zv, zd = z[:3]
        tu, tv, td = _canon(*_mul((zu, zv), (zu - zd, -zv), D),
                            (zu - zd) ** 2 - D * zv * zv, D)
        w, step = (-zu * td, -zv * td), zd * td
        common = (D, w, step, _pow(w, _BLOCK, D), step ** _BLOCK)
        top, tdp, sums = _pow((tu, tv), d - 1, D), td ** (d - 1), []
        for r in (2, 1, 0):
            where = f"order-{r} pole-sum seed"
            g0 = tuple(_exact_div(x, zd, where)
                       for x in _mul((zu, zv), (top[0] - tdp, top[1]), D))
            ku, kv = _mul((zu, zv), top, D)
            sums.append(cls(r, d - r, common, tdp, g0, (-ku * td, -kv * td)))
            top, tdp = _mul(top, (tu, tv), D), tdp * td
        return sums[::-1]

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
    identically: U, W and sqrt(2k+1)*V are rational there.  U, V, W and x
    are int tuples (u, v, e, D), each (u + v sqrt(D))/e.
    """

    __slots__ = ("U", "V", "W", "params", "x")
    U: tuple[int, int, int, int]
    V: tuple[int, int, int, int]
    W: tuple[int, int, int, int]
    params: Params
    x: tuple[int, int, int, int]


def eval_UVW(params: Params, z: tuple[int, int, int, int]) -> UVWValues:
    """Evaluate U, V, W exactly at z (z != 0, 1) via the finite closed forms;
    z is an int tuple (u, v, e, D), e != 0 and D >= 1, as :func:`x_point`.

    U uses the transform of A itself; V the transform of A'(. - an) with the
    extra z^{an} factor; W the transform of A''(. - 2an) with z^{2an}: the
    shifts land the sums where the transform values are nonzero.  The three
    ``_PoleSum`` take each value of one ``_walk`` as it comes.  An inexact
    step raises ``IntegralityError`` naming m, or the order and s0 of a block.
    """
    (zu, zv, zd), D = _canon(*z), z[3]
    if not (zu or zv):
        raise DomainError("z = 0 is outside the domain of U, V, W")
    if not zv and zu == zd:
        raise DomainError("z = 1 is a pole of the transform variable")
    d, shift, L = params.degree, params.a * params.n, d_upto(params.degree)
    sums = _PoleSum.orders(d, (zu, zv, zd), D)
    values = chain(repeat((0, 0, 0), (params.b - 2 * params.a) * params.n),
                   _walk(params, L, 2 * shift + d - 1))
    # order r reads A^(r)(-m) at m = 1 + r*shift + s, s = 0..d-r
    for i, u in enumerate(values):
        for r, pole_sum in enumerate(sums):
            if 0 <= i - r * shift <= d - r:
                pole_sum.push(u[r])
    # order r carries z^(r*shift - (bn+1)/2), a negative power as b > 4a
    iu, iv, ie = _canon(zd * zu, -zd * zv, zu * zu - D * zv * zv, D)
    U, V, W = ((*_mul(_pow((iu, iv), e, D), (s.su, s.sv), D),
                ie**e * L**r * s.tdp, D)
               for r, s in enumerate(sums) for e in [params.half_bn1 - r * shift])
    return UVWValues(U=U, V=V, W=W, params=params, x=(zu, zv, zd, D))


# -- scaling to integers ------------------------------------------------------

class IntegerForms(Frozen):
    """The integer coefficient pairs of the linear and quadratic forms.

    ell_n = P*alpha_k + Q and m_n = X*alpha_k^2 + Z are exponentially small;
    Y pairs with X in the intermediate linear form X*alpha_k + Y.  A, B, C
    are the three directly scaled integers (R*U, S*(d/Delta)*sqrt(D)*V and
    T*d'*Delta1*(d/Delta)*W); P..Z are assembled from the same ingredients.
    """

    __slots__ = ("n", "P", "Q", "X", "Y", "Z", "A", "B", "C", "delta",
                 "delta1", "d_bn", "d_b2an")
    _hidden = ("delta", "delta1", "d_bn", "d_b2an")
    n: int
    P: int
    Q: int
    X: int
    Y: int
    Z: int
    A: int
    B: int
    C: int
    delta: int
    delta1: int
    d_bn: int
    d_b2an: int


def scaled_integer_forms(params: Params, uvw: UVWValues,
                         delta: int, delta1: int) -> IntegerForms:
    """Scale the exact U, V, W at x_k into the integer form coefficients;
    a fractional result aborts with the offending name, never rounded."""
    *x, D = x_point(params.k)
    *z, zD = uvw.x
    if z != x or z[1] and zD != D:
        raise DomainError("integer forms are defined only at the point x_k")
    (uu, uv, ue, _), (vu, vv, ve, _), (wu, wv, we, _) = uvw.U, uvw.V, uvw.W
    # sqrt(D) V = (D vv + vu sqrt(D))/ve, folded where D is a square
    r = isqrt(D)
    sq, sqv = (D * vv + r * vu, 0) if r * r == D else (D * vv, vu)
    for name, v, e in (("U(x_k)", uv, ue), ("sqrt(D)*V(x_k)", sqv, ve),
                       ("W(x_k)", wv, we)):
        if v:
            raise IntegralityError(f"radical part of {name}", (v, e))

    # the normalizing factors R, S, T for k even / odd, int pairs in lowest terms
    k, a, b, n = params.k, params.a, params.b, params.n
    top, base = ((1, k // 2) if k % 2 == 0
                 else (2 ** ((3 * (b - 2 * a) * n + 1) // 2), k))
    R, S, T = ((top, base ** ((c * n + 1) // 2)) for c in (b, b - 2 * a, b - 4 * a))
    d_bn, d_b2an = d_upto(b * n), d_upto((b - 2 * a) * n)
    dd = _exact_div(d_bn, delta, "d_bn/Delta")
    (rn, rd), (sn, sd), (tn, td) = R, S, T
    sn, tn = sn * dd, tn * d_b2an * delta1 * dd
    # in the order the checks report: A, B, C, then P, Q, X, Y, Z
    A, B, C, P, Q, X, Y, Z = (_exact_div(num, den, name) for num, den, name in (
        (rn * uu, rd * ue, "R*U(x_k)"),
        (sn * sq, sd * ve, "S*(d/Delta)*sqrt(D)*V(x_k)"),
        (tn * wu, td * we, "T*d'*Delta1*(d/Delta)*W(x_k)"),
        (sn * uu, sd * ue, "P"), (-sn * sq, sd * ve, "Q"),
        (tn * uu, td * ue, "X"), (-tn * sq, td * ve, "Y"),
        (-tn * D * wu, td * we, "Z")))
    return IntegerForms(n=n, P=P, Q=Q, X=X, Y=Y, Z=Z, A=A, B=B, C=C,
                        delta=delta, delta1=delta1, d_bn=d_bn, d_b2an=d_b2an)


# -- finite-n verification harness --------------------------------------------

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
    forms: IntegerForms


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


def __getattr__(name):
    # the oracles of .dense load on first use, never for dunders (__path__)
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dense

    return getattr(dense, name)
