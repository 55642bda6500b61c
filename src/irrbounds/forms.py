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
integers m yields v_r(m) = L^2 A^(r)(-m), r = 0, 1, 2, at one scale L^2,
L = lcm(1..bn), and one transform recurrence takes it for all three r,
streamed, in blocks (after Paterson and Stockmeyer, 1973): O(d)
big-by-small operations and O(d/block) full-size products per form.

Every v_r is an integer.  A is the product of three root blocks
R(y) = C(y + hi, cnt), cnt = hi - lo + 1 <= bn.  Each maps integers to
integers, so R(y0 + y) = sum_{j<=cnt} c_j C(y, j) with integers c_j for
each integer y0.  In this basis C(y, j)'(0) = (-1)^(j-1)/j and
C(y, j)''(0) = 2 (-1)^j H_(j-1)/j, H the harmonic number, whose denominator
divides lcm(1..j-1) j and so lcm(1..j)^2.  As j <= bn, L R'(y0) and
L^2 R''(y0) are integers, and by the product rule so are L A'(y0), a sum
of terms R' R R, and L^2 A''(y0), one of terms R'' R R and R' R' R; so
L^2 A, L^2 A' and L^2 A'' are integers at every integer.  The walk's
harmonic sums read L/x and L^2/x^2 for x <= bn only, so they too are exact.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import comb, factorial, gcd, isqrt, prod

from .errors import DomainError, IntegralityError, PrecisionError
from .exact_arith import Frozen, Params, d_upto
from .fixed import Ball, prec_of
from .omega import delta_products

__all__ = [
    "Params", "UVWValues", "IntegerForms", "VerificationRow", "x_point",
    "eval_UVW", "scaled_integer_forms", "verify_forms",
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


# -- L^2 A^(r)(-m), r = 0, 1, 2, from one walk over m -------------------------

def _root_blocks(params: Params) -> tuple[tuple[int, int], ...]:
    """The three root blocks (lo, hi) of A, innermost first: A(x) times its
    denominator is the product over the blocks of prod_{j=lo..hi} (x + j)."""
    a, b, n = params.a, params.b, params.n
    return ((2 * a * n + 1, (b - 2 * a) * n), (a * n + 1, (b - a) * n), (1, b * n))


def _ends(lo: int, hi: int, m: int) -> tuple[int, int]:
    """(e, f) with sum 1/(j - m) = H(e) - H(f) over the block's roots j != m."""
    return (hi - m if m <= hi else m - hi - 1), m - lo


def _restart(blocks, m: int, L: int, S1: dict, S2: dict) -> list[int]:
    """The three states of ``_walk`` at m, v_r = L^2 A^(r)(-m), from the root
    multiset.  With den A(x) = (x + m)^mu R(x), den = prod cnt! over the
    blocks, cnt = hi - lo + 1, and mu blocks holding m, den A^(r)(-m) is
    r!/(r-mu)! R^(r-mu)(-m) for r >= mu, else 0; at -m, R = q = prod (j - m)
    over the other roots, R'/R = h1, R''/R = h1^2 - h2, h_i = sum 1/(j-m)^i.
    A block holding m puts (-1)^(m-lo)/(cnt C(cnt-1, m-lo)) into q/den, one
    below m (-1)^cnt C(m-lo, cnt); h1, h2 come from S1 = L H, S2 = L^2 H2.
    So L^r A^(r)(-m) = C(r, mu) u P_(r-mu), u = L^mu A^(mu)(-m) and
    P = (1, L h1, L^2 (h1^2 - h2)), and v_r is L^(2-r) times it: h2 is read
    only where mu = 0, so only blocks below m add to it.
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
    return [comb(r, mu) * base * (1, h1, h1 * h1 - h2)[r - mu] * L ** (2 - r)
            if r >= mu else 0 for r in range(3)]


def _walk(params: Params, L: int, last: int):
    """(v0, v1, v2), v_r = L^2 A^(r)(-m), for m = (b-2a)n + 1 .. last; below
    that m every value a transform sum reads is 0.  L = lcm(1..bn) makes
    every state an integer (see the module docstring); a smaller L fails.

    With C = prod (x + hi) and E = prod (x + lo - 1) over the blocks,
    A(x - 1) C(x) = A(x) E(x); with F(x) = A(x - 1) and its derivatives,
        F C = A E,   F' C = A' E + A E' - F C',
        F'' C = A'' E + 2 A' E' + A E'' - 2 F' C' - F C''.
    At x = -m, F^(r) = A^(r)(-m-1).  Times L^2, with C, E and their
    derivatives at -m, they step the three states from m to m + 1:
        v0(m+1) = v0 E / C,
        v1(m+1) = (v1 E + v0 E' - v0(m+1) C') / C,
        v2(m+1) = (v2 E + 2 v1 E' + v0 E'' - 2 v1(m+1) C' - v0(m+1) C'') / C,
    nine small products and three exact divisions by C(-m) (a remainder
    raises ``IntegralityError``).  C(-m) = 0 at m = hi, so the walk starts
    and restarts at each hi + 1, its harmonic sums all from one sweep.
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
            v0, v1, v2 = _restart(blocks, m, L, S1, S2)
        else:
            x1, x2, x3 = hi1 - m + 1, hi2 - m + 1, hi3 - m + 1
            y1, y2, y3 = lo1 - m, lo2 - m, lo3 - m
            C, C1, C2 = x1 * x2 * x3, x1 * x2 + (x1 + x2) * x3, 2 * (x1 + x2 + x3)
            E, E1, E2 = y1 * y2 * y3, y1 * y2 + (y1 + y2) * y3, 2 * (y1 + y2 + y3)
            n0, r0 = divmod(v0 * E, C)
            n1, r1 = divmod(v1 * E + v0 * E1 - n0 * C1, C)
            n2, r2 = divmod(v2 * E + v1 * (2 * E1) + v0 * E2
                            - n1 * (2 * C1) - n0 * C2, C)
            if r0 or r1 or r2:
                raise IntegralityError(f"shift-identity step to m = {m}", next(
                    (q * C + r, C) for q, r in ((n0, r0), (n1, r1), (n2, r2)) if r))
            v0, v1, v2 = n0, n1, n2
        yield v0, v1, v2


# -- the transform sums in O(d) big operations, and U, V, W -------------------

# values per block of _PoleSum.  Median CPU time of eval_UVW at
# (8, 1, 13, n) by block size 32 / 48 / 64 / 96 / 128, the sizes cycled in
# one process, shared 2-core machine: d = 1023 (21 runs) 20.7 / 20.1 /
# 19.6 / 21.3 / 22.4 ms; d = 3333 (15 runs) 262 / 226 / 233 / 240 / 250 ms;
# d = 6633 (9 runs) 1.06 / 0.94 / 0.86 / 0.88 / 0.88 s.  Each size's
# quartiles span 10-25% of its median: only 32 loses clearly, at 6633.
_BLOCK = 64


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


def _horner(values, rows, lead: int, h: int = 0) -> tuple[int, int, int, int]:
    """(X, Y) of ``_PoleSum`` as two integer pairs, X = H_0 and
    Y = lead K_1, from the two Horner passes over ``values`` and their
    ``rows`` of multipliers, both last first, from H = h above the top row."""
    hu, hv, ku, kv = h, 0, 0, 0
    for v, (p, q, x, mu, y) in zip(values, rows):
        ku, kv = hu + y * ku, hv + y * kv
        hu, hv = hu * p + hv * q + v * mu, hu * x + hv * p
    return hu, hv, lead * ku, lead * kv


class _PoleSum:
    """sum_j c_j t^(j+1) for the transforms c_j of three polynomials p_r,
    r = 0, 1, 2, each of degree at most delta, fed v_s = p_r(-1-s) times a
    fixed scale, s = 0..delta, by :meth:`run`.

    Since c_j = sum_s (-1)^s C(j, s) p(-1-s), the sum is
    S = sum_s (-1)^s p(-1-s) G_s with G_s = sum_{j=s..delta} C(j, s) t^(j+1),
    one G_s for all three, as c_j = 0 for j > deg p.  As 1/(1 - t) = 1 - z,
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
    (delta+2-r) for r = s0+1..s0+i.  So a block's terms add up to
    (X g_s0 - Y k_s0)/E, E = eps_(B-1), with X = sum_i c_i alpha_i mu_i and
    Y = sum_i c_i beta_i mu_i, c_i = (-1)^s v_s at s = s0 + i and
    mu_i = E/eps_i.  Two descending Horner passes (:func:`_horner`) make
    them from small multipliers and one mu_i per value: from H_B = K_B = 0,
        H_i = H_(i+1) W (s0+i+1) + c_i mu_i,
        K_i = H_i + (delta+1-s0-i) step K_(i+1),
    X = H_0 and Y = (delta+1-s0) K_1, as Y = sum_(i>=1) n_i step^(i-1) H_i.
    The same passes advance g: g_(s0+B) is the sum of the one value c_B = 1
    just past the block, with mu_B = 1 over eps_B = E step (s0+B).  Its
    row's multipliers meet only H = K = 0, so the passes over the block's
    own rows, started from H_B = c_B mu_B = 1, give X = alpha_B and
    Y = beta_B; a row of its own in the block would put the factor
    step (s0+B) into every mu_i of the block's sums.  k advances by
    C(delta+1, s0+B)/C(delta+1, s0).
    Order r reads its block r shift values after order 0: each order forms
    its (X, Y) as its block fills, from the block's multipliers, and order 2
    combines all three with g and k, which then advance by i = B.  Every g_s,
    k_s and v_s g_s, so every block sum, is an integer pair: a remainder
    raises ``IntegralityError`` naming the block's first index s0, and the
    order where it is one order's sum.
    """

    __slots__ = ("delta", "D", "w", "step", "tdp", "g", "k", "open", "sums")

    def __init__(self, delta: int, common, tdp: int, g, k):
        # common = (D, W, step), tdp = td^(delta+1)
        self.delta, self.tdp, self.g, self.k = delta, tdp, g, k
        self.D, self.w, self.step = common
        self.open, self.sums = {}, [(0, 0)] * 3

    @classmethod
    def at(cls, delta: int, z: tuple, D: int) -> _PoleSum:
        """The sum at z = (zu + zv sqrt(D))/zd.  With T = t td, as
        (1 - z) t = -z, the seeds are g_0 = z (T^(delta+1) - td^(delta+1))
        and k_0 = -z zd td T^(delta+1)."""
        zu, zv, zd = z
        tu, tv, td = _canon(*_mul((zu, zv), (zu - zd, -zv), D),
                            (zu - zd) ** 2 - D * zv * zv, D)
        w, step, tdp = (-zu * td, -zv * td), zd * td, td ** (delta + 1)
        ku, kv = _mul((zu, zv), _pow((tu, tv), delta + 1, D), D)
        g0 = (_exact_div(ku - zu * tdp, zd, "pole-sum seed"),
              _exact_div(kv - zv * tdp, zd, "pole-sum seed"))
        return cls(delta, (D, w, step), tdp, g0, (-ku * td, -kv * td))

    def run(self, values, shift: int) -> None:
        """Order r reads the r-th entry of the i-th of ``values`` as v_s,
        s = i - r shift, for s = 0..delta."""
        delta, bufs = self.delta, ([], [], [])
        for i, u in enumerate(values):
            for r, buf in enumerate(bufs):
                s = i - r * shift
                if 0 <= s <= delta:
                    buf.append(u[r])
                    if len(buf) == _BLOCK or s == delta:
                        self._block(r, s + 1 - len(buf), buf)
                        buf.clear()

    def _block(self, r: int, s0: int, buf: list) -> None:
        D, step, delta, size = self.D, self.step, self.delta, len(buf)
        lead = delta + 1 - s0
        if not r:  # the multipliers of H and K per value, last value first
            (wu, wv), rows, mu = self.w, [], 1
            for s in range(s0 + size - 1, s0 - 1, -1):
                f = s + 1
                rows.append((wu * f, D * wv * f, wv * f, -mu if s & 1 else mu,
                             (delta - s) * step))
                e, mu = mu, mu * step * s
            self.open[s0] = [e, rows]
        entry = self.open[s0]
        entry.append(_horner(reversed(buf), entry[1], lead) if any(buf)
                     else (0, 0, 0, 0))
        if r < 2:
            return
        e, rows, *hks = self.open.pop(s0)
        for order, hk in enumerate(hks):
            pair = _combine(hk, self.g, self.k, D, e,
                            f"order-{order} pole-sum block at s0 = {s0}")
            self.sums[order] = [x + y for x, y in zip(self.sums[order], pair)]
        if s0 + size <= delta:
            # g_(s0+B): the block sum of the unit value c_B = 1 just past
            # the block, from H_B = c_B mu_B = 1, over eps_B
            where = f"pole-sum block at s0 = {s0}"
            unit = _horner(repeat(0), rows, lead, 1)
            self.g = _combine(unit, self.g, self.k, D, e * step * (s0 + size),
                              where)
            # k_(s0+B) = k_s0 C(delta+1, s0+B)/C(delta+1, s0)
            rise = prod(range(s0 + 1, s0 + size + 1))
            num = prod(range(delta + 2 - s0 - size, lead + 1))
            self.k = tuple(_exact_div(x * num, rise, where) for x in self.k)


class UVWValues(Frozen):
    """Exact values of the three rational functions at one point.

    At z = x_k the radical parts of U and W and the rational part of V vanish
    identically: U, W and sqrt(2k+1)*V are rational there.  U, V, W and x
    are int tuples (u, v, e, D), each (u + v sqrt(D))/e in the canonical form
    of ``_canon``, so two values compare equal exactly when they are equal.
    """

    __slots__ = ("U", "V", "W", "params", "x")
    U: tuple[int, int, int, int]
    V: tuple[int, int, int, int]
    W: tuple[int, int, int, int]
    params: Params
    x: tuple[int, int, int, int]


def eval_UVW(params: Params, z: tuple[int, int, int, int]) -> UVWValues:
    """Evaluate U, V, W exactly at z (z != 0, 1) via the finite closed forms;
    z is an int tuple (u, v, e, D), e != 0 and D >= 1 (else ``DomainError``),
    as :func:`x_point`.

    U uses the transform of A itself; V the transform of A'(. - an) with the
    extra z^{an} factor; W the transform of A''(. - 2an) with z^{2an}: the
    shifts land the sums where the transform values are nonzero.  One
    ``_PoleSum`` at delta = d takes each value of one ``_walk`` at
    L = lcm(1..bn) as it comes, for all three, so the walk runs to
    m = 2an + d + 1; each order's sum is then divided by L^2, the walk's
    scale, and U, V and W are returned in lowest terms.  An inexact step
    raises ``IntegralityError`` naming m, or s0 of a block and, for one
    order's block sum, the order.
    """
    if not z[2] or z[3] < 1:
        raise DomainError("z = (u + v sqrt(D))/e needs e != 0 and D >= 1")
    (zu, zv, zd), D = _canon(*z), z[3]
    if not (zu or zv):
        raise DomainError("z = 0 is outside the domain of U, V, W")
    if not zv and zu == zd:
        raise DomainError("z = 1 is a pole of the transform variable")
    d, shift = params.degree, params.a * params.n
    L = d_upto(params.b * params.n)
    pole = _PoleSum.at(d, (zu, zv, zd), D)
    # order r reads L^2 A^(r)(-m) at m = 1 + r*shift + s, s = 0..d: the
    # walk starts at m = (b-2a)n + 1 = d/3 + 1
    pole.run(chain(repeat((0, 0, 0), d // 3), _walk(params, L, 2 * shift + d + 1)),
             shift)
    # order r carries z^(r*shift - (bn+1)/2), a negative power as b > 4a
    iu, iv, ie = _canon(zd * zu, -zd * zv, zu * zu - D * zv * zv, D)
    U, V, W = ((*_canon(*_mul(_pow((iu, iv), e, D), pole.sums[r], D),
                        ie**e * L * L * pole.tdp, D), D)
               for r in range(3) for e in [params.half_bn1 - r * shift])
    return UVWValues(U=U, V=V, W=W, params=params, x=(zu, zv, zd, D))


# -- scaling to integers ------------------------------------------------------

class IntegerForms(Frozen):
    """The integer coefficient pairs of the linear and quadratic forms.

    ell_n = P*alpha_k + Q and m_n = X*alpha_k^2 + Z are exponentially small;
    Y pairs with X in the intermediate linear form X*alpha_k + Y.
    """

    __slots__ = ("n", "P", "Q", "X", "Y", "Z")
    n: int
    P: int
    Q: int
    X: int
    Y: int
    Z: int


def scaled_integer_forms(uvw: UVWValues) -> IntegerForms:
    """Scale the exact U, V, W at x_k into the integer form coefficients of
    the cell ``uvw.params``, with that cell's (Delta, Delta1) from
    ``delta_products``; a fractional result aborts with the offending name,
    never rounded.

    With R, S, T the normalizing factors, dd = d_bn/Delta and d' = d_(b-2a)n,
    three integers are divided out exactly, in the order the checks report:
        A = R U,  B = S dd sqrt(D) V,  C = T d' Delta1 dd W.
    As S = R base^(an) and T = S base^(an), every other field is a product:
    with t = base^(an) d' Delta1,
        P = A base^(an) dd,  X = P t,  Y = -B t,  Q = -B,  Z = -D C.
    """
    params = uvw.params
    k, a, b, n = params.k, params.a, params.b, params.n
    *x, D = x_point(k)
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

    # R, S, T = top/base^e for e = (cn+1)/2, c = b, b-2a, b-4a, for k even /
    # odd: their denominators are td base^(2an), td base^(an) and td
    top, base = ((1, k // 2) if k % 2 == 0
                 else (2 ** ((3 * (b - 2 * a) * n + 1) // 2), k))
    rise, td = base ** (a * n), base ** (((b - 4 * a) * n + 1) // 2)
    sd = td * rise
    delta, delta1 = delta_products(params)
    dd = _exact_div(d_upto(b * n), delta, "d_bn/Delta")
    d1 = d_upto((b - 2 * a) * n) * delta1
    A = _exact_div(top * uu, sd * rise * ue, "R*U(x_k)")
    B = _exact_div(top * dd * sq, sd * ve, "S*(d/Delta)*sqrt(D)*V(x_k)")
    C = _exact_div(top * d1 * dd * wu, td * we, "T*d'*Delta1*(d/Delta)*W(x_k)")
    P, t = A * rise * dd, rise * d1
    return IntegerForms(n=n, P=P, Q=-B, X=P * t, Y=-B * t, Z=-D * C)


# -- finite-n verification harness --------------------------------------------

class VerificationRow(Frozen):
    __slots__ = ("n", "P", "Q", "X", "Y", "Z", "ell", "m", "decay_linear",
                 "decay_quadratic")
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


def _alpha_combinations(k: int, combos, digits: int) -> list[Ball]:
    """each sum of c * alpha_k^p over (c, p) pairs, c an int and p in
    {0, 1, 2}, one list of pairs per combination, certified to
    10^-(digits+10) relative and nonzero, as a ball at digits + 10 digits.

    A combination is exponentially small against coefficients of thousands
    of bits.  The ball sum of c (A +- E)^p 2^(-p bits), (A, E) the enclosure
    of alpha_k 2^bits, holds its value.  It is accepted when radius
    10^(digits+10) < |centre| - radius, which also proves it nonzero, and
    rounded by a division by 1 at digits + 10 digits.  The first pass sizes
    bits from the coefficients alone: alpha_k's irrationality measure is at
    least 2 and its non-quadraticity measure at least 3 (Dirichlet), so a
    form of degree p from this construction, with c of B bits, lies at most
    about B/p bits below 1; bits starts at B (p+1)//p, the largest over the
    combinations (p at least 1), plus the digits and 64 bits of slack.
    After a pass that fails, bits grows by the shortfall read from the bit
    lengths of centre and radius, plus 16 as E grows with bits, and by at
    least twice its last growth (while the ball holds 0 the centre is
    noise); after MAX_ALPHA_PASSES passes, PrecisionError."""
    scale, prec = 10 ** (digits + 10), prec_of(digits + 10)
    need = scale.bit_length() + 2  # 2^need > 4 * scale

    def start(terms) -> int:  # B (p+1)//p, B the coefficients' bits
        deg = max(1, *(p for _, p in terms))
        return max(abs(c).bit_length() for c, _ in terms) * (deg + 1) // deg

    bits = max(map(start, combos)) + scale.bit_length() + 64
    grow = 0
    for _ in range(MAX_ALPHA_PASSES):
        a, e = _alpha_fixed(k, bits)
        alpha = Ball(a, -bits, e)
        powers = [Ball(1), alpha, alpha * alpha]
        vals, shortfall = [], 0
        for terms in combos:
            value = sum((powers[p] * c for c, p in terms), Ball(0))
            if value.rad * scale < abs(value.man) - value.rad:
                vals.append(value.div(1, prec))
            else:
                shortfall = max(shortfall, value.rad.bit_length() + need
                                - abs(value.man).bit_length())
        if len(vals) == len(combos):
            return vals
        grow = max(shortfall + 16, 2 * grow)
        bits += grow
    raise PrecisionError(f"the enclosure of a form in alpha_{k} is still too "
                         f"wide for {digits} digits after {MAX_ALPHA_PASSES} "
                         "passes")


def verify_forms(k: int, a: int, b: int, n_list,
                 digits: int = 60) -> list[VerificationRow]:
    """Exact integer forms and high-precision form values for each odd n.

    Integrality violations raise IntegralityError naming the quantity.  ell
    and m come from certified enclosures that exclude 0, each sized from its
    own coefficients (:func:`_alpha_combinations`); a form whose enclosure
    stays too wide, as a vanishing form would, raises PrecisionError.  Only
    the exact layers run: neither ``asymptotics`` nor ``measures`` loads.
    """
    rows = []
    for n in n_list:
        params = Params(k=k, a=a, b=b, n=n)
        forms = scaled_integer_forms(eval_UVW(params, x_point(k)))
        ell, m = _alpha_combinations(
            k, [[(forms.P, 1), (forms.Q, 0)], [(forms.X, 2), (forms.Z, 0)]], digits)
        prec = prec_of(digits + 10)
        rows.append(VerificationRow(
            n=n, P=forms.P, Q=forms.Q, X=forms.X, Y=forms.Y, Z=forms.Z,
            ell=ell, m=m, decay_linear=abs(ell).log(prec).div(n, prec),
            decay_quadratic=abs(m).log(prec).div(n, prec)))
    return rows


def __getattr__(name):
    # the oracles of .dense load on first use, never for dunders (__path__)
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dense

    return getattr(dense, name)
