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
products.  The expanded polynomial with its O(d^2) transform,
and the original tail series (with an explicit geometric tail bound), are
kept only as the cross-check oracles ``build_A`` and ``series_uvw``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import factorial, lcm, prod

from .errors import DomainError, IntegralityError
from .exact_arith import Frozen, QuadRat, Rat, d_upto

__all__ = [
    "Params", "IntPoly", "UVWValues", "IntegerForms",
    "x_point", "build_A", "shift_poly", "derivative", "tail_transform_coeffs",
    "eval_UVW", "scaled_integer_forms", "series_uvw",
]


class Params(Frozen):
    """Index k of alpha_k plus the construction parameters (a, b, n).

    b and n must be odd so that (bn+1)/2 and the power-of-two exponents in
    the scaling factors are integers; b > 4a keeps the three root blocks of
    the product polynomial nested.
    """

    __slots__ = ("k", "a", "b", "n")
    k: int
    a: int
    b: int
    n: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.k < 1 or self.a < 1 or self.b < 1 or self.n < 1:
            raise ValueError("k, a, b, n must all be positive")
        if self.b % 2 == 0:
            raise ValueError(f"b must be odd, got {self.b}")
        if self.n % 2 == 0:
            raise ValueError(f"n must be odd, got {self.n}")
        if self.b <= 4 * self.a:
            raise ValueError(f"need b > 4a, got b={self.b}, a={self.a}")

    @property
    def degree(self) -> int:
        return 3 * (self.b - 2 * self.a) * self.n

    @property
    def half_bn1(self) -> int:
        return (self.b * self.n + 1) // 2


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


# ---------------------------------------------------------------------------
# dense oracles (tests only): the expanded polynomial, its transform
# coefficients and their radical sum, the route eval_UVW replaced
# ---------------------------------------------------------------------------

class IntPoly:
    """Dense polynomial with exact rational coefficients, ascending degree.

    Internally keeps integer coefficients over a single positive denominator;
    the heavy transforms below stay in pure integer arithmetic that way.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for c in fracs:
            den = lcm(den, c.denominator)
        nums = [int(c * den) for c in fracs]
        while nums and nums[-1] == 0:
            nums.pop()
        self._num = nums
        self._den = den

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "IntPoly":
        self = object.__new__(cls)
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if den < 0:
            den, nums = -den, [-c for c in nums]
        self._num = nums
        self._den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def __call__(self, t) -> Fraction:
        if isinstance(t, int):
            return Fraction(self._eval_num(t), self._den)
        t = Fraction(t)
        acc = Fraction(0)
        for c in reversed(self._num):
            acc = acc * t + c
        return acc / self._den

    def _eval_num(self, t: int) -> int:
        acc = 0
        for c in reversed(self._num):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        g = lcm(self._den, other._den)
        a, b = g // self._den, g // other._den
        return [c * a for c in self._num] == [c * b for c in other._num]

    def __repr__(self):
        return f"IntPoly(degree={self.degree})"


def build_A(params: Params) -> IntPoly:
    """The product of the three binomial-coefficient factors.

    Built by incremental multiplication with the factorial normalizers split
    off into the shared denominator, so intermediate coefficients never leave
    integer arithmetic.  Degree 3(b-2a)n; roots fill -1..-bn with the blocks
    -(an+1)..-(b-a)n doubled and -(2an+1)..-(b-2a)n tripled.
    """
    a, b, n = params.a, params.b, params.n
    nums = [1]
    for lo, hi in ((2 * a * n + 1, (b - 2 * a) * n),
                   (a * n + 1, (b - a) * n),
                   (1, b * n)):
        for j in range(lo, hi + 1):
            out = [0] * (len(nums) + 1)
            for i, c in enumerate(nums):
                out[i] += j * c
                out[i + 1] += c
            nums = out
    den = 1
    for m in ((b - 4 * a) * n, (b - 2 * a) * n, b * n):
        f = 1
        for i in range(2, m + 1):
            f *= i
        den *= f
    return IntPoly._raw(nums, den)


def shift_poly(p: IntPoly, s: int) -> IntPoly:
    """Taylor shift: the polynomial q with q(x) = p(x + s)."""
    if not isinstance(s, int):
        raise DomainError("only integer shifts are supported")
    nums = list(p._num)
    for i in range(len(nums) - 1):
        for j in range(len(nums) - 2, i - 1, -1):
            nums[j] += s * nums[j + 1]
    return IntPoly._raw(nums, p._den)


def derivative(p: IntPoly, order: int = 1) -> IntPoly:
    if order < 0:
        raise DomainError("derivative order must be >= 0")
    nums = p._num
    for _ in range(order):
        nums = [i * c for i, c in enumerate(nums)][1:]
    return IntPoly._raw(nums, p._den)


# coefficient transform:  -sum_{k>=1} P(-k) z^k = sum_j c_j (z/(z-1))^{j+1}

def _transform_nums(p: IntPoly, offset: int = 0) -> tuple[list[int], int]:
    """Numerators of the transform coefficients of x -> p(x - offset).

    c_j = sum_{k=1}^{j+1} (-1)^{k-1} p(-k-offset) C(j, k-1) computed by the
    signed difference triangle T[s][j] = T[s][j-1] - T[s+1][j-1] seeded with
    T[s][0] = p(-1-offset-s): subtractions only, no bignum-by-binomial
    products.  Returns (numerators over p's denominator, denominator).
    """
    d = p.degree
    if d < 0:
        return [], p._den
    row = [p._eval_num(-(1 + offset + s)) for s in range(d + 1)]
    out = [row[0]]
    for j in range(1, d + 1):
        for s in range(d - j + 1):
            row[s] -= row[s + 1]
        out.append(row[0])
    return out, p._den


def tail_transform_coeffs(p: IntPoly) -> list[Rat]:
    """Exact coefficients c_0..c_d of the geometric-pole expansion of p's tail
    series; for |z| < 1 the identity
    -sum_{k>=1} p(-k) z^k = sum_j c_j (z/(z-1))^{j+1} holds."""
    nums, den = _transform_nums(p)
    return [Fraction(c, den) for c in nums]


def _radical_sum(nums: list[int], den: int, t: QuadRat) -> QuadRat:
    """sum_j (nums[j]/den) * t^(j+1) over a single common denominator."""
    td = lcm(t.u.denominator, t.v.denominator)
    tu = int(t.u * td)
    tv = int(t.v * td)
    D = t.D
    jmax = len(nums) - 1
    su = sv = 0
    pu, pv = tu, tv                 # integer pair of t^(j+1), scaled by td^(j+1)
    scale = td**jmax if jmax >= 0 else 1  # td^(jmax - j), common denominator below
    for j in range(jmax + 1):
        if nums[j]:
            m = nums[j] * scale
            su += m * pu
            sv += m * pv
        pu, pv = pu * tu + D * pv * tv, pu * tv + pv * tu
        scale //= td
    full = den * td ** (jmax + 1)
    return QuadRat(Fraction(su, full), Fraction(sv, full), D)


# ---------------------------------------------------------------------------
# series oracle (reference path; exact truncation + exact tail bound)
# ---------------------------------------------------------------------------

def series_uvw(params: Params, z: Rat, terms: int):
    """Truncated tail series for U, V, W at rational z plus exact tail bounds.

    Returns ((U, V, W), (tail_U, tail_V, tail_W)) where each value is the
    truncation of the defining series after ``terms`` summation indices and
    each tail is a proven Rat bound on the truncation error, from the
    geometric ratio of |A(-t) z^t| beyond the cutoff and the pointwise bounds
    |A'| <= |A|*h, |A''| <= |A|*(h^2 + h2) with h, h2 the (decreasing)
    inverse-distance sums to the root multiset.
    """
    z = Fraction(z)
    if not 0 < z < 1:
        raise DomainError("series converges for 0 < z < 1 only")
    a, b, n = params.a, params.b, params.n
    K = terms
    if K <= params.degree + b * n:
        raise DomainError("truncation must reach beyond the root blocks")

    A = build_A(params)
    A1 = derivative(A)
    A2 = derivative(A, 2)
    e = params.half_bn1
    pref = z ** (-e)

    sU = sum((A(-t) * z**t for t in range(b * n + 1, K + 1)), Fraction(0))
    sV = sum((A1(-t) * z**t for t in range((b - a) * n + 1, K + 1)), Fraction(0))
    sW = sum((A2(-t) * z**t for t in range((b - 2 * a) * n + 1, K + 1)), Fraction(0))

    t0 = K + 1
    ratio = z * Fraction((t0 - 2 * a * n) * (t0 - a * n) * t0,
                         (t0 - (b - 2 * a) * n) * (t0 - (b - a) * n) * (t0 - b * n))
    if ratio >= 1:
        raise DomainError(f"tail ratio {ratio} >= 1; increase terms")
    h = Fraction(0)
    h2 = Fraction(0)
    for lo, hi in _root_blocks(params):
        for c in range(lo, hi + 1):
            h += Fraction(1, t0 - c)
            h2 += Fraction(1, (t0 - c) ** 2)
    tail_first = abs(A(-t0)) * z**t0 / (1 - ratio)
    tails = (pref * tail_first,
             pref * h * tail_first,
             pref * (h * h + h2) * tail_first)
    return (-pref * sU, -pref * sV, -pref * sW), tails
