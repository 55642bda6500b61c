"""Dyadic balls and the elementary functions on Python ints.

A :class:`Ball` is the interval [man - rad, man + rad] 2^exp: +, -, * are
exact, and rounding, division, ln, roots and powers add their error to the
radius, so every radius is proved end to end.  Centres round as mpmath's
mpf arithmetic does (to nearest, ties to even), so code that rounds where
mpmath did gets its centres bit for bit, and the same order of tied bounds.
Its exact views, centre, bounds and the ends of spanning, are int pairs.

ln and pi give floor(v 2^prec), cos the nearest int, from series whose error
is counted as they run and kept below 2^-20 units by guard bits (R. P. Brent
and P. Zimmermann, Modern Computer Arithmetic, 2010, ch. 4); gamma is a
literal.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering

from .errors import PrecisionError

__all__ = ["Ball", "certify", "prec_of", "ln_fixed", "pi_fixed", "cos_2pi",
           "euler_fixed"]


def prec_of(digits: int) -> int:
    """Bits of a working precision of ``digits`` decimal digits."""
    return max(1, round((digits + 1) * 3.3219280948873626))


def _guard(prec: int) -> int:
    """Guard bits at precision prec, rounded up so that nearby precisions
    share the ln tables."""
    return -(-(prec + prec.bit_length() + 32) // 64) * 64 - prec


def _shift(total: int, err: int, shift: int, nearest: bool = False) -> int:
    """floor (or nearest int) of total/2^shift, total within err units of
    the value; PrecisionError unless err <= 2^(shift-20)."""
    if err > 1 << shift - 20:
        raise PrecisionError(f"a series error of {err} units exceeds {shift} "
                             "guard bits")
    return total + (nearest << shift - 1) >> shift


def _series(a: int, b: int, g: int, alternate: int) -> tuple[int, int]:
    """(S, E): |S - 2^g sum_k s^k (a/b)^(2k+1)/(2k+1)| <= E, ints
    0 <= 3a <= b, s = -1 if ``alternate`` else 1 (atan or atanh of a/b).
    t_0 = floor(2^g a/b), t_k = floor(t_(k-1) a^2/b^2) fall short of their
    terms by under 1 + 1/9 + ... = 9/8, so each of the K nonzero summands
    floor(t_k/(2k+1)) is within 17/8; the rest, under (9/8)(9/8): 3K + 2."""
    t, a2, b2 = (a << g) // b, a * a, b * b
    s = k = 0
    while t:
        q = t // (2 * k + 1)
        s += -q if k & alternate else q
        t = t * a2 // b2
        k += 1
    return s, 3 * k + 2


@lru_cache(maxsize=None)
def _ln_table(r: int, j: int, g: int) -> tuple[int, int]:
    """(T, E), T within E of 2^g ln(1 + j/2^r) = 2^g 2 atanh(j/(2^(r+1)+j)),
    0 <= j <= 2^r; (0, 1, g) is ln 2.  Filled as ln asks, once per key."""
    s, e = _series(j, (2 << r) + j, g, 0)
    return 2 * s, 2 * e


def ln_fixed(man: int, exp: int, prec: int) -> int:
    """floor(ln(man 2^exp) 2^prec) for an int man > 0 (see the module).

    At g = prec + :func:`_guard` bits, man 2^exp = 2^e y, y in [1, 2), and
    Y = floor(2^g y) >= 2^g.  Stage r = 4, 8, ... takes j = floor((Y - 2^g)
    2^(r-g)) < 16 and Y' = floor(Y 2^r/(2^r + j)) in [2^g, 2^g (1 + 2^-r)),
    adding ln(1 + j/2^r) (:func:`_ln_table`).  Each floor of a Y >= 2^g
    moves ln Y under 1 unit.  The rest, 2 atanh(u) with u = (Y - 2^g)/(Y +
    2^g) < 2^-(r+1), sums from v_0 = floor(2^g u), within 3 units (the slope
    of 2 atanh is below 3), v_k = floor(v_(k-1) w/2^g), w = floor(v_0^2/2^g):
    each v_k < 2^g is short of v_0 (v_0/2^g)^(2k) by under 3, so each of the
    K summands is within 4 and the tail within 4: 8K + 11.  e ln 2 at g + h
    bits, h = bitlen(e), shifted by h, is within E_2 + 1."""
    g = prec + _guard(prec)
    n = man.bit_length() - 1
    y = man << g - n if g >= n else man >> n - g
    one, total, err = 1 << g, 0, 1
    for r in range(4, 20 + g // 64, 4):
        j = y - one >> g - r
        if j:
            y = (y << r) // ((1 << r) + j)
            t, e = _ln_table(r, j, g)
            total, err = total + t, err + e + 1
    v = (y - one << g) // (y + one)
    w = v * v >> g
    s = k = 0
    while v:
        s += v // (2 * k + 1)
        v = v * w >> g
        k += 1
    total, err = total + 2 * s, err + 8 * k + 11
    if exp + n:
        h = abs(exp + n).bit_length()
        t, e = _ln_table(0, 1, g + h)
        total, err = total + ((exp + n) * t >> h), err + e + 1
    return _shift(total, err, g - prec)


@lru_cache(maxsize=None)
def pi_fixed(prec: int) -> int:
    """floor(pi 2^prec) (see the module): pi = 16 atan(1/5) - 4 atan(1/239)
    by :func:`_series`."""
    g = _guard(prec)
    s5, e5 = _series(1, 5, prec + g, 1)
    s239, e239 = _series(1, 239, prec + g, 1)
    return _shift(16 * s5 - 4 * s239, 16 * e5 + 4 * e239, g)


def cos_2pi(q: int, prec: int) -> int:
    """cos(2 pi/q) 2^prec within 1/2 + 2^-16 units, for an int q >= 1.

    At G = prec + :func:`_guard` + 16 bits, t = floor(2 pi_fixed(G)/(q 2^8))
    is within 2 units of theta = 2 pi/(q 2^8) < 2^-5.  Taylor's series is
    c = sum (-1)^k v_k, v_0 = 2^G, v_k = floor(v_(k-1) w/((2k-1) 2k 2^G)),
    w = floor(t^2/2^G): with multipliers below 2^-11 each v_k is short of its
    term by under 2, the tail and t's error are under 1 unit each, so c is
    within e_0 = 2K + 2.  Eight doublings c <- floor(c^2/2^(G-1)) - 2^G take
    an error e to at most 4e + 2 (|cos| <= 1), so to 4^8 (e_0 + 1) in all."""
    big = prec + _guard(prec) + 16
    t = (pi_fixed(big) << 1) // (q << 8)
    w = t * t >> big
    c, v, k = 0, 1 << big, 0
    while v:
        c += -v if k & 1 else v
        k += 1
        v = (v * w >> big) // ((2 * k - 1) * 2 * k)
    for _ in range(8):
        c = (c * c >> big - 1) - (1 << big)
    return _shift(c, 4 ** 8 * (2 * k + 3), big - prec, nearest=True)


# floor(gamma 2^2048), checked against mpmath in the tests
_EULER = int(
    "93c467e37db0c7a4d1be3f810152cb56a1cecc3af65cc0190c03df34709affbd"
    "8e4b59fa03a9f0eed0649ccb621057d11056ae9132135a08e43b4673d74bafea"
    "58deb878cc86d733dbe7bf38154b36cf8a96d1567899aaae0c09d4c8b6b7b86f"
    "d2a1ea1de62ff8643ec7c271827977225e6ac2f0bd61c746961542a3ce3bea5d"
    "b54fe70e63e6d09f8fc28658e80567a47cfde60ee741e5d85a7bd46931ced822"
    "0365594964b839896fcaabccc9b31959c083f22ad3ee591c32fab2c7448f2a05"
    "7db2db49ee52e0182741e53865f004cc8e704b7c5c40bf304c4d8c4f13edf604"
    "7c555302d2238d8ce11df2424f1b66c2c5d238d0744db679af2890487031f9c0", 16)


def euler_fixed(prec: int) -> int:
    """floor(gamma 2^prec) for prec <= 2048, more than psi asks for at 510
    digits and denominators below 2^50; PrecisionError above."""
    if prec > 2048:
        raise PrecisionError(f"Euler's constant is held to 2048 bits, not {prec}")
    return _EULER >> 2048 - prec


@total_ordering
class Ball:
    """The real interval [man - rad, man + rad] 2^exp, rad >= 0; compared
    and printed by its centre."""

    __slots__ = ("man", "exp", "rad")

    def __init__(self, man: int, exp: int = 0, rad: int = 0):
        self.man, self.exp, self.rad = man, exp, rad

    def spanning(self, lo: tuple[int, int], hi: tuple[int, int],
                 exp: int = 0) -> Ball:
        """The ball of this centre, in units 2^32 times finer, that holds
        [lo, hi] 2^exp, lo and hi int pairs (num, den), den > 0: radius
        max(man - floor(lo 2^s), ceil(hi 2^s) - man, 0), s = exp - self.exp
        + 32, in ints."""
        man, s = self.man << 32, exp - self.exp + 32
        t = max(0, -s)
        (ln, ld), (hn, hd) = lo, hi
        return Ball(man, self.exp - 32, max(man - (ln << s + t) // (ld << t),
                                            -((-hn << s + t) // (hd << t)) - man, 0))

    def centre(self):
        """The exact centre as an int pair (num, den)."""
        return self.man << max(self.exp, 0), 1 << max(-self.exp, 0)

    def bounds(self):
        """The exact ends as int pairs (num, den)."""
        return (self - self.radius()).centre(), (self + self.radius()).centre()

    def radius(self) -> Ball:
        return Ball(self.rad, self.exp)

    def _align(self, other):
        if isinstance(other, int):
            other = Ball(other)
        elif not isinstance(other, Ball):
            return None
        e = min(self.exp, other.exp)
        return (self.man << self.exp - e, self.rad << self.exp - e,
                other.man << other.exp - e, other.rad << other.exp - e, e)

    def __add__(self, other):
        if (parts := self._align(other)) is None:
            return NotImplemented
        m, r, om, orad, e = parts
        return Ball(m + om, e, r + orad)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.man, self.exp, self.rad)

    def __abs__(self):
        return Ball(abs(self.man), self.exp, self.rad)

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, Ball)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Ball(other)
        elif not isinstance(other, Ball):
            return NotImplemented
        return Ball(self.man * other.man, self.exp + other.exp, abs(self.man)
                    * other.rad + abs(other.man) * self.rad + self.rad * other.rad)

    __rmul__ = __mul__

    def _cmp(self, other):
        parts = self._align(other)
        return None if parts is None else (parts[0] > parts[2]) - (parts[0] < parts[2])

    def __lt__(self, other):
        return NotImplemented if (c := self._cmp(other)) is None else c < 0

    def __eq__(self, other):
        return NotImplemented if (c := self._cmp(other)) is None else c == 0

    def __hash__(self):  # the centre's, m 2^e mod 2^61 - 1 (or 2^31 - 1)
        return hash(self.man << self.exp % 1891)  # 2^1891 = 2^(61*31) = 1 there

    def __float__(self):  # as Fraction's: the int quotient, correctly rounded
        return int.__truediv__(*self.centre())

    def ldexp(self, n: int) -> Ball:
        return Ball(self.man, self.exp + n, self.rad)

    def rnd(self, prec: int) -> Ball:
        """The centre to prec significant bits, to nearest, ties to even;
        the radius rounded up, plus that half unit."""
        m, s = abs(self.man), abs(self.man).bit_length() - prec
        if s <= 0:
            return self
        t = m >> s - 1
        m = (t >> 1) + (t & 1 and (t & 2 or m & (1 << s - 1) - 1) != 0)
        return Ball(m if self.man > 0 else -m, self.exp + s, -(-self.rad >> s) + 1)

    def _nonzero(self, what: str, positive: bool = False) -> int:
        """|man|; PrecisionError where the ball holds 0 (or, if it must be
        positive, a value below 0)."""
        if abs(self.man) <= self.rad or positive and self.man < 0:
            raise PrecisionError(f"{what} {self.to_str(10)} +- "
                                 f"{self.radius().to_str(3)}")
        return abs(self.man)

    def div(self, other, prec: int) -> Ball:
        """self/other, other an int or a ball without 0: the quotient of
        the centres to prec + 5 bits or more, a sticky bit for a remainder,
        rounds as the exact one; |x/y - X/Y| <= (r_x |Y| + |X| r_y)/(|Y|
        (|Y| - r_y)) for x, y within r_x, r_y of X, Y."""
        other = other if isinstance(other, Ball) else Ball(other)
        m, r, a = other._nonzero("a quotient by"), other.rad, abs(self.man)
        s = max(prec - a.bit_length() + m.bit_length() + 5, 5)
        q, rem = divmod(a << s, m)
        q, s = (2 * q + 1, s + 1) if rem else (q, s)
        rad = -(-((self.rad * m + a * r) << s) // (m * (m - r))) + 1
        sign = -1 if (self.man < 0) != (other.man < 0) else 1
        return Ball(sign * q, self.exp - other.exp - s, rad).rnd(prec)

    def pow(self, n: int, prec: int) -> Ball:
        """self^n, n >= 1, the centre as mpmath's mpf_pow_int: exact when
        n = 2 or n bitlen(M) < 1000, M the odd part of the mantissa, else by
        squaring at w = prec + 4 bitlen(n) + 4 bits, each product cut toward
        0 to w bits, so under 2^(1-w) relative each; as squaring doubles a
        relative error, P errs by under (4n + bitlen(n)) 2^(1-w) <=
        2^(bitlen(n)+4-w) relative.  For u = r/|X| <= 1/(2n),
        |x^n - X^n| <= |X|^n n u (1 + u)^(n-1) <= |X|^n n u (1 + 2nu)."""
        m = self._nonzero("a power of")
        if 2 * n * self.rad > m:
            raise PrecisionError(f"a power {n} of a ball too wide for it")
        tz = (m & -m).bit_length() - 1
        odd, ex = m >> tz, self.exp + tz
        if n == 2 or odd.bit_length() * n < 1000:
            p, e, err = odd ** n, ex * n, 0
        else:
            w = prec + 4 * n.bit_length() + 4
            p, e, k = 1, 0, n
            while k:
                if k & 1:
                    cut = max((p := p * odd).bit_length() - w, 0)
                    p, e = p >> cut, e + ex + cut
                if k := k >> 1:
                    cut = max((odd := odd * odd).bit_length() - w, 0)
                    odd, ex = odd >> cut, 2 * ex + cut
            err = (p >> w - n.bit_length() - 4) + 1
        t = max(0, prec + 2 - p.bit_length())  # units fine enough for rad
        p, e, err = p << t, e - t, err << t
        big = n * self.rad * (p + 1 + err)
        rad = -(-(big * (m + 2 * n * self.rad)) // (m * m)) + err
        return Ball(-p if self.man < 0 and n & 1 else p, e, rad).rnd(prec)

    def log(self, prec: int) -> Ball:
        """ln to prec bits from :func:`ln_fixed` at prec + 40 fractional
        bits: as the exact ln unless |ln| < 2^-10 or it lies within 2^-28
        units of a rounding boundary.  |ln x - ln X| <= r/(X - r)."""
        m = self._nonzero("ln of", positive=True)
        return Ball(ln_fixed(m, self.exp, prec + 40), -prec - 40,
                    -(-(self.rad << prec + 40) // (m - self.rad)) + 2).rnd(prec)

    def sqrt(self, prec: int) -> Ball:
        """Square root to prec bits: the isqrt to prec + 2 bits or more, a
        sticky bit for a remainder, rounds as the exact root;
        |sqrt x - sqrt X| <= r/(sqrt X + sqrt(X - r)) for x within r of X."""
        m = self._nonzero("a square root of", positive=True)
        t = max(0, 2 * prec - m.bit_length() + 4)
        t += (self.exp - t) & 1
        big, r = m << t, self.rad << t
        root = math.isqrt(big)
        rad = -(-r // (root + math.isqrt(big - r)))
        if root * root != big:
            root, rad, t = 2 * root + 1, 2 * rad, t + 2
        return Ball(root, (self.exp - t) // 2, rad + 2).rnd(prec)

    def to_str(self, sig: int) -> str:
        """The centre as mpmath's nstr(x, sig, strip_zeros=False), byte for
        byte, for |x| in [2^-3500, 2^3500]: its binary-to-decimal steps to
        sig + 3 digits, rounded down, then half up at sig; fixed notation
        for decimal exponents in (min(-(sig//3), -5), sig)."""
        if not self.man:
            return "0.0"
        man = abs(self.man)
        fixprec = max(int((sig + 3) * math.log(10, 2)) + 10 - self.exp
                      - man.bit_length(), 0)
        fixdps = int(fixprec / math.log(10, 2) + 0.5)
        shift = self.exp + fixprec
        man = man << shift if shift >= 0 else man >> -shift
        digits = str(man * 10 ** fixdps >> fixprec)
        exponent = len(digits) - fixdps - 1
        if len(digits) > sig and digits[sig] in "56789":
            digits = str(int(digits[:sig]) + 1)  # 99..9 + 1 gains a digit
            exponent += len(digits) > sig
        digits, split = digits[:sig], 1
        if min(-(sig // 3), -5) < exponent < sig:
            if exponent < 0:
                digits = "0" * -exponent + digits
            else:
                split = exponent + 1
            exponent = 0
        text = f"{'-' if self.man < 0 else ''}{digits[:split]}.{digits[split:]}"
        return f"{text}e{exponent:+d}" if exponent else text


def certify(name: str, value, digits: int) -> None:
    """PrecisionError unless ``value`` is a ball of radius at most
    10^-(digits-5) max(1, |centre|), decided exactly: the rule that
    certifies the digits - 5 leading digits of each published value.  A
    float (a nan or an inf) never passes."""
    if not isinstance(value, Ball):
        raise PrecisionError(f"{name} = {value} is not finite")
    e = min(value.exp, 0)
    if (value.rad * 10 ** (digits - 5) << value.exp - e
            > max(1 << -e, abs(value.man) << value.exp - e)):
        raise PrecisionError(f"{name} = {value.to_str(20)} is certified only to "
                             f"within {value.radius().to_str(3)}, too wide for "
                             f"{digits} digits")
