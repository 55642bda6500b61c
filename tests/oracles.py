"""Grid oracles for the interval description of Omega(a, b), kept with the
tests that use them.  numpy is needed here only; the package does not
import it.

:func:`grid_discrepancies` compares pointwise membership with the interval
set on a literal grid; :func:`certified_grid_check` extends that to every
point of a grid with per-gap constancy certificates plus a random literal
sample.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from irrbounds.errors import DomainError
from irrbounds.omega import (IntervalSet, _breakpoints, _mod_table,
                             _validate_ab, omega_contains)

# grid points per numpy pass of grid_discrepancies (int64: 8 MiB per column)
GRID_CHUNK = 1 << 20


def grid_discrepancies(a: int, b: int, L: int, omega: IntervalSet,
                       indices=None) -> int:
    """Count grid points y = i/L where pointwise membership disagrees with
    the interval description.

    ``indices`` picks the i to scan: a ``range`` (``range(L)`` by default)
    is scanned in chunks of ``GRID_CHUNK`` points, any other iterable as one
    array.  Membership is the integer residue test of :func:`_mod_table`,
    vectorized in int64, and interval containment maps to index windows.
    """
    import numpy as np

    _validate_ab(a, b)
    if b * L >= 2**63:
        raise DomainError(f"grid L = {L} too large: {b}*i overflows int64")
    windows = []
    for iv in omega:
        lo, hi = iv.lo * L, iv.hi * L
        windows.append((math.ceil(lo) if iv.lo_closed else math.floor(lo) + 1,
                        math.floor(hi) if iv.hi_closed else math.ceil(hi) - 1))
    if indices is None:
        indices = range(L)
    if isinstance(indices, range):
        chunks = (np.arange(r.start, r.stop, r.step, dtype=np.int64)
                  for r in (indices[j:j + GRID_CHUNK]
                            for j in range(0, len(indices), GRID_CHUNK)))
    else:
        chunks = [np.fromiter(indices, dtype=np.int64)]

    table = _mod_table(a, b)
    bad = 0
    for i in chunks:
        mods = {m: (m * i) % L for row in table for pair in row for m in pair}
        member = np.ones(i.shape, dtype=bool)
        for row in table:
            ok = np.zeros(i.shape, dtype=bool)
            for m_u, m_w in row:
                ok |= mods[m_u] < mods[m_w]
            member &= ok
        inside = np.zeros(i.shape, dtype=bool)
        for w_lo, w_hi in windows:
            inside |= (i >= w_lo) & (i <= w_hi)
        bad += int(np.count_nonzero(member != inside))
    return bad


@dataclass(frozen=True)
class GridCheck:
    grid_size: int
    breakpoints_checked: int
    gaps_certified: int
    sampled_literal: int
    discrepancies: int


def certified_grid_check(a: int, b: int, L: int, omega: IntervalSet,
                         sample: int = 0, seed: int = 0) -> GridCheck:
    """Establish zero discrepancies over the full grid i/L without touching
    every grid point individually.

    Every floor term in the six-candidate formula is of the form [m*y] with a
    fixed integer coefficient |m| <= b: the pairs of :func:`_mod_table` and
    their differences c3.  On an open gap between consecutive breakpoints,
    each such term is constant as soon as m*y crosses no integer strictly
    inside the gap; that crossing-freeness is checked exactly per gap and per
    coefficient.  Combined with exact membership at every breakpoint (all of
    which are grid points, since lcm(1..b) | L) and at one interior point per
    gap, agreement then holds at every one of the L grid points.  A
    deterministic random sample of grid points is scanned by
    :func:`grid_discrepancies` on top as an independent guard on this very
    argument.
    """
    _validate_ab(a, b)
    for m in range(1, b + 1):
        if L % m:
            raise DomainError(f"L = {L} is not divisible by {m}; breakpoints "
                              "would fall between grid points")
    coeffs = {m for row in _mod_table(a, b) for m_u, m_w in row
              for m in (m_u, m_w, m_u - m_w)}
    coeffs.discard(0)

    pts = _breakpoints(b)
    endpoints = {iv.lo for iv in omega} | {iv.hi for iv in omega}
    bad = 0
    for i, p in enumerate(pts):
        if omega_contains(a, b, p) != omega.contains(p):
            bad += 1
        hi = pts[i + 1] if i + 1 < len(pts) else Fraction(1)
        # constancy certificate: no integer strictly inside (m*p, m*hi)
        for m in coeffs:
            lo_m, hi_m = sorted((m * p, m * hi))
            count = math.ceil(hi_m) - math.floor(lo_m) - 1
            if count > 0:
                raise DomainError(
                    f"floor term {m}*y crosses an integer inside ({p}, {hi}); "
                    "breakpoint lattice is incomplete")
        # the interval description must not subdivide the gap either
        for q in endpoints:
            if p < q < hi:
                raise DomainError(f"interval endpoint {q} inside gap ({p}, {hi})")
        mid = (p + hi) / 2
        if omega_contains(a, b, mid) != omega.contains(mid):
            bad += 1

    sampled = 0
    if sample:
        rng = random.Random(seed)
        idx = (rng.randrange(L) for _ in range(sample))
        bad += grid_discrepancies(a, b, L, omega, indices=idx)
        sampled = sample
    return GridCheck(grid_size=L, breakpoints_checked=len(pts),
                     gaps_certified=len(pts), sampled_literal=sampled,
                     discrepancies=bad)
