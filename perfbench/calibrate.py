"""Fixed calibration tasks, none of irrbounds' own code, so that a change to
the program never changes them:

    python3 perfbench/calibrate.py exact    # bignum work, as in the exact forms
    python3 perfbench/calibrate.py bounds   # mpmath and fractions, as in the bounds

run.py times the task that matches a workload's kind of work as a fresh
process right before and right after every request, and divides the
request's time by the mean of the two.  On a shared host whose speed drifts
by up to 1.6x within minutes, that ratio is far steadier than the request
time itself (see README.md).
"""

import sys
from fractions import Fraction

import mpmath as mp


def exact() -> None:
    """A difference triangle and Horner evaluations over large integers."""
    row = [3 ** (12000 + 9 * s) * (s + 1) for s in range(500)]
    for j in range(1, len(row)):
        for s in range(len(row) - j):
            row[s] -= row[s + 1]
    coeffs = [3 ** (4000 + 11 * i) * (i + 1) for i in range(500)]
    for t in range(1, 120):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * -t + c


def bounds() -> None:
    """mpmath arithmetic at 80 digits, as in digamma, and bisection for cubic
    roots over exact fractions, as in the saddle-point isolation."""
    with mp.workdps(80):
        total = mp.mpf(0)
        for i in range(1, 2500):
            x = mp.mpf(i) / 7
            total += mp.log(x) - 1 / (2 * x) + mp.sqrt(x)
    for c in range(2, 42):
        lo, hi = Fraction(1), Fraction(c)
        for _ in range(120):
            mid = (lo + hi) / 2
            if (mid - 1) * (mid - 3) * mid - Fraction(c, 7) * (mid + 1) ** 2 < 0:
                lo = mid
            else:
                hi = mid


TASKS = {"exact": exact, "bounds": bounds}

if __name__ == "__main__":
    TASKS[sys.argv[1]]()
