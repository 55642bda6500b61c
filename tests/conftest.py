import pytest
from mpmath.libmp import from_man_exp

from irrbounds import PrimeSieve
from irrbounds.fixed import Ball

# mpmath reads a Ball as its exact centre, so a test can pass one to mpmath
Ball._mpf_ = property(lambda self: from_man_exp(self.man, self.exp))


@pytest.fixture(scope="session")
def big_sieve() -> PrimeSieve:
    # large enough for bn = 7 * (10^5 + 1) in the convergence checks
    return PrimeSieve(720_000)


@pytest.fixture(scope="session")
def small_sieve() -> PrimeSieve:
    return PrimeSieve(10_000)
