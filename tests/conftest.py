import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from ltk.rings import RingElem, make_ring, ord_int
from ltk.series import TruncSeries


@pytest.fixture
def rng():
    return random.Random(20260808)


def random_series(spec, cap, rng, unit=True, terms=None):
    """A random series, unit constant term by default."""
    coeffs = []
    n = terms or cap
    for i in range(min(n, cap)):
        coeffs.append(spec.elem([rng.randrange(spec.modulus)
                                 for _ in range(spec.rank)]))
    if unit:
        while not coeffs[0].is_unit():
            coeffs[0] = spec.elem([rng.randrange(spec.modulus)
                                   for _ in range(spec.rank)])
    return TruncSeries(spec, cap, coeffs)


def log_reference(h, extra=25):
    """log(1 + h) for a RingElem or TruncSeries h, summed term by term at
    extra + 8 digits above h's ring until the stored power vanishes.

    Each term k is known mod p^(M - ord_p(k)) at M = N + extra + 8, and
    ord_p(k) <= 8 for every k the tests reach, so the sum is right mod
    p^(N + extra): an oracle for the digits a run at N claims.
    """
    spec = h.spec
    p = spec.p
    big = spec.with_precision(spec.N + extra + 8)
    x = (RingElem(big, h.coords) if isinstance(h, RingElem)
         else TruncSeries(big, h.cap, h.coeffs))
    acc, power, k = x * 0, x, 1
    while not power.is_zero():
        a = ord_int(k, p)
        assert a <= 8
        term = (power * pow(k // p ** a, -1, big.modulus)).divide_exact_p(a)
        acc = acc + term if k % 2 else acc - term
        k += 1
        power = power * x
    return acc


def congruent(a, b, n):
    """Whether two elements or two series agree coordinatewise mod p^n."""
    q = a.spec.p ** n
    rows = lambda x: [x.coords] if isinstance(x, RingElem) else x.coeffs
    return all((x - y) % q == 0 for ca, cb in zip(rows(a), rows(b))
               for x, y in zip(ca, cb))


@pytest.fixture
def z3():
    return make_ring(3, 8, "zp")


@pytest.fixture
def q2():
    return make_ring(2, 8, "ramified_quad", quad=(0, 2))


@pytest.fixture
def q3():
    return make_ring(3, 7, "ramified_quad", quad=(0, 3))


@pytest.fixture
def u2():
    return make_ring(2, 7, "unramified_quad", quad=(1, 1))
