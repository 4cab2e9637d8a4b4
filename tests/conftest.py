import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from ltk.rings import RingElem, make_ring, ord_int, valuation
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


def exp_reference(x, extra=25):
    """exp(x) for a RingElem x with v(x) > 1/(p - 1), or a TruncSeries x
    with x(0) = 0 (stored with a shift or not), summed term by term at
    N + extra digits until the stored power vanishes.

    Term k is x^k / k!, and ord_p(k!) <= (k - 1)/(p - 1).  An element's
    terms from the first K with K (v(x) - 1/(p - 1)) >= N + extra on are so
    0 mod p^(N + extra), and a series' from K = cap on.  Each earlier term
    is a power taken at M = N + extra + D digits, D = s (K - 1) +
    ord_p((K - 1)!) for a shift s, whose p-part of k! (and p^(s k)) is
    divided out exactly for an element and put into the shift for a series;
    so every term, and the sum, is known mod p^(N + extra).  A series
    result carries its denominators in its shift, as formal_exp's does.
    """
    spec = x.spec
    p = spec.p
    if isinstance(x, RingElem):
        lam, t, s, K = Fraction(1, p - 1), valuation(x), 0, 1
        while K * (t - lam) < spec.N + extra:
            K += 1
    else:
        s, K = x.shift, x.cap
    D = s * (K - 1) + sum(ord_int(k, p) for k in range(1, K))
    big = spec.with_precision(spec.N + extra + D)
    if isinstance(x, RingElem):
        xb, acc = RingElem(big, x.coords), big.one()
    else:
        xb, acc = TruncSeries(big, x.cap, x.coeffs, big.N, s), TruncSeries.one(big, x.cap)
    power, fact = xb, 1
    for k in range(1, K):
        if power.is_zero():
            break
        fact *= k
        a = ord_int(fact, p)
        term = power * pow(fact // p ** a, -1, big.modulus)
        if isinstance(x, RingElem):
            acc = acc + term.divide_exact_p(a)
        else:
            acc = acc + TruncSeries(big, x.cap, term.coeffs, big.N, term.shift + a)
        power = power * xb
    return acc


def congruent(a, b, n):
    """Whether two elements or two series agree coordinatewise mod p^n; a
    series stored with a shift is read as the series it represents, so two
    series agree when p^(sb) a and p^(sa) b agree mod p^(n + sa + sb)."""
    sa, sb = (getattr(x, "shift", 0) for x in (a, b))
    q = a.spec.p ** (n + sa + sb)
    rows = lambda x: [x.coords] if isinstance(x, RingElem) else x.coeffs
    return all((x * a.spec.p ** sb - y * a.spec.p ** sa) % q == 0
               for ca, cb in zip(rows(a), rows(b)) for x, y in zip(ca, cb))


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
