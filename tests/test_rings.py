import json
import pickle
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from ltk.rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    RingSpec,
    descend,
    embed,
    fraction_free,
    frobenius,
    inverse_coords,
    log_one_unit,
    make_composite,
    make_ring,
    norm_to_base,
    padic_exp,
    padic_log,
    teichmuller,
    to_json_str,
    trace_to_base,
    valuation,
)

from ltk.series import TruncSeries

from conftest import congruent, exp_reference, log_reference
from det_oracle import det_bareiss, generic_inverse
from eval_oracle import ref_embed


def test_make_ring_examples():
    r = make_ring(2, 8, "ramified_quad", quad=(0, 2))
    assert r.rank == 2
    pi = r.gen_quad()
    assert (pi * pi) == r.from_int(-2)

    z = make_ring(3, 5, "zp")
    assert z.modulus == 243

    c = make_ring(2, 6, "cyclotomic", level=2)
    z4 = c.zeta()
    assert z4 * z4 == c.from_int(-1)  # Phi_4 = x^2 + 1


def test_make_ring_rejections():
    with pytest.raises(DomainError):
        make_ring(4, 5, "zp")
    with pytest.raises(DomainError):
        make_ring(3, 5, "ramified_quad", quad=(0, 9))  # not Eisenstein
    with pytest.raises(DomainError):
        make_ring(3, 5, "unramified_quad", quad=(0, -1))  # x^2-1 reducible
    with pytest.raises(DomainError):
        make_ring(3, 0, "zp")


def test_valuation_examples(q2):
    pi = q2.gen_quad()
    assert valuation(pi) == Fraction(1, 2)
    assert valuation(q2.from_int(2)) == 1
    # (zeta_4 - 1)^2 = -2 zeta_4, checked by exact expansion
    c = make_ring(2, 6, "cyclotomic", level=2)
    t = c.zeta() - c.one()
    assert t * t == c.zeta() * (-2)
    assert valuation(t) == Fraction(1, 2)
    assert valuation(c.zero()) == inf


def test_valuation_additivity(q3, rng):
    for _ in range(20):
        x = q3.elem([rng.randrange(q3.modulus) for _ in range(2)])
        y = q3.elem([rng.randrange(q3.modulus) for _ in range(2)])
        if x.is_zero() or y.is_zero():
            continue
        vx, vy = valuation(x), valuation(y)
        if vx + vy < q3.N - 1:
            assert valuation(x * y) == vx + vy
        s = x + y
        if not s.is_zero():
            assert valuation(s) >= min(vx, vy)


def test_teichmuller(q2, u2):
    assert teichmuller(q2.one()) == q2.one()
    w = u2.gen_quad()
    t = teichmuller(w)
    assert t ** 3 == u2.one()  # q - 1 = 3
    assert teichmuller(t) == t
    # congruent to the seed mod the maximal ideal
    assert valuation(t - w) > 0
    with pytest.raises(DomainError):
        teichmuller(q2.gen_quad())


def test_frobenius(u2):
    w = u2.gen_quad()
    assert frobenius(frobenius(w)) == w
    # fixes Z_p
    assert frobenius(u2.from_int(17)) == u2.from_int(17)
    with pytest.raises(DomainError):
        frobenius(u2.from_int(1)) if False else frobenius(
            make_ring(2, 4, "zp").one())


def test_norm_trace(q2):
    pi = q2.gen_quad()
    nm = norm_to_base(pi)
    assert nm.coords[0] in (2, (-2) % q2.modulus)
    assert trace_to_base(pi).coords[0] == 0
    a = q2.elem((3, 5))
    # norm = product of the two conjugates
    conj = q2.elem((3, (-5) % q2.modulus))
    prod = a * conj
    assert prod.coords[1] == 0
    assert norm_to_base(a).coords[0] == prod.coords[0]


def test_padic_log_exp_examples():
    z3 = make_ring(3, 6, "zp")
    l, _ = padic_log(z3.one())
    assert l.is_zero()
    # exp(log(1 + p^2)) = 1 + p^2 mod p^{N - loss}
    u = z3.from_int(1 + 9)
    l, n1 = padic_log(u)
    e, n2 = padic_exp(l)
    q = 3 ** min(n1, n2)
    assert (e - u).coords[0] % q == 0
    # log((1+p)^p) = p log(1+p) at p = 5
    z5 = make_ring(5, 6, "zp")
    v = z5.from_int(6)
    assert padic_log(v ** 5)[0] == padic_log(v)[0] * 5


def test_log_exp_domain():
    z3 = make_ring(3, 6, "zp")
    with pytest.raises(DomainError, match=r"padic_log needs v\(u - 1\) > 1/\(p - 1\) = 1/2; "
                                          r"v\(u - 1\) = 0"):
        padic_log(z3.from_int(2))
    with pytest.raises(DomainError, match=r"padic_exp needs v\(x\) > 1/\(p - 1\) = 1/2; "
                                          r"v\(x\) = 0"):
        padic_exp(z3.from_int(1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_log_exp_round_trip_with_loss_bound(p, rng):
    spec = make_ring(p, 8, "zp")
    eps = 2 if p == 2 else 1
    for _ in range(10):
        x = rng.randrange(1, spec.modulus // p ** eps) * p ** eps
        u = spec.from_int(1 + x)
        l, n1 = padic_log(u)
        e, n2 = padic_exp(l)
        n = min(n1, n2)
        # worst-case documented loss: sum of ord_p(k) over the terms used
        assert n >= 2
        assert (e - u).coords[0] % p ** n == 0


def test_ramification_data():
    for p in (2, 3, 5):
        ram = make_ring(p, 4, "ramified_quad", quad=(0, p))
        assert ram.ramification_index == 2
        assert valuation(ram.from_int(p)) == 1
    # Phi_p is Eisenstein after x -> x+1 (shifted-Eisenstein test)
    for p in (2, 3, 5):
        coeffs = [1]
        for _ in range(p - 1):  # (x+1)^p - 1 over x, i.e. Phi_p(x+1) * x
            pass
        # direct check: Phi_p(x+1) = ((x+1)^p - 1)/x
        from math import comb
        phi_shift = [comb(p, k) for k in range(1, p + 1)]
        assert phi_shift[-1] == 1
        assert all(c % p == 0 for c in phi_shift[:-1])
        assert phi_shift[0] % p ** 2 != 0
    c3 = make_ring(3, 4, "cyclotomic", level=1)
    assert c3.ramification_index == 2  # phi(3) = 2 at p = 3


@given(a=st.integers(0, 255), b=st.integers(0, 255),
       c=st.integers(0, 255), d=st.integers(0, 255))
@settings(max_examples=25, deadline=None)
def test_ring_axioms_quad(a, b, c, d):
    spec = make_ring(2, 8, "ramified_quad", quad=(0, 2))
    x, y = spec.elem((a, b)), spec.elem((c, d))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    assert x * spec.one() == x


@given(a=st.integers(1, 3 ** 6 - 1))
@settings(max_examples=20, deadline=None)
def test_teichmuller_idempotent(a):
    spec = make_ring(3, 6, "zp")
    x = spec.from_int(a)
    if not x.is_unit():
        return
    t = teichmuller(x)
    assert teichmuller(t) == t
    assert t ** (3 - 1) == spec.one()


def test_json_round_trip(q2, u2):
    for spec in (q2, u2, make_ring(3, 5, "zp"),
                 make_ring(3, 5, "cyclotomic", level=2),
                 make_composite(make_ring(3, 5, "ramified_quad", quad=(0, 3)), 1)):
        assert RingSpec.from_json(spec.to_json()) == spec
        x = spec.elem([i + 1 for i in range(spec.rank)])
        j = json.loads(to_json_str(x))
        assert RingElem.from_json(j) == x
    # the documented wire format, bit for bit
    assert q2.to_json() == {"p": 2, "N": 8, "kind": {"ramified_quad": [0, 2]}}


def test_embed_composite(q3):
    cc = make_composite(q3, 1)
    pi = q3.gen_quad()
    e = embed(pi, cc)
    assert e * e == embed(pi * pi, cc)
    z3 = make_ring(3, 7, "cyclotomic", level=1)
    ze = embed(z3.zeta(), cc)
    assert ze ** 3 == cc.one()


# (ramified, unramified) defining pairs (b, c) of x^2 + b x + c per prime
PLACEMENT_QUADS = {2: ((0, 2), (1, 1)), 3: ((0, 3), (0, 1)), 5: ((0, 5), (0, 2))}


def placement_rings(p, N=5):
    """Z/p^N, its ramified and unramified quadratic rings, and their
    cyclotomic levels 1-3 (cyclotomic and both composites), up to rank 60."""
    ram, unr = (make_ring(p, N, kind, quad=quad) for kind, quad in
                zip(("ramified_quad", "unramified_quad"), PLACEMENT_QUADS[p]))
    levels = [r for n in (1, 2, 3) for r in (make_ring(p, N, "cyclotomic", level=n),
                                             make_composite(ram, n), make_composite(unr, n))]
    return [make_ring(p, N, "zp"), ram, unr] + [r for r in levels if r.rank <= 60]


@pytest.mark.parametrize("p, supported", [(2, 44), (3, 44), (5, 28)])
def test_embed_and_descend_accept_the_same_pairs(p, supported):
    """Every ordered pair of rings both ways: where ring arithmetic embeds
    base in target, embed agrees with it and descend round-trips; where it
    does not, embed and descend both raise DomainError.  Among the refused
    descents at p = 3: Z/3^5 to the ramified ring (once an IndexError), the
    ramified w to the unramified ring and the level-1 ramified composite's
    one to the unramified ring (once silently the unramified w and 1)."""
    rng = random.Random(p)
    rings = placement_rings(p)
    count = 0
    for base in rings:
        for target in rings:
            x = base.elem([rng.randrange(base.modulus) for _ in range(base.rank)])
            y = target.elem([rng.randrange(target.modulus) for _ in range(target.rank)])
            try:
                want = ref_embed(x, target)
            except DomainError:
                with pytest.raises(DomainError):
                    embed(x, target)
                with pytest.raises(DomainError):
                    descend(y, base)
                continue
            count += 1
            assert embed(x, target) == want
            assert descend(want, base) == x
    assert count == supported


# -- the one-unit logarithm: every claimed digit ---------------------------------


def test_padic_log_counts_the_dropped_terms():
    # over Z_5[w], w^2 = -5, at N = 2: h = 7w has v(h^4) = 2, so the stored h^4
    # is 0 mod 5^2, but h^5 / 5 has valuation 3/2 and is only 0 mod 5.  The sum
    # runs at 5^(N + 1), where that term is counted, and holds all N digits
    spec = make_ring(5, 2, "ramified_quad", quad=(0, 5))
    h = spec.elem((0, 7))
    val, n = padic_log(spec.one() + h)
    assert n == 2
    assert congruent(val, log_reference(h), 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_log_digits_match_the_reference(p):
    rng = random.Random(p)
    for N in range(2, 9):
        for spec in (make_ring(p, N, "zp"),
                     make_ring(p, N, "ramified_quad", quad=(0, p))):
            count = 0
            for _ in range(200):
                h = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
                if h.is_zero() or valuation(h) <= Fraction(1, p - 1):
                    continue
                val, n = padic_log(spec.one() + h)
                assert congruent(val, log_reference(h), n), (spec, h, n)
                count += 1
                if count == 12:
                    break


def test_log_one_unit_precision_closed_form():
    # the log of every lift agrees mod p^N, so n_eff = N for an element h,
    # also at t <= 1/(p - 1), once the sum runs at p^(N + S), S the largest
    # a with p^a t - a < N: S = 1, 2 and 3 below
    z = make_ring(2, 4, "zp")
    w = make_ring(2, 2, "ramified_quad", quad=(0, 2)).gen_quad()
    for h, t in ((z.from_int(4), 2), (z.from_int(2), 1), (w, Fraction(1, 2))):
        val, n = log_one_unit(h, t)
        assert n == h.spec.N
        assert congruent(val, log_reference(h), n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_exp_digits_match_the_reference(p):
    # every digit padic_exp claims is a digit of exp(x), and it claims all N
    rng = random.Random(p)
    for N in range(2, 9):
        for spec in (make_ring(p, N, "zp"),
                     make_ring(p, N, "ramified_quad", quad=(0, p))):
            count = 0
            for _ in range(200):
                x = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
                if x.is_zero() or valuation(x) <= Fraction(1, p - 1):
                    continue
                val, n = padic_exp(x)
                assert n == N
                assert congruent(val, exp_reference(x), n), (spec, x)
                count += 1
                if count == 12:
                    break


def test_log_and_exp_refuse_a_composite_that_splits():
    # Q_3(sqrt -3) holds zeta_3, so this composite is Q_3(zeta_3) x Q_3(zeta_3)
    # and its `valuation` averages over the two factors: h below reads 3/4
    bad = make_composite(make_ring(3, 4, "ramified_quad", quad=(0, 3)), 1)
    h = bad.elem((73, 44, 68, 74))
    assert valuation(h) == Fraction(3, 4)
    with pytest.raises(DomainError, match=r"padic_log: the ring .*composite.* may be no field"):
        padic_log(bad.one() + h)
    with pytest.raises(DomainError, match=r"padic_exp: the ring .*composite.* may be no field"):
        padic_exp(h)
    # the composite with an unramified quadratic ring is a field, and is kept
    good = make_composite(make_ring(3, 8, "unramified_quad", quad=(0, 1)), 1)
    h = (good.zeta() - good.one()) ** 2
    val, n = padic_log(good.one() + h)
    assert n == 8 and congruent(val, log_reference(h), n)


def test_log_one_unit_errors_name_what_was_needed():
    z3 = make_ring(3, 6, "zp")
    with pytest.raises(DomainError, match=r"log_one_unit: the sum converges neither X-adically "
                                          r".* nor p-adically \(it needs t > 0; t = 0\)"):
        log_one_unit(z3.from_int(3), 0)
    # 1 + zeta (zeta - 1) over Z_2[zeta_16], v = 1/8: its log is not integral
    cyc = make_ring(2, 4, "cyclotomic", level=4)
    h = cyc.zeta() * (cyc.zeta() - cyc.one())
    with pytest.raises(DomainError, match=r"log_one_unit: the value has p\^-1 in its "
                                          r"denominator, which an element cannot carry"):
        log_one_unit(h, valuation(h))


# -- rings the other tests reach only through probes ------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generic_inverse_on_cyclotomic_and_composite_rings(p):
    rng = random.Random(p)
    rings = [r for r in placement_rings(p) if r.level in (1, 2)]
    assert {r.kind for r in rings} == {"cyclotomic", "composite"}
    for spec in rings:
        units = 0
        while units < 4:
            x = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
            if x.is_unit():
                assert x * x.inverse() == spec.one()
                units += 1
        with pytest.raises(DomainError):
            (spec.zeta() - 1).inverse()


# -- the one elimination and the Newton inverse against the eliminations they replace


def _elimination_cases(rng):
    """Square integer matrices of sizes 1-12: random, sparse (pivot searches,
    zero pivots met midway), with their two top rows swapped (an odd row
    permutation), with a row made a combination of two others (singular),
    and with one or two leading columns zero above the last row."""
    for n in range(1, 13):
        for _ in range(4):
            bound = rng.choice((2, 50, 10 ** 6))
            M = [[rng.randrange(-bound, bound + 1) if rng.random() < 0.6 else 0
                  for _ in range(n)] for _ in range(n)]
            yield M
            if n > 1:
                yield [M[1], M[0]] + M[2:]
            if n > 2:
                yield M[:-1] + [[3 * a - b for a, b in zip(M[0], M[1])]]
            for z in (1, 2):
                yield [[0] * min(z, n) + row[z:] if i < n - 1 else row
                       for i, row in enumerate(M)]


def test_fraction_free_matches_bareiss_and_gives_the_adjugate():
    rng = random.Random(21)
    cases = list(_elimination_cases(rng))
    singular = odd = 0
    for M in cases:
        det, adj = fraction_free(M)
        assert det == det_bareiss(M) and adj is None
        n = len(M)
        B = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(n)]
        det_b, adjB = fraction_free(M, B)
        assert det_b == det
        if det == 0:
            assert adjB is None
            singular += 1
            continue
        # M adj(M) B = det(M) B
        assert [[sum(M[i][k] * adjB[k][j] for k in range(n)) for j in range(3)]
                for i in range(n)] == [[det * x for x in row] for row in B]
        swapped = [M[1], M[0]] + M[2:] if n > 1 else None
        if swapped:
            assert fraction_free(swapped)[0] == -det
            odd += 1
    assert singular >= 20 and odd >= 50


@pytest.mark.parametrize("p", [2, 3, 5])
def test_newton_inverse_matches_the_elimination(p):
    rng = random.Random(100 + p)
    rings = [r for r in placement_rings(p) if r.level]
    assert {(r.kind, r.residue_degree) for r in rings} >= {
        ("cyclotomic", 1), ("composite", 1), ("composite", 2)}
    for spec in rings:
        units = 0
        while units < 3:
            c = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)]).coords
            if spec.elem(c).is_unit():
                assert inverse_coords(spec, c) == generic_inverse(spec, c)
                units += 1


def test_pickle_round_trip():
    p = 3
    ram, unr = (make_ring(p, 5, kind, quad=quad) for kind, quad in
                zip(("ramified_quad", "unramified_quad"), PLACEMENT_QUADS[p]))
    specs = [make_ring(p, 5, "zp"), ram, unr, make_ring(p, 5, "cyclotomic", level=2),
             make_composite(ram, 1)]
    assert {s.kind for s in specs} == {"zp", "ramified_quad", "unramified_quad",
                                       "cyclotomic", "composite"}
    rng = random.Random(1)
    for spec in specs:
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        x = spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y * y == x * x
        assert back.mul_coords(x.coords, x.coords) == (x * x).coords
    s = TruncSeries(ram, 6, [1, [2, 1], 0, 5], n_eff=4)
    t = pickle.loads(pickle.dumps(s))
    assert (t.spec, t.cap, t.coeffs, t.n_eff, t.shift) == (s.spec, s.cap, s.coeffs,
                                                            s.n_eff, s.shift)
    assert (t * t).coeffs == (s * s).coeffs
