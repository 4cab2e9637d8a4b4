"""The packed-integer series kernel against schoolbook references.

The references below share no code with the kernel: ring products multiply
coordinate vectors as polynomials in w and x and reduce them by long
division by Phi_{p^level}(x) and the quadratic polynomial; quotient-ring
products reduce by long division by the monic modulus; series products are
the coefficient-by-coefficient convolution; determinants are the Laplace
oracle (det_oracle.laplace_det) over those series products.
"""

import random
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ltk.lubin_tate import QuotientRing, build_group
from ltk.rings import DomainError, extend, is_unit_coords, make_composite, make_ring
from ltk.series import (MAX_DET_DIM, PackedRows, TruncSeries, _ARRAY_CODES, _inverse, _width,
                        horner, packed_compose, packed_det, packed_mul, packed_times)

from det_oracle import laplace_det
from eval_oracle import ref_horner
from series_oracle import ref_invert

SPECS = {
    "zp": make_ring(3, 13, "zp"),
    "zp2": make_ring(2, 9, "zp"),
    "ramified": make_ring(3, 7, "ramified_quad", quad=(0, 3)),
    "ramified2": make_ring(2, 8, "ramified_quad", quad=(0, 2)),
    "unramified": make_ring(2, 7, "unramified_quad", quad=(1, 1)),
    "cyclotomic1": make_ring(3, 9, "cyclotomic", level=1),
    "cyclotomic2": make_ring(3, 6, "cyclotomic", level=2),
    "cyclotomic_p2_level1": make_ring(2, 9, "cyclotomic", level=1),   # phi = 1
    "cyclotomic_p2_level2": make_ring(2, 9, "cyclotomic", level=2),
    "composite": make_composite(make_ring(3, 7, "ramified_quad", quad=(0, 3)), 1),
    "composite_p2": make_composite(make_ring(2, 6, "unramified_quad", quad=(1, 1)), 2),
}


# -- schoolbook references ---------------------------------------------------------


def ref_elem_mul(spec, a, b):
    """Coordinate vectors multiplied as polynomials in w, x, then reduced."""
    qdeg = 2 if spec.quad is not None else 1
    p, m = spec.p, spec.modulus
    prod = {}
    for c1, x in enumerate(a):
        for c2, y in enumerate(b):
            key = (c1 % qdeg + c2 % qdeg, c1 // qdeg + c2 // qdeg)
            prod[key] = prod.get(key, 0) + x * y
    if spec.level:
        # Phi_{p^n}(x) = sum_{k<p} x^{k step} is monic of degree phi
        step, phi = p ** (spec.level - 1), spec.phi
        for j in range(2 * phi - 2, phi - 1, -1):
            for i in range(3):
                c = prod.pop((i, j), 0)
                for k in range(p - 1 if c else 0):
                    key = (i, j - phi + k * step)
                    prod[key] = prod.get(key, 0) - c
    if qdeg == 2:
        qb, qc = spec.quad
        for j in range(spec.phi):
            c = prod.pop((2, j), 0)
            prod[(1, j)] = prod.get((1, j), 0) - qb * c
            prod[(0, j)] = prod.get((0, j), 0) - qc * c
    out = [0] * spec.rank
    for (i, j), c in prod.items():
        out[i + qdeg * j] = (out[i + qdeg * j] + c) % m
    return tuple(out)


def ref_add(m, a, b):
    return tuple((x + y) % m for x, y in zip(a, b))


def ref_quot_mul(E, a, b):
    """Flat coordinates multiplied as polynomials over the base, then the
    top degrees divided out by the monic modulus."""
    base, d = E.base, E.deg
    r, m = base.rank, base.modulus
    A = [a[i * r:(i + 1) * r] for i in range(d)]
    B = [b[i * r:(i + 1) * r] for i in range(d)]
    conv = [(0,) * r for _ in range(2 * d - 1)]
    for i, x in enumerate(A):
        for j, y in enumerate(B):
            conv[i + j] = ref_add(m, conv[i + j], ref_elem_mul(base, x, y))
    for e in range(2 * d - 2, d - 1, -1):
        c = conv[e]
        for i in range(d):
            t = ref_elem_mul(base, c, E.modulus[i].coords)
            conv[e - d + i] = tuple((u - v) % m for u, v in zip(conv[e - d + i], t))
    return tuple(x for c in conv[:d] for x in c)


def ref_series_mul(mul, m, rank, a, b, cap):
    out = [(0,) * rank] * cap
    for i, x in enumerate(a[:cap]):
        for j, y in enumerate(b[:cap - i]):
            out[i + j] = ref_add(m, out[i + j], mul(x, y))
    return out


def ref_compose(mul, m, rank, f, g, cap):
    res = [(0,) * rank] * cap
    for c in reversed(f):
        res = ref_series_mul(mul, m, rank, res, g, cap)
        res[0] = ref_add(m, res[0], c)
    return res


def ring_of(K):
    """(rank, modulus, reference product) of a RingSpec or a QuotientRing."""
    if isinstance(K, QuotientRing):
        return K.packing[0], K.base.modulus, lambda x, y: ref_quot_mul(K, x, y)
    return K.rank, K.modulus, lambda x, y: ref_elem_mul(K, x, y)


def quotient_rings():
    zp = SPECS["zp"]
    ram = SPECS["ramified"]
    return {
        "zp_deg1": QuotientRing(zp, [zp.from_int(3), zp.one()]),
        "zp_deg3": QuotientRing(zp, [zp.from_int(6), zp.from_int(3), zp.from_int(9),
                                     zp.one()]),
        "ram_deg1": QuotientRing(ram, [ram.gen_quad(), ram.one()]),
        "ram_deg2": QuotientRing(ram, [ram.gen_quad(), ram.zero(), ram.one()]),
        "ram_pibar1": build_group(ram, ram.gen_quad(), 3, 24).torsion_quotient_ring(),
    }


PACKED = dict(SPECS, **{"quot_" + k: v for k, v in quotient_rings().items()})


def larger_rings():
    """Rings the workloads and tests build beyond PACKED, up to rank 16."""
    from ltk.lubin_tate import build_tower
    ram = SPECS["ramified"]
    u3 = make_ring(3, 6, "unramified_quad", quad=(0, 1))
    return {
        "composite_level2": make_composite(make_ring(3, 7, "ramified_quad", quad=(0, 3)), 2),
        "unramified_p3": u3,
        "quot_torsion_q9": build_group(u3, 3, 9, 24).torsion_quotient_ring(),
        "quot_tower_level2": build_tower(build_group(ram, ram.gen_quad(), 3, 24), 2).rings[2],
    }


def coeff_lists(K, max_len):
    rank, m, _ = ring_of(K)
    coord = st.one_of(st.sampled_from([0, 0, 1, m - 1]), st.integers(0, m - 1))
    coeff = st.one_of(st.just((0,) * rank), st.tuples(*[coord] * rank))
    return st.lists(coeff, min_size=0, max_size=max_len)


# -- ring products -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_mul_coords_matches_schoolbook(name):
    spec = SPECS[name]
    rng = random.Random(name)
    for _ in range(40):
        a = tuple(rng.randrange(spec.modulus) for _ in range(spec.rank))
        b = tuple(rng.randrange(spec.modulus) for _ in range(spec.rank))
        assert spec.mul_coords(a, b) == ref_elem_mul(spec, a, b)


ALL_RINGS = dict(PACKED, **larger_rings())


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_reduction_map_column_by_column(name):
    """The raw unit vector at each slot of a product block is the product of
    two basis monomials; reduced, it must equal their schoolbook product."""
    K = ALL_RINGS[name]
    rank, block, slots, m = K.packing
    _, _, mul = ring_of(K)
    basis = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    for s in range(block):
        i, j = next((i, j) for i in range(rank) for j in range(rank)
                    if slots[i] + slots[j] == s)
        unit = [0] * block
        unit[s] = 1
        assert K.reduce_blocks(unit) == [mul(basis[i], basis[j])], s


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_reduce_blocks_matches_the_map_block_by_block(name):
    """Raw slot lists of 0 to 7 blocks, signed as packed_det passes them
    once its bias is off: each block reduced through the rows of red_map."""
    K = ALL_RINGS[name]
    rank, block, _, m = K.packing
    red_map = (extend(K.base, [c.coords for c in K.modulus])[1]
               if isinstance(K, QuotientRing) else K.red_map)
    rng = random.Random(name)
    for blocks in (0, 1, 2, 7):
        raw = [rng.choice([0, -1, rng.randrange(-2 ** 70, 2 ** 70)])
               for _ in range(blocks * block)]
        want = [tuple(sum(raw[o + t] * row[i] for t, row in enumerate(red_map)) % m
                      for i in range(rank)) for o in range(0, len(raw), block)]
        assert K.reduce_blocks(raw) == want


@pytest.mark.parametrize("name", sorted(quotient_rings()))
def test_quotient_mul_matches_schoolbook(name):
    E = quotient_rings()[name]
    rng = random.Random(name)
    for _ in range(20):
        a = E.elem([rng.randrange(E.base.modulus) for _ in range(E.rank)])
        b = E.elem([rng.randrange(E.base.modulus) for _ in range(E.rank)])
        assert E.mul(a, b) == ref_quot_mul(E, a, b)


@pytest.mark.parametrize("name", sorted(k for k, K in ALL_RINGS.items()
                                         if isinstance(K, QuotientRing)))
def test_eval_series_matches_ring_horner(name):
    """eval_series on every quotient ring here, tower level 2 and the q = 9
    torsion ring included, against Horner's rule over schoolbook products."""
    E = ALL_RINGS[name]
    rank, m, mul = ring_of(E)
    base, pad = E.base, (0,) * (rank - E.base.rank)
    rng = random.Random(name)
    for cap in (1, 4, 24):
        g = TruncSeries(base, cap, [[rng.randrange(m) for _ in range(base.rank)]
                                    for _ in range(cap)])
        pt = E.elem([rng.randrange(m) for _ in range(rank)])
        want = ref_horner([c + pad for c in g.coeffs], pt, (0,) * rank,
                          lambda a, b: ref_add(m, a, b), mul)
        assert E.eval_series(g, pt) == want


# -- series products and compositions -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(PACKED))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_packed_mul_matches_schoolbook(name, data):
    K = PACKED[name]
    rank, m, mul = ring_of(K)
    a = data.draw(coeff_lists(K, 12))
    b = data.draw(coeff_lists(K, 12))
    cap = data.draw(st.integers(1, 14))
    assert packed_mul(K, a, b, cap) == ref_series_mul(mul, m, rank, a, b, cap)


@pytest.mark.parametrize("name", sorted(PACKED))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_packed_compose_matches_horner(name, data):
    K = PACKED[name]
    rank, m, mul = ring_of(K)
    f = data.draw(coeff_lists(K, 7))
    g = data.draw(coeff_lists(K, 7))   # g(0) need not vanish
    cap = data.draw(st.integers(1, 8))
    assert packed_compose(K, f, g, cap) == ref_compose(mul, m, rank, f, g, cap)
    # evaluation at a point is the composition with a constant, mod X
    pt = g[0] if g else (0,) * rank
    assert horner(K, f, pt) == ref_compose(mul, m, rank, f, [pt], 1)[0]


@pytest.mark.parametrize("name", sorted(PACKED))
def test_edge_shapes(name):
    K = PACKED[name]
    rank, m, mul = ring_of(K)
    rng = random.Random(name)

    def rand(n, density=1.0):
        return [tuple(rng.randrange(m) for _ in range(rank))
                if rng.random() < density else (0,) * rank for _ in range(n)]

    zero = (0,) * rank
    cases = [
        (rand(5), rand(5), 1),          # cap 1
        ([], rand(4), 6),               # empty list
        ([zero] * 6, rand(6), 6),       # zero series
        (rand(9), rand(2), 9),          # unequal lengths
        (rand(3), rand(11), 20),        # cap beyond both
        (rand(20, 0.15), rand(20, 0.15), 20),   # sparse
        (rand(7) + [zero] * 9, rand(4), 16),    # trailing zeros
    ]
    for a, b, cap in cases:
        want = ref_series_mul(mul, m, rank, a, b, cap)
        assert packed_mul(K, a, b, cap) == want
        assert packed_mul(K, b, a, cap) == want
    a = rand(8)
    assert packed_mul(K, a, a, 8) == ref_series_mul(mul, m, rank, a, a, 8)


@pytest.mark.parametrize("name", ["zp", "ramified", "cyclotomic2", "composite",
                                  "quot_ram_deg2"])
def test_slot_width_worst_case(name):
    """Every coordinate p^N - 1 at cap 128: the middle slots reach the full
    min(len a, len b) * rank * (p^N - 1)^2 the slot width is derived for."""
    K = PACKED[name]
    rank, m, mul = ring_of(K)
    a = [(m - 1,) * rank] * 128
    assert packed_mul(K, a, a, 128) == ref_series_mul(mul, m, rank, a, a, 128)


def test_truncseries_product_and_compose_match_schoolbook(rng):
    spec = SPECS["ramified"]
    rank, m, mul = ring_of(spec)
    a = TruncSeries(spec, 24, [spec.elem([rng.randrange(m) for _ in range(2)])
                               for _ in range(24)], n_eff=6)
    b = TruncSeries(spec, 20, [spec.elem([rng.randrange(m) for _ in range(2)])
                               for _ in range(20)], shift=1)
    ab = a * b
    assert ab.cap == 20 and ab.n_eff == 6 and ab.shift == 1
    assert list(ab.coeffs) == ref_series_mul(mul, m, rank, a.coeffs, b.coeffs, 20)
    inner = TruncSeries(spec, 20, [0] + list(b.coeffs[1:]))
    comp = a.compose(inner)
    assert list(comp.coeffs) == ref_compose(mul, m, rank, a.coeffs, inner.coeffs, 20)
    assert comp.n_eff == 6


@pytest.mark.parametrize("width, K, count", [
    (1, make_ring(2, 1, "zp"), 100),
    (2, make_ring(3, 3, "zp"), 32),
    (4, SPECS["ramified"], 128),
    (8, SPECS["zp"], 128),
    (17, make_ring(3, 40, "zp"), 128),
], ids=["1", "2", "4", "8", "17"])
def test_slot_widths_take_their_packing_path(width, K, count):
    """Every coordinate p^N - 1: the middle slots reach count * rank *
    (p^N - 1)^2, which takes slots of width bytes, moved by array up to 8
    bytes and joined byte by byte above."""
    rank, m, mul = ring_of(K)
    assert _width(K, count) == width
    assert (width in _ARRAY_CODES) == (width <= 8)
    a = [(m - 1,) * rank] * count
    assert packed_mul(K, a, a, count) == ref_series_mul(mul, m, rank, a, a, count)


def test_packing_without_array_widths(monkeypatch):
    """A big-endian host has no array widths: slots stay whole bytes, here
    3, and every slot is joined and split byte by byte."""
    from ltk import series
    monkeypatch.setattr(series, "_ARRAY_CODES", {})
    monkeypatch.setattr(series, "_WIDTHS", list(range(9)))
    K, count = make_ring(3, 5, "zp"), 32
    rank, m, mul = ring_of(K)
    assert series._width(K, count) == 3
    a = [(m - 1,) * rank] * count
    assert packed_mul(K, a, a, count) == ref_series_mul(mul, m, rank, a, a, count)
    rows = [[a[:3], a[:2]], [a[:1], a[:3]]]
    assert ragged_det(K, rows, 8) == oracle_det(K, rows, 8)


@pytest.mark.parametrize("caller", ["packed_mul", "packed_times", "_inverse", "combine",
                                    "packed_det"])
def test_whole_byte_slots_hold_each_callers_worst_case(monkeypatch, caller):
    """Slots in whole bytes, as on a big-endian host, over Z/3^5 (r = 1),
    each caller at a sum that fills the width _width gives it for B =
    pairs r (p^N - 1)^2.  The unsigned sums have bit_length(B) = 23, so
    their 3-byte slots hold B with only the sign bit to spare: packed_mul,
    packed_times and combine reach B itself in a middle slot, and
    _inverse's (s mod X^129) v on a random s sums 128 products of
    coordinates below 3^5 in its top slot, far past 2^16.  packed_det's
    3 x 3 sum of entries of L = 80 coefficients has bit_length(B) = 24 and
    needs its sign bit: row 0 is (full, 0, full) and both 2 x 2 minors it
    multiplies reduce to full, so the top sum's Y^(L-1) slot is
    2 L (p^N - 1)^2 >= 2^23, which a 3-byte biased read takes for a
    negative value.  (_inverse's signed read, the Newton
    correction -v e, reaches at most cap / 2 pairs, under half of B, so
    its sign bit is never the one that holds it.)"""
    from ltk import series
    monkeypatch.setattr(series, "_ARRAY_CODES", {})
    monkeypatch.setattr(series, "_WIDTHS", list(range(9)))
    K = make_ring(3, 5, "zp")
    rank, m, mul = ring_of(K)
    full, one = (m - 1,), (1,)
    pairs = {"packed_det": 80, "_inverse": 129}.get(caller, 128)
    a = [full] * pairs
    if caller == "packed_det":
        assert (3 * pairs * (m - 1) ** 2).bit_length() == 24
        assert 2 * pairs * (m - 1) ** 2 >= 2 ** 23
        rows = [[a, [], a], [a, [], [one] * pairs], [[], [one], []]]
        assert ragged_det(K, rows, pairs) == oracle_det(K, rows, pairs)
    elif caller == "_inverse":
        assert (pairs * (m - 1) ** 2).bit_length() == 23
        rng = random.Random("whole bytes")
        s = [one] + [(rng.randrange(m),) for _ in range(pairs - 1)]
        want = ref_inverse(K, s, pairs)
        assert _inverse(K, s, pairs, want[0]) == want
    elif caller == "combine":
        assert (pairs * (m - 1) ** 2).bit_length() == 23
        # the zero last block takes the carries of a narrower width
        got = PackedRows(K, 8, 1, [[full] * 7 + [(0,)]], lambda row: row).combine(a)
        want = (0,)
        for _ in range(pairs):
            want = ref_add(m, want, mul(full, full))
        assert got == [want] * 7 + [(0,)]
    else:
        assert (pairs * (m - 1) ** 2).bit_length() == 23
        cap = 2 * pairs - 1
        got = packed_mul(K, a, a, cap) if caller == "packed_mul" else packed_times(K, a, cap)(a)
        assert got == ref_series_mul(mul, m, rank, a, a, cap)


# -- the Newton inverse ----------------------------------------------------------------


INVERSE_RINGS = {
    "zp_2^14": make_ring(2, 14, "zp"),
    "zp_3^12": make_ring(3, 12, "zp"),
    "zp_5^9": make_ring(5, 9, "zp"),
    "ramified": SPECS["ramified"],
    "unramified": SPECS["unramified"],
    "quot_ram_deg2": quotient_rings()["ram_deg2"],
}


def ref_inverse(K, s, cap):
    """The inverse of s mod X^cap: ref_invert over a RingSpec; over a
    QuotientRing the same recurrence on the reference product, from the
    constant's inverse by the integer elimination (make_divider)."""
    if not isinstance(K, QuotientRing):
        return list(ref_invert(TruncSeries(K, cap, list(s[:cap]))).coeffs)
    rank, m, mul = ring_of(K)
    zero = (0,) * rank
    s = list(s[:cap]) + [zero] * (cap - len(s))
    out = [K.make_divider(s[0])((1,) + zero[1:])]
    for k in range(1, cap):
        acc = zero
        for j in range(k):
            acc = ref_add(m, acc, mul(out[j], s[k - j]))
        out.append(mul(out[0], tuple(-x % m for x in acc)))
    return out


@pytest.mark.parametrize("name", sorted(INVERSE_RINGS))
def test_inverse_matches_schoolbook_at_every_cap(name):
    """_inverse at caps 1-130 on series of 132 coefficients (so longer than
    every cap) or of 2: random; every coordinate p^N - 1, a unit, whose
    products fill the slots; a random head followed by zeros; and 1 + pX
    and 1 + pX^2, whose inverses are polynomials (the exact exit).  The
    inverse mod X^cap is unique, so it is the reference's at 132 cut to cap."""
    K = INVERSE_RINGS[name]
    rank, m, _ = ring_of(K)
    base = K.base if isinstance(K, QuotientRing) else K
    rng = random.Random(name)
    zero, full = (0,) * rank, (m - 1,) * rank
    one, pX = (1,) + zero[1:], (base.p,) + zero[1:]
    rand = lambda: tuple(rng.randrange(m) for _ in range(rank))
    c0 = next(c for c in iter(rand, None) if is_unit_coords(base, c[:base.rank]))
    assert is_unit_coords(base, full[:base.rank])
    shapes = {
        "random": [c0] + [rand() for _ in range(131)],
        "worst": [full] * 132,
        "trailing zeros": [c0] + [rand() for _ in range(19)] + [zero] * 112,
        "1 + pX": [one, pX] + [zero] * 130,
        "1 + pX^2": [one, zero, pX] + [zero] * 129,
        "short": [c0, rand()],
    }
    for shape, s in shapes.items():
        want = ref_inverse(K, s, 132)
        for cap in range(1, 131):
            assert _inverse(K, s, cap, want[0]) == want[:cap], (shape, cap)


# -- determinants ---------------------------------------------------------------------


class RefSeriesRing:
    """K[Y]/(Y^cap) on coefficient lists with the schoolbook product, as a
    protocol ring for the Laplace oracle."""

    def __init__(self, K, cap):
        self.rank, self.m, self.mul_ = ring_of(K)
        self.cap = cap

    def zero(self):
        return [(0,) * self.rank] * self.cap

    def one(self):
        return [(1,) + (0,) * (self.rank - 1)] + self.zero()[1:]

    def add(self, a, b):
        return [ref_add(self.m, x, y) for x, y in zip(a, b)]

    def sub(self, a, b):
        return [tuple((u - v) % self.m for u, v in zip(x, y)) for x, y in zip(a, b)]

    def mul(self, a, b):
        return ref_series_mul(self.mul_, self.m, self.rank, a, b, self.cap)

    def is_zero(self, a):
        return not any(map(any, a))


def oracle_det(K, rows, cap):
    R = RefSeriesRing(K, cap)
    pad = lambda e: (list(e) + R.zero())[:cap]
    return laplace_det(R, [[pad(e) for e in row] for row in rows])


def ragged_det(K, rows, cap):
    """packed_det on rows of entries of any length, each cut to cap, trimmed
    of its trailing zeros and padded to the longest, the rows flattened, as
    lambda_modules.det_series passes them."""
    zero = (0,) * K.packing[0]
    entries = [list(e[:cap]) for row in rows for e in row]
    for e in entries:
        while e and not any(e[-1]):
            e.pop()
    c = max(map(len, entries), default=0)
    return packed_det(K, [x for e in entries for x in e + [zero] * (c - len(e))],
                      len(rows), c, cap)


DET_RINGS = ["zp", "ramified", "unramified", "cyclotomic2", "composite",
             "quot_ram_deg2", "quot_ram_pibar1"]


# the tower ring O'_2 (rank 12) at cap 1 only, the one cap tower norms use
@pytest.mark.parametrize("name, cap", [(name, cap) for name in DET_RINGS
                                       for cap in (1, 8, 24)]
                         + [("quot_tower_level2", 1)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_det_matches_laplace(name, cap, d):
    """Two matrices of random entries of random lengths up to cap + 2, a
    third of them zero, then one with a zero row and one of all ones."""
    K = ALL_RINGS[name]
    rank, m, _ = ring_of(K)
    rng = random.Random(f"{name} {d} {cap}")

    def entry():
        if rng.random() < 1 / 3:
            return []
        return [tuple(rng.randrange(m) for _ in range(rank))
                for _ in range(rng.randrange(1, cap + 3))]

    one = [(1,) + (0,) * (rank - 1)]
    cases = [[[entry() for _ in range(d)] for _ in range(d)] for _ in range(2)]
    cases.append([[[]] * d] + [[entry() for _ in range(d)] for _ in range(d - 1)])
    cases.append([[one] * d for _ in range(d)])
    for rows in cases:
        assert ragged_det(K, rows, cap) == oracle_det(K, rows, cap)


@pytest.mark.parametrize("name", ["zp", "ramified", "cyclotomic2", "composite",
                                  "quot_ram_deg2"])
@pytest.mark.parametrize("d", [3, 4])
def test_packed_det_worst_case(name, d):
    """Every coordinate p^N - 1 in every entry at cap 24.  The last row's
    minors are its entries, so the products in each 2-row minor have middle
    slots of 24 r (p^N - 1)^2, the per-product part of the slot bound
    B = d L r (p^N - 1)^2 (L = 24); the factor d counts the products of one
    signed sum, of which at most ceil(d / 2) can add up when every product
    is nonnegative.  With all entries equal every minor of two rows or more
    is zero; a triangular matrix with two rows swapped has one permutation,
    an odd one, so on Z_p the Y^(cap-1) coefficient of its determinant is
    -C(cap + d - 2, d - 1) (p^N - 1)^d before reduction mod p^N."""
    K, cap = PACKED[name], 24
    rank, m, _ = ring_of(K)
    full = [(m - 1,) * rank] * cap
    tri = [[full if j >= i else [] for j in range(d)] for i in range(d)]
    tri[0], tri[1] = tri[1], tri[0]
    for rows in ([[full] * d for _ in range(d)], tri):
        assert ragged_det(K, rows, cap) == oracle_det(K, rows, cap)
    if name == "zp":
        top = -comb(cap + d - 2, d - 1) * (m - 1) ** d
        assert ragged_det(K, tri, cap)[cap - 1] == (top % m,)


def test_packed_det_sum_reaches_its_slot_bound():
    """Two products of the same sign at their largest: row 0 is (full, 0,
    full) and both 2 x 2 minors it multiplies reduce to full, so the top
    sum's Y^(L-1) slot is 2 L (p^N - 1)^2, two thirds of B = 3 L r (p^N -
    1)^2.  At p^N = 3^18 and L = 40 that is past 2^63, while L (p^N - 1)^2
    alone is not: a width without the factor d would take 8-byte slots,
    whose bias reads it wrong."""
    K, cap = make_ring(3, 18, "zp"), 40
    m = K.modulus
    assert _width(K, cap) == 8
    assert 2 * cap * (m - 1) ** 2 >= 2 ** 63
    assert _width(K, 3 * cap) == 9
    full, ones, one = [(m - 1,)] * cap, [(1,)] * cap, [(1,)]
    rows = [[full, [], full], [full, [], ones], [[], one, []]]
    assert ragged_det(K, rows, cap) == oracle_det(K, rows, cap)


def test_packed_det_refuses_past_its_reach(monkeypatch):
    """d = MAX_DET_DIM + 1 is refused before any entry is packed."""
    from ltk import series
    K, d = SPECS["zp"], MAX_DET_DIM + 1
    with monkeypatch.context() as m:
        m.setattr(series, "_pack_bytes", lambda *a: pytest.fail("packed before refusing"))
        with pytest.raises(DomainError, match="MAX_DET_DIM"):
            packed_det(K, [(1,)] * (d * d), d, 1, 4)
    assert ragged_det(K, [], 3) == [(1,), (0,), (0,)]


# -- sums over packed rows -------------------------------------------------------------


@pytest.mark.parametrize("name, width, stride, L", [
    ("ramified", 3, 27, 24),          # the lt_coleman fiber digits: d = 3, e = 9
    ("quot_tower_level2", 3, 3, 18),  # the norm O'_3 -> O'_2: d = 3, 18 terms
    ("zp_3^18", 1, 8, 128),
])
def test_packed_rows_worst_case(name, width, stride, L):
    """Every coordinate of the rows and of the L terms p^N - 1: the middle
    slot of each block of the sum reaches the bound L r (p^N - 1)^2 its
    width is derived for.  At p^N = 3^18 and L = 128 that is past 2^64
    while r (p^N - 1)^2 alone is not, so a width without the factor L would
    take 8-byte slots and carry out of them."""
    K = make_ring(3, 18, "zp") if name == "zp_3^18" else ALL_RINGS[name]
    rank, m, mul = ring_of(K)
    if name == "zp_3^18":
        assert _width(K, 1) == 8
        assert L * rank * (m - 1) ** 2 >= 2 ** 64
    full = (m - 1,) * rank
    rows = PackedRows(K, stride, width, [[full] * stride], lambda row: row)
    want = (0,) * rank
    for _ in range(L):
        want = ref_add(m, want, mul(full, full))
    assert rows.combine([full] * L) == [want] * (width * stride)
    assert len(rows.rows) == L + width - 1
