"""The packed-integer series kernel against schoolbook references.

The references below share no code with the kernel: ring products multiply
coordinate vectors as polynomials in w and x and reduce them by long
division by Phi_{p^level}(x) and the quadratic polynomial; quotient-ring
products reduce by long division by the monic modulus; series products are
the coefficient-by-coefficient convolution.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ltk.lubin_tate import QuotientRing, build_group
from ltk.rings import make_composite, make_ring
from ltk.series import TruncSeries, packed_compose, packed_mul

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
        assert K.reduce_block(unit) == mul(basis[i], basis[j]), s


@pytest.mark.parametrize("name", sorted(quotient_rings()))
def test_quotient_mul_matches_schoolbook(name):
    E = quotient_rings()[name]
    rng = random.Random(name)
    for _ in range(20):
        a = E.elem([rng.randrange(E.base.modulus) for _ in range(E.rank)])
        b = E.elem([rng.randrange(E.base.modulus) for _ in range(E.rank)])
        assert E.mul(a, b) == ref_quot_mul(E, a, b)


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
