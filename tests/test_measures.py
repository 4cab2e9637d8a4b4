import random

import pytest
from hypothesis import given, settings, strategies as st

from ltk import measures as MS
from ltk.rings import DomainError, PrecisionExhausted, make_ring
from ltk.series import TruncSeries
from ltk.measures import (
    FiniteCharacter,
    Measure,
    _mult_order_elem,
    coset_mass,
    dirac,
    gauss_sum,
    moment,
    moment_guarantee,
    partition_check,
    restrict_to_units,
    riemann_moment,
    tilde_series,
    twist_eval,
    twist_factorization_report,
    unit_residues,
)

from conftest import random_series
import measures_oracle as MO
from measures_oracle import tilde_mahler

Z12 = make_ring(3, 12, "zp")
Q3_12 = make_ring(3, 12, "ramified_quad", quad=(0, 3))


def test_dirac_examples():
    z = make_ring(3, 8, "zp")
    assert dirac(0, "zp", z, 20).amice.eq_mod(TruncSeries.one(z, 20))
    assert dirac(1, "zp", z, 20).amice.eq_mod(TruncSeries(z, 20, [1, 1]))
    # sigma((1, 2)) = 3 in the okp reading
    q = make_ring(3, 8, "ramified_quad", quad=(0, 3))
    a = q.elem((1, 2))
    mu = dirac(a, "okp", z, 20, okp=q)
    assert mu.amice.eq_mod(TruncSeries(z, 20, [1, 1]).pow_int(3))


def test_dirac_binomials_match_series_powers():
    # (1+T)^e from exact binomials against repeated series products
    cyc = make_ring(3, 6, "cyclotomic", level=1)
    for spec in (make_ring(3, 10, "zp"), cyc, Q3_12):
        for e in (0, 1, 5, 80, -7, spec.modulus + 4):
            got = dirac(e, "zp", spec, 24).amice
            want = TruncSeries(spec, 24, [1, 1]).pow_int(e % spec.modulus)
            assert (got.coeffs, got.n_eff, got.shift) == \
                (want.coeffs, want.n_eff, want.shift)


@pytest.mark.parametrize("level", [1, 2])
def test_tilde_series_on_cyclotomic_value_ring(level):
    # the value ring already holds zeta_{3^level}; the root of unity summed
    # over must still have order p
    import random
    spec = make_ring(3, 10, "cyclotomic", level=level)
    for g in (dirac(5, "zp", spec, 24).amice,
              random_series(spec, 18, random.Random(level), unit=False)):
        t = tilde_series(g)
        assert t.eq_mod(tilde_mahler(g), t.n_eff)


def test_tilde_examples():
    z = make_ring(3, 10, "zp")
    for a, fixed in [(7, True), (4, True), (6, False), (12, False)]:
        g = dirac(a, "zp", z, 32).amice
        t = tilde_series(g)
        if fixed:
            assert t.eq_mod(g, t.n_eff)
        else:
            assert t.eq_mod(TruncSeries.zero(z, 32), t.n_eff)
    c = TruncSeries(z, 32, [11])
    assert tilde_series(c).eq_mod(TruncSeries.zero(z, 32))


def test_tilde_p2():
    z = make_ring(2, 10, "zp")
    g = dirac(5, "zp", z, 24).amice
    t = tilde_series(g)
    assert t.eq_mod(g, t.n_eff)
    g2 = dirac(6, "zp", z, 24).amice
    assert tilde_series(g2).eq_mod(TruncSeries.zero(z, 24), t.n_eff)


@given(st.lists(st.integers(0, 3 ** 10 - 1), min_size=1, max_size=6))
@settings(max_examples=12, deadline=None)
def test_tilde_idempotent_and_oracle(coeffs):
    z = make_ring(3, 10, "zp")
    g = TruncSeries(z, 18, coeffs)
    t1 = tilde_series(g)
    t2 = tilde_mahler(g)
    assert t1.eq_mod(t2, t1.n_eff)
    tt = tilde_series(t1)
    assert tt.eq_mod(t1, tt.n_eff)


def test_tilde_kills_mahler_p_degrees():
    # coefficients of Q^n vanish for p | n when expanded in Q
    z = make_ring(3, 10, "zp")
    import random
    g = random_series(z, 15, random.Random(2), unit=False)
    t = tilde_mahler(g)
    # re-expand tilde(g) in powers of Q and inspect
    spec = z
    b = [spec.zero() for _ in range(15)]
    for m in range(15):
        cm = t.coeff(m)
        if cm.is_zero():
            continue
        binom = 1
        sign = 1 if m % 2 == 0 else -1
        b[0] = b[0] + cm * (sign * binom)
        for r in range(1, m + 1):
            binom = binom * (m - r + 1) // r
            sign = 1 if (m - r) % 2 == 0 else -1
            b[r] = b[r] + cm * (sign * binom)
    for r in range(0, 15, 3):
        assert b[r].is_zero()


def test_coset_mass_dirac_indicator():
    a = Q3_12.elem((4, 3))          # sigma = 7
    mu = dirac(a, "okp", Z12, 64, okp=Q3_12)
    hit, g = coset_mass(mu, Q3_12.elem((7, 0)), 1)
    assert hit.coords[0] % 3 ** g == 1
    miss, _ = coset_mass(mu, Q3_12.elem((2, 0)), 1)
    assert miss.is_zero()
    # level 2 and lift independence (well-definedness)
    v1, _ = coset_mass(mu, Q3_12.elem((7, 0)), 2)
    v2, _ = coset_mass(mu, Q3_12.elem((16, 9)), 2)
    assert v1 == v2
    assert v1.coords[0] % 9 == 1


def test_coset_mass_zero_series():
    mu = Measure(TruncSeries.zero(Z12, 64), "okp", Q3_12)
    for d in ((1, 0), (2, 3)):
        v, _ = coset_mass(mu, Q3_12.elem(d), 1)
        assert v.is_zero()


def test_partition_law():
    a = Q3_12.elem((4, 3))
    b = Q3_12.elem((2, 1))
    mu_a = dirac(a, "okp", Z12, 64, okp=Q3_12)
    mu_b = dirac(b, "okp", Z12, 64, okp=Q3_12)
    comb = Measure(mu_a.amice + mu_b.amice.scale(2), "okp", Q3_12)
    ok, guar = partition_check(comb, 1)
    assert ok and guar >= 3


def test_admissibility_negative_control():
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", Z12, 64, okp=Q3_12)
    bad = Measure(TruncSeries(Z12, 64, list(mu.amice.coeffs), 12, 1),
                  "okp", Q3_12)
    with pytest.raises(PrecisionExhausted):
        coset_mass(bad, Q3_12.elem((7, 0)), 1)


def test_moment_examples():
    mu = dirac(5, "zp", Z12, 40)
    for k in range(5):
        assert moment(mu, k).coords[0] == 5 ** k
    # moment(T, 1) = 1, moment(T, 2) = 1
    t = Measure(TruncSeries.x(Z12, 20), "zp")
    assert moment(t, 1).coords[0] == 1
    assert moment(t, 2).coords[0] == 1
    # linearity
    mu2 = dirac(7, "zp", Z12, 40)
    comb = Measure(mu.amice + mu2.amice.scale(3), "zp")
    assert moment(comb, 2).coords[0] == (25 + 3 * 49) % Z12.modulus


def test_moment_vs_riemann():
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", Z12, 64, okp=Q3_12)
    for k in (1, 2, 3):
        rm, guar = riemann_moment(mu, k, 2)
        mm = moment(mu, k)
        assert (rm - mm).coords[0] % 3 ** min(guar, 2) == 0


def test_tilde_equals_units_restriction():
    # coset_mass(tilde(mu), delta, n) = coset_mass(mu, delta, n) for units;
    # mass on p Z_p is 0 after restriction
    z = make_ring(3, 12, "zp")
    mu = Measure(dirac(5, "zp", z, 54).amice + dirac(6, "zp", z, 54).amice,
                 "zp")
    res = restrict_to_units(mu)
    for a in (1, 2, 4, 5):
        v1, g1 = coset_mass(mu, a, 1)
        v2, g2 = coset_mass(res, a, 1)
        q = 3 ** min(g1, g2)
        assert (v1 - v2).coords[0] % q == 0
    v0, g0 = coset_mass(res, 0, 1)
    assert v0.coords[0] % 3 ** g0 == 0


def test_amice_bijection_brute_force():
    # masses at level n resynthesize the Mahler coefficients mod p^{n-c}
    z = make_ring(3, 12, "zp")
    mu = Measure(dirac(4, "zp", z, 54).amice.scale(2) +
                 dirac(7, "zp", z, 54).amice, "zp")
    n = 2
    pn = 3 ** n
    for m in range(4):
        acc = z.zero()
        guar = 12
        for a in range(pn):
            v, g = coset_mass(mu, a, n)
            from math import comb
            acc = acc + v * comb(a, m)
            guar = min(guar, g)
        true = mu.amice.coeff(m)
        assert (acc - true).coords[0] % 3 ** (n - 1) == 0


def _order6_character():
    c3 = make_ring(3, 12, "cyclotomic", level=1)
    gen = next(Q3_12.elem(d) for d in unit_residues(Q3_12, 1)
               if _mult_order_elem(Q3_12.elem(d), 3) == 6)
    return FiniteCharacter.from_generator(Q3_12, 1, c3, gen, -(c3.zeta())), c3


def test_gauss_sum_trivial_constant():
    _, c3 = _order6_character()
    triv = FiniteCharacter.trivial(c3)
    tau = gauss_sum(triv, okp=Q3_12)
    assert tau.den_exp == 0
    assert tau.num == c3.one()
    assert tau.const == 3  # |(O/p^2)^x| / phi(3) = 6/2


def test_twist_trivial_matches_moment():
    _, c3 = _order6_character()
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", c3, 64, okp=Q3_12)
    triv = FiniteCharacter.trivial(c3)
    for k in (0, 1, 2, 3):
        tv = twist_eval(mu, triv, k)
        assert tv.coords[0] % 3 ** 6 == pow(7, k, 3 ** 6)


def test_twist_level1_orthogonality_oracle():
    chi, c3 = _order6_character()
    assert chi.is_primitive()
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", c3, 64, okp=Q3_12)
    tv = twist_eval(mu, chi, 0)
    assert tv == chi.value(Q3_12.from_int(7))
    # k = 1: chi(sigma(a)) * sigma(a)
    tv1 = twist_eval(mu, chi, 1)
    assert tv1 == chi.value(Q3_12.from_int(7)) * 7


def test_twist_factorization_report():
    chi, c3 = _order6_character()
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", c3, 64, okp=Q3_12)
    direct, tau, orbit, match = twist_factorization_report(mu, chi, 0)
    assert match
    direct1, _, _, match1 = twist_factorization_report(mu, chi, 1)
    assert match1


def test_units_invariant_check():
    z = make_ring(3, 10, "zp")
    mu = Measure(dirac(5, "zp", z, 36).amice + dirac(7, "zp", z, 36).amice,
                 "zp")
    res = restrict_to_units(mu)
    assert res.group == "zp_units"
    assert res.check_units_invariant(4)
    # a measure with mass on pZ_p fails the invariant under the units tag
    fake = Measure(dirac(6, "zp", z, 36).amice, "zp_units")
    assert not fake.check_units_invariant(4)


def test_measure_json_round_trip():
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", Z12, 24, okp=Q3_12)
    j = mu.to_json()
    back = Measure.from_json(j)
    assert back.group == "okp"
    assert back.amice.eq_mod(mu.amice)
    assert back.okp == Q3_12


def test_negative_moment_order_rejected():
    from ltk.rings import DomainError
    mu = dirac(5, "zp", Z12, 20)
    for fn in (lambda: moment(mu, -1), lambda: riemann_moment(mu, -1, 1)):
        with pytest.raises(DomainError):
            fn()


def test_moment_guarantee_covers_the_truncated_tail():
    # below the cap the moment is exact mod p^n_eff; from k = cap on, the
    # dropped terms j! S(k, j) c_j, j >= cap, cost v_p(cap!) digits
    z = make_ring(3, 8, "zp")
    worst_gap = 99
    for a in (7, 11, 20, 100):
        for cap, k in ((6, 3), (6, 6), (6, 8), (9, 12), (4, 10)):
            mu = dirac(a, "zp", z, cap)
            g = moment_guarantee(mu, k)
            assert g == (8 if k < cap else {6: 2, 9: 4, 4: 1}[cap])
            d = (moment(mu, k).coords[0] - a ** k) % 3 ** 8
            v = 0
            while d and d % 3 == 0:
                d //= 3
                v += 1
            got = v if d else 8
            assert got >= g
            worst_gap = min(worst_gap, got - g)
    assert worst_gap == 0


# -- the integer-coordinate coset route against the ring-element oracle --------

# ramified and unramified, with b = 0 and b != 0; the last entry is the top level
INDEX_RINGS = [
    (2, "ramified_quad", (0, 2), 3), (2, "ramified_quad", (2, 2), 3),
    (2, "unramified_quad", (1, 1), 3),
    (3, "ramified_quad", (0, 3), 3), (3, "ramified_quad", (3, 3), 3),
    (3, "unramified_quad", (1, 2), 3),
    (5, "ramified_quad", (5, 5), 2), (5, "unramified_quad", (1, 1), 2),
    (5, "unramified_quad", (0, 2), 2),
]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DomainError, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p, kind, quad, top", INDEX_RINGS)
def test_coset_index_matches_the_ring_element_route(p, kind, quad, top):
    rng = random.Random(p * 100 + quad[0])
    okp = make_ring(p, 6, kind, quad=quad)
    mu = Measure(TruncSeries.zero(make_ring(p, 6, "zp"), 4), "okp", okp)
    units = 0
    for n in range(top + 1):
        pn = p ** n
        for d0 in range(pn):
            for d1 in range(pn):
                step = p ** max(n, 1)      # keeps the unit class at n = 0
                lift = (d0 + step * rng.randrange(-3, 4),
                        d1 + step * rng.randrange(-3, 4))
                want = _outcome(MO.coset_index, mu, okp.elem((d0, d1)), n)
                assert _outcome(MS._coset_index, mu, (d0, d1), n) == want
                assert _outcome(MS._coset_index, mu, lift, n) == want
                units += want[0] == "ok"
    assert units == sum(len(unit_residues(okp, n)) for n in range(1, top + 1))


def _measures(tag, z, okp, rng):
    """A seeded Dirac combination for a group tag, its cap-10 truncation
    (no digit left at level 2), and the first Dirac made admissible with
    shift 1 (p times it, over p) and scaled by 1/p (not admissible)."""
    p, cap = z.p, 64
    units = tag.endswith("units")
    diracs = []
    while len(diracs) < 3:
        if tag.startswith("okp"):
            a = okp.elem((rng.randrange(p ** 4), rng.randrange(p ** 4)))
            if units and not a.is_unit():
                continue
        else:
            a = rng.randrange(p ** 4)
            if units and a % p == 0:
                continue
        diracs.append(dirac(a, tag, z, cap, okp=okp).amice)
    amice = diracs[0]
    for d in diracs[1:]:
        amice = amice + d.scale(rng.randrange(1, p ** 3))
    first = diracs[0]
    return [Measure(amice, tag, okp), Measure(amice.truncate(10), tag, okp),
            Measure(TruncSeries(z, cap, list(first.scale(p).coeffs), z.N, 1), tag, okp),
            Measure(TruncSeries(z, cap, list(first.coeffs), z.N, 1), tag, okp)]


@pytest.mark.parametrize("quad", [(0, 3), (3, 3)])
@pytest.mark.parametrize("tag", ["zp", "zp_units", "okp", "okp_units"])
def test_coset_route_matches_the_ring_element_oracle(tag, quad):
    rng = random.Random(f"{tag}{quad}")
    z = make_ring(3, 12, "zp")
    c3 = make_ring(3, 12, "cyclotomic", level=1)
    okp = make_ring(3, 12, "ramified_quad", quad=quad)
    on_okp = tag.startswith("okp")
    if on_okp:
        gen = next(okp.elem(d) for d in unit_residues(okp, 1)
                   if _mult_order_elem(okp.elem(d), 3) == 6)
        chars = [FiniteCharacter.from_generator(okp, 1, c3, gen, -(c3.zeta()))]
    else:
        chars = [FiniteCharacter.from_generator("zp", 1, c3, 2, -c3.one()),
                 FiniteCharacter.from_generator("zp", 2, c3, 2, -(c3.zeta()))]
    for mu in _measures(tag, z, okp if on_okp else None, rng):
        for n in (1, 2) if on_okp else (0, 1, 2):
            deltas = ([okp.elem(d) for d in unit_residues(okp, n)] if on_okp
                      else list(range(3 ** n)))
            for delta in deltas:
                want = _outcome(MO.coset_mass, mu, delta, n)
                assert _outcome(coset_mass, mu, delta, n) == want
                if on_okp:
                    assert _outcome(coset_mass, mu, delta.coords, n) == want
            for k in range(4):
                if n == 0 and tag == "zp_units":   # no unit residue mod p^0
                    assert _outcome(riemann_moment, mu, k, n)[0] == "DomainError"
                    continue
                assert _outcome(riemann_moment, mu, k, n) == \
                    _outcome(MO.riemann_moment, mu, k, n)
        if on_okp:
            assert _outcome(partition_check, mu, 1) == _outcome(MO.partition_check, mu, 1)
        for chi in chars:
            for k in (0, 1):
                assert _outcome(twist_eval, mu, chi, k) == _outcome(MO.twist_eval, mu, chi, k)


def test_one_pushforward_per_measure_and_level(monkeypatch):
    calls = []
    real = MS._pushforward
    monkeypatch.setattr(MS, "_pushforward", lambda h, n: calls.append(n) or real(h, n))
    a = Q3_12.elem((4, 3))
    mu = dirac(a, "okp", Z12, 64, okp=Q3_12)
    first = coset_mass(mu, Q3_12.elem((7, 0)), 1)
    assert coset_mass(mu, Q3_12.elem((7, 0)), 1) == first
    assert calls == [1]
    coset_mass(mu, (2, 0), 1)
    riemann_moment(mu, 2, 1)
    partition_check(mu, 1)           # levels 2 and 1
    assert calls == [1, 2]
    # an equal measure has its own memo, and the memo is not part of the value
    twin = Measure(mu.amice, mu.group, mu.okp)
    assert twin == mu and hash(twin) == hash(mu) and repr(twin) == repr(mu)
    assert twin.to_json() == mu.to_json()
    assert coset_mass(twin, Q3_12.elem((7, 0)), 1) == first
    assert calls == [1, 2, 1]


def test_level_zero_is_refused_on_the_unit_cosets():
    mu = dirac(Q3_12.elem((4, 0)), "okp", Z12, 64, okp=Q3_12)
    with pytest.raises(DomainError, match="partition_check at level 0"):
        partition_check(mu, 0)
    with pytest.raises(DomainError, match="riemann_moment at level 0"):
        riemann_moment(mu, 2, 0)
    assert [riemann_moment(mu, 2, n)[0].coords[0] for n in (1, 2)] == [1, 16]
    # the Z_p tags keep level 0: Z/1 is one coset, represented by 0
    assert riemann_moment(dirac(4, "zp", Z12, 64), 0, 0) == (Z12.one(), 12)


def test_level_zero_is_refused_on_the_zp_units():
    # Z/1 holds no unit residue: level 0 would sum over no coset and claim
    # 0 to full precision, where level 1 gives the Dirac's mass 1
    mu = dirac(4, "zp_units", Z12, 64)
    with pytest.raises(DomainError, match="riemann_moment at level 0: the unit cosets"):
        riemann_moment(mu, 0, 0)
    assert riemann_moment(mu, 0, 1) == (Z12.one(), 12)


@pytest.mark.parametrize("group", ["zp", "zp_units"])
def test_partition_check_is_refused_on_the_zp_tags(group):
    with pytest.raises(DomainError, match="defined on the O_Kp tags only"):
        partition_check(dirac(4, group, Z12, 64), 1)


def test_coset_index_above_the_group_precision_reads_the_lift():
    # delta = 3 over a ring known mod 2^3, at level 4: the closed form reads
    # the lift 3 as it stands, so the Dirac at 3 has its mass on 3 U_4; the
    # public coset_mass refuses that level (another lift of 3 mod 2^3 would
    # land elsewhere)
    okp = make_ring(2, 3, "ramified_quad", quad=(0, 2))
    mu = dirac(okp.elem((3, 0)), "okp", make_ring(2, 3, "zp"), 80, okp=okp)
    assert MS._coset_index(mu, (3, 0), 4) == 3
    with pytest.raises(DomainError, match=r"coset_mass at level 4: .*okp.N = 3"):
        coset_mass(mu, okp.elem((3, 0)), 4)
    v, g = coset_mass(mu, okp.elem((3, 0)), 3)
    assert (v.coords, g) == ((1,), 3)


@pytest.mark.parametrize("group", ["okp", "okp_units"])
def test_levels_above_the_group_precision_are_refused(group):
    z = make_ring(3, 13, "zp")
    okp = make_ring(3, 2, "ramified_quad", quad=(0, 3))
    a = okp.elem((2, 1) if group == "okp" else (4, 1))
    mu = dirac(a, group, z, 64, okp=okp)
    for n in (3, 4):
        with pytest.raises(DomainError, match=rf"coset_mass at level {n}: .*okp.N = 2\)"):
            coset_mass(mu, a, n)
        with pytest.raises(DomainError, match=rf"riemann_moment at level {n}: .*okp.N = 2\)"):
            riemann_moment(mu, 1, n)
    # partition_check at level n reads the level n + 1 cosets
    with pytest.raises(DomainError, match=r"partition_check at level 2: level 3 .*okp.N = 2\)"):
        partition_check(mu, 2)
    assert coset_mass(mu, a, 2)[1] > 0 and riemann_moment(mu, 1, 2)[1] > 0
    assert partition_check(mu, 1)[0]
