"""Coset masses from the level-n pushforward against the root-of-unity route.

The oracle is the character-sum construction: mu(delta U_n) is p^{-2n} times
a double sum of h(zeta^s - 1) zeta^t over O_K/p^n (p^{-n} times a single sum
on Z_p), evaluated in a cyclotomic extension ring and descended.  It shares
nothing with the pushforward except the stored coefficients.  The row-table
pushforward is also checked bit for bit against Horner's rule
(measures_oracle.pushforward).
"""

import random

import pytest

from ltk import measures as MS
from ltk.measures import Measure, coset_mass, dirac, sigma_map, unit_residues
from ltk.rings import PrecisionExhausted, descend, embed, make_ring
from ltk.series import TruncSeries

from conftest import random_series
import measures_oracle as MO


def _oracle_masses(mu, n, deltas):
    """{delta: (mass, guarantee)} by root-of-unity sums, one table per level.

    The table needs a ring whose designated root of unity has order p^n; a
    cyclotomic value ring of another level is split into its coordinates,
    each a series over Z_p (both routes are Z_p-linear in the series).
    """
    h = mu.amice
    spec = h.spec
    p = spec.p
    pn = p ** n
    if spec.kind == "cyclotomic" and spec.level != n:
        zp = make_ring(p, spec.N, "zp")
        parts = [_oracle_masses(
            Measure(TruncSeries(zp, h.cap, [c[i] for c in h.coeffs], h.n_eff,
                                h.shift), mu.group, mu.okp), n, deltas)
            for i in range(spec.rank)]
        return {d: (spec.elem([part[d][0].coords[0] for part in parts]),
                    min(part[d][1] for part in parts)) for d in deltas}
    ext = MS._level_ring(spec, n)
    table, guar = MS._eval_table(h, ext, n)
    zeta = ext.zeta()
    zpows = [ext.one()]
    for _ in range(pn - 1):
        zpows.append(zpows[-1] * zeta)
    okp = mu.group.startswith("okp")
    need = (2 * n if okp else n) + h.shift
    assert guar >= need + 1
    out = {}
    for delta in deltas:
        num = ext.zero()
        if okp:
            dinv = delta.inverse()
            u = sigma_map(dinv) % pn
            v = sigma_map(dinv * mu.okp.gen_quad()) % pn
            for j0 in range(pn):
                for j1 in range(pn):
                    num = num + table[(j0 * u + j1 * v) % pn] * zpows[-(j0 + j1) % pn]
        else:
            for t in range(pn):
                num = num + table[t] * zpows[(-t * delta) % pn]
        coords = [c % p ** guar for c in num.coords]
        assert not any(c % p ** need for c in coords)
        val = ext.elem([c // p ** need for c in coords])
        out[delta] = (descend(val, spec, guar - need), guar - need)
    return out


def _agreement(x, y, p, claim):
    level = claim
    for a, b in zip(x.coords, y.coords):
        d = (a - b) % p ** claim
        v = 0
        while d and d % p == 0:
            d //= p
            v += 1
        if d:
            level = min(level, v)
    return level


def _measures(vspec, okp, cap, rng):
    """A 3-Dirac mixture on unit sigma-values and a random integral series."""
    p = vspec.p
    mix = TruncSeries.zero(vspec, cap)
    for _ in range(3):
        while True:
            a = okp.elem((rng.randrange(p ** 4), rng.randrange(p ** 4)))
            if a.is_unit() and sigma_map(a) % p:
                break
        mix = mix + dirac(a, "okp", vspec, cap, okp=okp).amice.scale(
            rng.randrange(1, p ** 3))
    return [mix, random_series(vspec, cap, rng, unit=False)]


VALUE_RINGS = {
    2: [("zp", {}), ("cyclotomic", {"level": 2})],
    3: [("zp", {}), ("cyclotomic", {"level": 1})],
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_pushforward_matches_root_of_unity_oracle(p, n):
    rng = random.Random(100 * p + n)
    okp = make_ring(p, 12, "ramified_quad", quad=(0, p))
    cosets = 0
    for kind, kw in VALUE_RINGS[p]:
        vspec = make_ring(p, 12, kind, **kw)
        for h in _measures(vspec, okp, 64, rng):
            for mu, deltas in (
                    (Measure(h, "okp", okp),
                     [okp.elem(d) for d in unit_residues(okp, n)]),
                    (Measure(h, "zp"), list(range(p ** n)))):
                oracle = _oracle_masses(mu, n, deltas)
                for delta in deltas:
                    v, g = coset_mass(mu, delta, n)
                    w, g_old = oracle[delta]
                    claim = min(g, g_old)
                    assert g >= g_old
                    assert _agreement(v, w, p, claim) == claim, (kind, delta)
                    cosets += 1
    assert cosets > 0


@pytest.mark.parametrize("p, n, cap, N", [
    (5, 1, 40, 12),     # ceil(40/4) - 1 = 9, reached exactly
    (3, 2, 64, 13),     # the okp_moments setting: 9 digits against 6 before
    (3, 1, 30, 20),
    (2, 2, 24, 16),
    (2, 1, 17, 20),
])
def test_truncation_guarantee_against_the_tail(p, n, cap, N):
    """Masses of a cap-c truncation agree with those of a cap-4c series to
    the claimed guarantee; the first case shows the bound is attained."""
    z = make_ring(p, N, "zp")
    pn = p ** n
    phi = pn - pn // p
    claim = min(N, -(-cap // phi) - n)
    worst = N
    for seed in range(4):
        full = random_series(z, 4 * cap, random.Random(seed), unit=False)
        mu_full = Measure(full, "zp")
        mu_cut = Measure(full.truncate(cap), "zp")
        for a in range(pn):
            v, g = coset_mass(mu_cut, a, n)
            w, g_full = coset_mass(mu_full, a, n)
            assert g == claim and g_full > g
            d = _agreement(v, w, p, N)
            assert d >= claim
            worst = min(worst, d)
    if (p, n, cap) == (5, 1, 40):
        assert worst == claim == 9


def test_level_zero_is_total_mass():
    z = make_ring(3, 10, "zp")
    okp = make_ring(3, 10, "ramified_quad", quad=(0, 3))
    h = random_series(z, 20, random.Random(5), unit=False)
    for mu, delta in ((Measure(h, "zp"), 4), (Measure(h, "okp", okp), okp.one())):
        v, g = coset_mass(mu, delta, 0)
        assert v == h.coeff(0) and g == 10


def test_precision_error_names_stage_level_and_digits():
    z = make_ring(3, 8, "zp")
    mu = dirac(5, "zp", z, 24)
    with pytest.raises(PrecisionExhausted) as exc:
        coset_mass(mu, 1, 3)
    msg = str(exc.value)
    assert "coset_mass" in msg and "level 3" in msg
    assert "needs 1 digits" in msg and "0 available" in msg
    # a shifted series needs shift + 1 digits
    shifted = Measure(TruncSeries(z, 24, list(mu.amice.coeffs), 3, 2), "zp")
    with pytest.raises(PrecisionExhausted) as exc:
        coset_mass(shifted, 1, 2)
    assert "needs 3 digits" in str(exc.value)
    assert "level 2" in str(exc.value)


@pytest.mark.parametrize("p", [2, 3])
def test_level_two_value_ring_gives_the_level_one_table(p):
    """At n = 1 the table of a level-2 cyclotomic value ring uses a root of
    unity of order p, not p^2: it is the level-1 ring's table, embedded."""
    rng = random.Random(p)
    c1 = make_ring(p, 9, "cyclotomic", level=1)
    c2 = make_ring(p, 9, "cyclotomic", level=2)
    h1 = random_series(c1, 24, rng, unit=False)
    h2 = TruncSeries(c2, 24, [embed(h1.coeff(i), c2) for i in range(24)])
    assert MS._level_ring(c2, 1) == c2
    t1, g1 = MS._eval_table(h1, MS._level_ring(c1, 1), 1)
    t2, g2 = MS._eval_table(h2, MS._level_ring(c2, 1), 1)
    assert g1 == g2
    assert [embed(v, c2) for v in t1] == t2


@pytest.mark.parametrize("p", [2, 3])
def test_level_one_element_descends_from_level_two(p):
    rng = random.Random(p)
    c1 = make_ring(p, 9, "cyclotomic", level=1)
    c2 = make_ring(p, 9, "cyclotomic", level=2)
    for _ in range(10):
        x = c1.elem([rng.randrange(c1.modulus) for _ in range(c1.rank)])
        assert descend(embed(x, c2), c1) == x
    with pytest.raises(PrecisionExhausted):
        descend(c2.zeta(), c1)


# -- the row table against Horner's rule ---------------------------------------


def _value_rings(p):
    """Value rings of rank 1 and 2 (rank p - 1 for the cyclotomic one)."""
    return [make_ring(p, 7, "zp"), make_ring(p, 7, "ramified_quad", quad=(0, p)),
            make_ring(p, 7, "cyclotomic", level=1)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_row_table_matches_horner(p, n):
    """Masses and guarantee bit for bit, for caps below, at and above p^n
    (cap 1 included), full and reduced n_eff, shift 0 and 1."""
    rng = random.Random(f"rows {p} {n}")
    pn = p ** n
    caps = sorted({1, 2, max(pn - 1, 1), pn, pn + 1, 2 * pn + 3})
    cases = 0
    for spec in _value_rings(p):
        for cap in caps:
            h = random_series(spec, cap, rng, unit=False)
            for n_eff, shift in ((spec.N, 0), (4, 0), (spec.N, 1), (3, 2)):
                g = TruncSeries(spec, cap, list(h.coeffs), n_eff, shift)
                got, want = MS._pushforward(g, n), MO.pushforward(g, n)
                assert got == want, (spec.kind, cap, n_eff, shift)
                assert len(got[0]) == pn
                cases += 1
    assert cases == 3 * len(caps) * 4


def test_row_table_is_cached_per_key_and_cut_at_the_cap():
    MS._pushforward_rows.cache_clear()
    z = make_ring(3, 13, "zp")
    h = random_series(z, 64, random.Random(7), unit=False)
    first = MS._pushforward(h, 2)
    assert MS._pushforward(h.scale(2), 2)[1] == first[1]
    info = MS._pushforward_rows.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert info.maxsize == 32
    rows = MS._pushforward_rows(3, 2, 64, z.modulus)
    assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
    assert len(rows) == 9 and all(len(r) == 64 for r in rows)
    # with cap <= p^n nothing wraps: cap rows are kept, the other masses are 0
    short = MS._pushforward_rows(3, 3, 5, z.modulus)
    assert len(short) == 5 and all(len(r) == 5 for r in short)
    m, _ = MS._pushforward(h.truncate(5), 3)
    assert len(m) == 27 and m[5:] == [(0,)] * 22
