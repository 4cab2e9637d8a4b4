import random
from fractions import Fraction

import pytest

from ltk.rings import PrecisionExhausted, log_one_unit, make_ring, teichmuller, valuation
from ltk.series import TruncSeries
from ltk.lubin_tate import build_group, build_tower
from ltk.measures import tilde_series
from ltk.coleman import (
    CompatibleSystem,
    interpolate,
    mu_zero,
    norm_fixed_point,
    partial_dlog,
    reduce_mod_system_ideal,
    system_from_series,
    tilde_log,
)

from conftest import congruent, log_reference, random_series


@pytest.fixture
def g3t(q3):
    G = build_group(q3, q3.gen_quad(), 3, 24)
    return G, build_tower(G, 2)


@pytest.fixture
def gmt():
    z3 = make_ring(3, 8, "zp")
    G = build_group(z3, 3, 3, 30, variant="multiplicative")
    return G, build_tower(G, 2)


def test_round_trip_random(g3t, rng):
    G, tw = g3t
    for _ in range(5):
        g0 = random_series(G.spec, 24, rng, terms=8)
        sys_ = system_from_series(tw, g0)
        g_rec, info = interpolate(sys_)
        nc = min(info["n_eff"], 5)
        r1 = reduce_mod_system_ideal(g0, tw, info["n_eff"])
        r2 = reduce_mod_system_ideal(g_rec, tw, info["n_eff"])
        assert r1.eq_mod(r2, nc)


def test_constant_teichmuller_system(g3t):
    G, tw = g3t
    c = teichmuller(G.spec.elem((2, 1)))
    vals = {m: tw.rings[m].from_base(c) for m in (1, 2)}
    sys_c = CompatibleSystem(tw, vals)
    assert sys_c.norm_compatible(4)
    g, _ = interpolate(sys_c)
    assert g.degree() == 0
    assert g.coeff(0) == c


def test_fixed_point_system_is_norm_compatible(g3t, rng):
    G, tw = g3t
    seed = random_series(G.spec, 24, rng, terms=10)
    gfix, rep = norm_fixed_point(G, seed, target=5)
    assert rep["iterations"] <= G.spec.ramification_index * 5
    # the Nm-compatibility of the evaluations is itself the oracle
    sys_ = system_from_series(tw, gfix)
    assert sys_.norm_compatible(4)
    # N_f-equivariance survives interpolation: (N_f g)(alpha_1) = beta_1,
    # because the ideal correction vanishes at the level-2 translates
    g_back, info = interpolate(sys_)
    r1 = reduce_mod_system_ideal(gfix, tw, 4)
    r2 = reduce_mod_system_ideal(g_back, tw, 4)
    assert r1.eq_mod(r2, 4)
    nf = G.coleman_norm(g_back.truncate(G.cap))
    E1 = tw.rings[1]
    val = E1.eval_series(nf, tw.alphas[1])
    diff = E1.sub(val, sys_.coords[1])
    assert not any(x % 3 ** 3 for x in diff)


def test_random_series_not_norm_compatible(g3t, rng):
    G, tw = g3t
    g0 = random_series(G.spec, 24, rng, terms=8)
    assert not system_from_series(tw, g0).norm_compatible()


def test_translation_rule(q3, rng):
    # replacing the system by its [a]-twist replaces g by g o [a]_f; the cap
    # must cover cap * v(alpha_2) digits for the twisted evaluations
    G = build_group(q3, q3.gen_quad(), 3, 72)
    tw = build_tower(G, 2)
    g0 = random_series(G.spec, 72, rng, terms=6)
    for a in (2, 4):
        ea = G.endomorphism(a, G.cap)
        vals = {}
        for m in (1, 2):
            E = tw.rings[m]
            a_alpha = E.eval_series(ea, tw.alphas[m])
            vals[m] = E.eval_series(g0, a_alpha)
        sys_tw = CompatibleSystem(tw, vals)
        g_tw, info = interpolate(sys_tw)
        target = g0.compose(ea)
        r1 = reduce_mod_system_ideal(g_tw, tw, 4)
        r2 = reduce_mod_system_ideal(target, tw, 4)
        assert r1.eq_mod(r2, 4)


def test_tilde_log_constants(g3t, gmt):
    G, _ = g3t
    c = teichmuller(G.spec.elem((2, 1)))
    lt, rep = tilde_log(G, TruncSeries(G.spec, 24, [c]))
    assert lt.canonical().is_zero()
    Gm, _ = gmt
    lt2, _ = tilde_log(Gm, TruncSeries(Gm.spec, 30, [7]))
    # log(7) - (1/3) log(7^3) = 0
    assert lt2.canonical().is_zero()


def test_tilde_log_gm_one_plus_x(gmt):
    Gm, _ = gmt
    one_x = TruncSeries(Gm.spec, 30, [1, 1])
    lt, rep = tilde_log(Gm, one_x)
    assert rep["d_bootstrap_integral"]
    assert lt.canonical().is_zero()
    # measure-side pipeline: tilde of the log series also vanishes, below the
    # degrees polluted by the reflected truncation tail
    from ltk.series import formal_log
    L = formal_log(one_x)
    tl = tilde_series(L).canonical()
    q = 3 ** tl.n_eff
    for i in range(17):
        assert all(c % q == 0 for c in tl.coeffs[i])


def test_tilde_log_gm_fixed_point_membership(gmt, rng):
    Gm, _ = gmt
    seed = random_series(Gm.spec, 24, rng, terms=8)
    gfix, _ = norm_fixed_point(Gm, seed, target=6)
    lt, rep = tilde_log(Gm, gfix)
    assert rep["d_bootstrap_integral"]
    # tilde-fixed subspace membership in the Q coordinate (= X for G_m);
    # degrees near the cap carry the reflected truncation tail
    t = (tilde_series(lt) - lt).canonical()
    q = 3 ** min(t.n_eff, 5)
    for i in range(14):
        assert all(c % q == 0 for c in t.coeffs[i])


def test_tilde_log_ramified_obstruction(g3t, rng):
    # the X-side integrality fails for the naive coordinate: documented
    # desk-scale obstruction (see the q_coordinate reports); the error names
    # the offending coefficient
    G, _ = g3t
    seed = random_series(G.spec, 20, rng, terms=8)
    gfix, _ = norm_fixed_point(G, seed, target=4)
    with pytest.raises(PrecisionExhausted, match="coefficient"):
        tilde_log(G, gfix)


def test_mu_zero_teichmuller_is_zero(gmt):
    Gm, tw = gmt
    c = teichmuller(Gm.spec.from_int(2))
    vals = {m: tw.rings[m].from_base(c) for m in (1, 2)}
    mu, g, rep = mu_zero(Gm, CompatibleSystem(tw, vals))
    assert mu.amice.canonical().is_zero()


def test_mu_zero_moments_match_dlog(gmt, rng):
    Gm, tw = gmt
    seed = random_series(Gm.spec, 24, rng, terms=6)
    gfix, _ = norm_fixed_point(Gm, seed, target=6)
    sys_ = system_from_series(tw, gfix)
    mu, g, rep = mu_zero(Gm, sys_)
    lt, _ = tilde_log(Gm, g.truncate(Gm.cap))
    for k in (0, 1, 2):
        assert partial_dlog(Gm, mu.amice, k) == partial_dlog(Gm, lt, k)
    assert rep["first_moment"] == partial_dlog(Gm, lt, 1)


def test_mu_zero_injectivity_probe(gmt, rng):
    # distinct fixed points give distinct measures UNLESS they differ by an
    # element of the logarithm kernel (Teichmuller constants and (1+X)^a):
    # any collision must be explained by a vanishing tilde-log of the ratio
    Gm, tw = gmt
    data = []
    for _ in range(3):
        seed = random_series(Gm.spec, 24, rng, terms=8)
        gfix, _ = norm_fixed_point(Gm, seed, target=6)
        mu, _, _ = mu_zero(Gm, system_from_series(tw, gfix))
        data.append((gfix, mu.amice.canonical()))
    seen_distinct = False
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            gi, mi = data[i]
            gj, mj = data[j]
            if mi.eq_mod(mj, 4):
                ratio = gi * gj.invert()
                lt, _ = tilde_log(Gm, ratio)
                q = 3 ** 4
                for k in range(12):
                    assert all(c % q == 0 for c in lt.canonical().coeffs[k])
            else:
                seen_distinct = True
    assert seen_distinct


def test_system_json(g3t, rng):
    G, tw = g3t
    g0 = random_series(G.spec, 24, rng, terms=4)
    sys_ = system_from_series(tw, g0)
    j = sys_.to_json()
    assert j["levels"] == 2
    vals = {int(m): tw.rings[int(m)].elem(v) for m, v in j["values"].items()}
    sys2 = CompatibleSystem(tw, vals)
    g1, _ = interpolate(sys_)
    g2, _ = interpolate(sys2)
    assert g1.eq_mod(g2)


# -- the one-unit logarithm of a series: every claimed digit ----------------------


@pytest.mark.parametrize("p, N", [(2, 2), (2, 4), (3, 3), (5, 5)])
def test_log_of_one_plus_pX_claims_only_known_digits(p, N):
    # log(1 + pX) = sum_k (-1)^(k+1) p^k X^k / k exactly.  Over Z/p^N the
    # stored (pX)^N vanishes, but the term (pX)^N / N need not: p^(p-1) X^p
    # over Z/p^p, 4 X^4 at p = 2, N = 4.  The sum runs at p^(N + S), where
    # those terms are counted, and holds all N digits
    z = make_ring(p, N, "zp")
    S, n = log_one_unit(TruncSeries(z, p + 3, [0, p]), 1)
    assert n == N
    for k in range(1, p + 3):
        exact = Fraction((-1) ** (k + 1) * p ** k, k)
        assert (S.coeffs[k][0] - exact.numerator * pow(exact.denominator, -1, p ** n)
                ) % p ** n == 0


def test_log_one_unit_reads_the_x_adic_filtration():
    # h = 3X over Z/3^3 at cap 3: h^k = 0 mod X^3 for k >= 3, so no term has
    # a denominator and all 3 digits hold (log(1 + 3X) = 3X - 9X^2 / 2)
    h = TruncSeries(make_ring(3, 3, "zp"), 3, [0, 3])
    S, n = log_one_unit(h, 1)
    assert n == 3
    assert congruent(S, log_reference(h), 3)


def test_log_one_unit_on_the_lt_coleman_ring():
    # series u = 1 mod pi over Z_3[pi], pi^2 = -3, N = 7: t = 1/2, so h^9 / 9
    # divided at 3^7 would be known mod 3^5 only.  The sum runs at 3^(7 + 2),
    # 2 the largest a with 3^a t - a < 7, and holds all 7 digits
    spec = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    w, rng = spec.gen_quad(), random.Random(1)
    draw = lambda: w * spec.elem([rng.randrange(spec.modulus) for _ in range(2)])
    for _ in range(40):
        h = TruncSeries(spec, 8, [draw() for _ in range(8)])
        S, n = log_one_unit(h, min(valuation(h.coeff(i)) for i in range(8)))
        assert n == 7
        assert congruent(S, log_reference(h), n)


@pytest.mark.parametrize("p, N, coeffs", [
    (2, 4, None), (2, 8, None), (3, 6, [1, 691, 276, 344, 89, 318, 340, 15])])
def test_tilde_log_digits_survive_more_precision(p, N, coeffs):
    # the multiplicative group at cap 12: the run at N agrees with the run at
    # N + 6 to every digit it reports
    groups = [build_group(make_ring(p, n, "zp"), p, p, 12, variant="multiplicative")
              for n in (N, N + 6)]
    rng = random.Random(7)
    draws = [coeffs] if coeffs else [
        [rng.randrange(1, p)] + [rng.randrange(p ** N) for _ in range(7)]
        for _ in range(10)]
    for cs in draws:
        (lt, rep), (hi, rep_hi) = (tilde_log(G, TruncSeries(G.spec, 12, cs))
                                   for G in groups)
        assert rep["n_eff"] <= rep_hi["n_eff"]
        assert congruent(lt, hi, rep["n_eff"])


# -- the CRT data kept on the tower ----------------------------------------------


@pytest.mark.parametrize("M", [2, 3])
def test_interpolation_is_the_same_warm_and_on_a_fresh_tower(M, monkeypatch):
    # the tower keeps its moduli and dividers: two calls on one tower and one
    # on a fresh tower give the same series and info, and each level runs
    # one elimination per tower however often it is divided by
    from ltk.lubin_tate import QuotientRing

    z3 = make_ring(3, 8, "zp")
    G = build_group(z3, 3, 3, 28, variant="multiplicative")
    g0 = random_series(z3, 28, random.Random(M), terms=9)
    made = []
    make = QuotientRing.make_divider
    monkeypatch.setattr(QuotientRing, "make_divider",
                        lambda E, y: made.append(E) or make(E, y))

    def run(tw):
        g, info = interpolate(system_from_series(tw, g0))
        r = reduce_mod_system_ideal(g, tw, info["n_eff"])
        r0 = reduce_mod_system_ideal(g0, tw)
        return [(s.cap, s.n_eff, s.shift, s.coeffs) for s in (g, r, r0)], info

    tw = build_tower(G, M)
    first = run(tw)
    assert run(tw) == first
    assert made == [tw.rings[m] for m in range(2, M + 1)]
    assert run(build_tower(G, M)) == first
    assert len(made) == 2 * (M - 1)
    assert first[0][1][1] == first[1]["n_eff"] == 8 - (M - 1)


def test_modulus_is_the_product_of_the_pibar(g3t):
    G, tw = g3t
    prod = TruncSeries(G.spec, G.cap, [1])
    for m in (1, 2):
        prod = prod * TruncSeries(G.spec, G.cap, list(G.pibar(m)))
        assert tw.modulus(m).coeffs == prod.coeffs
    assert tw.modulus(2).degree() == sum(tw.rings[m].deg for m in (1, 2))


def test_agreement_level_is_the_least_order_of_a_difference(q3):
    # the history of norm_fixed_point reads it: min(n_eff of both, the least
    # 3-order of a coordinate difference)
    from ltk.coleman import _agreement_level

    rng = random.Random(7)
    m = q3.modulus
    order = lambda d: next(k for k in range(99) if d % 3 ** (k + 1)) if d else 99
    for _ in range(200):
        a = random_series(q3, 6, rng, unit=False)
        b = TruncSeries(q3, 6, [q3.elem([(x + rng.choice((0, 0, 1, 3, 9, 81, 243))
                                          * rng.randrange(1, 9)) % m for x in c])
                                for c in a.coeffs], rng.randrange(3, 8))
        want = min([a.n_eff, b.n_eff] + [order(x - y) for ca, cb in zip(a.coeffs, b.coeffs)
                                         for x, y in zip(ca, cb)])
        assert _agreement_level(a, b) == _agreement_level(b, a) == want
