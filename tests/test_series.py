from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ltk.rings import DomainError, PrecisionExhausted, descend, make_ring, valuation
from ltk.series import (
    TruncSeries,
    formal_exp,
    formal_log,
    iwasawa_invariants_by_roots,
    mu_lambda_by_roots,
    poly_divmod_monic,
    reversion,
    weierstrass_prep,
)

from conftest import random_series
from eval_oracle import ref_eval, ref_root_product


def test_basic_ops(z3):
    X = TruncSeries.x(z3, 12)
    one = TruncSeries.one(z3, 12)
    # compose(X^2, X + X^2) = X^2 + 2X^3 + X^4
    f = TruncSeries.monomial(z3, 12, 2)
    c = f.compose(X + f)
    assert [c.coeff(i).coords[0] for i in range(6)] == [0, 0, 1, 2, 1, 0]
    # invert(1+X) * (1+X) = 1
    h = one + X
    assert (h.invert() * h).eq_mod(one)
    # derive(1 + X + X^2 + X^3) = 1 + 2X + 3X^2
    d = TruncSeries(z3, 12, [1, 1, 1, 1]).derive()
    assert [d.coeff(i).coords[0] for i in range(4)] == [1, 2, 3, 0]


def test_compose_requires_positive_valuation(z3):
    f = TruncSeries.x(z3, 8)
    with pytest.raises(DomainError):
        f.compose(TruncSeries.one(z3, 8))


def test_formal_log_examples(z3):
    h = TruncSeries(z3, 10, [1, 1])
    L = formal_log(h)
    # stored = p^shift * (X - X^2/2 + X^3/3 - ...)
    assert L.shift == 2
    p2 = 9
    assert L.coeff(1).coords[0] == p2
    inv2 = pow(2, -1, 3 ** L.n_eff)
    assert L.coeff(2).coords[0] % 3 ** (L.n_eff - 1) == (-p2 * inv2) % 3 ** (L.n_eff - 1)
    assert L.coeff(3).coords[0] == 3
    # homomorphism: log((1+X)^p) = p log(1+X) at p = 3, D = 10
    L3 = formal_log(h.pow_int(3))
    lhs, rhs = L3, L.scale(3)
    assert lhs.normalize_shift().eq_mod(rhs.normalize_shift(),
                                        min(lhs.n_eff, rhs.n_eff) - 2)


def test_exp_log_round_trip(z3):
    u = TruncSeries(z3, 12, [1, 1, 1])
    E = formal_exp(formal_log(u)).require_integral()
    # loss within the documented Sum ord_p(k) bound
    from ltk.rings import ord_int
    bound = sum(ord_int(k, 3) for k in range(1, 12))
    assert E.n_eff >= z3.N - bound
    assert E.eq_mod(u, E.n_eff)


def test_weierstrass_examples(z3, q3):
    # f = p(1+X) + X^3: mu = 0, lambda = 3
    w = TruncSeries(z3, 12, [3, 3, 0, 1])
    wd = weierstrass_prep(w)
    assert (wd.mu, wd.lam) == (0, 3)
    rec = (wd.dist_series() * wd.unit).scale(3 ** wd.mu)
    assert rec.eq_mod(w, wd.n_eff)
    # f = p^2: mu = 2, lambda = 0, distinguished = 1
    wd2 = weierstrass_prep(TruncSeries(z3, 8, [9]))
    assert (wd2.mu, wd2.lam) == (2, 0)
    assert wd2.dist[0] == z3.one()
    # X^{p-1} + pi over the ramified quadratic: already distinguished
    pi = q3.gen_quad()
    fr = TruncSeries(q3, 8, [pi, q3.zero(), q3.one()])
    wd3 = weierstrass_prep(fr)
    assert (wd3.mu, wd3.lam) == (0, 2)
    assert wd3.unit.eq_mod(TruncSeries.one(q3, 8), wd3.n_eff)


def test_weierstrass_errors(z3, q3):
    with pytest.raises(PrecisionExhausted):
        weierstrass_prep(TruncSeries.zero(z3, 8))
    # pure pi-content: no unit coefficient after removing p^mu
    pi = q3.gen_quad()
    with pytest.raises(DomainError):
        weierstrass_prep(TruncSeries(q3, 8, [pi, pi]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_weierstrass_reconstruction_random(p, rng):
    spec = make_ring(p, 8, "zp")
    for _ in range(200):
        f = random_series(spec, 16, rng, unit=False)
        if f.canonical().is_zero():
            continue
        try:
            wd = weierstrass_prep(f)
        except DomainError:
            continue
        rec = (wd.dist_series() * wd.unit).scale(p ** wd.mu)
        assert rec.eq_mod(f, wd.n_eff)
        assert len(wd.dist) == wd.lam + 1
        assert wd.dist[-1] == spec.one()
        for c in wd.dist[:-1]:
            assert c.is_zero() or valuation(c) > 0


def test_eval_examples(z3):
    c3 = make_ring(3, 8, "cyclotomic", level=1)
    one_x = TruncSeries(z3, 12, [1, 1])
    v, _ = one_x.eval(c3.zeta() - c3.one())
    assert v == c3.zeta()
    # (1+X)^a at zeta_p - 1 = zeta^a (exact cyclotomic exponentiation)
    g = one_x.pow_int(7)
    v2, _ = g.eval(c3.zeta() - c3.one())
    assert v2 == c3.zeta() ** 7
    # eval(X^D, x) = 0 at the guaranteed precision
    xd = TruncSeries.monomial(z3, 12, 11)
    v3, guar = xd.eval(c3.zeta() - c3.one())
    assert all(c % 3 ** min(guar, 5) == 0 for c in (v3 * (c3.zeta() - c3.one())).coords)


def test_eval_is_homomorphism(z3, rng):
    c3 = make_ring(3, 8, "cyclotomic", level=1)
    pt = c3.zeta() - c3.one()
    for _ in range(10):
        f = random_series(z3, 10, rng, unit=False)
        g = random_series(z3, 10, rng, unit=False)
        vf, gf = f.eval(pt)
        vg, gg = g.eval(pt)
        vfg, gfg = (f * g).eval(pt)
        q = 3 ** min(gf, gg, gfg)
        assert all(c % q == 0 for c in (vfg - vf * vg).coords)


def eval_points():
    """(series ring, point) pairs: p and 0 in Z/p^N, w in a ramified ring,
    zeta - 1 at cyclotomic levels 1 and 2 over Z/p^N and over a quadratic
    ring, p = 2 included."""
    z3, z2 = make_ring(3, 9, "zp"), make_ring(2, 10, "zp")
    q3 = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    u5 = make_ring(5, 5, "unramified_quad", quad=(0, 2))
    zm1 = lambda r: r.zeta() - r.one()
    return [(z3, z3.from_int(3)), (z3, z3.zero()), (q3, q3.gen_quad()),
            (z3, zm1(z3.with_level(1))), (z3, zm1(z3.with_level(2))),
            (z2, zm1(z2.with_level(3))), (q3, zm1(q3.with_level(1))),
            (u5, zm1(u5.with_level(1)))]


@pytest.mark.parametrize("spec, x", eval_points())
def test_eval_matches_ring_horner(spec, x, rng):
    for cap in (1, 7, 30):
        f = random_series(spec, cap, rng, unit=False)
        assert f.eval(x)[0] == ref_eval(f, x)


@pytest.mark.parametrize("spec, x", eval_points())
def test_eval_guarantee_holds_past_the_truncation(spec, x, rng):
    # a cap-4c series truncated to cap c: the truncation's value agrees with
    # the full one mod p^guarantee (the full one is the better estimate)
    for c in (1, 3, 8):
        f = random_series(spec, 4 * c, rng, unit=False)
        full, g_full = f.eval(x)
        part, g = f.truncate(c).eval(x)
        assert g <= g_full
        assert not any((a - b) % spec.p ** g for a, b in zip(full.coords, part.coords))


def test_eval_guarantee_is_attained():
    # x = 3 in Z/3^20 with c_8 a unit: the cap-8 value misses the full one
    # by c_8 3^8 mod 3^9, so floor(cap v(x)) = 8 digits hold and no more
    z = make_ring(3, 20, "zp")
    f = TruncSeries(z, 32, [1] * 32)
    full, g_full = f.eval(z.from_int(3))
    part, g = f.truncate(8).eval(z.from_int(3))
    assert (g_full, g) == (20, 8)
    d = (full - part).coords[0]
    assert d % 3 ** 8 == 0 and d % 3 ** 9 == 3 ** 8


def test_eval_rejects_unit_point(z3):
    f = TruncSeries.x(z3, 8)
    with pytest.raises(DomainError):
        f.eval(z3.from_int(1))


def test_mu_lambda_by_roots_examples():
    z3 = make_ring(3, 9, "zp")
    # f = X at n = 1: Norm(zeta_3 - 1) = 3
    vals = mu_lambda_by_roots(TruncSeries.x(z3, 30), [1])
    assert vals == [(1, Fraction(1))]
    # f = p: ord = phi(p^n)
    vals2 = mu_lambda_by_roots(TruncSeries(z3, 48, [3]), [1, 2])
    assert vals2 == [(1, Fraction(2)), (2, Fraction(6))]
    # f = (X - p) * unit: (mu, lambda) = (0, 1) for n >= 2
    prod = TruncSeries(z3, 48, [-3, 1]) * TruncSeries(z3, 48, [1, 1])
    mu, lam, n0 = iwasawa_invariants_by_roots(prod, n_max=3)
    assert (mu, lam) == (0, 1)


def plant_series(spec, cap, rng, mu, lam):
    """p^mu * (random distinguished of degree lam) * (random unit)."""
    p = spec.p
    dist = [spec.from_int(rng.randrange(p ** (spec.N - 1)) * p) for _ in range(lam)]
    dist.append(spec.one())
    from conftest import random_series as rs
    return (TruncSeries(spec, cap, dist) * rs(spec, cap, rng, terms=6)
            ).scale(p ** mu)


def oracle_identity_level(p, lam):
    """Smallest n with phi(p^n) > lambda (Newton slopes >= 1/lambda)."""
    n = 1
    while p ** (n - 1) * (p - 1) <= lam:
        n += 1
    return n


@pytest.mark.parametrize("p, N", [(2, 14), (3, 12), (5, 9)])
def test_root_products_match_ring_horner(p, N, rng):
    # planted shapes as the iwasawa_invariants benchmark draws them
    spec = make_ring(p, N, "zp")
    for mu, lam in ((0, 0), (1, 1), (0, 3), (1, 2)):
        n = oracle_identity_level(p, lam)
        phi_n = p ** (n - 1) * (p - 1)
        f = plant_series(spec, max(16, phi_n * (mu * phi_n + lam + 2)), rng, mu, lam)
        guar = min(f.n_eff, f.cap // phi_n)
        (_, v), = mu_lambda_by_roots(f, [n])
        assert v == valuation(descend(ref_root_product(f, n), spec, guar))


def test_oracle_matches_prep_solve(rng):
    z3 = make_ring(3, 10, "zp")
    for _ in range(6):
        mu, lam = rng.randrange(2), rng.randrange(2)
        f = plant_series(z3, 48, rng, mu, lam)
        wd = weierstrass_prep(f)
        assert (wd.mu, wd.lam) == (mu, lam)
        mu2, lam2, n0 = iwasawa_invariants_by_roots(f, n_max=3)
        assert (mu2, lam2) == (mu, lam)


def test_oracle_matches_prep_identity(rng):
    z3 = make_ring(3, 12, "zp")
    for _ in range(6):
        mu, lam = rng.randrange(2), rng.randrange(5)
        f = plant_series(z3, 72, rng, mu, lam)
        wd = weierstrass_prep(f)
        assert (wd.mu, wd.lam) == (mu, lam)
        n = oracle_identity_level(3, lam)
        phi_n = 3 ** (n - 1) * 2
        (_, v), = mu_lambda_by_roots(f, [n])
        assert v == mu * phi_n + lam


@given(st.lists(st.integers(0, 3 ** 6 - 1), min_size=2, max_size=5),
       st.lists(st.integers(0, 3 ** 6 - 1), min_size=2, max_size=5),
       st.lists(st.integers(0, 3 ** 6 - 1), min_size=2, max_size=5))
@settings(max_examples=15, deadline=None)
def test_compose_associativity(a, b, c):
    spec = make_ring(3, 6, "zp")
    cap = 10
    f = TruncSeries(spec, cap, a)
    g = TruncSeries(spec, cap, [0] + b)
    h = TruncSeries(spec, cap, [0] + c)
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    assert lhs.eq_mod(rhs)


def test_poly_divmod_monic(z3):
    f = TruncSeries(z3, 12, [4, 1, 7, 2, 1, 5])
    P = [z3.from_int(2), z3.from_int(1), z3.one()]  # monic x^2 + x + 2
    Q, R = poly_divmod_monic(f, P)
    rec = Q * TruncSeries(z3, 12, [c for c in P]) + R.extend_cap(12)
    assert rec.eq_mod(f)
    assert R.degree() < 2


def test_reversion(z3):
    f = TruncSeries(z3, 10, [0, 1, 1])
    g = reversion(f)
    assert f.compose(g).eq_mod(TruncSeries.x(z3, 10))
    assert g.compose(f).eq_mod(TruncSeries.x(z3, 10))


def test_series_json_round_trip(q2):
    f = TruncSeries(q2, 6, [q2.one(), q2.gen_quad()], n_eff=7)
    j = f.to_json()
    assert j["D"] == 6 and j["N_eff"] == 7
    assert TruncSeries.from_json(j).eq_mod(f)
    # shifted series keep their exponent on the wire
    from ltk.series import formal_log
    L = formal_log(TruncSeries(make_ring(3, 6, "zp"), 10, [1, 1]))
    j2 = L.to_json()
    assert j2["shift"] == L.shift
    back = TruncSeries.from_json(j2)
    assert back.shift == L.shift and back.eq_mod(L)


def test_constructor_rejects_coefficients_of_the_wrong_length():
    q3 = make_ring(3, 6, "ramified_quad", quad=(0, 3))
    for coeffs in ([[1, 2, 3]], [[1]], [[1, 2], []]):
        with pytest.raises(DomainError, match="needs 2 coordinates"):
            TruncSeries(q3, 4, coeffs)
    assert TruncSeries(q3, 4, [[1, 2], 5]).coeffs[:2] == ((1, 2), (5, 0))
