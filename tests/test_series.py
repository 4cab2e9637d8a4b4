import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ltk import lubin_tate, series as series_module
from ltk.cli import run
from ltk.rings import (DomainError, PrecisionExhausted, descend, make_composite,
                       make_ring, valuation)
from ltk.series import (
    TruncSeries,
    formal_exp,
    formal_log,
    mu_lambda_by_roots,
    poly_divmod_monic,
    reversion,
    weierstrass_prep,
)

from conftest import congruent, exp_reference, random_series
from eval_oracle import ref_eval, ref_root_product
from series_oracle import (iwasawa_invariants_by_roots, ref_divmod_monic, ref_invert,
                           ref_weierstrass_prep)


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_formal_exp_digits_match_the_reference(p):
    # every digit formal_exp claims is a digit of exp(f), shifted inputs and
    # inputs below full precision included, and the claim is min(f's true
    # precision, N - shift of the result)
    rng = random.Random(p)
    for N in range(2, 9):
        for spec in (make_ring(p, N, "zp"),
                     make_ring(p, N, "ramified_quad", quad=(0, p))):
            for cap in range(2, 13):
                shift = cap % 3 if cap % 3 < N else 0
                n_eff = N if cap % 2 else rng.randrange(shift + 1, N + 1)
                f = TruncSeries(spec, cap, [0] + [
                    [rng.randrange(spec.modulus) for _ in range(spec.rank)]
                    for _ in range(cap - 1)], n_eff, shift)
                try:
                    E = formal_exp(f)
                except PrecisionExhausted:
                    continue
                n = E.n_eff - E.shift
                assert n == min(n_eff - shift, N - E.shift)
                assert congruent(E, exp_reference(f), n), (spec, f.coeffs, shift)


def test_formal_log_and_exp_errors_name_what_was_needed(z3):
    with pytest.raises(DomainError, match=r"formal_log: log\(1 \+ h\) needs an integral h; "
                                          r"h has shift 1"):
        formal_log(TruncSeries(z3, 4, [3, 1], shift=1))
    with pytest.raises(DomainError, match=r"formal_log: the sum converges neither X-adically "
                                          r"\(the constant term is not 0\) nor p-adically "
                                          r"\(it needs t > 0; t = 0\)"):
        formal_log(TruncSeries(z3, 4, [2, 1]))
    with pytest.raises(DomainError, match=r"formal_exp: the sum converges neither X-adically "
                                          r"\(the constant term is not 0\) nor p-adically "
                                          r"\(it needs t > 1/2; t = 0\)"):
        formal_exp(TruncSeries(z3, 4, [3, 1]))
    # log(1 + X) at cap 9 has X^8 / 8: its denominator 2^3 needs 4 digits
    with pytest.raises(PrecisionExhausted, match=r"formal_log: the value has p\^-3 in its "
                                                 r"denominators, so it needs more than 3 "
                                                 r"digits; the ring has N = 2"):
        formal_log(TruncSeries(make_ring(2, 2, "zp"), 9, [1, 1]))


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


def test_public_constructor_keeps_its_checks_where_internal_copies_skip_them():
    """Internal copies of canonical coordinates (extend_cap, the evaluation
    table, tilde) go through _series; the public constructor still refuses a
    tuple of the wrong length or a coefficient of another ring, and still
    reduces out-of-range coordinates."""
    q3 = make_ring(3, 6, "ramified_quad", quad=(0, 3))
    with pytest.raises(DomainError, match="needs 2 coordinates"):
        TruncSeries(q3, 4, [(1, 2, 3)])
    with pytest.raises(DomainError, match="different ring"):
        TruncSeries(q3, 4, [make_ring(3, 7, "ramified_quad", quad=(0, 3)).one()])
    m = q3.modulus
    assert TruncSeries(q3, 3, [(m + 1, -1), -2]).coeffs == ((1, m - 1), (m - 2, 0), (0, 0))
    s = TruncSeries(q3, 3, [(4, 5), (6, 7)], 5, 1)
    t = s.extend_cap(6)
    assert (t.cap, t.coeffs, t.n_eff, t.shift) == (
        6, ((4, 5), (6, 7)) + ((0, 0),) * 4, 5, 1)
    assert t.coeffs == TruncSeries(q3, 6, list(s.coeffs), 5, 1).coeffs
    assert s.extend_cap(2).coeffs == ((4, 5), (6, 7))


# -- the Newton inverse against the schoolbook oracle --------------------------------


INVERT_SPECS = {
    "zp": make_ring(3, 13, "zp"),
    "zp2": make_ring(2, 9, "zp"),
    "ramified": make_ring(3, 7, "ramified_quad", quad=(0, 3)),
    "ramified2": make_ring(2, 8, "ramified_quad", quad=(0, 2)),
    "unramified": make_ring(2, 7, "unramified_quad", quad=(1, 1)),
    "cyclotomic1": make_ring(3, 9, "cyclotomic", level=1),
    "cyclotomic2": make_ring(3, 6, "cyclotomic", level=2),
    "composite": make_composite(make_ring(3, 7, "ramified_quad", quad=(0, 3)), 1),
    "composite_p2": make_composite(make_ring(2, 6, "unramified_quad", quad=(1, 1)), 2),
}


@pytest.mark.parametrize("kind", INVERT_SPECS)
def test_invert_matches_schoolbook_oracle(kind, rng):
    spec = INVERT_SPECS[kind]
    for cap in (1, 2, 3, 5, 16, 17, 33, 128):
        # dense at full precision, 3-term at n_eff < N, and a shifted series
        # whose p-content normalization lowers n_eff
        dense = random_series(spec, cap, rng)
        sparse = random_series(spec, cap, rng, terms=3)
        for s in (dense, TruncSeries(spec, cap, sparse.coeffs, n_eff=spec.N - 2),
                  TruncSeries(spec, cap, dense.scale(spec.p).coeffs, shift=1)):
            got, want = s.invert(), ref_invert(s)
            assert got.coeffs == want.coeffs
            assert (got.n_eff, got.shift) == (want.n_eff, 0)
            assert got.n_eff == s.n_eff - s.shift


def test_invert_errors(z3, q3):
    for invert in (TruncSeries.invert, ref_invert):
        with pytest.raises(DomainError):
            invert(TruncSeries(z3, 8, [3, 1]))
        with pytest.raises(DomainError):
            invert(TruncSeries(q3, 8, [q3.gen_quad(), 1]))
        # 1 + X over p: the shift survives normalization
        with pytest.raises(PrecisionExhausted):
            invert(TruncSeries(z3, 8, [1, 1], shift=1))


@pytest.mark.parametrize("kind", INVERT_SPECS)
def test_invert_of_a_series_whose_inverse_is_a_polynomial(kind, rng):
    # a unit constant, and a unit plus a tail divisible by p: the tail is
    # nilpotent mod p^N, so s v = 1 holds for a polynomial v and the Newton
    # loop takes its exact exit
    spec = INVERT_SPECS[kind]
    m = spec.modulus
    for cap in (1, 2, 3, 5, 16, 17, 33):
        c0 = random_series(spec, 1, rng).coeffs[0]
        p = [spec.p] + [0] * (spec.rank - 1)
        # c0 + pX, c0 + pX^2 (a gap before the tail), and a random tail
        tails = ([], [p], [[0] * spec.rank, p],
                 [[spec.p * rng.randrange(m) % m for _ in range(spec.rank)]
                  for _ in range(rng.randrange(1, 5))])
        for tail in tails:
            s = TruncSeries(spec, cap, ([c0] + tail)[:cap])
            got, want = s.invert(), ref_invert(s)
            assert got.coeffs == want.coeffs
            assert (got.n_eff, got.shift) == (want.n_eff, 0)


def test_invert_of_a_constant_takes_one_newton_step(monkeypatch, q2):
    """The inverse unpacks each of its int products once: a unit constant
    exits after the first."""
    from ltk import series
    calls = []
    unpack = series._unpack
    monkeypatch.setattr(series, "_unpack", lambda *a, **kw: calls.append(a) or unpack(*a, **kw))
    s = TruncSeries(q2, 24, [[1, 1]])
    got = s.invert()
    assert len(calls) == 1
    assert got.coeffs == ref_invert(s).coeffs


# -- Weierstrass preparation: outputs and Hensel steps -------------------------------


def criterion_7_shapes():
    """(spec, mu, lambda, cap) for every planted shape of criterion 7 and the
    iwasawa_invariants workload, whose caps run up to 112 (p = 2, lambda =
    4, mu = 1)."""
    for p, (N, lam_bound) in {2: (14, 5), 3: (12, 5), 5: (9, 4)}.items():
        spec = make_ring(p, N, "zp")
        for mu in (0, 1):
            for lam in range(lam_bound):
                n = oracle_identity_level(p, lam)
                phi_n = p ** (n - 1) * (p - 1)
                yield spec, mu, lam, max(16, phi_n * (mu * phi_n + lam + 2))


def omega_preps(monkeypatch):
    """The series `ltk omega` prepares at p = 2, pi^2 = -2, N = 6, cap 24:
    pibar_1 to pibar_4 (lambda up to 8) and [p^2]_f."""
    seen = []

    def record(f):
        seen.append(f)
        return weierstrass_prep(f)

    with monkeypatch.context() as m:
        m.setattr(lubin_tate, "weierstrass_prep", record)
        assert run(["--p", "2", "--ring", "ram", "--pi-sq", "-2", "--prec", "6",
                    "--deg", "24", "omega", "--n", "2"]) == 0
    assert len(seen) == 5
    return seen


def prep_fields(wd):
    return (wd.mu, wd.lam, [c.coords for c in wd.dist], wd.unit.coeffs,
            wd.unit.n_eff, wd.n_eff)


def test_weierstrass_unchanged_by_the_newton_inverse(monkeypatch, rng):
    series = [plant_series(spec, cap, rng, mu, lam)
              for spec, mu, lam, cap in criterion_7_shapes()]
    assert max(f.cap for f in series) == 112
    series += omega_preps(monkeypatch)
    newton = [prep_fields(weierstrass_prep(f)) for f in series]
    # the loop's inverses (of U, and of P reversed in Newton division)
    monkeypatch.setattr(
        series_module, "_inverse",
        lambda K, s, cap, v0: list(ref_invert(TruncSeries(K, cap, list(s[:cap]))).coeffs))
    assert [prep_fields(weierstrass_prep(f)) for f in series] == newton


def test_hensel_steps_within_the_derived_bound(monkeypatch, rng):
    series = [plant_series(spec, cap, rng, mu, lam)
              for _ in range(3) for spec, mu, lam, cap in criterion_7_shapes()]
    series += omega_preps(monkeypatch)
    steps = []
    divide = series_module._divmod_monic
    monkeypatch.setattr(series_module, "_divmod_monic",
                        lambda *a: steps.append(a) or divide(*a))
    for f in series:
        steps.clear()
        wd = weierstrass_prep(f)
        # one division per Hensel step; ceil(log2(e n_eff)) steps suffice
        e = f.spec.ramification_index
        assert len(steps) <= (e * wd.n_eff - 1).bit_length()


def test_int_coefficients_are_the_ring_integers():
    rings = [make_ring(3, 5, "zp"), make_ring(3, 5, "ramified_quad", quad=(0, 3)),
             make_ring(2, 4, "cyclotomic", level=2),
             make_composite(make_ring(3, 4, "unramified_quad", quad=(1, 2)), 1)]
    for spec in rings:
        ints = [0, 1, -1, 7, spec.modulus + 2, -5 * spec.modulus - 3, 3 ** 40]
        got = TruncSeries(spec, len(ints), ints).coeffs
        assert got == tuple(spec.from_int(c).coords for c in ints)


# -- Weierstrass preparation and monic division against the TruncSeries oracles ------


PREP_SPECS = [make_ring(p, N, kind, quad=quad)
              for p, N, quads in ((2, 14, ((0, 2), (1, 1))), (3, 9, ((0, 3), (0, 1))),
                                  (5, 7, ((0, 5), (0, 2))))
              for kind, quad in (("zp", None), ("ramified_quad", quads[0]),
                                 ("unramified_quad", quads[1]))]


def outcome(fn, *args):
    """fn's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DomainError, PrecisionExhausted) as exc:
        return type(exc), str(exc)


def division_routes(monkeypatch):
    """Record, for every _divmod_monic call, whether it took Newton's route."""
    routes = []
    divide = series_module._divmod_monic

    def record(K, f, P, cap):
        low = sum(1 for c in P[:len(P) - 1] if any(c))
        routes.append(low * (cap - len(P) + 1) > series_module.NEWTON_DIVISION_PRODUCTS)
        return divide(K, f, P, cap)

    monkeypatch.setattr(series_module, "_divmod_monic", record)
    return routes


def random_coeffs(spec, rng, n, nonzero=1.0, scale=1):
    return [[scale * rng.randrange(spec.modulus) % spec.modulus if rng.random() < nonzero
             else 0 for _ in range(spec.rank)] for _ in range(n)]


@pytest.mark.parametrize("spec", PREP_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
def test_monic_division_matches_the_schoolbook_oracle(spec, rng, monkeypatch):
    routes = division_routes(monkeypatch)
    rank = spec.rank
    one = [1] + [0] * (rank - 1)
    cases = [(cap, lam) for lam in range(9) for cap in {1, 2, lam, lam + 1, lam + 3}
             if cap >= 1]
    cases += [(rng.randrange(1, 113), rng.randrange(9)) for _ in range(6)]
    cases += [(112, 4), (112, 1), (40, 5), (24, 8)]
    for cap, lam in cases:
        for nonzero in (1.0, 0.4):
            P = random_coeffs(spec, rng, lam, nonzero) + [one]
            f = TruncSeries(spec, cap, random_coeffs(spec, rng, cap, nonzero),
                            n_eff=spec.N - rng.randrange(2), shift=rng.randrange(2))
            # the cap argument below, at and above the series' cap
            for c in {None, max(1, cap - 2), cap + 3}:
                got, want = poly_divmod_monic(f, P, c), ref_divmod_monic(f, P, c)
                for a, b in zip(got, want):
                    assert (a.cap, a.coeffs, a.n_eff, a.shift) == \
                           (b.cap, b.coeffs, b.n_eff, b.shift)
    assert any(routes) and not all(routes)


def planted(spec, cap, rng, mu, lam, n_eff=None):
    """p^mu (a distinguished polynomial of degree lam) (a unit of 6 terms)."""
    pi = spec.gen_quad() if spec.quad_kind == "ramified" else spec.from_int(spec.p)
    dist = [pi * spec.elem(c) for c in random_coeffs(spec, rng, lam)] + [spec.one()]
    f = (TruncSeries(spec, cap, dist) * random_series(spec, cap, rng, terms=6)
         ).scale(spec.p ** mu)
    return TruncSeries(spec, cap, f.coeffs, n_eff=n_eff)


@pytest.mark.parametrize("spec", PREP_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
def test_weierstrass_prep_matches_the_hensel_oracle(spec, rng, monkeypatch):
    routes = division_routes(monkeypatch)
    p, N = spec.p, spec.N
    inputs = [planted(spec, cap, rng, mu, lam, rng.choice((None, N - 1)))
              for mu, lam, cap in [(rng.randrange(2), rng.randrange(6), rng.randrange(1, 49))
                                   for _ in range(6)] + [(0, 5, 112), (1, 4, 72), (0, 2, 1)]]
    # arbitrary series: lambda wherever the first unit falls, or nowhere
    inputs += [TruncSeries(spec, cap, random_coeffs(spec, rng, cap, 0.7, rng.choice((1, p))))
               for cap in (1, 3, 9, 30)]
    # inputs that raise: lambda beyond the cap, no unit coefficient, all digits
    # gone, a denominator left, a ring the preparation does not take
    pi = spec.gen_quad() if spec.quad_kind == "ramified" else spec.from_int(p)
    inputs += [planted(spec, 3, rng, 0, 5), TruncSeries(spec, 8, [pi, pi * 3]),
               TruncSeries.zero(spec, 8), TruncSeries(spec, 8, [p ** (N - 1)], n_eff=N - 1),
               TruncSeries(spec, 8, [1, 1], shift=1),
               TruncSeries(make_ring(p, 4, "cyclotomic", level=1), 8, [p, 1])]
    for f in inputs:
        got, want = outcome(weierstrass_prep, f), outcome(ref_weierstrass_prep, f)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert prep_fields(got) == prep_fields(want)
            assert got.unit.cap == want.unit.cap
    assert any(routes) and not all(routes)


# -- sums, differences and integer multiples against the per-coefficient route -----


@pytest.mark.parametrize("kind", ["zp", "ramified", "unramified", "cyclotomic2", "composite"])
def test_add_sub_scale_match_the_coordinate_ops(kind, rng):
    # one add_coords / sub_coords / smul_coords call per coefficient, on the
    # common cap and shift _align gives, with mixed caps, n_eff and shifts
    spec = INVERT_SPECS[kind]
    q = spec.modulus

    def fields(s):
        return s.cap, s.coeffs, s.n_eff, s.shift

    for _ in range(8):
        caps = rng.choice(((12, 12), (12, 7), (5, 9)))
        a, b = (TruncSeries(spec, cap, list(random_series(spec, cap, rng, unit=False).coeffs),
                            rng.randrange(3, spec.N + 1), rng.randrange(0, 3))
                for cap in caps)
        for other in (b, rng.randrange(-q, 2 * q), spec.elem([rng.randrange(q)
                                                              for _ in range(spec.rank)])):
            A, B = series_module._align(a, other)
            joint = (A.cap, min(A.n_eff, B.n_eff), A.shift)
            for got, op in ((a + other, spec.add_coords), (a - other, spec.sub_coords)):
                want = tuple(op(x, y) for x, y in zip(A.coeffs, B.coeffs))
                assert fields(got) == (joint[0], want) + joint[1:]
        for c in (0, 1, -1, -q - 5, q, 3 * q + 7, rng.randrange(q)):
            want = tuple(spec.smul_coords(c, x) for x in a.coeffs)
            assert fields(a.scale(c)) == (a.cap, want, a.n_eff, a.shift)
