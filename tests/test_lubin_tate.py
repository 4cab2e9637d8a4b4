from fractions import Fraction

import pytest

from ltk.rings import make_ring, valuation
from ltk.series import TruncSeries, mu_lambda_by_roots
from ltk.lubin_tate import QuotientRing, build_group, build_tower

from conftest import random_series


@pytest.fixture
def gm3():
    z3 = make_ring(3, 8, "zp")
    return build_group(z3, 3, 3, 20, variant="multiplicative")


@pytest.fixture
def g2(q2):
    return build_group(q2, q2.gen_quad(), 2, 24)


@pytest.fixture
def g3(q3):
    return build_group(q3, q3.gen_quad(), 3, 24)


def test_multiplicative_group_law(gm3):
    # F(X, Y) = X + Y + XY for the multiplicative variant
    F = gm3.group_law_bivariate(6)
    z3 = gm3.spec
    expect = {(1, 0): z3.one(), (0, 1): z3.one(), (1, 1): z3.one()}
    assert F == expect
    # log_F = log(1+X): stored = p^shift * (X - X^2/2 + ...), slope 1
    L = gm3.log_series(10)
    assert L.coeff(1).divide_exact_p(L.shift).coords[0] == 1
    assert gm3.log_derivative_is_unit(12)


def test_group_law_axioms(g2):
    F = g2.group_law_bivariate(7)
    # F(X, 0) = X
    assert F.get((1, 0)) == g2.spec.one()
    assert all(F.get((k, 0), g2.spec.zero()).is_zero() for k in range(2, 7))
    # symmetry
    for (i, j), c in F.items():
        assert F.get((j, i)) == c


def test_identity_endomorphism(g2):
    assert g2.endomorphism(1, 12).eq_mod(TruncSeries.x(g2.spec, 12))


def test_pi_endomorphism_is_f(g2, g3):
    for G in (g2, g3):
        assert G.endomorphism(G.pi, 16).eq_mod(G.f.truncate(16))


def test_p_endomorphism_multiplicative(gm3):
    # [p]_{G_m}(X) = (1+X)^p - 1
    e = gm3.endomorphism(3, 12)
    assert e.eq_mod(gm3.f.truncate(12))


def test_endomorphism_multiplicativity(g3, rng):
    for a, b in [(2, 5), (4, 7), (-1, 2)]:
        ea = g3.endomorphism(a, 14)
        eb = g3.endomorphism(b, 14)
        eab = g3.endomorphism(a * b, 14)
        assert ea.compose(eb).eq_mod(eab)


def test_pi_squared_is_minus_two(g2):
    pi2 = g2.pi_power_series(2).truncate(16)
    em2 = g2.endomorphism(g2.spec.from_int(-2), 16)
    assert pi2.eq_mod(em2)
    # f commutes with [pi]
    epi = g2.endomorphism(g2.pi, 18)
    assert g2.f_of(epi.extend_cap(24)).truncate(18).eq_mod(
        epi.compose(g2.f.truncate(18)))


def test_omega_polys(g2, g3):
    for G, p in ((g2, 2), (g3, 3)):
        om0 = G.omega_polys(0)
        X = TruncSeries.x(G.spec, G.cap)
        assert om0["omega_plus"].eq_mod(X)
        assert om0["omega_minus"].eq_mod(X)
        # pibar_1 = X^{p-1} + pi for the standard variant
        pb1 = G.pibar(1)
        assert len(pb1) == p
        assert pb1[0] == G.pi
        assert pb1[-1] == G.spec.one()


def test_omega_factorization_small(g2):
    pn = g2.endomorphism(g2.spec.from_int(2), g2.cap)
    unit, ok = g2.omega_factorization_check(1, n_check=6, target=pn)
    assert ok
    assert unit.constant_term().is_unit()


def test_pibar_iwasawa_invariants(g3):
    # mu = 0, lambda = q - 1 = 2; in-regime level is n = 2 (phi(9) = 6 > 2)
    pb1 = TruncSeries(g3.spec, 30, list(g3.pibar(1)))
    (_, v), = mu_lambda_by_roots(pb1, [2])
    assert v == Fraction(2)


def test_pibar2_iwasawa_invariants(q3):
    # lambda(pibar_2) = q^2 - q = 6 at p = 3; in-regime level n = 3
    G = build_group(q3, q3.gen_quad(), 3, 132)
    pb2 = TruncSeries(q3, 132, list(G.pibar(2)))
    (_, v), = mu_lambda_by_roots(pb2, [3])
    assert v == Fraction(6)


def test_endomorphism_additive_via_group_law(g3):
    # [a + b] = F([a], [b]) evaluated through the bivariate law
    cap = 7
    F = g3.group_law_bivariate(cap)
    spec = g3.spec
    for a, b in ((2, 5), (4, -1)):
        ea, eb = g3.endomorphism(a, cap), g3.endomorphism(b, cap)
        acc = TruncSeries.zero(spec, cap)
        pow_a = {0: TruncSeries.one(spec, cap)}
        pow_b = {0: TruncSeries.one(spec, cap)}
        for i in range(1, cap):
            pow_a[i] = pow_a[i - 1] * ea
            pow_b[i] = pow_b[i - 1] * eb
        for (i, j), c in F.items():
            acc = acc + (pow_a[i] * pow_b[j]).scale(c)
        assert acc.eq_mod(g3.endomorphism(a + b, cap), 5)


def test_coleman_norm_constants(g2, g3, gm3):
    for G in (g2, g3, gm3):
        c = TruncSeries(G.spec, G.cap, [5])
        out = G.coleman_norm(c)
        assert out.eq_mod(TruncSeries(G.spec, G.cap, [5 ** G.q]))


def test_coleman_norm_multiplicative_fixed(gm3):
    one_x = TruncSeries(gm3.spec, gm3.cap, [1, 1])
    assert gm3.coleman_norm(one_x).eq_mod(one_x)


def test_norm_law_both_methods(g3, rng):
    for _ in range(3):
        g = random_series(g3.spec, 24, rng)
        lhs = g3.coleman_norm(g).compose(g3.f.truncate(24))
        rhs = g3.translates_product(g)
        assert lhs.eq_mod(rhs, 5)


def test_coleman_norm_reports_the_input_precision(g3):
    # det g(C) is an integral polynomial in g's coefficients: g known mod
    # p^3 gives N_f g mod p^3, as the translates route also reports
    g = TruncSeries(g3.spec, 24, [1, 2, 5], n_eff=3)
    ng = g3.coleman_norm(g)
    assert ng.n_eff == 3 == g3.translates_product(g).n_eff
    full = TruncSeries(g3.spec, 24, [1, 2, 5])
    assert g3.coleman_norm(full).n_eff == g3.spec.N
    assert ng.coeffs == g3.coleman_norm(full).coeffs
    # changing g above p^3 moves N_f g only above p^3
    moved = g + TruncSeries.monomial(g3.spec, 24, 4, 27)
    assert g3.coleman_norm(moved).eq_mod(ng, 3)
    assert not g3.coleman_norm(moved).eq_mod(ng, 4)


def test_norm_congruence_mod_max_ideal(g3, rng):
    # N_f g = g^phi mod the maximal ideal; phi = id at d = 1
    g = random_series(g3.spec, 20, rng)
    d = (g3.coleman_norm(g) - g).canonical()
    for i in range(d.cap):
        c = d.coeff(i)
        assert c.is_zero() or valuation(c) > 0


def test_tower(g3):
    tw = build_tower(g3, 2)
    E1, E2 = tw.rings[1], tw.rings[2]
    a1, a2 = tw.alphas[1], tw.alphas[2]
    # pibar_1(alpha_1) = 0
    pb1 = TruncSeries(g3.spec, g3.cap, list(g3.pibar(1)))
    assert E1.is_zero_mod(E1.eval_series(pb1, a1), 5)
    # Nm_1(alpha_1) = pi up to unit
    nm1 = tw.norm(1, a1)
    assert valuation(nm1) == Fraction(1, 2)
    # f(alpha_2) = alpha_1 under the inclusion: pibar_1(f(alpha_2)) = 0
    fa2 = E2.eval_series(g3.f, a2)
    assert E2.is_zero_mod(E2.eval_series(pb1, fa2), 5)


def test_tower_norm_vs_norm_operator(g3, rng):
    # Nm_2(g(alpha_2)) = (N_f g)(alpha_1) for arbitrary g
    tw = build_tower(g3, 2)
    g = random_series(g3.spec, 24, rng)
    lhs = tw.norm(2, tw.rings[2].eval_series(g, tw.alphas[2]))
    rhs = tw.rings[1].eval_series(g3.coleman_norm(g), tw.alphas[1])
    q5 = 3 ** 5
    for x, y in zip(lhs, rhs):
        assert all((a - b) % q5 == 0 for a, b in zip(x.coords, y.coords))


def test_quotient_ring_divide(q3):
    E = QuotientRing(q3, [q3.gen_quad(), q3.zero(), q3.one()])  # w^2 = -pi
    w = E.x_class()
    y = E.mul(w, w)
    back = E.divide(y, w)
    assert all((a - b).is_zero() for a, b in zip(back, w))
    inv = E.inverse(E.add(E.one(), w))
    assert all((a - b).is_zero() for a, b in
               zip(E.mul(inv, E.add(E.one(), w)), E.one()))


def test_q_coordinate_multiplicative(gm3):
    rep = gm3.q_coordinate(1, cap=12)
    assert rep["theta_integral"]
    assert rep["theta"].eq_mod(TruncSeries.x(gm3.spec, 12))
    assert rep["congruence_mod_p"] is True
    assert rep["theta_slope_matches"]


def test_q_coordinate_ramified_reports(g2):
    # integrality of theta/f_Q is empirical; the naive Omega_p = 1 coordinate
    # is non-integral and the report must say so honestly
    rep = g2.q_coordinate(1, cap=14)
    assert rep["theta_slope_matches"]
    assert not rep["theta_integral"]
    assert rep["congruence_mod_p"] is None
    assert rep["f_q_max_denominator_ord"] > 0
    assert "integral_prefix_degree" in rep


def test_unramified_group(u2):
    G = build_group(u2, 2, 4, 24)
    assert G.q == 4
    pts = G.torsion_points()
    assert len(pts) == 4
    # norm operator law in the inert case
    import random
    rng = random.Random(5)
    g = random_series(u2, 20, rng)
    lhs = G.coleman_norm(g).compose(G.f.truncate(20))
    rhs = G.translates_product(g, cap=20)
    assert lhs.eq_mod(rhs, 4)


def test_q_coordinate_congruence_flagged_both_kinds(q2, u2):
    # the #F_f[f] / q interaction is tested on both base kinds and any
    # congruence failure is flagged in the report rather than resolved
    Gr = build_group(q2, q2.gen_quad(), 2, 24)
    Gu = build_group(u2, 2, 4, 24)
    for G in (Gr, Gu):
        rep = G.q_coordinate(1, cap=12)
        assert "congruence_mod_p" in rep
        if rep["congruence_mod_p"] is None:
            assert "integral_prefix_degree" in rep
            assert rep["f_q_max_denominator_ord"] > 0


# -- the structural solver's defining equations, on every group kind ----------


@pytest.fixture
def gz3(z3):
    return build_group(z3, 3, 3, 20)


@pytest.fixture
def gu2(u2):
    return build_group(u2, 2, 4, 24)


SOLVER_GROUPS = ["gz3", "gm3", "g2", "g3", "gu2"]


@pytest.mark.parametrize("name", SOLVER_GROUPS)
def test_endomorphisms_commute_with_f(name, request):
    G = request.getfixturevalue(name)
    f = G.f.truncate(G.cap)
    for a in G._residue_reps():
        ea = G.endomorphism(a)
        assert ea.compose(f).eq_mod(G.f_of(ea))


@pytest.mark.parametrize("name", SOLVER_GROUPS)
def test_translates_solve_f_of_t_equals_f(name, request):
    # f(X [+] pt) = f(X) in base[w]/pibar_1(w), to the precision of f(pt) = 0
    G = request.getfixturevalue(name)
    E = G.torsion_quotient_ring()
    cap, n = G.cap, G.spec.N - 1

    def times(a, b):
        out = [E.zero()] * cap
        for i in range(cap):
            for j in range(cap - i):
                out[i + j] = E.add(out[i + j], E.mul(a[i], b[j]))
        return out

    for pt in G.torsion_points(E):
        T = G.translate_series(pt, E)
        power = [E.one()] + [E.zero()] * (cap - 1)
        fT = [E.zero()] * cap
        for j in range(1, G.q + 1):
            power = times(power, T)
            fj = E.from_base(G.f_poly[j])
            fT = [E.add(s, E.mul(fj, t)) for s, t in zip(fT, power)]
        for k in range(cap):
            want = E.from_base(G.f.coeff(k))
            assert E.is_zero_mod(E.sub(fT[k], want), n)


def test_norm_law_routes_are_independent(g3, rng, monkeypatch):
    from ltk import lubin_tate as LT

    def crossed(*args, **kwargs):
        raise AssertionError("the two routes of the norm law share a step")

    g = random_series(g3.spec, 24, rng)
    with monkeypatch.context() as m:
        m.setattr(LT, "_solve_structural", crossed)
        lhs = g3.coleman_norm(g).compose(g3.f.truncate(24))
    with monkeypatch.context() as m:
        m.setattr(LT, "laplace_det", crossed)
        m.setattr(LT, "_companion_norm", crossed)
        rhs = g3.translates_product(g)
    assert lhs.eq_mod(rhs, 5)
