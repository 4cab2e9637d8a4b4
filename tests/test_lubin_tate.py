import sys
import threading
from fractions import Fraction

import pytest

from ltk import coleman as CO
from ltk import lubin_tate as LT
from ltk.rings import (DomainError, PrecisionExhausted, is_unit_coords, make_ring, mult_matrix,
                       valuation)
from ltk.series import TruncSeries, mu_lambda_by_roots
from ltk.lubin_tate import QuotientRing, build_group, build_tower

from conftest import random_series
from det_oracle import SeriesRing, det_bareiss, laplace_det
from lt_oracle import rational_endomorphism, rational_group


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
    assert not any(x % 3 ** 5 for x in E1.eval_series(pb1, a1))
    # Nm_1(alpha_1) = pi up to unit
    nm1 = tw.norm(1, a1)
    assert valuation(g3.spec.elem(nm1)) == Fraction(1, 2)
    # f(alpha_2) = alpha_1 under the inclusion: pibar_1(f(alpha_2)) = 0
    fa2 = E2.eval_series(g3.f, a2)
    assert not any(x % 3 ** 5 for x in E2.eval_series(pb1, fa2))


def test_tower_norm_vs_norm_operator(g3, rng):
    # Nm_2(g(alpha_2)) = (N_f g)(alpha_1) for arbitrary g
    tw = build_tower(g3, 2)
    g = random_series(g3.spec, 24, rng)
    lhs = tw.norm(2, tw.rings[2].eval_series(g, tw.alphas[2]))
    rhs = tw.rings[1].eval_series(g3.coleman_norm(g), tw.alphas[1])
    q5 = 3 ** 5
    assert all((a - b) % q5 == 0 for a, b in zip(lhs, rhs))


def test_quotient_ring_divide(q3):
    E = QuotientRing(q3, [q3.gen_quad(), q3.zero(), q3.one()])  # w^2 = -pi
    w = E.x_class()
    y = E.mul(w, w)
    back = E.make_divider(w)(y)
    assert back == w
    inv = E.make_divider(E.add(E.one(), w))(E.one())
    assert E.mul(inv, E.add(E.one(), w)) == E.one()


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


@pytest.fixture
def gu3():
    return build_group(make_ring(3, 6, "unramified_quad", quad=(0, 1)), 3, 9, 24)


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_torsion_points_are_the_series_at_w(name, request):
    # the closed forms omega(a) w and (1 + w)^a - 1 against [a]_f(w) summed
    # to cap 80, past e (q - 1) N where w^k vanishes mod p^N; on gu3
    # (q = 9, v(w) = 1/8) the series at the group's cap 24 agrees with these
    # only mod p^4
    G = request.getfixturevalue(name)
    E = G.torsion_quotient_ring()
    w = E.x_class()
    want = [E.zero()] + [E.eval_series(G.endomorphism(a, 80), w)
                         for a in G._residue_reps()[1:]]
    assert G.torsion_points(E) == want


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
            assert not any(x % G.spec.p ** n for x in E.sub(fT[k], want))


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_norm_law_both_methods(name, request, rng):
    # (N_f g) o f = prod over the torsion of g(X [+] pt), known mod p^(N-1)
    G = request.getfixturevalue(name)
    f = G.f.truncate(G.cap)
    for _ in range(3):
        g = random_series(G.spec, G.cap, rng)
        lhs = G.coleman_norm(g).compose(f)
        assert lhs.eq_mod(G.translates_product(g), G.spec.N - 1)


def test_norm_fixed_point_on_the_q9_group(gu3, rng):
    # N_f g = g to N - 1 digits, so g o f = prod g(X [+] pt) there too
    seed = random_series(gu3.spec, gu3.cap, rng, terms=8)
    gfix, info = CO.norm_fixed_point(gu3, seed)
    n = gu3.spec.N - 1
    assert info["agreement"] >= n
    assert gu3.coleman_norm(gfix).eq_mod(gfix, n)
    assert gfix.compose(gu3.f.truncate(gu3.cap)).eq_mod(gu3.translates_product(gfix), n)


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_norm_fixed_point_meets_coleman_iteration_bound(name, request, rng):
    # Coleman's lemma: after k iterations the last two iterates agree mod
    # pi^k, so to floor(k/e) digits, and e * target iterations suffice
    G = request.getfixturevalue(name)
    e = G.spec.ramification_index
    for target in (G.spec.N - 1, G.spec.N - 2):
        seed = random_series(G.spec, G.cap, rng, terms=8)
        _, info = CO.norm_fixed_point(G, seed, target=target)
        history = info["history"]
        assert info["iterations"] == len(history) <= e * target
        assert all(lvl >= min(k // e, target) for k, lvl in enumerate(history, 1))
        assert history[-1] >= target
    # past the stored precision the target is out of reach: the loop stops
    # after the bound and names it
    bound = e * (G.spec.N + 1)
    with pytest.raises(PrecisionExhausted, match=rf"e \* target = {bound} iterations"
                       rf" \(history \[(\d+, ){{{bound - 1}}}\d+\]\)"):
        CO.norm_fixed_point(G, seed, target=G.spec.N + 1)


# the highest level each group's cap can build (pibar_m has degree q^(m-1) (q-1))
TOWER_TOPS = {"gz3": 3, "gm3": 3, "g2": 3, "g3": 3, "gu2": 2, "gu3": 1}


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_tower_unit_test_reads_the_alpha0_coordinate(name, request, rng):
    # pibar_m is Eisenstein, so y in O'_m is a unit iff its alpha^0
    # coordinate is: against the determinant of multiplication by y, on
    # random elements and on ones whose alpha^0 coordinate alone is no unit
    G = request.getfixturevalue(name)
    spec, r = G.spec, G.spec.rank
    tw = build_tower(G, TOWER_TOPS[name])
    uniformizer = spec.gen_quad() if spec.quad_kind == "ramified" else spec.from_int(spec.p)
    rand = lambda: spec.elem([rng.randrange(spec.modulus) for _ in range(r)])

    def unit():
        while not (u := rand()).is_unit():
            pass
        return u

    for m, E in tw.rings.items():
        verdicts = set()
        for k in range(24):
            coeffs = ([uniformizer * rand()] + [unit() for _ in range(E.deg - 1)]
                      if k % 3 == 0 else [rand() for _ in range(E.deg)])
            y = tuple(x for c in coeffs for x in c.coords)
            want = det_bareiss(mult_matrix(E, y)) % spec.p != 0
            assert is_unit_coords(spec, y[:r]) == want
            verdicts.add(want)
        assert verdicts == {True, False}
    system = CO.system_from_series(tw, random_series(spec, G.cap, rng, terms=6))
    for m, E in tw.rings.items():
        beta = system.coords[m]
        for bad in (tw.alphas[m], tuple(spec.p * x % E.m for x in beta)):
            with pytest.raises(DomainError, match="beta_%d is not a unit" % m):
                CO.CompatibleSystem(tw, {**system.coords, m: bad})
        # a value of the wrong length is refused, not read in part
        with pytest.raises(DomainError, match="wrong length"):
            CO.CompatibleSystem(tw, {**system.coords, m: beta[:-1]})


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_tower_values_are_residues(name, request, rng):
    # g(alpha_m) is the remainder of g by pibar_m: against Horner at
    # alpha_m on every level, for series shorter than deg pibar_m (at the
    # group's cap and at their own), as long, longer and full; pibar_1 of
    # g2 and the ring base[X]/(X + p) have degree 1
    G = request.getfixturevalue(name)
    spec = G.spec
    tw = build_tower(G, TOWER_TOPS[name])
    rings = [*tw.rings.values(), QuotientRing(spec, [spec.from_int(spec.p), spec.one()])]
    assert min(E.deg for E in rings) == 1
    for E in rings:
        for n in sorted({0, 1, E.deg - 1, E.deg, E.deg + 1, G.cap}):
            g = random_series(spec, G.cap, rng, terms=n) if n else TruncSeries.zero(spec, 1)
            for ts in (g, g.truncate(max(n, 1))):
                assert E.residue(ts) == E.eval_series(ts, E.x_class())


def test_system_with_a_level_above_the_tower_is_refused(g3, rng):
    tw = build_tower(g3, 2)
    system = CO.system_from_series(tw, random_series(g3.spec, g3.cap, rng, terms=6))
    with pytest.raises(DomainError, match=r"level 3 is not a tower level \(1 \.\. M = 2\)"):
        CO.CompatibleSystem(tw, {**system.coords, 3: system.coords[2]})


def test_norm_law_routes_are_independent(g3, rng, monkeypatch):
    from ltk import lubin_tate as LT

    def crossed(*args, **kwargs):
        raise AssertionError("the two routes of the norm law share a step")

    g = random_series(g3.spec, 24, rng)
    with monkeypatch.context() as m:
        m.setattr(LT, "_solve_structural", crossed)
        lhs = g3.coleman_norm(g).compose(g3.f.truncate(24))
    with monkeypatch.context() as m:
        m.setattr(LT, "_det_packed", crossed)
        m.setattr(LT, "_companion_norm", crossed)
        rhs = g3.translates_product(g)
        # warm: the second call reads the cached translates
        assert g3.translates_product(g).coeffs == rhs.coeffs
    assert lhs.eq_mod(rhs, 5)


# -- the residue solves against the exact rational oracle ------------------------


@pytest.mark.parametrize("name", SOLVER_GROUPS)
def test_residue_endomorphism_matches_rational_solve(name, request, monkeypatch):
    G = request.getfixturevalue(name)
    spec, p = G.spec, G.spec.p
    avals = [spec.from_int(a) if isinstance(a, int) else a for a in G._residue_reps()]
    avals += [spec.from_int(a) for a in (-1, -5, p, p * p, 1 + p)]
    if spec.quad is not None:
        avals.append(spec.one() + spec.gen_quad() * 3)
    for cap in (8, G.cap, 40):
        want = [rational_endomorphism(G, a, cap) for a in avals]
        fresh = LT.FormalGroup(spec, G.pi, G.q, G.cap, G.f.coeffs, G.variant)
        with monkeypatch.context() as m:
            # the residue solve builds no fraction
            m.setattr(Fraction, "__new__", None)
            got = [fresh.endomorphism(a, cap) for a in avals]
        assert [e.coeffs for e in got] == want
        assert {(e.cap, e.n_eff, e.shift) for e in got} == {(cap, spec.N, 0)}


def test_solve_budget_is_tight_on_the_p2_group(g2, monkeypatch):
    # s = 1 + ceil(floor(log_2(cap - 1)) / 2) is 2 at cap 8 and 3 at cap 24;
    # one digit less and [-1]_f is already wrong mod p^N
    budget = LT.FormalGroup._solve_budget
    for cap, s in ((8, 2), (24, 3)):
        assert g2._solve_budget(cap) == s
        want = rational_endomorphism(g2, g2.spec.from_int(-1), cap)
        assert g2.endomorphism(-1, cap).coeffs == want
        with monkeypatch.context() as m:
            m.setattr(LT.FormalGroup, "_solve_budget",
                      lambda self, cap: budget(self, cap) - 1)
            short = build_group(g2.spec, g2.pi, 2, 24)
            assert short.endomorphism(-1, cap).coeffs != want


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_log_and_group_law_match_the_rational_oracle(name, request, monkeypatch):
    # log_F', log_F and F(X, Y), solved in residues, bit for bit against the
    # exact rational route; on gu3 (q = 9) log_series at cap 10 solves log_F'
    # mod X^9, whose h = f'/pi still reads f_9
    G = request.getfixturevalue(name)
    Q = rational_group(G)
    logs = {cap: Q.log_series(cap) for cap in (8, 10, 16, G.cap)}
    derivs = {cap: Q.log_derivative_series(cap) for cap in (8, 16, G.cap)}
    laws = {cap: Q.group_law_bivariate(cap) for cap in (6, 7, 8, 10)}
    with monkeypatch.context() as m:
        # the residue solves build no fraction
        m.setattr(Fraction, "__new__", None)
        for cap, want in logs.items():
            got = G.log_series(cap)
            assert (got.coeffs, got.n_eff, got.shift, got.spec) == \
                (want.coeffs, want.n_eff, want.shift, want.spec)
        for cap, want in derivs.items():
            got = G.log_derivative_series(cap)
            assert (got.coeffs, got.n_eff, got.shift, got.cap) == \
                (want.coeffs, want.n_eff, want.shift, want.cap)
        for cap, want in laws.items():
            assert G.group_law_bivariate(cap) == want


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_q_coordinate_matches_the_rational_oracle(name, request):
    # every key of the report, the series as (coeffs, cap, n_eff, shift)
    G = request.getfixturevalue(name)
    Q, p = rational_group(G), G.spec.p
    read = lambda rep: {k: (v.coeffs, v.cap, v.n_eff, v.shift)
                        if isinstance(v, TruncSeries) else v for k, v in rep.items()}
    for cap in range(8, 15):
        for omega in (1, 1 + p, -1):
            assert read(G.q_coordinate(omega, cap)) == read(Q.q_coordinate(omega, cap))


@pytest.mark.parametrize("name", ["g3", "gu2"])
def test_translates_product_below_the_group_cap(name, request, rng):
    # the points do not depend on the product's cap, so cap 12 is the
    # prefix of cap 24 and satisfies the norm law there
    G = request.getfixturevalue(name)
    g = random_series(G.spec, G.cap, rng)
    low = G.translates_product(g, cap=12)
    assert low.coeffs == G.translates_product(g).coeffs[:12]
    lhs = G.coleman_norm(g).compose(G.f.truncate(G.cap)).truncate(12)
    assert lhs.eq_mod(low, G.spec.N - 1)


def _rational_divide(E, y, b):
    """b / y in E by exact rational elimination on the flat coordinates,
    None when the quotient is not p-integral (the divider's oracle)."""
    R, p, m = E.rank, E.base.p, E.base.modulus
    M = mult_matrix(E, y)
    A = [[Fraction(x) for x in row] + [Fraction(c)]
         for row, c in zip(M, b)]
    for col in range(R):
        piv = next(i for i in range(col, R) if A[i][col])
        A[col], A[piv] = A[piv], A[col]
        A[col] = [x / A[col][col] for x in A[col]]
        for i in range(R):
            if i != col and A[i][col]:
                A[i] = [x - A[i][col] * z for x, z in zip(A[i], A[col])]
    xs = [row[R] for row in A]
    if any(x.denominator % p == 0 for x in xs):
        return None
    return tuple(x.numerator * pow(x.denominator, -1, m) % m for x in xs)


@pytest.mark.parametrize("name, level", [("g3", 2), ("gz3", 2), ("gu2", 1)])
def test_integer_divider_matches_rational_elimination(name, level, request, rng,
                                                      monkeypatch):
    G = request.getfixturevalue(name)
    spec = G.spec
    tw = build_tower(G, level)
    E, alpha = tw.rings[level], tw.alphas[level]
    rand = lambda: E.elem([rng.randrange(spec.modulus) for _ in range(E.rank)])
    mod_poly = TruncSeries(spec, G.cap, list(G.pibar(1)))
    for y in (E.eval_series(mod_poly, alpha), alpha, E.one(), rand()):
        try:
            divide = E.make_divider(y)
        except LT.PrecisionExhausted:
            continue
        bs = [rand() for _ in range(4)] + [E.mul(y, rand()) for _ in range(4)]
        want = [_rational_divide(E, y, b) for b in bs]
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", None)  # divide does integer arithmetic
            for b, w in zip(bs, want):
                if w is None:
                    with pytest.raises(LT.PrecisionExhausted):
                        divide(b)
                else:
                    assert divide(b) == w
        assert any(w is not None for w in want)


def test_norms_reject_a_series_over_another_ring(g3, gz3):
    for G, spec in ((g3, make_ring(3, 7, "zp")),
                    (g3, make_ring(3, 6, "ramified_quad", quad=(0, 3))),
                    (gz3, make_ring(3, 7, "zp"))):
        g = TruncSeries(spec, 12, [1, 2])
        for method in (G.coleman_norm, G.translates_product):
            with pytest.raises(DomainError, match="but the group is over"):
                method(g)


# -- the fiber-expansion norm against the matrix-Horner oracle -----------------


def _matrix_horner_norm(R, last_col, y):
    """det y(C) over R by Horner's rule M <- M C + y_k on a matrix of
    R-elements, C the companion matrix with this last column (the route the
    fiber expansion replaced; kept as its oracle)."""
    d = len(last_col)
    zero = R.zero()
    M = [[R.from_base(y[-1]) if r == c else zero for c in range(d)]
         for r in range(d)]
    for k in range(len(y) - 2, -1, -1):
        new = []
        for row in M:
            acc = zero
            for m, col in zip(row, last_col):
                if not R.is_zero(m) and not R.is_zero(col):
                    acc = R.add(acc, R.mul(m, col))
            new.append(row[1:] + [acc])
        if not y[k].is_zero():
            yk = R.from_base(y[k])
            for r in range(d):
                new[r][r] = R.add(new[r][r], yk)
        M = new
    return laplace_det(R, M)


def _fiber_column(R, rel, T):
    """Last companion column of rel(Z) - T over R:
    Z^d = (T - rel_0 - sum_{0<i<d} rel_i Z^i) / rel_d."""
    top_inv = rel[-1].inverse()
    head = R.mul(R.from_base(top_inv), R.sub(T, R.from_base(rel[0])))
    return [head] + [R.from_base(-(c * top_inv)) for c in rel[1:-1]]


def _oracle_coleman_norm(G, g):
    cap = min(g.cap, G.cap)
    R = SeriesRing(G.spec, cap)
    col = _fiber_column(R, G.f_poly, TruncSeries.x(G.spec, cap))
    return _matrix_horner_norm(R, col, [g.coeff(k) for k in range(cap)]).coeffs


def _oracle_tower_norm(tw, m, y):
    G, r = tw.group, tw.group.spec.rank
    y = [G.spec.elem(y[i:i + r]) for i in range(0, len(y), r)]
    if m == 1:
        R = LT._Coords(G.spec)
        return _matrix_horner_norm(R, [R.from_base(-c) for c in G.pibar(1)[:-1]], y)
    R = tw.rings[m - 1]
    return _matrix_horner_norm(R, _fiber_column(R, G.f_poly, tw.alphas[m - 1]), y)


@pytest.mark.parametrize("name", SOLVER_GROUPS + ["gu3"])
def test_coleman_norm_matches_matrix_horner(name, request, rng):
    G = request.getfixturevalue(name)
    spec, cap, N = G.spec, G.cap, G.spec.N
    cases = [
        random_series(spec, cap, rng),
        random_series(spec, cap - 5, rng),                  # cap below G.cap
        TruncSeries(spec, cap, list(random_series(spec, cap, rng).coeffs),
                    N - 2),                                  # n_eff < N
        TruncSeries(spec, cap, [spec.from_int(2)]),          # constant
        random_series(spec, cap, rng, terms=5),              # trailing zeros
        random_series(spec, cap + 6, rng),                   # cap above G.cap
    ]
    # caps below the digits' T-length e: the entries are cut to cap
    # coefficients and packed at the width for that length
    d = len(G.f_poly) - 1
    e = min(cap, (cap - 2) // d + 2)
    cases += [random_series(spec, c, rng, terms=t)
              for c in sorted({1, 2, 3, e - 1, e, e + 1}) for t in (None, 2)]
    if name == "gu3":   # d = 9: 2304 products in the oracle's determinant
        cases = cases[:1]
    for g in cases:
        ng = G.coleman_norm(g)
        assert ng.coeffs == _oracle_coleman_norm(G, g)
        assert ng.n_eff == min(N, g.n_eff)
        assert ng.cap == min(g.cap, cap)


@pytest.mark.parametrize("name", SOLVER_GROUPS)
def test_tower_norms_match_matrix_horner(name, request, rng):
    G = request.getfixturevalue(name)
    spec = G.spec
    tw = build_tower(G, 2)
    for m in (1, 2):
        E = tw.rings[m]
        ys = [tw.alphas[m], E.one(), E.zero(), E.from_base(spec.from_int(spec.p)),
              E.elem([rng.randrange(spec.modulus) for _ in range(E.rank)])]
        for y in ys:
            want = _oracle_tower_norm(tw, m, y)
            assert tw.norm(m, y) == tw.norm(m, y) == want
            assert build_tower(G, 2).norm(m, y) == want


@pytest.mark.parametrize("name", SOLVER_GROUPS)
def test_tower_norms_in_closed_form(name, request):
    # f monic with f(0) = 0: alpha_1 is a root of pibar_1 of degree d, so
    # N(alpha_1) = (-1)^d pibar_1(0); alpha_2 is a root of f(Z) - alpha_1
    # over O'_1, so N(alpha_2) = (-1)^q (0 - alpha_1) = (-1)^(q+1) alpha_1
    G = request.getfixturevalue(name)
    tw = build_tower(G, 2)
    pibar1 = G.pibar(1)
    d = len(pibar1) - 1
    assert tw.norm(1, tw.alphas[1]) == (pibar1[0] * (-1) ** d).coords
    E1, a1 = tw.rings[1], tw.alphas[1]
    assert tw.norm(2, tw.alphas[2]) == (a1 if G.q % 2 else E1.sub(E1.zero(), a1))


def test_fiber_norm_with_a_non_monic_relation(g3, rng):
    # rel = u * f or u * pibar_1 with a unit u != 1: the top coefficient
    # folds into T's coefficient, rel_0 into digit 0
    spec = g3.spec
    u = spec.from_int(2) + spec.gen_quad()
    y = [c for c in random_series(spec, 24, rng).coeffs]
    S = SeriesRing(spec, 24)
    rel = [c * u for c in g3.f_poly]
    want = _matrix_horner_norm(S, _fiber_column(S, rel, TruncSeries.x(spec, 24)),
                               [spec.elem(c) for c in y])
    assert LT._companion_norm(LT._fiber_digits(spec, rel, 24), y, 24) == list(want.coeffs)
    rel1 = [c * u for c in g3.pibar(1)]
    y1 = y[:5]
    B = LT._Coords(spec)
    want = _matrix_horner_norm(B, _fiber_column(B, rel1, B.zero()),
                               [spec.elem(c) for c in y1])
    assert LT._companion_norm(LT._fiber_digits(spec, rel1), y1) == [want]
    E = build_tower(g3, 1).rings[1]
    rel2 = [rel[0] + spec.one()] + rel[1:]
    want = _matrix_horner_norm(E, _fiber_column(E, rel2, E.x_class()),
                               [spec.elem(c) for c in y])
    assert LT._companion_norm(LT._fiber_digits(E, rel2), y) == [want]


def test_translates_cache_matches_a_fresh_group(q3, rng):
    warm = build_group(q3, q3.gen_quad(), 3, 24)
    g = random_series(q3, 24, rng)
    for cap in (20, 24, 20):
        got = warm.translates_product(g, cap=cap)
        fresh = build_group(q3, q3.gen_quad(), 3, 24).translates_product(g, cap=cap)
        assert (got.cap, got.coeffs, got.n_eff) == (fresh.cap, fresh.coeffs, fresh.n_eff)


def test_norm_caches_stay_per_group_and_warm_equals_cold(rng):
    # one f = 3X + X^3 over Z/3^6 and over Z/3^9: digits or powers kept by
    # f's coordinates alone would serve one group's tables to the other.
    # Trimmed lengths 3, 24, 3 grow the tables and, at 3^9, widen their
    # slots (4 to 8 bytes) between two short calls
    warm = [build_group(make_ring(3, N, "zp"), 3, 3, 24) for N in (6, 9)]
    towers = [build_tower(G, 2) for G in warm]
    for terms in (3, 24, 3):
        for G, tw in zip(warm, towers):
            g = random_series(G.spec, G.cap, rng, terms=terms)
            assert g.degree() == terms - 1
            cold = build_group(G.spec, 3, 3, 24)
            cold_tw = build_tower(cold, 2)
            ng = G.coleman_norm(g)
            assert ng.coeffs == cold.coleman_norm(g).coeffs == _oracle_coleman_norm(G, g)
            for m in (1, 2):
                y = tw.rings[m].eval_series(g, tw.alphas[m])
                assert tw.norm(m, y) == cold_tw.norm(m, y) == _oracle_tower_norm(tw, m, y)
            got, want = G.translates_product(g), cold.translates_product(g)
            assert (got.cap, got.coeffs, got.n_eff) == (want.cap, want.coeffs, want.n_eff)


def test_norm_caches_under_concurrent_calls(q3, rng):
    # six threads grow one cold group's digits and powers at once, with a
    # short switch interval, five times over; a lost or doubled row would
    # change a result.  Over Z/3^9 one 3-term call first caches the digits'
    # window ints at 4-byte slots, and the threads' calls of 3 to 24 terms
    # repack them at 8 bytes while others read the narrow windows
    z9 = make_ring(3, 9, "zp")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, pi in ((q3, q3.gen_quad()), (z9, 3)):
            gs = [random_series(spec, 24, rng, terms=t) for t in (3, 24, 9, 16, 5, 20)]
            # each want from its own cold group, so no cache history is shared
            want = [(G.coleman_norm(g).coeffs, G.translates_product(g).coeffs)
                    for g in gs for G in [build_group(spec, pi, 3, 24)]]

            def work(G, got, i):
                got[i] = (G.coleman_norm(gs[i]).coeffs, G.translates_product(gs[i]).coeffs)

            for _ in range(5):
                shared, got = build_group(spec, pi, 3, 24), [None] * len(gs)
                if spec is z9:
                    shared.coleman_norm(gs[0])
                    nbytes, _, windows = shared._norm_digits.table
                    assert (nbytes, len(windows)) == (4, 3)
                threads = [threading.Thread(target=work, args=(shared, got, i))
                           for i in range(len(gs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == want
                if spec is z9:
                    assert shared._norm_digits.table[0] == 8
    finally:
        sys.setswitchinterval(interval)


def test_fiber_digits_refuse_more_terms_than_their_cap(g3, rng):
    # the digits keep e = min(cap, (cap - 2) // d + 2) T-coefficients, all
    # that y with at most cap terms reads; a longer y would need one more
    y = list(random_series(g3.spec, 30, rng).coeffs)
    digits = LT._fiber_digits(g3.spec, g3.f_poly, 24)
    assert LT._companion_norm(digits, y[:24], 24) == list(g3.coleman_norm(
        TruncSeries(g3.spec, 24, y[:24])).coeffs)
    with pytest.raises(DomainError, match="at most cap terms"):
        LT._companion_norm(digits, y, 24)


# -- the derived per-level loss of interpolation --------------------------------


@pytest.mark.parametrize("spec_args, pi, q, cap, M", [
    ((3, 7, "ramified_quad", (0, 3)), "w", 3, 24, 2),
    ((3, 7, "ramified_quad", (0, 3)), "w", 3, 28, 3),
    ((2, 8, "ramified_quad", (0, 2)), "w", 2, 24, 3),
    ((3, 8, "zp", None), 3, 3, 20, 2),
    ((5, 6, "zp", None), 5, 5, 28, 2),
])
def test_interpolation_loss_is_derived(spec_args, pi, q, cap, M):
    p, N, kind, quad = spec_args
    spec = make_ring(p, N, kind, quad=quad)
    G = build_group(spec, spec.gen_quad() if pi == "w" else pi, q, cap)
    tw = build_tower(G, M)
    mod_poly = TruncSeries(spec, cap, list(G.pibar(1)))
    losses = []
    for m in range(2, M + 1):
        E = tw.rings[m]
        losses.append(E.make_divider(E.eval_series(mod_poly, tw.alphas[m])).loss)
        mod_poly = mod_poly * TruncSeries(spec, cap, list(G.pibar(m)))
    assert losses == [1] * (M - 1)
    g = TruncSeries(spec, cap, [1, 1, 2])
    g_rec, info = CO.interpolate(CO.system_from_series(tw, g))
    assert info["n_eff"] == N - sum(losses)
    assert CO.reduce_mod_system_ideal(g_rec, tw, info["n_eff"]).eq_mod(
        CO.reduce_mod_system_ideal(g, tw, info["n_eff"]), info["n_eff"])
