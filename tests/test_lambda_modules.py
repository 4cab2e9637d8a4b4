import pytest

from ltk.rings import PrecisionExhausted, make_ring
from ltk.series import TruncSeries
from ltk.lambda_modules import (
    LambdaPresentation,
    additivity_check,
    char_ideal,
    det_series,
)

from det_oracle import SeriesRing, laplace_det


Z = make_ring(3, 8, "zp")
CAP = 20


def ts(coeffs):
    return TruncSeries(Z, CAP, coeffs)


def rand_poly(rng, deg=4):
    return ts([rng.randrange(Z.modulus) for _ in range(deg)])


def test_char_ideal_examples():
    # diag(p, X): mu = 1, lambda = 1
    wd = char_ideal(LambdaPresentation(Z, [[ts([3]), ts([])],
                                           [ts([]), ts([0, 1])]]))
    assert (wd.mu, wd.lam) == (1, 1)
    # identity: trivial module
    wd2 = char_ideal(LambdaPresentation(Z, [[ts([1]), ts([])],
                                            [ts([]), ts([1])]]))
    assert (wd2.mu, wd2.lam) == (0, 0)


def test_zero_determinant_rejected():
    pres = LambdaPresentation(Z, [[ts([0, 1]), ts([0, 1])],
                                  [ts([0, 1]), ts([0, 1])]])
    with pytest.raises(PrecisionExhausted):
        char_ideal(pres)


def _scramble(M, rng, rounds=6):
    n = len(M)
    for _ in range(rounds):
        i, j = rng.sample(range(n), 2)
        s = rand_poly(rng)
        M[i] = [M[i][k] + s * M[j][k] for k in range(n)]
        k0, k1 = rng.sample(range(n), 2)
        s2 = rand_poly(rng)
        for r in range(n):
            M[r][k0] = M[r][k0] + s2 * M[r][k1]
    return M


def test_planted_snf_recovery(rng):
    M = [[ts([3]), ts([]), ts([])],
         [ts([]), ts([-3, 1]), ts([])],
         [ts([]), ts([]), ts([1])]]
    M = _scramble(M, rng)
    wd = char_ideal(LambdaPresentation(Z, M))
    assert (wd.mu, wd.lam) == (1, 1)
    # distinguished part is X - 3 at the reported precision
    q = 3 ** wd.n_eff
    assert (wd.dist[0].coords[0] - (-3)) % q == 0
    assert wd.dist[1] == Z.one()


def test_unimodular_invariance(rng):
    base = [[ts([3, 1, 1]), ts([0, 3])],
            [ts([9]), ts([0, 0, 1])]]
    wd0 = char_ideal(LambdaPresentation(Z, [row[:] for row in base]))
    M = _scramble([row[:] for row in base], rng)
    wd1 = char_ideal(LambdaPresentation(Z, M))
    assert (wd0.mu, wd0.lam) == (wd1.mu, wd1.lam)
    nc = min(wd0.n_eff, wd1.n_eff)
    assert wd0.dist_series(CAP).eq_mod(wd1.dist_series(CAP), nc)


def test_snf_additivity_of_invariants(rng):
    # mu(char) = sum of SNF mu's, lambda likewise
    entries = [ts([9]), ts([0, 0, 1]), ts([3, 0, 3, 1])]
    M = [[entries[i] if i == j else ts([]) for j in range(3)] for i in range(3)]
    wd = char_ideal(LambdaPresentation(Z, _scramble(M, rng)))
    assert wd.mu == 2  # 2 + 0 + 0
    assert wd.lam == 0 + 2 + 3


def test_additivity_block_diagonal():
    sub = LambdaPresentation(Z, [[ts([3, 1]), ts([])], [ts([]), ts([0, 0, 1])]])
    quot = LambdaPresentation(Z, [[ts([9, 3, 1])]])
    ok, data = additivity_check(sub, quot)
    assert ok
    assert data["middle"] == (data["sub"][0] + data["quot"][0],
                              data["sub"][1] + data["quot"][1])


def test_additivity_block_triangular(rng):
    for _ in range(5):
        sub = LambdaPresentation(Z, [[rand_poly(rng) + ts([3]), ts([0, 3])],
                                     [ts([9]), ts([0, 0, 0, 1])]])
        quot = LambdaPresentation(Z, [[ts([3, 1, 1])]])
        off = [[rand_poly(rng)] for _ in range(2)]
        ok, _ = additivity_check(sub, quot, off)
        assert ok


def test_additivity_mu_blocks():
    # p-power blocks exercise mu-additivity alone
    sub = LambdaPresentation(Z, [[ts([3])]])
    quot = LambdaPresentation(Z, [[ts([9])]])
    ok, data = additivity_check(sub, quot, [[ts([1, 2, 1])]])
    assert ok
    assert data["middle"] == (3, 0)


def test_json_round_trip():
    pres = LambdaPresentation(Z, [[ts([3, 1]), ts([5])], [ts([]), ts([0, 1])]])
    back = LambdaPresentation.from_json(pres.to_json())
    assert char_ideal(back).lam == char_ideal(pres).lam


def test_det_series_matches_laplace(rng):
    """Coefficients, cap and n_eff as the Laplace expansion over the series
    ring gives them: the least over the entries it multiplies, so an entry
    no row above can reach is left out and one whose minor is a dead end is
    not."""
    Q = make_ring(3, 7, "ramified_quad", quad=(0, 3))

    def rand(spec, cap=CAP, n_eff=None, terms=None):
        return TruncSeries(spec, cap, [spec.elem([rng.randrange(spec.modulus)
                                                  for _ in range(spec.rank)])
                                       for _ in range(terms or cap)], n_eff)

    zero = TruncSeries.zero(Z, CAP)
    cases = [
        (Z, [[rand(Z, n_eff=6), rand(Z, 24)], [rand(Z, terms=3), rand(Z, n_eff=7)]]),
        (Q, [[rand(Q, n_eff=5) for _ in range(3)] for _ in range(3)]),
        # (1, 0) is never reached: row 0's only entry takes column 0
        (Z, [[rand(Z), zero, zero], [rand(Z, n_eff=2), rand(Z), rand(Z)],
             [rand(Z), rand(Z, n_eff=6), rand(Z)]]),
        # (0, 0) multiplies a zero minor (row 1 is zero off column 0)
        (Z, [[rand(Z, n_eff=4), rand(Z)], [rand(Z, n_eff=5), zero]]),
        # an entry of smaller cap that is multiplied, and block zeros
        (Z, [[rand(Z, 12), rand(Z), zero], [zero, rand(Z), zero],
             [zero, zero, rand(Z, terms=2)]]),
        (Z, [[rand(Z, n_eff=3)]]),
        (Z, []),
    ]
    for spec, M in cases:
        want = laplace_det(SeriesRing(spec, CAP), M)
        got = det_series(M, spec, CAP)
        assert (got.coeffs, got.cap, got.n_eff) == (want.coeffs, want.cap, want.n_eff)
