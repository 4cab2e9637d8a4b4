"""Schoolbook and single-purpose series routines, kept as oracles.

ref_invert is the schoolbook series inverse, the oracle for
TruncSeries.invert: it solves s v = 1 mod X^cap one coefficient at a time,
v_k = -v_0 sum_{j<k} v_j s_(k-j), with one ring product per term: O(cap^2)
compiled mul_coords calls and no packed product.  Its checks and precision
bookkeeping are invert's: the series is made integral first (a surviving
shift raises PrecisionExhausted), a non-unit constant term raises
DomainError, and the result keeps the integral series' n_eff with shift 0.

ref_divmod_monic is the schoolbook monic division one coefficient at a
time, and ref_weierstrass_prep the Hensel loop on TruncSeries and
RingElem values, over ref_invert and ref_divmod_monic: the oracles for
series.poly_divmod_monic and series.weierstrass_prep, which run on
coordinate lists.  They return the same (Q, R) and WeierstrassData and
raise the same errors.

iwasawa_invariants_by_roots solves (mu, lambda) from the root-of-unity
products of series.mu_lambda_by_roots: the second route that the
Weierstrass preparation tests compare against.
"""

from ltk.rings import DomainError, PrecisionExhausted, ord_int
from ltk.series import (TruncSeries, WeierstrassData, _as_coords, _series,
                        mu_lambda_by_roots)


def ref_invert(series):
    s = series.require_integral()
    spec = s.spec
    c0 = s.constant_term()
    if not c0.is_unit():
        raise DomainError("invert requires a unit constant term")
    inv0 = c0.inverse().coords
    mul, add, sub = spec.mul_coords, spec.add_coords, spec.sub_coords
    zero = (0,) * spec.rank
    out = [inv0]
    for k in range(1, s.cap):
        acc = zero
        for j in range(k):
            acc = add(acc, mul(out[j], s.coeffs[k - j]))
        out.append(mul(inv0, sub(zero, acc)))
    return TruncSeries(spec, s.cap, out, s.n_eff, 0)


def ref_divmod_monic(f, P, cap=None):
    spec = f.spec
    cap = cap or f.cap
    lam = len(P) - 1
    Pc = [_as_coords(spec, c) for c in P]
    zero = (0,) * spec.rank
    work = list(f.coeffs[:cap]) + [zero] * (max(cap, lam) - min(cap, f.cap))
    q = [zero] * cap
    sub, mul = spec.sub_coords, spec.mul_coords
    for k in range(cap - 1, lam - 1, -1):
        c = work[k]
        if any(c):
            q[k - lam] = c
            for i in range(lam + 1):
                if any(Pc[i]):
                    work[k - lam + i] = sub(work[k - lam + i], mul(c, Pc[i]))
    Q = _series(spec, cap, q, f.n_eff, f.shift)
    R = _series(spec, max(lam, 1), work[:lam] or [zero], f.n_eff, f.shift)
    return Q, R


def ref_weierstrass_prep(f):
    spec = f.spec
    if spec.kind not in ("zp", "ramified_quad", "unramified_quad"):
        raise DomainError("weierstrass_prep needs Z_p or quadratic coefficients")
    s = f.require_integral().canonical()
    p = spec.p
    mu = s.n_eff
    for c in s.coeffs:
        for x in c:
            if x:
                mu = min(mu, ord_int(x, p))
        if mu == 0:
            break
    if mu >= s.n_eff:
        raise PrecisionExhausted("all coefficients vanish at this precision")
    q = p ** mu
    F = _series(spec, s.cap, [tuple(x // q for x in c) for c in s.coeffs], s.n_eff - mu)
    lam = next((i for i in range(F.cap) if F.coeff(i).is_unit()), None)
    if lam is None:
        raise DomainError("no unit coefficient after removing p^mu "
                          "(content has fractional valuation or lambda exceeds cap)")
    # initial factorization: P = X^lam, U = top part of F
    P = [spec.zero() for _ in range(lam)] + [spec.one()]
    zero = (0,) * spec.rank
    U = _series(spec, F.cap, F.coeffs[lam:] + (zero,) * lam, F.n_eff)
    for _ in range((F.n_eff * spec.ramification_index - 1).bit_length() + 1):
        E = F - _series(spec, F.cap, [c.coords for c in P] + [zero] * (F.cap - lam - 1),
                        F.n_eff) * U
        if E.canonical().is_zero():
            break
        A = E * ref_invert(U)
        Q, R = ref_divmod_monic(A, P)
        P = [P[i] + R.coeff(i) for i in range(lam)] + [spec.one()]
        U = U + Q * U
    else:
        raise PrecisionExhausted("weierstrass preparation did not converge")
    if not U.constant_term().is_unit():
        raise PrecisionExhausted("unit factor lost its unit constant term")
    return WeierstrassData(mu, lam, tuple(P), U.canonical(), F.n_eff)


def iwasawa_invariants_by_roots(f, n_max=4):
    """(mu, lambda, n0) solved from consecutive root-product valuations.

    Levels are computed lazily: once two consecutive solutions agree the
    oracle stops, so the expensive high levels are touched only when the
    invariants actually need them.
    """
    s = f.require_integral()
    p = s.spec.p
    phis = {n: p ** (n - 1) * (p - 1) for n in range(1, n_max + 2)}
    vals = {}
    best = None
    for n in range(1, n_max + 1):
        vals[n] = mu_lambda_by_roots(s, [n])[0][1]
        if n == 1:
            continue
        d_phi = phis[n] - phis[n - 1]
        mu = (vals[n] - vals[n - 1]) / d_phi
        lam = vals[n - 1] - mu * phis[n - 1]
        if mu < 0 or lam < 0 or lam.denominator != 1 or mu.denominator != 1:
            best = None
            continue
        # Newton slopes of a distinguished polynomial are >= 1/lambda, so both
        # levels are in the asymptotic regime once phi(p^{n-1}) > lambda
        if lam < phis[n - 1]:
            return int(mu), int(lam), n - 1
        if best and best[:2] == (mu, lam):
            return int(mu), int(lam), best[2]
        best = (mu, lam, n - 1)
    raise PrecisionExhausted("root-product valuations did not stabilize; "
                             "raise n_max or the precision")
