"""Coleman interpolation over the torsion tower and the tilde-log pipeline.

A norm-compatible system of units across the tower levels determines a
unique series g with g(alpha_m) = beta_m (the d = 1 case); here it is
reconstructed by Newton-style CRT over the quotient rings base[X]/pibar_m,
which is finite and exact, while the classical fixed-point characterization
of the norm operator serves as an independent oracle.

The tilde-log of a unit series g is

    log g - (1/#F_f[f]) log((N_f g) o f) = (1/q) log(g^q / (N_f g o f)),

computed term by term with certified exact divisions; the final division by
q replays the integrality bootstrap numerically: first the d(log)-combination
is certified integral, then the series itself, with the offending coefficient
reported on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from .rings import (DomainError, PrecisionExhausted, RingElem, is_unit_coords, log_one_unit,
                    ord_int, valuation)
from .series import TruncSeries, poly_divmod_monic
from .measures import Measure

__all__ = [
    "CompatibleSystem",
    "system_from_series",
    "interpolate",
    "norm_fixed_point",
    "tilde_log",
    "mu_zero",
]


@dataclass
class CompatibleSystem:
    """Tower values beta_m; interpolation works for any value system, while
    genuine Coleman systems additionally satisfy Nm(beta_m) = beta_{m-1}
    (equivalent to coming from a norm-operator fixed point)."""

    tower: object
    coords: dict  # level m -> beta_m, an element of O'_m (flat coordinates)

    def __post_init__(self):
        tw = self.tower
        spec = tw.group.spec
        for m in self.coords:
            if m not in tw.rings:
                raise DomainError("level %r is not a tower level (1 .. M = %d)" % (m, tw.M))
        for m in range(1, tw.M + 1):
            if m not in self.coords:
                raise DomainError("missing level %d value" % m)
            beta = tw.rings[m].elem(self.coords[m])  # DomainError on a wrong length
            # pibar_m is Eisenstein: alpha_m is in the maximal ideal, so alpha^0 decides
            if not is_unit_coords(spec, beta[:spec.rank]):
                raise DomainError("beta_%d is not a unit" % m)
        # the API form, built once: beta_m as a tuple of base RingElems, one
        # per power of alpha_m
        self.values = {m: tuple(RingElem(spec, c) for c in tw.rings[m].coeffs(v))
                       for m, v in self.coords.items()}

    def norm_compatible(self, n_check=None):
        """Check Nm_m(beta_m) = beta_{m-1}; returns the agreement verdict."""
        tw = self.tower
        spec = tw.group.spec
        nc = n_check or (spec.N - 1)
        q = spec.p ** nc
        for m in range(2, tw.M + 1):
            nm = tw.norm(m, self.coords[m])
            if any((a - b) % q for a, b in zip(nm, self.coords[m - 1])):
                return False
        return True

    def to_json(self):
        return {
            "levels": self.tower.M,
            "values": {str(m): v for m, v in self.coords.items()},
        }


def system_from_series(tower, g):
    """Evaluate a unit series at the tower generators alpha_m: g(alpha_m) is
    the remainder of g by pibar_m (QuotientRing.residue)."""
    return CompatibleSystem(tower, {m: tower.rings[m].residue(g)
                                    for m in range(1, tower.M + 1)})


def interpolate(sys):
    """The series g with g(alpha_m) = beta_m, mod (prod pibar_m, p^n_eff).

    Newton-style CRT: g is corrected level by level by multiples of the
    partial products of the pibar_m; the divisions in the quotient rings are
    exact with certified integrality.  Each costs its divider's loss, the
    largest p-order of a denominator of the inverse multiplication matrix
    (QuotientRing.make_divider), and info["n_eff"] is N less their sum.  The
    partial products and the dividers depend on the tower only and are kept
    on it (TorsionTower.modulus, TorsionTower.divider).
    """
    tw = sys.tower
    spec = tw.group.spec
    cap = tw.group.cap
    total_deg = sum(tw.rings[m].deg for m in range(1, tw.M + 1))
    if total_deg > cap:
        raise PrecisionExhausted("cap too small for the interpolation modulus")
    # level 1: lift beta_1 as a polynomial of degree < deg pibar_1
    g = TruncSeries(spec, cap, tw.rings[1].coeffs(sys.coords[1]))
    n_eff = spec.N
    for m in range(2, tw.M + 1):
        E = tw.rings[m]
        divide = tw.divider(m)
        h = divide(E.sub(sys.coords[m], E.residue(g)))
        n_eff -= divide.loss
        g = g + tw.modulus(m - 1) * TruncSeries(spec, cap, E.coeffs(h))
    info = {
        "modulus_degree": total_deg,
        "n_eff": n_eff,
        "levels": tw.M,
    }
    return g.truncate(cap), info


def reduce_mod_system_ideal(g, tower, n_eff=None):
    """Canonical representative of g mod (prod pibar_m, p^n_eff); the
    product is the tower's (TorsionTower.modulus)."""
    prod = tower.modulus(tower.M)
    _, r = poly_divmod_monic(g, prod.coeffs[:prod.degree() + 1])
    r = r.canonical()
    if n_eff:
        return r.reduce_precision(n_eff)
    return r


def norm_fixed_point(G, seed, target=None):
    """Iterate g -> N_f g from a unit seed until consecutive iterates agree
    to target p-digits (default N - 1).

    Returns (g, info); info records the iteration count, the agreement
    level of the last two iterates and the history of those levels.

    Iteration bound (Coleman's lemma: R. Coleman, "Division values in local
    fields", Invent. Math. 53, 1979; de Shalit, ch. I 2).  The group is
    defined over O_K, whose Frobenius fixes the coefficients, so
    N_f g = g mod pi for a unit g, and g = 1 mod pi^i with i >= 1 gives
    N_f g = 1 mod pi^(i+1).  N_f is multiplicative, so the k-th iterate
    g_k = N_f^k g has g_k / g_(k-1) = N_f^(k-1)(N_f g / g) = 1 mod pi^k:
    after k iterations the last two agree mod pi^k, which is floor(k/e)
    p-digits in every coordinate (e the ramification index, p = pi^e times
    a unit).  So e * target iterations reach the target, and the loop runs
    no more.  If the levels stop short of it (the stored precision n_eff
    caps them), PrecisionExhausted names the bound and the history.
    """
    if not seed.constant_term().is_unit():
        raise DomainError("seed must be a unit series")
    target = target or (G.spec.N - 1)
    bound = G.spec.ramification_index * target
    g = seed
    history = []
    for it in range(1, bound + 1):
        g2 = G.coleman_norm(g)
        # agreement level of g2 vs g
        lvl = _agreement_level(g2, g)
        history.append(lvl)
        g = g2
        if lvl >= target:
            return g, {"iterations": it, "agreement": lvl, "history": history}
    raise PrecisionExhausted(
        "norm-operator iteration did not stabilize within e * target = %d "
        "iterations (history %s)" % (bound, history))


def _agreement_level(a, b):
    """The least of min(a.n_eff, b.n_eff) and the p-orders of the coordinate
    differences of a and b."""
    p = a.spec.p
    lvl = min(a.n_eff, b.n_eff)
    q = p ** lvl
    for ca, cb in zip(a.coeffs, b.coeffs):
        for x, y in zip(ca, cb):
            if (x - y) % q:   # agrees to fewer than lvl digits
                lvl = ord_int(x - y, p)
                q = p ** lvl
    return lvl


def tilde_log(G, g):
    """(1/q) log(g^q / (N_f g o f)) with the integrality bootstrap replayed.

    Returns (series, report).  The report carries the bootstrap verdict and
    the effective precision; an integrality failure raises with the offending
    coefficient.
    """
    g = g.require_integral()
    if not g.constant_term().is_unit():
        raise DomainError("tilde_log requires a unit series")
    spec = G.spec
    q = G.q
    qord = 1 if q == spec.p else 2
    P = G.coleman_norm(g).compose(G.f.truncate(g.cap))
    u = (g.pow_int(q)) * P.invert()
    # log u of the stored lift of u: the log of every lift agrees with it to
    # the u.n_eff digits log_one_unit claims
    h = u - TruncSeries.one(spec, u.cap)
    t = min(valuation(h.coeff(i)) for i in range(h.cap))
    if t <= 0:
        raise DomainError("log argument is not congruent to 1 mod m")
    S = log_one_unit(h, t)[0]
    report = {}
    # d(tilde-log) = S'/(q log_F') must be integral before dividing S by q
    logp = G.log_derivative_series(g.cap)
    dS = S.derive()
    A = dS * logp.invert()
    try:
        A.divide_exact_p(qord)
        report["d_bootstrap_integral"] = True
    except PrecisionExhausted:
        report["d_bootstrap_integral"] = False
    try:
        out = S.divide_exact_p(qord)
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(
            "tilde_log not integral at precision: " + str(exc)) from exc
    report["n_eff"] = out.n_eff
    report["q"] = q
    return out, report


def partial_dlog(G, lt, k):
    """k-th moment of the X-side measure: ((1/log_F') d/dX)^k at 0."""
    logp = G.log_derivative_series(lt.cap)
    inv = logp.invert()
    h = lt
    for _ in range(k):
        h = h.derive() * inv
    return h.coeff(0)


def mu_zero(G, sys):
    """The measure pipeline: interpolate, tilde-log, tag as an okp measure.

    The amice series is kept in the X coordinate (Omega_p = 1 diagonal
    reading); its moments use the integral operator (1/log_F') d/dX.  The
    first-moment bookkeeping (the d = 1 shadow of the cokernel map) is
    recorded in the report, not enforced.
    """
    g, info = interpolate(sys)
    lt, rep = tilde_log(G, g)
    rep["interpolation"] = info
    rep["first_moment"] = partial_dlog(G, lt, 1)
    okp = G.spec if G.spec.quad is not None else None
    mu = Measure(lt, "okp_units" if okp is not None else "zp_units", okp)
    return mu, g, rep
