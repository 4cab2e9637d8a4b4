"""The Lubin-Tate structural series over exact rationals, kept as the oracle
of the residue solves in ltk.lubin_tate.

RationalGroup(G) solves the logarithm and the exponential of a FormalGroup G
over the fraction field of its base ring, from log(f) = pi log and
f(exp) = exp(pi Y) with divisions by pi^k - pi, on the balanced lifts of f's
coefficients (residues above p^N / 2 go negative, so small negative
constants such as pi^2 = -2 stay exact).  Its log_series,
log_derivative_series and group_law_bivariate (exp_F(log_F X + log_F Y))
are the route the residue solves replaced, with the same outputs: the tests
require them bit-identical.  Its q_coordinate (exp(Omega_p^-1 log_F) - 1, its
compositional inverse and the conjugated Frobenius theta o f o theta^-1, by
Horner composition over the rationals) is the second route to the closed
form f_q = (1 + T)^pi - 1 that FormalGroup.q_coordinate sums, and must give
the same report.  rational_endomorphism is [a]_f by the same rational
solve, reduced mod p^N.  Products in the quadratic fields go through
lubin_tate._fr_mul.
"""

import weakref
from fractions import Fraction
from functools import partial

from ltk.lubin_tate import _fr_mul
from ltk.rings import PrecisionExhausted, ord_int
from ltk.series import TruncSeries, _reversion, _solve_structural


class _Rationals:
    """The base ring's fraction field, as tuples of Fractions on its basis.

    from_base takes the balanced lift, which keeps small negative constants
    (like pi^2 = -2) exact, so identities such as [pi]^2 = [pi^2] hold on the
    nose rather than only mod a reduced precision.
    """

    def __init__(self, spec):
        self.spec = spec
        self.rank = spec.rank
        self.bc = None if spec.quad is None else tuple(map(Fraction, spec.quad))
        self.mul = partial(_fr_mul, self.bc)

    def zero(self):
        return (Fraction(0),) * self.rank

    def one(self):
        return (Fraction(1),) + (Fraction(0),) * (self.rank - 1)

    def from_base(self, elem):
        m = elem.spec.modulus
        return tuple(Fraction(c if c <= m // 2 else c - m) for c in elem.coords)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def is_zero(self, a):
        return not any(a)

    def scale(self, s, a):
        return tuple(s * x for x in a)

    def inv(self, a):
        if self.rank == 1:
            return (1 / a[0],)
        qb, qc = self.bc
        nm = a[0] * a[0] - qb * a[0] * a[1] + qc * a[1] * a[1]
        return ((a[0] - qb * a[1]) / nm, -a[1] / nm)

    def den_ord(self, coeffs):
        """The largest p-order of a denominator among the coefficients."""
        p = self.spec.p
        return max((ord_int(x.denominator, p) for c in coeffs for x in c),
                   default=0)

    def to_base(self, a):
        """Residue coordinates of a; the denominators must be p-units."""
        m = self.spec.modulus
        out = []
        for x in a:
            if x.denominator % self.spec.p == 0:
                raise PrecisionExhausted("coefficient is not p-integral")
            out.append(x.numerator * pow(x.denominator, -1, m))
        return self.spec.elem(out)

    def series(self, coeffs):
        """The TruncSeries with these coefficients if p-integral, else None."""
        try:
            elems = [self.to_base(c) for c in coeffs]
        except PrecisionExhausted:
            return None
        return TruncSeries(self.spec, len(coeffs), elems)


def _poly_mul(R, a, b, cap):
    """Truncated product of coefficient lists over the exact rationals."""
    out = [R.zero()] * cap
    for i, ai in enumerate(a[:cap]):
        if R.is_zero(ai):
            continue
        for j, bj in enumerate(b[:cap - i]):
            if not R.is_zero(bj):
                out[i + j] = R.add(out[i + j], R.mul(ai, bj))
    return out


def _compose(R, f, g, cap):
    """f(g) mod X^cap by Horner's rule over the exact rationals.

    Every coefficient of f is used: g(0) need not vanish, so high terms of f
    reach the low degrees.
    """
    res = [R.zero()] * cap
    for c in reversed(f):
        res = _poly_mul(R, res, g, cap)
        if not R.is_zero(c):
            res[0] = R.add(res[0], c)
    return res


class RationalGroup:
    """The structural series of a FormalGroup G over exact rationals."""

    def __init__(self, G):
        self.G = G
        self.Q = _Rationals(G.spec)
        self.f_rat = [self.Q.from_base(c) for c in G.f_poly]
        self._f_pows = []
        self._log_cache = {}
        self._exp_cache = {}

    def f_powers(self, cap):
        """[None, f, f^2, ...] over the rationals, each known mod X^cap.

        Cached for the largest cap asked for: the solver reads only the
        entries [f^j]_k with j < k < cap, which a longer table holds too.
        """
        if len(self._f_pows) < cap:
            R = self.Q
            f = (self.f_rat + [R.zero()] * cap)[:cap]
            pows = [None, f]
            for _ in range(2, cap):
                pows.append(_poly_mul(R, f, pows[-1], cap))
            self._f_pows = pows
        return self._f_pows

    def pi_divider(self, cap):
        """k, x -> x / (pi^k - pi) for 2 <= k < cap."""
        R = self.Q
        pif = pik = R.from_base(self.G.pi)
        inv = [None, None]
        for _ in range(2, cap):
            pik = R.mul(pik, pif)
            inv.append(R.inv(R.sub(pik, pif)))
        return lambda k, x: R.mul(x, inv[k])

    def log_coeffs(self, cap):
        """Exact rational coefficients of log_F, solved from log(f) = pi*log."""
        if cap not in self._log_cache:
            R = self.Q
            self._log_cache[cap] = _solve_structural(
                R, cap, [R.zero(), R.one()], self.pi_divider(cap),
                v_pows=self.f_powers(cap))
        return self._log_cache[cap]

    def exp_coeffs(self, cap):
        """Exact rational coefficients of exp_F, from f(exp(Y)) = exp(pi*Y)."""
        if cap not in self._exp_cache:
            R = self.Q
            self._exp_cache[cap] = _solve_structural(
                R, cap, [R.zero(), R.one()], self.pi_divider(cap), u=self.f_rat)
        return self._exp_cache[cap]

    def log_series(self, cap):
        """log_F as a shifted-integral TruncSeries: p^S times the true
        coefficients, S the largest p-order of a denominator, at N + S."""
        fr = self.log_coeffs(cap)
        spec, p = self.G.spec, self.G.spec.p
        S = self.Q.den_ord(fr)
        big = spec.with_precision(spec.N + S)
        mod = big.modulus

        def pack(x):
            v = ord_int(x.denominator, p)
            unit = x.denominator // p ** v
            return x.numerator * p ** (S - v) * pow(unit, -1, mod) % mod

        coeffs = [tuple(pack(x) for x in c) for c in fr]
        return TruncSeries(big, cap, coeffs, spec.N + S, S)

    def log_derivative_series(self, cap):
        """log_F'(X) as an integral TruncSeries, from log_F mod X^(cap+1)."""
        R = self.Q
        l = self.log_coeffs(cap + 1)
        ser = R.series([R.scale(Fraction(k + 1), l[k + 1]) for k in range(cap)])
        if ser is None:
            raise PrecisionExhausted("log_F' is not integral (unexpected)")
        return ser

    def group_law_bivariate(self, cap):
        """F(X,Y) = exp_F(log X + log Y) as {(i,j): RingElem}, total deg < cap."""
        R = self.Q
        l = self.log_coeffs(cap)
        e = self.exp_coeffs(cap)

        def bmul(A, B):
            out = {}
            for (i1, j1), a in A.items():
                if R.is_zero(a):
                    continue
                for (i2, j2), b in B.items():
                    i, j = i1 + i2, j1 + j2
                    if i + j >= cap or R.is_zero(b):
                        continue
                    out[(i, j)] = R.add(out.get((i, j), R.zero()), R.mul(a, b))
            return out

        S = {}
        for k in range(1, cap):
            if not R.is_zero(l[k]):
                S[(k, 0)] = l[k]
                S[(0, k)] = l[k]
        F = {}
        P = {(0, 0): R.one()}
        for k in range(1, cap):
            P = bmul(P, S)
            if not P:
                break
            if not R.is_zero(e[k]):
                for key, v in P.items():
                    F[key] = R.add(F.get(key, R.zero()), R.mul(e[k], v))
        return {key: R.to_base(v) for key, v in F.items() if not R.is_zero(v)}

    def q_coordinate(self, omega_p, cap):
        """The report of FormalGroup.q_coordinate, over exact rationals."""
        G, R = self.G, self.Q
        spec = G.spec
        if isinstance(omega_p, int):
            omega_p = spec.from_int(omega_p)
        oinv = R.inv(R.from_base(omega_p))
        h = [R.mul(oinv, c) for c in self.log_coeffs(cap)]
        # ordinary exp via E' = E h', E(0)=1
        E = [R.one()] + [R.zero()] * (cap - 1)
        hp = [R.scale(Fraction(k + 1), h[k + 1]) for k in range(cap - 1)]
        for k in range(1, cap):
            acc = R.zero()
            for j in range(k):
                if not R.is_zero(E[j]):
                    acc = R.add(acc, R.mul(E[j], hp[k - 1 - j]))
            E[k] = R.scale(Fraction(1, k), acc)
        theta = E[:]
        theta[0] = R.zero()  # exp(...) - 1
        theta_inv = _reversion(R, theta, cap)
        f_fr = (self.f_rat + [R.zero()] * cap)[:cap]
        f_q = _compose(R, theta, _compose(R, f_fr, theta_inv, cap), cap)
        s_th = R.den_ord(theta)
        s_fq = R.den_ord(f_q)
        report = {
            "omega_p": omega_p,
            "theta_integral": s_th == 0,
            "theta_max_denominator_ord": s_th,
            "f_q_integral": s_fq == 0,
            "f_q_max_denominator_ord": s_fq,
            "achieved_n_eff": max(spec.N - s_fq, 0),
            "theta_slope_matches": theta[1] == oinv,
        }
        if s_th == 0:
            report["theta"] = R.series(theta)
        if s_fq == 0:
            ser = R.series(f_q)
            report["f_q"] = ser
            tgt = TruncSeries.monomial(spec, cap, G.q)
            report["congruence_mod_p"] = ser.eq_mod(tgt, 1)
        else:
            # congruence checked on the prefix before the first denominator
            report["congruence_mod_p"] = None
            d = next(i for i in range(cap) if R.den_ord(f_q[i:i + 1]))
            report["integral_prefix_degree"] = d
            pref = R.series(f_q[:d]) if d else None
            if pref is not None:
                tgt = TruncSeries.monomial(spec, d, G.q) if G.q < d \
                    else TruncSeries.zero(spec, max(d, 1))
                report["congruence_mod_p_prefix"] = pref.eq_mod(tgt, 1)
        return report


_GROUPS = weakref.WeakKeyDictionary()


def rational_group(G):
    """The RationalGroup of G, made once per group."""
    if G not in _GROUPS:
        _GROUPS[G] = RationalGroup(G)
    return _GROUPS[G]


def rational_endomorphism(G, a, cap):
    """[a]_f solved over exact rationals and reduced mod p^N (the route the
    residue solve replaced; kept as its oracle)."""
    Q = rational_group(G)
    R = Q.Q
    c = _solve_structural(R, cap, [R.zero(), R.from_base(a)], Q.pi_divider(cap),
                          u=Q.f_rat, v_pows=Q.f_powers(cap))
    return tuple(R.to_base(t).coords for t in c)
