"""Lubin-Tate formal groups at desk scale.

A FormalGroup packages a base ring (Z_p or a quadratic extension), a
uniformizer parameter pi', a torsion size q, and a Frobenius polynomial f
with f == pi'*X mod X^2 and f == X^q mod the maximal ideal.  The default
variant is f = pi'*X + X^q; the multiplicative variant (1+X)^p - 1 over Z_p
recovers the classical picture.

Every algorithm here runs over a small ring protocol: zero, one, from_base,
add, sub, mul, is_zero.  The base RingSpec, the series ring SeriesRing, the
quotient rings base[X]/P and the exact rationals _Rationals all speak it, so
the truncated product, the Horner composition, the companion-matrix norm and
the determinant (rings.laplace_det) each exist once.  A QuotientRing is
also a packed ring: one more monic extension in the tower of rings.extend,
with the same compiled reduce_block and mul_coords as a RingSpec.

Structural series.  The logarithm, the exponential, the endomorphisms [a]_f
and the torsion translates X [+] pt are each pinned down, coefficient by
coefficient, by the Lubin-Tate uniqueness lemma in one shape:

    D_k c_k = b_k + sum_{j>=2} u_j [C^j]_k - sum_{1<=j<k} c_j [v^j]_k

  log       l(f(X)) = pi l(X)       v = f, D_k = pi^k - pi
  exp       f(e(Y)) = e(pi Y)       u = f, D_k = pi^k - pi
  [a]_f     [a] o f = f o [a]       u = v = f, D_k = pi^k - pi
  translate f(pt + S) = f(X)        u = -d, b = f, D_k = d_1

where f(pt + S) = sum_i d_i S^i.  _solve_structural solves all four.  As
c_0 = 0, [C^j]_k involves only c_1..c_{k-1}, so the powers of C come from the
running convolution P_j[k] = sum_{i=1}^{k-1} c_i P_{j-1}[k-i], filled in as
the coefficients appear.  The first three are solved over exact rationals:
divisions by pi^k - pi cost no precision, and the results are certified
p-integral on the way back to residues.  The translates are solved in the
quotient ring base[w]/pibar_1(w), with certified divisions by d_1 = f'(pt).

The Coleman norm operator is a resultant: N_f g (Y) = det g(C) where C is
the companion matrix of f(Z) - Y, exact mod (p^N, Y^D).  The entries of g(C)
are the f-adic digits of Z^j g(Z) (its fiber expansion), so one determinant
is the only product.  The same norm gives the tower norms O'_m -> O'_{m-1}.
The independent check of the norm law is the product of g over the actual
torsion translates; the two routes share only the protocol arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, inf

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    _det_bareiss,
    compile_map,
    extend,
    laplace_det,
    mult_matrix,
    ord_int,
    valuation,
)
from .series import (
    SeriesRing,
    TruncSeries,
    _series,
    packed_compose,
    packed_mul,
    weierstrass_prep,
)

__all__ = [
    "FormalGroup",
    "build_group",
    "QuotientRing",
    "TorsionTower",
    "build_tower",
]


# -- exact rationals on the base ring's basis ------------------------------------


def _fr_mul(bc, a, b):
    """Product in Q (rank 1) or Q[w]/(w^2 + b w + c) with bc = (b, c)."""
    if len(a) == 1:
        return (a[0] * b[0],)
    qb, qc = bc
    t0 = a[0] * b[0]
    t2 = a[1] * b[1]
    t1 = a[0] * b[1] + a[1] * b[0]
    return (t0 - qc * t2, t1 - qb * t2)


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


# -- polynomial algorithms over the ring protocol ------------------------------------


def _poly_mul(R, a, b, cap):
    """Truncated product of coefficient lists over R.

    A QuotientRing multiplies in the packed kernel; the loop below serves
    the rings with no packed form (_Rationals, SeriesRing).
    """
    if isinstance(R, QuotientRing):
        return R.poly_mul(a, b, cap)
    out = [R.zero()] * cap
    for i, ai in enumerate(a[:cap]):
        if R.is_zero(ai):
            continue
        for j, bj in enumerate(b[:cap - i]):
            if not R.is_zero(bj):
                out[i + j] = R.add(out[i + j], R.mul(ai, bj))
    return out


def _compose(R, f, g, cap):
    """f(g) mod X^cap by Horner's rule over R.

    Every coefficient of f is used: g(0) need not vanish, so high terms of f
    reach the low degrees.  A QuotientRing runs the Horner steps packed.
    """
    if isinstance(R, QuotientRing):
        return R.compose(f, g, cap)
    res = [R.zero()] * cap
    for c in reversed(f):
        res = _poly_mul(R, res, g, cap)
        if not R.is_zero(c):
            res[0] = R.add(res[0], c)
    return res


def _solve_structural(R, cap, head, divide, b=(), u=(), v_pows=()):
    """Coefficients c_0..c_{cap-1} of a structural series over R.

    head holds the given c_0 = 0, c_1, ...; every later coefficient solves
    D_k c_k = b_k + sum_{2<=j<len(u)} u_j [C^j]_k - sum_{1<=j<k} c_j [v^j]_k,
    where divide(k, x) = x / D_k and v_pows[j] lists the coefficients of v^j.
    """
    zero = R.zero()
    c = list(head) + [zero] * (cap - len(head))
    # pows[j][k] = [C^j]_k by the running convolution: it needs only
    # c_1..c_{k-1} (c_0 = 0), so it is filled in before c_k is solved
    pows = [None, c] + [[zero] * cap for _ in range(2, len(u))]
    for k in range(1, cap):
        for j in range(2, len(u)):
            prev, acc = pows[j - 1], zero
            for i in range(1, k - j + 2):
                if not R.is_zero(c[i]) and not R.is_zero(prev[k - i]):
                    acc = R.add(acc, R.mul(c[i], prev[k - i]))
            pows[j][k] = acc
        if k < len(head):
            continue
        rhs = b[k] if k < len(b) else zero
        for j in range(2, len(u)):
            if not R.is_zero(u[j]) and not R.is_zero(pows[j][k]):
                rhs = R.add(rhs, R.mul(u[j], pows[j][k]))
        for j in range(1, min(k, len(v_pows))):
            if not R.is_zero(c[j]) and not R.is_zero(v_pows[j][k]):
                rhs = R.sub(rhs, R.mul(c[j], v_pows[j][k]))
        c[k] = divide(k, rhs)
    return c


def _companion_norm(R, rel, y):
    """det y(C), C the companion matrix of rel(Z) - T over R (exact).

    y lists base coordinate tuples; rel is a base polynomial of degree d with
    a unit top coefficient.  R is base[[T]]/(T^cap) (a SeriesRing, T = Y),
    base[T]/(P) (a QuotientRing, T its generator) or the base ring (T = 0).

    C is multiplication by Z on R[Z]/(rel(Z) - T) in the basis 1, ..., Z^{d-1},
    so column j of y(C) holds the coordinates of Z^j y(Z).  These are reduced
    over base[T] first, by Horner's rule with Z^d = sum_i col_i Z^i,
    col_0 = rel_d^-1 (T - rel_0) and col_i = -rel_d^-1 rel_i: the T^k
    coefficient of an entry is the Z^i coordinate of the k-th rel-adic digit
    of Z^j y.  base[T] -> R is a ring map, so the mapped entries are those of
    y(C) over R, entry by entry.  No products in R occur before the determinant.
    """
    if isinstance(R, SeriesRing):
        spec, cap = R.spec, R.cap
        lift = lambda P: _series(spec, cap, (P + [zero] * cap)[:cap], spec.N)
    elif isinstance(R, QuotientRing):
        spec, gen = R.base, R.x_class()
        lift = lambda P: R.eval_series(_series(spec, len(P) or 1, P or [zero],
                                               spec.N), gen)
    else:
        spec = R
        lift = lambda P: RingElem(spec, P[0] if P else zero)
    zero = (0,) * spec.rank
    mul, add = spec.mul_coords, spec.add_coords
    top_inv = rel[-1].inverse()
    col = [[(-(c * top_inv)).coords] for c in rel[:-1]]  # base polynomials in T
    col[0].append(top_inv.coords)

    def times_z(v):
        top, out = v[-1], [[]] + v[:-1]
        for i, c in enumerate(col):
            for s, cs in enumerate(c):
                if top and any(cs):
                    P = out[i] + [zero] * (s + len(top) - len(out[i]))
                    for k, a in enumerate(top, s):
                        P[k] = add(P[k], mul(cs, a))
                    out[i] = P
        return out

    v = [[] for _ in col]
    for yk in reversed(y):
        v = times_z(v)
        if any(yk):
            v[0] = [add(v[0][0], yk)] + v[0][1:] if v[0] else [yk]
    cols = [v]
    while len(cols) < len(col):
        cols.append(times_z(cols[-1]))
    return laplace_det(R, [[lift(c[i]) for c in cols] for i in range(len(col))])


def _reversion(R, f, cap):
    """Compositional inverse of f = f_1 X + ... over the rationals."""
    inv1 = R.inv(f[1])
    g = [R.zero(), inv1] + [R.zero()] * (cap - 2)
    for k in range(2, cap):
        # [X^k] f(g + t X^k) = [X^k] f(g) + f_1 t
        err = _compose(R, f[: k + 1], g, k + 1)[k]
        g[k] = R.mul(R.sub(R.zero(), err), inv1)
    return g


# -- the formal group ----------------------------------------------------------


class FormalGroup:
    """A Lubin-Tate datum with cached structural series."""

    def __init__(self, spec, pi, q, cap, f_coeffs, variant):
        self.spec = spec
        self.pi = pi
        self.q = q
        self.cap = cap
        self.variant = variant
        self.f = TruncSeries(spec, cap, f_coeffs)
        self.f_poly = [self.f.coeff(i) for i in range(q + 1)]
        self._check_frobenius_shape()
        self._Q = _Rationals(spec)
        self._f_rat = [self._Q.from_base(c) for c in self.f_poly]
        self._f_pows = []
        self._log_cache = {}
        self._exp_cache = {}
        self._endo_cache = {}
        self._pibar_cache = {}
        self._translate_cache = {}
        self._pi_power_cache = {0: TruncSeries.x(spec, cap)}

    def _check_frobenius_shape(self):
        if self.f.coeff(0) != self.spec.zero():
            raise DomainError("f must vanish at 0")
        if self.f.coeff(1) != self.pi:
            raise DomainError("f must be pi*X mod X^2")
        if self.f.degree() != self.q:
            raise DomainError("f must be a polynomial of degree q")
        for j in range(2, self.q):
            c = self.f.coeff(j)
            if not c.is_zero() and valuation(c) <= 0:
                raise DomainError("f must reduce to X^q mod the maximal ideal")
        top = self.f.coeff(self.q) - self.spec.one()
        if not top.is_zero() and valuation(top) <= 0:
            raise DomainError("leading coefficient must be a unit lifting 1")

    # -- structural series over the rationals ------------------------------------

    def _f_powers(self, cap):
        """[None, f, f^2, ...] over the rationals, each known mod X^cap.

        Cached for the largest cap asked for: the solver reads only the
        entries [f^j]_k with j < k < cap, which a longer table holds too.
        """
        if len(self._f_pows) < cap:
            R = self._Q
            f = (self._f_rat + [R.zero()] * cap)[:cap]
            pows = [None, f]
            for _ in range(2, cap):
                pows.append(_poly_mul(R, f, pows[-1], cap))
            self._f_pows = pows
        return self._f_pows

    def _pi_divider(self, cap):
        """k, x -> x / (pi^k - pi) for 2 <= k < cap."""
        R = self._Q
        pif = pik = R.from_base(self.pi)
        inv = [None, None]
        for _ in range(2, cap):
            pik = R.mul(pik, pif)
            inv.append(R.inv(R.sub(pik, pif)))
        return lambda k, x: R.mul(x, inv[k])

    def log_coeffs(self, cap=None):
        """Exact rational coefficients of log_F, solved from log(f) = pi*log."""
        cap = cap or self.cap
        if cap not in self._log_cache:
            R = self._Q
            self._log_cache[cap] = _solve_structural(
                R, cap, [R.zero(), R.one()], self._pi_divider(cap),
                v_pows=self._f_powers(cap))
        return self._log_cache[cap]

    def exp_coeffs(self, cap=None):
        """Exact rational coefficients of exp_F, from f(exp(Y)) = exp(pi*Y)."""
        cap = cap or self.cap
        if cap not in self._exp_cache:
            R = self._Q
            self._exp_cache[cap] = _solve_structural(
                R, cap, [R.zero(), R.one()], self._pi_divider(cap),
                u=self._f_rat)
        return self._exp_cache[cap]

    def log_series(self, cap=None):
        """log_F as a shifted-integral TruncSeries (log'(0) = 1).

        The stored coefficients are p^S times the true ones, S the largest
        p-order of a denominator, at precision N + S.
        """
        cap = cap or self.cap
        fr = self.log_coeffs(cap)
        spec, p = self.spec, self.spec.p
        S = self._Q.den_ord(fr)
        big = spec.with_precision(spec.N + S)
        mod = big.modulus

        def pack(x):
            v = ord_int(x.denominator, p)
            unit = x.denominator // p ** v
            return x.numerator * p ** (S - v) * pow(unit, -1, mod) % mod

        coeffs = [tuple(pack(x) for x in c) for c in fr]
        return TruncSeries(big, cap, coeffs, spec.N + S, S)

    def group_law_bivariate(self, cap=8):
        """F(X,Y) = exp_F(log X + log Y) as {(i,j): RingElem}, total deg < cap.

        Solved over exact rationals and certified integral; small caps only
        (the translates machinery never needs the bivariate law).
        """
        R = self._Q
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

    def log_derivative_series(self, cap=None):
        """log_F'(X) as an integral unit TruncSeries (certified)."""
        cap = cap or self.cap
        R = self._Q
        l = self.log_coeffs(cap + 1)
        ser = R.series([R.scale(Fraction(k + 1), l[k + 1]) for k in range(cap)])
        if ser is None:
            raise PrecisionExhausted("log_F' is not integral (unexpected)")
        return ser

    def log_derivative_is_unit(self, cap=None):
        """log_F'(X) must be an integral unit series (constant term 1)."""
        R = self._Q
        l = self.log_coeffs(cap)
        if R.den_ord(R.scale(k, l[k]) for k in range(1, len(l))):
            return False
        return l[1] == R.one()

    # -- endomorphisms ----------------------------------------------------------

    def endomorphism(self, a, cap=None):
        """[a]_f as an integral TruncSeries, solved from [a] o f = f o [a]."""
        cap = cap or self.cap
        if isinstance(a, int):
            a = self.spec.from_int(a)
        key = (a.coords, cap)
        if key not in self._endo_cache:
            R = self._Q
            c = _solve_structural(
                R, cap, [R.zero(), R.from_base(a)], self._pi_divider(cap),
                u=self._f_rat, v_pows=self._f_powers(cap))
            self._endo_cache[key] = TruncSeries(self.spec, cap,
                                                [R.to_base(t) for t in c])
        return self._endo_cache[key]

    # -- [pi^m] iterates and distinguished quotients ----------------------------

    def pi_power_series(self, m):
        """[pi^m]_f = f composed with itself m times (exact, d = 1)."""
        if m in self._pi_power_cache:
            return self._pi_power_cache[m]
        g = self.pi_power_series(m - 1)
        out = self.f_of(g)
        self._pi_power_cache[m] = out
        return out

    def f_of(self, g):
        """f(g) for the stored polynomial f, by powers of g."""
        out = TruncSeries.zero(self.spec, g.cap)
        powg = TruncSeries.one(self.spec, g.cap)
        for j in range(1, self.q + 1):
            powg = powg * g
            cj = self.f_poly[j]
            if not cj.is_zero():
                out = out + powg.scale(cj)
        return out

    def pibar(self, m):
        """Distinguished polynomial of [pi^m]/[pi^{m-1}] (degree (q-1) q^{m-1})."""
        if m in self._pibar_cache:
            return self._pibar_cache[m]
        g = self.pi_power_series(m - 1)
        # f(g)/g = sum_j f_j g^(j-1), exact since f(0)=0
        quot = TruncSeries.zero(self.spec, self.cap)
        powg = TruncSeries.one(self.spec, self.cap)
        for j in range(1, self.q + 1):
            cj = self.f_poly[j]
            if not cj.is_zero():
                quot = quot + powg.scale(cj)
            if j < self.q:
                powg = powg * g
        deg = (self.q - 1) * self.q ** (m - 1)
        if deg >= self.cap:
            raise PrecisionExhausted("cap too small for pibar_%d" % m)
        wd = weierstrass_prep(quot)
        if wd.mu != 0 or wd.lam != deg:
            raise PrecisionExhausted("pibar_%d has unexpected invariants" % m)
        self._pibar_cache[m] = wd.dist
        return wd.dist

    def omega_polys(self, n):
        """pibar_m for m <= n and the omega^{+/-} products with their X-free forms."""
        spec = self.spec
        pibars = {m: self.pibar(m) for m in range(1, n + 1)}
        def prod_over(ms):
            acc = TruncSeries.one(spec, self.cap)
            for m in ms:
                acc = acc * TruncSeries(spec, self.cap, list(pibars[m]))
            return acc
        tilde_plus = prod_over([m for m in range(1, n + 1) if m % 2 == 0])
        tilde_minus = prod_over([m for m in range(1, n + 1) if m % 2 == 1])
        x = TruncSeries.x(spec, self.cap)
        return {
            "pibar": pibars,
            "omega_plus": x * tilde_plus,
            "omega_minus": x * tilde_minus,
            "omega_tilde_plus": tilde_plus,
            "omega_tilde_minus": tilde_minus,
        }

    def omega_factorization_check(self, n, n_check=None, target=None,
                                  window=None):
        """omega^+_{2n} * omega~^-_{2n} = unit * target mod (p^n_check, X^window).

        target defaults to [pi^{2n}]_f; pass [p^n]_f explicitly in the
        ramified case (pi^2 = p*unit), where the two sides share their
        distinguished polynomial.  The unit is normalized away by Weierstrass
        preparation of the target: the check is an exact residue match of the
        distinguished parts plus the reconstruction identity on the window.

        A truncation at degree D only pins the factorization mod
        p^{(D - lambda) * v_min(A)}, so the group's cap must exceed the
        comparison window by about n_check/v_min; the caller controls that
        through the constructor cap.
        """
        om = self.omega_polys(2 * n)
        A = om["omega_plus"] * om["omega_tilde_minus"]
        B = target if target is not None else self.pi_power_series(2 * n)
        degA = A.degree()
        wd = weierstrass_prep(B)
        nc = min(n_check or wd.n_eff, wd.n_eff, A.n_eff)
        window = window or self.cap
        ok = (wd.mu == 0 and wd.lam == degA)
        if ok:
            dist_series = TruncSeries(self.spec, A.cap, list(wd.dist))
            ok = dist_series.truncate(window).eq_mod(A.truncate(window), nc)
        if ok:
            recon = (A * wd.unit).canonical()
            ok = recon.truncate(window).eq_mod(B.truncate(window), nc)
        return wd.unit, ok


    # -- Coleman norm operator ---------------------------------------------------

    def coleman_norm(self, g):
        """N_f g as det of g at the companion matrix of f(Z) - Y (exact).

        (N_f g)(f(X)) = prod over the f-fiber of g, which is the defining
        product over torsion translates; no compositional inversion and no
        precision loss are involved.  The entries of g(C), the f-adic digits
        of Z^j g(Z), are read off as Y-coefficients with no product.
        """
        g = g.require_integral()
        cap = min(g.cap, self.cap)
        R = SeriesRing(self.spec, cap)
        ng = _companion_norm(R, self.f_poly, g.coeffs[:cap])
        # det g(C) is an integral polynomial in g's coefficients, so it is
        # known to the digits g is
        return _series(self.spec, cap, ng.coeffs, min(self.spec.N, g.n_eff))

    def torsion_quotient_ring(self):
        """base[w]/pibar_1(w), housing the nonzero f-torsion."""
        return QuotientRing(self.spec, list(self.pibar(1)))

    def torsion_points(self, E=None, cap=None):
        """All q torsion points [a]_f(w) in the pibar_1 quotient ring."""
        E = E or self.torsion_quotient_ring()
        cap = cap or self.cap
        pts = [E.zero()]
        w = E.x_class()
        one = self.spec.one()
        for a in self._residue_reps()[1:]:
            if isinstance(a, int):
                a = self.spec.from_int(a)
            if a == one:
                pts.append(w)
            else:
                pts.append(E.eval_series(self.endomorphism(a, cap), w))
        return pts

    def _residue_reps(self):
        """Representatives of the q-element residue module O/p-bar."""
        if self.q == self.spec.p:
            return list(range(self.q))
        if self.spec.quad_kind == "unramified":
            p = self.spec.p
            w = self.spec.gen_quad()
            reps = [0]
            for a1 in range(p):
                for a0 in range(p):
                    if (a0, a1) != (0, 0):
                        reps.append(self.spec.from_int(a0) + w * a1)
            return reps
        raise DomainError("torsion size q does not match the residue field")

    def translate_series(self, pt, E, cap=None):
        """T(X) = X [+]_f pt, solved from f(T) = f(X), T(0) = pt.

        With T = pt + S and f(pt + S) = sum_i d_i S^i, the solve is the
        structural one with u = -d, b = f and certified divisions by d_1;
        the result is at working precision.
        """
        cap = cap or self.cap
        q = self.q
        fE = [E.from_base(c) for c in self.f_poly]
        # d_i = sum_{j>=i} f_j C(j,i) pt^{j-i}
        pt_pows = [E.one()]
        for _ in range(q):
            pt_pows.append(E.mul(pt_pows[-1], pt))
        d = [E.zero()] * (q + 1)
        for i in range(q + 1):
            for j in range(i, q + 1):
                d[i] = E.add(d[i], E.smul(comb(j, i), E.mul(fE[j], pt_pows[j - i])))
        # f(pt) must vanish to working precision
        if not E.is_zero_mod(d[0], self.spec.N - 1):
            raise PrecisionExhausted("torsion point fails f(pt) = 0 at precision")
        if E.is_zero(pt):
            return [E.zero(), E.one()] + [E.zero()] * (cap - 2)
        divide_by_d1 = E.make_divider(d[1])
        T = _solve_structural(E, cap, [E.zero()], lambda k, x: divide_by_d1(x),
                              b=fE, u=[E.sub(E.zero(), di) for di in d])
        T[0] = pt
        return T

    def translates_product(self, g, cap=None):
        """prod over torsion pt of g(X [+] pt), in the extension, descended.

        This is the extension-ring side of the norm-operator law; it shares
        nothing with coleman_norm's resultant route but the ring arithmetic.
        The translate series depend only on the cap and are kept per cap.
        """
        g = g.require_integral()
        cap = min(cap or self.cap, g.cap)
        if cap not in self._translate_cache:
            E = self.torsion_quotient_ring()
            self._translate_cache[cap] = E, [self.translate_series(pt, E, cap)
                                             for pt in self.torsion_points(E, cap)]
        E, translates = self._translate_cache[cap]
        gE = [E.from_base(g.coeff(k)) for k in range(g.cap)]
        acc = None
        for T in translates:
            comp = _compose(E, gE, T, cap)
            acc = comp if acc is None else _poly_mul(E, acc, comp, cap)
        out = [E.descend(c, self.spec.N - 1) for c in acc]
        return TruncSeries(self.spec, cap, out, min(g.n_eff, self.spec.N - 1), 0)

    # -- q-coordinate -------------------------------------------------------------

    def q_coordinate(self, omega_p, cap=None):
        """theta(X) = exp(Omega_p^{-1} log_F(X)) - 1 and the conjugated Frobenius.

        Returns a dict with theta, theta_inv (compositional inverse), f_q
        (theta o f o theta_inv), integrality verdicts, and the mod-p
        congruence report f_q(T) = T^q.
        """
        cap = cap or min(self.cap, 32)
        R = self._Q
        if isinstance(omega_p, int):
            omega_p = self.spec.from_int(omega_p)
        if not omega_p.is_unit():
            raise DomainError("Omega_p must be a unit")
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
        f_fr = (self._f_rat + [R.zero()] * cap)[:cap]
        f_q = _compose(R, theta, _compose(R, f_fr, theta_inv, cap), cap)
        s_th = R.den_ord(theta)
        s_fq = R.den_ord(f_q)
        report = {
            "omega_p": omega_p,
            "theta_integral": s_th == 0,
            "theta_max_denominator_ord": s_th,
            "f_q_integral": s_fq == 0,
            "f_q_max_denominator_ord": s_fq,
            "achieved_n_eff": max(self.spec.N - s_fq, 0),
            "theta_slope_matches": theta[1] == oinv,
        }
        if s_th == 0:
            report["theta"] = R.series(theta)
        if s_fq == 0:
            ser = R.series(f_q)
            report["f_q"] = ser
            tgt = TruncSeries.monomial(self.spec, cap, self.q)
            report["congruence_mod_p"] = ser.eq_mod(tgt, 1)
        else:
            # congruence checked on the prefix before the first denominator
            report["congruence_mod_p"] = None
            d = next(i for i in range(cap) if R.den_ord(f_q[i:i + 1]))
            report["integral_prefix_degree"] = d
            pref = R.series(f_q[:d]) if d else None
            if pref is not None:
                tgt = TruncSeries.monomial(self.spec, d, self.q) if self.q < d \
                    else TruncSeries.zero(self.spec, max(d, 1))
                report["congruence_mod_p_prefix"] = pref.eq_mod(tgt, 1)
        return report


def build_group(spec, pi, q, cap, variant="standard"):
    """Assemble a FormalGroup; variant picks f = pi*X + X^q by default."""
    if isinstance(pi, int):
        pi = spec.from_int(pi)
    v = valuation(pi)
    if spec.kind == "zp" or spec.quad_kind == "unramified":
        if v != 1:
            raise DomainError("pi must be a uniformizer (v = 1)")
    else:
        if v != Fraction(1, 2):
            raise DomainError("pi must be a uniformizer (v = 1/2)")
    if variant == "standard":
        coeffs = [spec.zero()] * cap
        coeffs[1] = pi
        if q < cap:
            coeffs[q] = spec.one()
        else:
            raise DomainError("cap must exceed q")
        return FormalGroup(spec, pi, q, cap, coeffs, variant)
    if variant == "multiplicative":
        if spec.kind != "zp":
            raise DomainError("multiplicative variant lives over Z_p")
        p = spec.p
        if pi != spec.from_int(p):
            raise DomainError("multiplicative variant needs pi = p")
        coeffs = [spec.zero()] * cap
        b = 1
        for k in range(1, p + 1):
            b = b * (p - k + 1) // k
            if k < cap:
                coeffs[k] = spec.from_int(b)
        return FormalGroup(spec, pi, p, cap, coeffs, variant)
    raise DomainError(f"unknown variant {variant!r}")


# -- quotient rings and the torsion tower -----------------------------------------


class QuotientRing:
    """base[X]/(P(X)) for a monic polynomial P over a RingSpec.

    Elements are tuples of base RingElems of length deg P.  Division by
    non-units is supported through an exact rational solve with certified
    p-integrality; the division reports nothing on success and raises
    PrecisionExhausted when the quotient does not exist at working precision.

    Inside, an element is its flat coordinates: X^k times the base basis
    monomials, base-fast.  The ring is one more monic extension in the
    tower construction (rings.extend), so its packing, its reduction map and
    the reduce_block and mul_coords compiled from that map are those of any
    RingSpec, and the packed series kernel takes it as it takes a RingSpec.
    """

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = [c if isinstance(c, RingElem) else base.from_int(c)
                        for c in modulus]
        if self.modulus[-1] != base.one():
            raise DomainError("modulus must be monic")
        self.deg = len(self.modulus) - 1
        if self.deg < 1:
            raise DomainError("modulus must have positive degree")
        self.packing, red_map = extend(base, [c.coords for c in self.modulus])
        self.reduce_block, self.mul_coords = compile_map(self.packing, red_map)

    def zero(self):
        return tuple(self.base.zero() for _ in range(self.deg))

    def one(self):
        return self.from_base(self.base.one())

    def from_base(self, c):
        return tuple([c] + [self.base.zero()] * (self.deg - 1))

    def x_class(self):
        if self.deg == 1:
            return (self.base.zero() - self.modulus[0],)
        return tuple([self.base.zero(), self.base.one()] +
                     [self.base.zero()] * (self.deg - 2))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def smul(self, s, a):
        return tuple(x * s for x in a)

    def is_zero(self, a):
        return all(x.is_zero() for x in a)

    def is_zero_mod(self, a, n):
        q = self.base.p ** n
        return all(all(c % q == 0 for c in x.coords) for x in a)

    def mul(self, a, b):
        flat = self.flat_coords
        return self.from_flat(self.mul_coords(flat(a), flat(b)))

    def poly_mul(self, a, b, cap):
        """Truncated product of coefficient lists of elements (packed)."""
        flat, unflat = self.flat_coords, self.from_flat
        return [unflat(c) for c in packed_mul(self, [flat(x) for x in a],
                                              [flat(x) for x in b], cap)]

    def compose(self, f, g, cap):
        """f(g) mod X^cap for coefficient lists of elements (packed Horner)."""
        flat, unflat = self.flat_coords, self.from_flat
        return [unflat(c) for c in packed_compose(self, [flat(x) for x in f],
                                                  [flat(x) for x in g], cap)]

    def flat_coords(self, a):
        """The flat canonical coordinates of an element, as one tuple."""
        return tuple(chain.from_iterable(x.coords for x in a))

    def from_flat(self, flat):
        """The element with these flat canonical coordinates."""
        base, r = self.base, self.base.rank
        if len(flat) != self.packing[0]:
            raise DomainError("flat coordinate vector has wrong length")
        return tuple(RingElem(base, tuple(flat[i:i + r])) for i in range(0, len(flat), r))

    def eval_series(self, ts, pt):
        """Evaluate a base-coefficient TruncSeries at an element (Horner:
        the composition with the constant series pt, mod X)."""
        pad = (0,) * (self.packing[0] - self.base.rank)
        f = [c + pad for c in ts.coeffs]
        return self.from_flat(packed_compose(self, f, [self.flat_coords(pt)], 1)[0])

    def flat_rank(self):
        return self.packing[0]

    def valuation(self, y):
        if self.is_zero(y):
            return inf
        det = _det_bareiss(mult_matrix(self, self.flat_coords(y))) % self.base.modulus
        vd = ord_int(det, self.base.p)
        if vd == inf or vd >= self.base.N:
            raise PrecisionExhausted("valuation unresolved in quotient ring")
        return Fraction(vd, self.flat_rank())

    def is_unit(self, y):
        try:
            return self.valuation(y) == 0
        except PrecisionExhausted:
            return False

    def make_divider(self, y):
        """Precompute the rational inverse of mult-by-y; returns b -> b/y.

        Division is exact with certified p-integrality; a p in a denominator
        means the quotient does not exist at working precision.  The divider's
        loss is the largest p-order of a denominator of the inverse matrix:
        a b known mod p^n gives b/y known mod p^(n - loss).
        """
        R = self.flat_rank()
        M = mult_matrix(self, self.flat_coords(y))
        A = [[Fraction(M[i][j]) for j in range(R)] +
             [Fraction(1 if i == j else 0) for j in range(R)]
             for i in range(R)]
        for col in range(R):
            piv = next((i for i in range(col, R) if A[i][col] != 0), None)
            if piv is None:
                raise PrecisionExhausted("division by (near) zero divisor")
            A[col], A[piv] = A[piv], A[col]
            pv = A[col][col]
            A[col] = [v / pv for v in A[col]]
            for i in range(R):
                if i != col and A[i][col] != 0:
                    f = A[i][col]
                    A[i] = [A[i][j] - f * A[col][j] for j in range(2 * R)]
        inv = [[A[i][R + j] for j in range(R)] for i in range(R)]
        m = self.base.modulus
        p = self.base.p

        def divide(b):
            rhs = self.flat_coords(b)
            flat = []
            for i in range(R):
                x = sum(inv[i][j] * rhs[j] for j in range(R))
                if x.denominator % p == 0:
                    raise PrecisionExhausted(
                        "quotient not integral at this precision")
                flat.append((x.numerator * pow(x.denominator, -1, m)) % m)
            return self.from_flat(flat)

        divide.loss = max(ord_int(x.denominator, p) for row in inv for x in row)
        return divide

    def divide(self, b, y):
        return self.make_divider(y)(b)

    def inverse(self, y):
        return self.divide(self.one(), y)

    def descend(self, a, n_check):
        """Project to the base when the higher coordinates vanish mod p^n."""
        q = self.base.p ** n_check
        for x in a[1:]:
            if any(c % q for c in x.coords):
                raise PrecisionExhausted("element does not descend to base")
        return a[0]


class TorsionTower:
    """Quotient rings O'_m = base[X]/pibar_m and the norms between them."""

    def __init__(self, group, M):
        if M < 1:
            raise DomainError("the torsion tower needs at least one level")
        self.group = group
        self.M = M
        self.rings = {}
        self.alphas = {}
        for m in range(1, M + 1):
            pib = group.pibar(m)
            E = QuotientRing(group.spec, list(pib))
            self.rings[m] = E
            self.alphas[m] = E.x_class()
        self._verify_compatibility()

    def _verify_compatibility(self):
        for m in range(2, self.M + 1):
            E = self.rings[m]
            fa = E.eval_series(self.group.f, self.alphas[m])
            pib_prev = TruncSeries(self.group.spec, self.group.cap,
                                   list(self.group.pibar(m - 1)))
            val = E.eval_series(pib_prev, fa)
            if not E.is_zero_mod(val, self.group.spec.N - 1):
                raise PrecisionExhausted(
                    "tower inclusion fails: pibar_%d(f(alpha_%d)) != 0" % (m - 1, m))

    def norm(self, m, y):
        """Norm O'_m -> O'_{m-1} (to the base ring for m = 1).

        y, a base polynomial in alpha_m, is evaluated at the companion matrix
        C of pibar_1(Z) over the base (m = 1) or of f(Z) - alpha_{m-1} over
        O'_{m-1}, and det y(C) is the norm.  Its entries, the rel-adic digits
        of Z^j y, are base polynomials in T set to 0 or alpha_{m-1}.
        """
        g = self.group
        y = [c.coords for c in y]
        if m == 1:
            return _companion_norm(g.spec, g.pibar(1), y)
        return _companion_norm(self.rings[m - 1], g.f_poly, y)


def build_tower(group, M):
    return TorsionTower(group, M)
