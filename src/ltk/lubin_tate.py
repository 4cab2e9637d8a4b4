"""Lubin-Tate formal groups at desk scale.

A FormalGroup packages a base ring (Z_p or a quadratic extension), a
uniformizer parameter pi', a torsion size q, and a Frobenius polynomial f
with f == pi'*X mod X^2 and f == X^q mod the maximal ideal.  The default
variant is f = pi'*X + X^q; the multiplicative variant (1+X)^p - 1 over Z_p
recovers the classical picture.

Every algorithm here runs over a small ring protocol: zero, one, from_base,
add, sub, mul, is_zero.  series._Coords speaks it: a packed ring on its flat
coordinate tuples, with its compiled mul_coords (a RingSpec as
_Coords(spec), and every QuotientRing base[X]/P, which is a _Coords of
itself).  The protocol and the structural solver, series._solve_structural,
live in series next to the kernel they call; the companion-matrix norm exists
once too, and takes its determinant from series.packed_det, the one entry
point, over the series ring, the base ring or a quotient ring alike.  A QuotientRing is one more
monic extension in the tower of rings.extend, with the same compiled
reduce_blocks and mul_coords as a RingSpec, and its elements are flat
coordinate tuples only; base RingElems appear at the API boundary, not inside
the algorithms.

Structural series.  The derivative of the logarithm, the endomorphisms
[a]_f, the torsion translates X [+] pt and the compositional inverses are
each pinned down, coefficient by coefficient, by one triangular identity, the
shape of the Lubin-Tate uniqueness lemma:

    D_k c_k = b_k + sum_{j>=2} u_j [C^j]_k - sum_{1<=j<k} c_j [V_j]_k

  log'       g(f(X)) h(X) = g(X)    V_j = f^j h, b = -h, D_k = pi^k - 1
  [a]_f      [a] o f = f o [a]      u = f, V_j = f^j, D_k = pi^k - pi
  translate  f(pt + S) = f(X)       u = -d, b = f, D_k = d_1
  reversion  g(h(X)) = X            u = -g, D_k = g_1 (series.reversion)

where h = f'/pi and f(pt + S) = sum_i d_i S^i.  _solve_structural solves all
four (the last is series._reversion).  Where u enters, c_0 = 0, so [C^j]_k
involves only c_1..c_{k-1}, and the powers of C come from the running
convolution P_j[k] = sum_{i=1}^{k-1} c_i P_{j-1}[k-i], filled in as the
coefficients appear.  The log is the integral of log' (l_k = g_(k-1) / k);
the exponential enters only through lambda(U) = log_F(pU) / p, integral with
lambda_1 = 1: F(X, Y) = p lambda^-1(lambda(X/p) + lambda(Y/p)).  The
q-coordinate's Frobenius needs no reversion: it is (1 + T)^pi - 1.

Every solve runs in residue arithmetic on coordinate tuples, at a working
precision derived in its docstring.  [a]_f is solved in Z/p^(N+s), each
division by pi^k - pi an exact, checked division by p, with the budget s of
FormalGroup.endomorphism; log' has unit divisors pi^k - 1, so it is exact
mod p^N with no budget; the denominators of log_series, group_law_bivariate
and q_coordinate's theta are read exactly off residues.  The translates are
solved in the quotient ring base[w]/pibar_1(w), with certified divisions by
d_1 = f'(pt) through an integer inverse (QuotientRing.make_divider).

The Coleman norm operator is a resultant: N_f g (Y) = det g(C) where C is
the companion matrix of f(Z) - Y, exact mod (p^N, Y^D).  g(C) = sum_k g_k C^k
is linear in g, and the matrix of C^k is a window of the f-adic digits D_n =
Z^n mod (f(Z) - Y), which depend only on the group: they are made and packed
once per group, each window read as an int once (_fiber_digits,
series.PackedRows), so a call sums one packed product per coefficient of g,
reduces the sum once and hands the d^2 entries, each of a known length, to
series.packed_det, which packs them in one go.  The same
norm gives the tower norms O'_m -> O'_{m-1}, with digits kept per level on
the TorsionTower, which also keeps the CRT moduli and dividers that
coleman.interpolate divides by.
The independent check of the norm law is the product of g over the actual
torsion translates, g o tau = sum_k g_k tau^k with the powers of each
translate tau packed once per cap in the same way; the two routes share
only the ring arithmetic and the packed kernel.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    compile_map,
    extend,
    fraction_free,
    mult_matrix,
    ord_int,
    teichmuller,
    valuation,
)
from .series import (
    PackedRows,
    TruncSeries,
    _Coords,
    _divmod_monic,
    _reversion,
    _series,
    _solve_structural,
    _trim,
    formal_exp,
    horner,
    packed_compose,
    packed_det,
    packed_mul,
    packed_times,
    weierstrass_prep,
)

__all__ = [
    "FormalGroup",
    "build_group",
    "QuotientRing",
    "TorsionTower",
    "build_tower",
]


# -- coordinate helpers and the companion-matrix norm ------------------------------


def _fr_mul(bc, a, b):
    """Product in Q (rank 1) or Q[w]/(w^2 + b w + c) with bc = (b, c), for the
    rational oracle in tests/lt_oracle.py; perfbench counts its calls."""
    if len(a) == 1:
        return (a[0] * b[0],)
    qb, qc = bc
    t0 = a[0] * b[0]
    t2 = a[1] * b[1]
    t1 = a[0] * b[1] + a[1] * b[0]
    return (t0 - qc * t2, t1 - qb * t2)


def _balanced_lift(x, big_m):
    """The coordinates of x mod big_m = p^M (M >= N) through the balanced lift.

    [a]_f and log_F' mod p^N depend on the lifts, not only on the residues
    (c_q is a multiple of (a - a^q) / (pi^q - pi), and h = f'/pi), so every
    solve lifts as the rational oracle does: residues above p^N / 2 go negative.
    """
    m = x.spec.modulus
    return tuple((c if c <= m // 2 else c - m) % big_m for c in x.coords)


def _fiber_digits(K, rel, cap=1):
    """The digits D_n = Z^n mod (rel(Z) - T) over R, as series.PackedRows
    for _companion_norm of y with at most cap terms (any number at cap 1).

    rel is a base polynomial of degree d with a unit top coefficient.  R is
    K[[T]]/(T^cap) for a RingSpec K, the base (coleman_norm: T = Y; the
    tower norm at m = 1: cap = 1, so T = 0), or the QuotientRing K =
    base[T]/(P) with T its generator (cap = 1).  The digits are made in R
    itself, so no entry is lifted afterwards: D_0 = 1 and D_{n+1} = Z D_n,
    with Z^d = sum_i col_i Z^i, col_0 = rel_d^-1 (T - rel_0) and col_i =
    -rel_d^-1 rel_i, col_0 taken into R once.  A row costs one product in K
    per nonzero pair of a col_i coefficient and a top-digit coefficient.

    Row n lists D_n's d coordinates in the basis 1, ..., Z^{d-1}, each as
    its first e T-coefficients (tuples of K).  Each fold of Z^d brings at
    most one T, so D_n has T-degree at most n / d, and the norm of y with at
    most cap terms reads D_n for n <= cap + d - 2: e = min(cap, (cap - 2) //
    d + 2) holds them.  A row past those would need T^e (DomainError).
    """
    d = len(rel) - 1
    e = min(cap, (cap - 2) // d + 2)
    R = K if isinstance(K, QuotientRing) else _Coords(K)
    zero, mul, add = R.zero(), R.mul, R.add
    top_inv = rel[-1].inverse()
    col = [[R.from_base(-(c * top_inv))] for c in rel[:-1]]
    t = R.from_base(top_inv)   # T's coefficient in col_0
    if isinstance(K, QuotientRing):
        col[0] = [add(col[0][0], mul(t, K.x_class()))]
    elif cap > 1:
        col[0].append(t)

    short = len(col[0]) > 1 and e < cap   # col_0's T can reach T^e < T^cap

    def times_z(row):
        top = row[-e:]
        if short and any(top[-1]):
            raise DomainError("the fiber digits hold norms of at most cap terms")
        out = [zero] * e + row[:-e]
        for i, c in enumerate(col):
            for s, cs in enumerate(c):
                if any(cs):
                    for k in range(e - s):
                        if any(top[k]):
                            o = i * e + k + s
                            out[o] = add(out[o], mul(cs, top[k]))
        return out

    first = [R.one()] + [zero] * (d * e - 1)
    return PackedRows(K, d * e, d, [first], times_z)


def _companion_norm(digits, y, cap=1):
    """det y(C) mod T^cap, C the companion matrix of rel(Z) - T over R
    (exact), as cap coordinate tuples of K; digits = _fiber_digits(K, rel,
    cap') for some cap' >= cap, and y lists base coordinate tuples.

    C is multiplication by Z on R[Z]/(rel(Z) - T) in the basis 1, ...,
    Z^{d-1}, so column j of C^k holds the coordinates of Z^(j+k), the digit
    D_{j+k}, and

        y(C) = sum_k y_k C^k,   entry (i, j) = sum_k y_k D_{j+k}[i].

    The d x d matrix of C^k is the window of d rows of the digits starting
    at row k, so y(C) is one PackedRows.combine: one int product per nonzero
    y_k and one reduction per entry coefficient, at the slot width for L
    pairs for L terms of y (series._width).  Truncating the entries to cap
    coefficients is the ring map mod T^cap.

    The determinant is series.packed_det on combine's d^2 reduced entries,
    each cut to its first c = min(e, cap) coefficients (e = the digits'
    T-length, which no entry exceeds).  combine lists entry (i, j) at
    j d + i, so packed_det reads the transpose, which has the same
    determinant.
    """
    K, d = digits.K, digits.width
    rank = K.packing[0]
    e = digits.stride // d
    c = min(e, cap)
    flat = digits.combine([x + (0,) * (rank - len(x)) for x in y])
    if c < e:
        flat = list(chain.from_iterable(flat[o * e:o * e + c] for o in range(d * d)))
    return packed_det(K, flat, d, c, cap)


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
        self._residue_solvers = {}
        self._log_derivative_kept = 0, []
        self._torsion_ring = None
        self._endo_cache = {}
        self._pibar_cache = {}
        self._translate_cache = {}
        self._norm_digits = None
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

    # -- log_F', log_F and the group law, in residue arithmetic -----------------

    def _uniformizer(self, big):
        """pi and p / pi = pi^(e-1) u^-1 mod p^M in big = Z/p^M, pi by its balanced
        lift, and pi^e = p u formed one digit up so that the unit u is known mod p^M."""
        e, up = self.spec.ramification_index, big.with_precision(big.N + 1)
        u = (RingElem(up, _balanced_lift(self.pi, up.modulus)) ** e).divide_exact_p(1)
        pi = RingElem(big, _balanced_lift(self.pi, big.modulus))
        return pi, pi ** (e - 1) * RingElem(big, u.coords).inverse()

    def _log_derivative(self, M, cap):
        """log_F' mod (p^M, X^cap) as coordinate tuples (log_derivative_series):
        the solve is exact mod every p^M, so one is kept, at the largest M and
        cap asked for, and reduced."""
        kept, g = self._log_derivative_kept
        if kept < M or len(g) < cap:
            n, big = max(cap, len(g)), self.spec.with_precision(max(M, kept))
            up, K, m = big.with_precision(big.N + 1), _Coords(big), big.modulus
            # h = f'/pi reads f up to degree q, whatever the cap
            rho = self._uniformizer(up)[1]
            h = [K.one()] + [(RingElem(up, _balanced_lift(c, up.modulus)) * (j * rho))
                             .divide_exact_p(1).coords for j, c in enumerate(self.f_poly[2:], 2)]
            f = [_balanced_lift(c, m) for c in self.f_poly[:n]]
            f_pows_h = [h]
            for _ in range(2, n):
                f_pows_h.append(packed_mul(big, f, f_pows_h[-1], n))
            pi = RingElem(big, _balanced_lift(self.pi, m))
            inv = [None] + [(pi ** k - 1).inverse().coords for k in range(1, n)]
            g = _solve_structural(K, n, [K.one()], lambda k, x: big.mul_coords(x, inv[k]),
                                  b=[K.sub(K.zero(), x) for x in h], v_pows=f_pows_h)
            self._log_derivative_kept = big.N, g
        m = self.spec.p ** M
        return [tuple(x % m for x in c) for c in g[:cap]]

    def _scaled_log(self, M, cap, e):
        """p^e(k) l_k mod p^M for k < cap, l_k = g_(k-1) / k the coefficients
        of log_F from g = log_F' mod p^M: with e(k) >= ord_p(k), each is
        g_(k-1) p^(e(k) - ord_p(k)) / k', exact mod p^M."""
        p, m = self.spec.p, self.spec.p ** M
        out = [(0,) * self.spec.rank]
        for k, c in enumerate(self._log_derivative(M, cap - 1), 1):
            a = ord_int(k, p)
            s = p ** (e(k) - a) * pow(k // p ** a, -1, m)
            out.append(tuple(x * s % m for x in c))
        return out

    def log_derivative_series(self, cap=None):
        """log_F' as an integral unit TruncSeries, exact mod p^N.

        Differentiating l(f(X)) = pi l(X) gives g(X) = g(f(X)) h(X) for
        g = l' and h = f'/pi.  h is integral: h_(j-1) = j f_j / pi, pi
        divides f_j for 1 < j < q, and p divides q.  As [f^j h]_k = 0 for
        j > k and [f^k h]_k = pi^k, the coefficient of X^k reads

            (pi^k - 1) g_k = -h_k - sum_{1<=j<k} g_j [f^j h]_k,

        the structural shape with head (1), b = -h, V_j = f^j h and unit
        divisors.  So g mod p^M is exact given f and h mod p^M: f by its
        balanced lift, h_(j-1) = (j f_j p/pi) / p by an exact division of
        the lift mod p^(M+1) (_uniformizer).  No digit is lost, and g_0 = 1.
        """
        cap = self.cap if cap is None else cap
        return _series(self.spec, cap, self._log_derivative(self.spec.N, cap), self.spec.N)

    def log_derivative_is_unit(self, cap=None):
        """Whether log_F'(X) mod X^(cap-1), from log_F mod X^cap, is an
        integral unit series (constant term 1)."""
        ser = self.log_derivative_series((self.cap if cap is None else cap) - 1)
        return ser.constant_term() == self.spec.one()

    def log_series(self, cap=None):
        """log_F as a shifted-integral TruncSeries (log'(0) = 1): p^S l_k mod
        p^(N+S) at precision N + S, S the largest p-order of a denominator.

        At M = N + S_b, S_b = max_{k<cap} ord_p(k), p^(S_b) l_k is integral
        and exact mod p^M (_scaled_log), and normalize_shift strips its
        p-content, which leaves S exact: a nonzero residue has its exact
        p-order, and a zero one an order >= M, which is no denominator.
        """
        cap = cap or self.cap
        N, p = self.spec.N, self.spec.p
        sb = max((ord_int(k, p) for k in range(1, cap)), default=0)
        big = self.spec.with_precision(N + sb)
        log = _series(big, cap, self._scaled_log(big.N, cap, lambda k: sb), big.N, sb)
        log = log.normalize_shift()
        return log.reduce_precision(log.n_eff)

    def group_law_bivariate(self, cap=8):
        """F(X,Y) = exp_F(log X + log Y) as {(i,j): RingElem}, total deg < cap:
        the coefficients nonzero mod p^N.

        lambda(U) = log_F(pU) / p has lambda_k = p^(k-1) l_k, integral as
        ord_p(k) <= k - 1, and lambda_1 = 1.  So Phi(U, V) = lambda^-1(lambda(U)
        + lambda(V)), with lambda^-1 by series._reversion, is integral and
        exact mod p^M, and F(X, Y) = p Phi(X/p, Y/p): F_ij = p^(1-i-j) Phi_ij
        needs M = N + cap - 2.  Phi is one packed_compose over E =
        base[Z]/(Z^cap) at U = T, V = T Z: the T^n coefficient is
        sum_{i+j=n} Phi_ij Z^j, so mod T^cap is the total-degree truncation,
        and the Z-degree stays below cap.  Each division by p^(i+j-1) is
        checked (PrecisionExhausted), which F's integrality (Lubin and Tate,
        1965) never trips.
        """
        if cap < 2:
            return {}
        spec, r = self.spec, self.spec.rank
        big = spec.with_precision(spec.N + cap - 2)
        lam, z = self._scaled_log(big.N, cap, lambda k: k - 1), (0,) * r
        E = QuotientRing(big, [0] * cap + [1])
        # lambda(T) + lambda(T Z) = sum_k lambda_k (1 + Z^k) T^k
        arg = [E.zero()] + [c + z * (k - 1) + c + z * (cap - 1 - k)
                            for k, c in enumerate(lam[1:], 1)]
        phi = packed_compose(E, [c + E.zero()[r:] for c in _reversion(_Coords(big), lam, cap)],
                             arg, cap)
        out = {}
        for n in range(1, cap):
            for j in range(n + 1):
                c = spec.elem(RingElem(big, phi[n][j * r:j * r + r]).divide_exact_p(n - 1).coords)
                if not c.is_zero():
                    out[(n - j, j)] = c
        return out

    # -- endomorphisms, in residue arithmetic ------------------------------------

    def _solve_budget(self, cap):
        """s = 1 + ceil(floor(log_q(cap - 1)) / e), derived in endomorphism."""
        t, qt = 0, self.q
        while qt <= cap - 1:
            t, qt = t + 1, qt * self.q
        return 1 - (-t // self.spec.ramification_index)

    def _residue_solver(self, cap):
        """(K, f, f powers, divide) for a structural solve mod X^cap in Z/p^M.

        M = N + _solve_budget(cap).  K is Z/p^M on coordinate tuples
        (_Coords); f lists the balanced lifts of f's coefficients and the
        powers [None, f, f^2, ...] are known mod X^cap (packed products);
        divide(k, x) = x / (pi^k - pi) is x rho_k / p with
        rho_k = p / (pi^k - pi) = (p / pi) (pi^(k-1) - 1)^-1, and raises
        PrecisionExhausted unless x rho_k is divisible by p.  Kept per M for
        the largest cap asked for.
        """
        big = self.spec.with_precision(self.spec.N + self._solve_budget(cap))
        built = self._residue_solvers.get(big.N)
        if built and len(built[2]) >= cap:
            return built
        K = _Coords(big)
        f = [_balanced_lift(c, big.modulus) for c in self.f_poly]
        fc = (f + [K.zero()] * cap)[:cap]
        pows = [None, fc]
        for _ in range(2, cap):
            pows.append(packed_mul(big, fc, pows[-1], cap))
        pi, p_over_pi = self._uniformizer(big)
        rho, pik = [None, None], pi
        for _ in range(2, cap):
            rho.append((p_over_pi * (pik - 1).inverse()).coords)
            pik = pik * pi
        mul, p = big.mul_coords, big.p

        def divide(k, x):
            y = mul(x, rho[k])
            if any(c % p for c in y):
                raise PrecisionExhausted(
                    "[a]_f coefficient %d is not integral at p^%d" % (k, big.N))
            return tuple(c // p for c in y)

        self._residue_solvers[big.N] = K, f, pows, divide
        return self._residue_solvers[big.N]

    def endomorphism(self, a, cap=None):
        """[a]_f as an integral TruncSeries, solved from [a] o f = f o [a].

        The solve runs in Z/p^M, M = N + s, on the balanced lifts of a and of
        f's coefficients, and keeps the residues mod p^N: those of the exact
        [a]_f of the lifts, which is integral (Lubin and Tate, 1965).  Each
        c_k = r_k / (pi^k - pi) is the exact division (r_k rho_k) / p, with
        rho_k = p / (pi^k - pi) integral (_residue_solver).

        Budget.  Let the computed c_k differ from the exact one by an error
        of valuation >= M - lambda_k (v(p) = 1, v(pi) = 1/e, e the base's
        ramification index); c_1 = a is exact.  The division by p leaves c_k
        known mod p^(M-1), so lambda_k >= 1, and divides the error of r_k by
        pi.  Which errors reach r_k with a unit coefficient?  In
        sum_{j<k} c_j [f^j]_k only that of c_{k/q}: f = X^q mod pi, so
        [f^j]_k is divisible by pi unless k = q j.  In sum_{j>=2} f_j [C^j]_k
        none: f_j is divisible by pi for 1 < j < q, and an error eps in C
        moves C^q by sum_{0<m<q} binom(q, m) C^(q-m) eps^m + eps^q, all of
        valuation >= v(eps) + 1 (q is a power of p and v(eps) >= 1).  So

            lambda_k <= max(1, max_{j<k} lambda_j, lambda_{k/q} + 1/e),

        and by induction lambda_k <= 1 + floor(log_q k) / e.  Every c_k with
        k < cap is therefore exact mod p^N once

            s = 1 + ceil(floor(log_q(cap - 1)) / e):

        the digits lost grow with the q-adic depth of cap, not with cap.
        """
        cap = cap or self.cap
        if isinstance(a, int):
            a = self.spec.from_int(a)
        key = (a.coords, cap)
        if key not in self._endo_cache:
            K, f, f_pows, divide = self._residue_solver(cap)
            c = _solve_structural(K, cap, [K.zero(), _balanced_lift(a, K.m)],
                                  divide, u=f, v_pows=f_pows)
            m = self.spec.modulus
            self._endo_cache[key] = _series(
                self.spec, cap, [tuple(x % m for x in t) for t in c[:cap]], self.spec.N)
        return self._endo_cache[key]

    # -- [pi^m] iterates and distinguished quotients ----------------------------

    def pi_power_series(self, m):
        """[pi^m]_f = f composed with itself m times (exact, d = 1)."""
        if m < 0:
            raise DomainError("[pi^m]_f needs m >= 0")
        if m in self._pi_power_cache:
            return self._pi_power_cache[m]
        g = self.pi_power_series(m - 1)
        out = self.f_of(g)
        self._pi_power_cache[m] = out
        return out

    def f_of(self, g):
        """f(g) for the stored polynomial f, as one packed composition."""
        g, spec = g.require_integral(), self.spec
        return _series(spec, g.cap, packed_compose(spec, self.f.coeffs[:self.q + 1],
                                                   g.coeffs, g.cap),
                       min(spec.N, g.n_eff))

    def pibar(self, m):
        """Distinguished polynomial of [pi^m]/[pi^{m-1}] (degree (q-1) q^{m-1})."""
        if m in self._pibar_cache:
            return self._pibar_cache[m]
        g, spec = self.pi_power_series(m - 1), self.spec
        # f(g)/g = sum_j f_j g^(j-1), exact since f(0) = 0
        quot = _series(spec, self.cap, packed_compose(spec, self.f.coeffs[1:self.q + 1],
                                                      g.coeffs, self.cap),
                       min(spec.N, g.n_eff))
        deg = (self.q - 1) * self.q ** (m - 1)
        if deg >= self.cap:
            raise PrecisionExhausted(
                f"cap too small for pibar_{m}: it has degree (q - 1) q^(m - 1) = {deg}, "
                f"so it needs a cap of at least {deg + 1}; the group's cap is {self.cap}")
        wd = weierstrass_prep(quot)
        if wd.mu != 0 or wd.lam != deg:
            raise PrecisionExhausted("pibar_%d has unexpected invariants" % m)
        self._pibar_cache[m] = wd.dist
        return wd.dist

    def omega_polys(self, n):
        """pibar_m for m <= n and the omega^{+/-} products with their X-free forms."""
        if n < 0:
            raise DomainError("omega polynomials need n >= 0")
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

    def _own(self, g):
        """g, a series over the group's ring (DomainError otherwise)."""
        if g.spec is not self.spec and g.spec != self.spec:
            raise DomainError(f"series over {g.spec!r}, but the group is over "
                              f"{self.spec!r}")
        return g.require_integral()

    def coleman_norm(self, g):
        """N_f g as det of g at the companion matrix of f(Z) - Y (exact).

        (N_f g)(f(X)) = prod over the f-fiber of g, which is the defining
        product over torsion translates; no compositional inversion and no
        precision loss are involved.  g(C) = sum_k g_k C^k is one packed sum
        over the f-adic digits of Z^n, made once per group at its cap and
        extended to the trimmed length of g as calls need (_fiber_digits,
        _companion_norm).
        """
        g = self._own(g)
        cap = min(g.cap, self.cap)
        if self._norm_digits is None:
            self._norm_digits = _fiber_digits(self.spec, self.f_poly, self.cap)
        ng = _companion_norm(self._norm_digits, g.coeffs[:cap], cap)
        # det g(C) is an integral polynomial in g's coefficients, so it is
        # known to the digits g is
        return _series(self.spec, cap, ng, min(self.spec.N, g.n_eff))

    def torsion_quotient_ring(self):
        """base[w]/pibar_1(w), housing the nonzero f-torsion (built once)."""
        if self._torsion_ring is None:
            self._torsion_ring = QuotientRing(self.spec, list(self.pibar(1)))
        return self._torsion_ring

    def torsion_points(self, E=None):
        """All q torsion points [a]_f(w) in the pibar_1 quotient ring, exact mod p^N.

        Closed forms, with no series and no cap.  w is pi-torsion, so
        [pi t]_f(w) = [t]_f(f(w)) = 0 and the point depends only on a mod
        pi.  For f = pi X + X^q, f(zeta X) = zeta f(X) when zeta^q = zeta, so
        [zeta]_f = zeta X by the uniqueness lemma and [a]_f(w) = omega(a) w,
        omega(a) the Teichmuller representative of a.  For the
        multiplicative variant [a]_f = (1 + X)^a - 1 for integers a.  These
        are the points [a]_f(w) that the series [a]_f at cap e (q - 1) N
        gives mod p^N (v(w) = 1 / (e (q - 1)), e the base's ramification
        index), at any q.
        """
        E = E or self.torsion_quotient_ring()
        w = E.x_class()
        pts = [E.zero(), w]
        for a in self._residue_reps()[2:]:
            if self.variant == "multiplicative":
                pt = one_w = E.add(E.one(), w)
                for _ in range(a - 1):
                    pt = E.mul(pt, one_w)
                pts.append(E.sub(pt, E.one()))
            else:
                a = self.spec.from_int(a) if isinstance(a, int) else a
                pts.append(E.mul(E.from_base(teichmuller(a)), w))
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
        """T(X) = X [+]_f pt, solved from f(T) = f(X), T(0) = pt, over E.

        With T = pt + S and f(pt + S) = sum_i d_i S^i, the solve is the
        structural one with u = -d, b = f and certified divisions by d_1;
        the result is at working precision.
        """
        cap = cap or self.cap
        zero = E.zero()
        fE = [E.from_base(c) for c in self.f_poly]
        # the Taylor shift d_i = sum_j C(j, i) f_j pt^(j-i): f(pt + S), exact
        # mod S^(q+1) as f has degree q
        d = packed_compose(E, fE, [pt, E.one()], self.q + 1)
        # f(pt) must vanish to working precision
        if any(x % self.spec.p ** (self.spec.N - 1) for x in d[0]):
            raise PrecisionExhausted("torsion point fails f(pt) = 0 at precision")
        if not any(pt):
            return [zero, E.one()] + [zero] * (cap - 2)
        divide_by_d1 = E.make_divider(d[1])
        T = _solve_structural(E, cap, [zero], lambda k, x: divide_by_d1(x),
                              b=fE, u=[E.sub(zero, di) for di in d])
        T[0] = pt
        return T

    def translates_product(self, g, cap=None):
        """prod over torsion pt of g(X [+] pt), in the extension, descended.

        This is the extension-ring side of the norm-operator law; it shares
        nothing with coleman_norm's resultant route but the ring arithmetic
        and the packed kernel.  Composition is linear in g:

            g o tau = sum_k g_k tau^k  mod X^cap,

        and every coefficient of g counts, not only those below cap: tau(0)
        = pt is not 0, so tau^k does not vanish mod X^cap for k >= cap.  The
        translates tau = X [+] pt and their powers depend only on the cap,
        so they are kept per cap in the torsion quotient ring E, each
        translate's powers as one series.PackedRows (row k is tau^k mod
        X^cap, made from row k - 1 by one product with tau, packed once,
        when a call first needs it).  g o tau is then one combine: a packed
        product g_k tau^k per nonzero g_k, summed at the slot width for L
        pairs (series._width, L the trimmed length of g) and reduced once.
        The product over the translates is descended to the base mod
        p^(N-1), the precision of f(pt) = 0.
        """
        g = self._own(g)
        cap = min(cap or self.cap, g.cap)
        E = self.torsion_quotient_ring()
        if cap not in self._translate_cache:
            one = [E.one()] + [E.zero()] * (cap - 1)
            self._translate_cache[cap] = [
                PackedRows(E, cap, 1, [one, T], packed_times(E, T, cap))
                for T in (self.translate_series(pt, E, cap)
                          for pt in self.torsion_points(E))]
        r, n = self.spec.rank, self.spec.p ** (self.spec.N - 1)
        pad = E.zero()[r:]
        gE = [c + pad for c in g.coeffs]
        acc = None
        for powers in self._translate_cache[cap]:
            comp = powers.combine(gE)
            acc = comp if acc is None else packed_mul(E, acc, comp, cap)
        if any(x % n for c in acc for x in c[r:]):
            raise PrecisionExhausted("element does not descend to base")
        return _series(self.spec, cap, [c[:r] for c in acc],
                       min(g.n_eff, self.spec.N - 1))

    # -- q-coordinate -------------------------------------------------------------

    def q_coordinate(self, omega_p, cap=None):
        """theta(X) = exp(Omega_p^{-1} log_F(X)) - 1 and the conjugated Frobenius.

        Returns a dict with the denominator orders of theta and of
        f_q = theta o f o theta^-1, integrality verdicts, theta and f_q where
        integral, and the mod-p congruence report f_q(T) = T^q (on the prefix
        before the first denominator when f_q has one).  Both are stored with
        shift S = cap - 2 at M = N + cap - 2, exact there, so normalize_shift
        leaves the exact denominator order (a zero residue has order >= M > S).

        theta_c(U) = theta(pU) / p = (exp(pY) - 1) / p, Y = Omega_p^-1 lambda
        (group_law_bivariate), is integral (v(p^(k-1) / k!) >= 0), and
        theta_k = p^(1-k) (theta_c)_k; series.formal_exp at M + 1 gives it
        mod p^M (exp keeps its argument's digits, rings._exp, and one goes to
        the division by p).  log_F o f = pi log_F (Lubin and Tate, 1965)
        makes f_q(T) = (1 + T)^pi - 1 whatever Omega_p and f beyond pi X (pi
        by its balanced lift): (f_q)_k = b_k = binom(pi, k) = b_(k-1)
        (pi - k + 1) / k.  B_k = p^t b_k, t = ord_p(k!) <= k - 1 <= S, the
        product of the pi - j (j < k) and the inverses of the unit parts of
        1..k, is integral, so p^S b_k = p^(S-t) B_k mod p^M is exact, and

            v(b_k) = sum_{j<k} v(pi - j) - ord_p(k!)   (v(0) = inf)

        gives f_q_max_denominator_ord = max(0, max_{k<cap} ceil(-v(b_k))),
        integral_prefix_degree (the least k with v(b_k) < 0) and
        achieved_n_eff.  For pi in Z_p f_q is integral; for a rational
        integer pi, b_k = 0 for k > pi.
        """
        cap = cap or min(self.cap, 32)
        if cap < 2:   # theta's linear coefficient is read below
            raise DomainError(f"q_coordinate needs cap >= 2, got cap {cap}")
        spec, p, N = self.spec, self.spec.p, self.spec.N
        if isinstance(omega_p, int):
            omega_p = spec.from_int(omega_p)
        if not omega_p.is_unit():
            raise DomainError("Omega_p must be a unit")
        big, S, m = spec.with_precision(N + cap - 2), cap - 2, p ** (N + cap - 2)
        oinv = RingElem(big, _balanced_lift(omega_p, m)).inverse().coords
        pY = [tuple(p * x for x in big.mul_coords(oinv, c))
              for c in self._scaled_log(big.N, cap, lambda k: k - 1)]
        exp = formal_exp(TruncSeries(big.with_precision(big.N + 1), cap, pY))
        theta_c = (exp - 1).divide_exact_p(1).coeffs
        pi, B, t, bs = _balanced_lift(self.pi, m), big.one().coords, 0, [big.zero().coords]
        for k in range(1, cap):
            a = ord_int(k, p)
            t, u = t + a, pow(k // p ** a, -1, m)
            B = big.mul_coords(B, tuple(u * x for x in (pi[0] - k + 1,) + pi[1:]))
            bs.append(tuple(x * p ** (S - t) % m for x in B))
        theta, f_q = (_series(big, cap, cs, big.N, S) for cs in (
            [tuple(x * p ** (S + 1 - k) % m for x in c) for k, c in enumerate(theta_c)], bs))
        th, fq = theta.normalize_shift(), f_q.normalize_shift()
        report = {
            "omega_p": omega_p,
            "theta_integral": th.shift == 0,
            "theta_max_denominator_ord": th.shift,
            "f_q_integral": fq.shift == 0,
            "f_q_max_denominator_ord": fq.shift,
            "achieved_n_eff": max(N - fq.shift, 0),
            "theta_slope_matches": theta_c[1] == oinv,
        }
        if not th.shift:
            report["theta"] = th.reduce_precision(N)
        if not fq.shift:
            fq = report["f_q"] = fq.reduce_precision(N)
            report["congruence_mod_p"] = fq.eq_mod(TruncSeries.monomial(spec, cap, self.q), 1)
        else:
            # congruence checked on the prefix before the first denominator
            report["congruence_mod_p"] = None
            d = report["integral_prefix_degree"] = next(
                k for k, c in enumerate(f_q.coeffs) if any(x % p ** S for x in c))
            pref = f_q.truncate(d).require_integral().reduce_precision(N)
            tgt = TruncSeries.monomial(spec, d, self.q)
            report["congruence_mod_p_prefix"] = pref.eq_mod(tgt, 1)
        return report


def build_group(spec, pi, q, cap, variant="standard"):
    """Assemble a FormalGroup; variant picks f = pi*X + X^q by default."""
    if isinstance(pi, int):
        pi = spec.from_int(pi)
    if pi.is_zero():
        raise PrecisionExhausted(f"pi is 0 mod p^N at N = {spec.N}: raise the precision")
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


class QuotientRing(_Coords):
    """base[X]/(P(X)) for a monic polynomial P over a RingSpec.

    An element is one tuple, its flat canonical coordinates: X^k times the
    base basis monomials, base-fast, so coeffs(a)[k] holds the base
    coordinates of its X^k coefficient.  The ring is one more monic
    extension in the tower construction (rings.extend), so its packing, its
    reduction map and the reduce_blocks and mul_coords compiled from that map
    are those of any RingSpec: the packed series kernel takes it as it takes
    a RingSpec, and it speaks the ring protocol as a _Coords of itself.
    Division by non-units goes through an integer inverse with certified
    p-integrality (make_divider, on the one elimination rings.fraction_free),
    PrecisionExhausted when the quotient does not exist at working precision.
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
        self._rel = [c.coords for c in self.modulus]
        self.packing, red_map = extend(base, self._rel)
        self.reduce_blocks, self.mul_coords = compile_map(self.packing, red_map)
        super().__init__(self)

    def x_class(self):
        """The class of X."""
        if self.deg == 1:
            return tuple(-c % self.m for c in self.modulus[0].coords)
        r = self.base.rank
        return self._zero[:r] + self.one()[:r] + self._zero[2 * r:]

    def coeffs(self, a):
        """The X^k coefficients of a, k < deg, as base coordinate tuples."""
        r = self.base.rank
        return [a[i:i + r] for i in range(0, self.rank, r)]

    def eval_series(self, ts, pt):
        """Evaluate a base-coefficient TruncSeries at an element (series.horner)."""
        pad = self._zero[self.base.rank:]
        return horner(self, [c + pad for c in ts.coeffs], pt)

    def residue(self, ts):
        """ts(alpha) for alpha = x_class(), the class of X: the remainder of
        the base-coefficient TruncSeries ts by the monic modulus, one
        series._divmod_monic over the base ring, read as flat coordinates."""
        n = _trim(ts.coeffs, ts.cap)
        return tuple(chain.from_iterable(
            _divmod_monic(self.base, list(ts.coeffs[:n]), self._rel, n)[1]))

    def make_divider(self, y):
        """b -> b / y, from an integer inverse of multiplication by y.

        Let M be the integer matrix of multiplication by y on the flat
        basis.  The one fraction-free elimination, rings.fraction_free, on
        [M | I] gives det M and adj M, every division in it exact, and
        M^-1 = adj M / det M.  loss is the largest p-order of a denominator
        of M^-1, and A = p^loss M^-1 mod p^(N + loss) is an integer matrix.
        For flat coordinates b, A b = p^loss (M^-1 b) mod p^(N + loss), so
        M^-1 b is p-integral exactly when p^loss divides every entry of A b,
        and then b / y = (A b) / p^loss mod p^N: one integer matrix-vector
        product, a divisibility check and an exact division.  A b known mod
        p^n gives b / y mod p^(n - loss).  A p left in a denominator means
        the quotient does not exist at working precision
        (PrecisionExhausted).  The divider carries loss as divide.loss.
        """
        R = self.rank
        det, adj = fraction_free(mult_matrix(self, y),
                                 [[int(i == j) for j in range(R)] for i in range(R)])
        if adj is None:
            raise PrecisionExhausted("division by (near) zero divisor")
        p, m = self.base.p, self.m
        vd = ord_int(det, p)
        # M^-1 = adj / det; its denominators' p-orders are vd - v(adj entry)
        loss = vd - min(ord_int(x, p) for row in adj for x in row)
        scale, big = p ** loss, m * p ** loss
        unit_inv = pow(det // p ** vd, -1, big)
        A = [[x // p ** (vd - loss) * unit_inv % big for x in row] for row in adj]

        def divide(b):
            xs = [sum(map(operator.mul, row, b)) for row in A]
            if any(x % scale for x in xs):
                raise PrecisionExhausted("quotient not integral at this precision")
            return tuple(x // scale % m for x in xs)

        divide.loss = loss
        return divide


class TorsionTower:
    """Quotient rings O'_m = base[X]/pibar_m and the norms between them."""

    def __init__(self, group, M):
        if M < 1:
            raise DomainError("the torsion tower needs at least one level")
        self.group, self.M = group, M
        self.rings = {m: QuotientRing(group.spec, list(group.pibar(m))) for m in range(1, M + 1)}
        self.alphas = {m: E.x_class() for m, E in self.rings.items()}
        self._digits, self._moduli, self._dividers = {}, {}, {}
        self._verify_compatibility()

    def _verify_compatibility(self):
        spec = self.group.spec
        for m in range(2, self.M + 1):
            E = self.rings[m]
            pib_prev = TruncSeries(spec, self.group.cap, list(self.group.pibar(m - 1)))
            val = E.eval_series(pib_prev, E.residue(self.group.f))
            if any(x % spec.p ** (spec.N - 1) for x in val):
                raise PrecisionExhausted(
                    "tower inclusion fails: pibar_%d(f(alpha_%d)) != 0" % (m - 1, m))

    def norm(self, m, y):
        """Norm O'_m -> O'_{m-1} (to the base ring for m = 1).

        y, an element of O'_m and so a base polynomial in alpha_m, is
        evaluated at the companion matrix C of pibar_1(Z) over the base
        (m = 1) or of f(Z) - alpha_{m-1} over O'_{m-1}, and det y(C) is the
        norm: a coordinate tuple at every m, the base ring's at m = 1 and the
        flat coordinates of O'_{m-1} above.  y(C) = sum_k y_k C^k is one
        packed sum over the rel-adic digits of Z^n, made in the base (T = 0)
        or in O'_{m-1} (T = alpha_{m-1}) once per level and kept on the
        tower (_fiber_digits, _companion_norm).
        """
        if m not in self._digits:
            g = self.group
            self._digits[m] = (_fiber_digits(g.spec, g.pibar(1)) if m == 1 else
                               _fiber_digits(self.rings[m - 1], g.f_poly))
        return _companion_norm(self._digits[m], self.rings[m].coeffs(y))[0]

    def modulus(self, m):
        """pibar_1 ... pibar_m, a TruncSeries at the group's cap, for 1 <= m
        <= M: the CRT modulus of levels 1 .. m (coleman.interpolate's at
        level m + 1, and at m = M the system ideal's).  Made on first use and
        kept."""
        if m not in self._moduli:
            g = self.group
            pib = TruncSeries(g.spec, g.cap, list(g.pibar(m)))
            self._moduli[m] = pib if m == 1 else self.modulus(m - 1) * pib
        return self._moduli[m]

    def divider(self, m):
        """b -> b / modulus(m - 1)(alpha_m) in O'_m, for 2 <= m <= M
        (QuotientRing.make_divider, with its loss).  Made on first use and
        kept, so each level runs one elimination per tower."""
        if m not in self._dividers:
            E = self.rings[m]
            self._dividers[m] = E.make_divider(E.residue(self.modulus(m - 1)))
        return self._dividers[m]


def build_tower(group, M):
    return TorsionTower(group, M)
