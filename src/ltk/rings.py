"""Exact arithmetic in the finite coefficient rings.

Every ring here is a free Z/p^N-module with a distinguished basis, and every
element is a coordinate vector of canonical residues in [0, p^N).  Supported
kinds:

  zp              Z/p^N, basis (1)
  ramified_quad   (Z/p^N)[w]/(w^2 + b*w + c) with x^2+bx+c Eisenstein, basis (1, w)
  unramified_quad same shape, defining polynomial irreducible mod p
  cyclotomic      (Z/p^N)[x]/Phi_{p^n}(x), basis (1, x, ..., x^{phi-1})
  composite       quad tensor cyclotomic, basis w^i x^j ordered w-fast
                  (index = i + 2*j)

All operations are exact in the quotient ring; there is no floating point in
this module.  Valuations are returned as exact Fractions normalized so that
v(p) = 1.  Operations that divide by p (log, exp) return the reduced effective
precision alongside the value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import inf

__all__ = [
    "RingSpec",
    "RingElem",
    "make_ring",
    "make_composite",
    "valuation",
    "teichmuller",
    "frobenius",
    "norm_to_base",
    "trace_to_base",
    "padic_log",
    "padic_exp",
    "embed",
    "descend",
    "laplace_det",
    "PrecisionExhausted",
    "DomainError",
]


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class PrecisionExhausted(ArithmeticError):
    """The working precision p^N cannot certify the requested result."""


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def ord_int(a, p):
    """p-adic order of a plain integer, inf for 0."""
    if a == 0:
        return inf
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


@dataclass(frozen=True)
class RingSpec:
    p: int
    N: int
    kind: str
    quad: tuple | None = None  # (b, c): defining polynomial x^2 + b x + c
    level: int = 0             # cyclotomic level n, ring contains zeta_{p^n}

    def __post_init__(self):
        # Derived once per spec: every coefficient operation reads these.
        qdeg = 2 if self.kind in ("ramified_quad", "unramified_quad", "composite") else 1
        phi = 1 if self.level == 0 else self.p ** (self.level - 1) * (self.p - 1)
        width = 2 * phi - 1
        put = partial(object.__setattr__, self)
        put("modulus", self.p ** self.N)
        put("phi", phi)      # degree of Phi_{p^level}; 1 with no cyclotomic part
        put("rank", qdeg * phi)
        # packing = (rank, block, slots, p^N) for series.packed_mul.  A raw
        # product block of `block` slots holds the unreduced product of two
        # elements on the monomials w^i x^j, i <= 2 qdeg - 2, j <= 2 phi - 2,
        # in slot i * width + j; basis coordinate i + qdeg * j sits in
        # slots[i + qdeg * j].
        slots = tuple(i * width + j for j in range(phi) for i in range(qdeg))
        put("packing", (qdeg * phi, (2 * qdeg - 1) * width, slots, self.modulus))
        put("_cyclo_red", self._cyclo_rows() if phi > 1 else ())

    # -- structure ---------------------------------------------------------

    @property
    def quad_kind(self):
        """'ramified' or 'unramified' for the quadratic part, else None."""
        if self.quad is None:
            return None
        b, c = self.quad
        if b % self.p == 0 and c % self.p == 0 and (c // self.p) % self.p != 0:
            return "ramified"
        return "unramified"

    @property
    def residue_degree(self):
        return 2 if self.quad_kind == "unramified" else 1

    @property
    def ramification_index(self):
        e = self.phi
        if self.quad_kind == "ramified":
            e *= 2
        return e

    def with_precision(self, N2):
        return RingSpec(self.p, N2, self.kind, self.quad, self.level)

    # -- element constructors ---------------------------------------------

    def elem(self, coords):
        m = self.modulus
        coords = tuple(int(a) % m for a in coords)
        if len(coords) != self.rank:
            raise DomainError("coordinate vector has wrong length")
        return RingElem(self, coords)

    def zero(self):
        return RingElem(self, (0,) * self.rank)

    def one(self):
        return self.from_int(1)

    def from_int(self, a):
        coords = [0] * self.rank
        coords[0] = int(a) % self.modulus
        return RingElem(self, tuple(coords))

    def gen_quad(self):
        """Class of w (the quadratic generator; a uniformizer when ramified)."""
        if self.quad is None:
            raise DomainError("ring has no quadratic part")
        coords = [0] * self.rank
        coords[1] = 1
        return RingElem(self, tuple(coords))

    def zeta(self):
        """Class of x, the designated primitive p^level-th root of unity."""
        if self.level == 0:
            raise DomainError("ring has no cyclotomic part")
        if self.phi == 1:
            # p = 2, level 1: Phi_2 = x + 1 collapses, zeta_2 = -1
            return self.from_int(-1)
        coords = [0] * self.rank
        coords[2 if self.quad is not None else 1] = 1
        return RingElem(self, tuple(coords))

    # -- the ring protocol ---------------------------------------------------
    # zero, one, from_base, add, sub, mul, is_zero: the generic determinant
    # and the Lubin-Tate solvers run over any ring that speaks these.

    def from_base(self, c):
        return c

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()

    # -- internals ---------------------------------------------------------

    def _cyclo_rows(self):
        """Sparse rows reducing x^d (phi <= d <= 2 phi - 2) to the basis:
        rows[d - phi] lists the (i, c) with x^d = sum c x^i mod Phi_{p^level}."""
        phi, p, n, m = self.phi, self.p, self.level, self.modulus
        step = p ** (n - 1)
        rows = []
        for d in range(phi, 2 * phi - 1):
            vec = [0] * (2 * phi)
            vec[d] = 1
            for e in range(2 * phi - 1, phi - 1, -1):
                c = vec[e]
                if c:
                    vec[e] = 0
                    # x^e = -(x^{e-phi}) * (1 + x^{step} + ... + x^{(p-2)step})
                    t = e - phi
                    for k in range(p - 1):
                        vec[t + k * step] = (vec[t + k * step] - c) % m
            rows.append(tuple((i, c) for i, c in enumerate(vec[:phi]) if c))
        return tuple(rows)

    def reduce_block(self, raw, o=0):
        """Canonical coordinates of the raw product block raw[o:o + block].

        The block's integers sit on the monomials w^i x^j (see __post_init__)
        and may be any size.  The ring's relations fold them onto the basis
        once: x^j for j >= phi by the rows of Phi_{p^level}, then
        w^2 = -b w - c; the result is reduced mod p^N.
        """
        m = self.modulus
        phi = self.phi
        if phi == 1:
            if self.quad is None:
                return (raw[o] % m,)
            qb, qc = self.quad
            t2 = raw[o + 2]
            return ((raw[o] - qc * t2) % m, (raw[o + 1] - qb * t2) % m)
        width = 2 * phi - 1
        red = self._cyclo_red
        rows = []
        for s in range(o, o + self.packing[1], width):
            row = list(raw[s:s + phi])
            for d in range(phi - 1):
                c = raw[s + phi + d]
                if c:
                    for i, r in red[d]:
                        row[i] += c * r
            rows.append(row)
        if self.quad is None:
            return tuple(x % m for x in rows[0])
        t0, t1, t2 = rows
        qb, qc = self.quad
        out = [0] * (2 * phi)
        out[0::2] = [(x - qc * z) % m for x, z in zip(t0, t2)]
        out[1::2] = [(y - qb * z) % m for y, z in zip(t1, t2)]
        return tuple(out)

    def mul_coords(self, a, b):
        """Product of coordinate vectors: the raw product block, reduced."""
        if self.rank == 1:
            return self.reduce_block((a[0] * b[0],))
        if self.phi == 1:
            a0, a1 = a
            b0, b1 = b
            return self.reduce_block((a0 * b0, a0 * b1 + a1 * b0, a1 * b1))
        _, block, slots, _ = self.packing
        raw = [0] * block
        for i, x in enumerate(a):
            if x:
                si = slots[i]
                for j, y in enumerate(b):
                    if y:
                        raw[si + slots[j]] += x * y
        return self.reduce_block(raw)

    def add_coords(self, a, b):
        m = self.modulus
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub_coords(self, a, b):
        m = self.modulus
        return tuple((x - y) % m for x, y in zip(a, b))

    def smul_coords(self, s, a):
        m = self.modulus
        s = s % m
        return tuple((s * x) % m for x in a)

    # -- serialization -----------------------------------------------------

    def kind_json(self):
        if self.kind == "zp":
            return {"zp": []}
        if self.kind == "ramified_quad":
            return {"ramified_quad": list(self.quad)}
        if self.kind == "unramified_quad":
            return {"unramified_quad": list(self.quad)}
        if self.kind == "cyclotomic":
            return {"cyclotomic": self.level}
        return {
            "composite": {
                "quad": {self.quad_kind + "_quad": list(self.quad)},
                "level": self.level,
            }
        }

    def to_json(self):
        return {"p": self.p, "N": self.N, "kind": self.kind_json()}

    @staticmethod
    def from_json(obj):
        p, N, kind = obj["p"], obj["N"], obj["kind"]
        if "zp" in kind:
            return make_ring(p, N, "zp")
        if "ramified_quad" in kind:
            return make_ring(p, N, "ramified_quad", quad=tuple(kind["ramified_quad"]))
        if "unramified_quad" in kind:
            return make_ring(p, N, "unramified_quad", quad=tuple(kind["unramified_quad"]))
        if "cyclotomic" in kind:
            return make_ring(p, N, "cyclotomic", level=kind["cyclotomic"])
        sub = kind["composite"]
        quad = sub["quad"]
        (qkind, coeffs), = quad.items()
        return make_composite(
            make_ring(p, N, qkind, quad=tuple(coeffs)), sub["level"]
        )


class RingElem:
    """Immutable element of a RingSpec; coords are canonical residues."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec, coords):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("RingElem is immutable")

    def __repr__(self):
        return f"RingElem({self.spec.kind}, {list(self.coords)})"

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.coords == other.coords
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __add__(self, other):
        return RingElem(self.spec, self.spec.add_coords(self.coords, self._c(other)))

    def __sub__(self, other):
        return RingElem(self.spec, self.spec.sub_coords(self.coords, self._c(other)))

    def __rsub__(self, other):
        return RingElem(self.spec, self.spec.sub_coords(self._c(other), self.coords))

    __radd__ = __add__

    def __neg__(self):
        m = self.spec.modulus
        return RingElem(self.spec, tuple((-x) % m for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElem(self.spec, self.spec.smul_coords(other, self.coords))
        return RingElem(self.spec, self.spec.mul_coords(self.coords, self._c(other)))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.spec.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _c(self, other):
        if isinstance(other, RingElem):
            if other.spec is not self.spec and other.spec != self.spec:
                raise DomainError("mixed ring specs")
            return other.coords
        if isinstance(other, int):
            return self.spec.from_int(other).coords
        raise TypeError(type(other))

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def is_unit(self):
        spec, p = self.spec, self.spec.p
        if spec.kind == "zp":
            return self.coords[0] % p != 0
        if spec.kind == "ramified_quad":
            return self.coords[0] % p != 0
        if spec.kind == "unramified_quad":
            return self.coords[0] % p != 0 or self.coords[1] % p != 0
        # residue ring of the cyclotomic part is F_p[x]/(x-1)^phi: reduce x -> 1
        if spec.kind == "cyclotomic":
            return sum(self.coords) % p != 0
        s0 = sum(self.coords[0::2]) % p
        s1 = sum(self.coords[1::2]) % p
        if spec.quad_kind == "ramified":
            return s0 != 0
        return (s0, s1) != (0, 0)

    def inverse(self):
        spec = self.spec
        if not self.is_unit():
            raise DomainError("not a unit")
        if spec.kind == "zp":
            return RingElem(spec, (pow(self.coords[0], -1, spec.modulus),))
        if spec.kind in ("ramified_quad", "unramified_quad"):
            b, c = spec.quad
            a0, a1 = self.coords
            nm = (a0 * a0 - b * a0 * a1 + c * a1 * a1) % spec.modulus
            nm_inv = pow(nm, -1, spec.modulus)
            conj = ((a0 - b * a1) % spec.modulus, (-a1) % spec.modulus)
            return RingElem(spec, spec.smul_coords(nm_inv, conj))
        return _generic_inverse(self)

    def divide_exact_p(self, k):
        """Exact division by p^k; raises if any coordinate is not divisible."""
        if k == 0:
            return self
        q = self.spec.p ** k
        if any(x % q for x in self.coords):
            raise PrecisionExhausted("exact division by p^%d fails" % k)
        return RingElem(self.spec, tuple(x // q for x in self.coords))

    def lift_to(self, spec2):
        """Reinterpret canonical coordinates in the same kind at precision N2."""
        if spec2.kind != self.spec.kind or spec2.p != self.spec.p:
            raise DomainError("lift_to requires the same ring kind")
        return spec2.elem(self.coords)

    def to_json(self):
        d = self.spec.to_json()
        d["coords"] = list(self.coords)
        return d

    @staticmethod
    def from_json(obj):
        spec = RingSpec.from_json(obj)
        return spec.elem(obj["coords"])


def _generic_inverse(x):
    """Invert a unit by Gaussian elimination on its multiplication matrix."""
    spec = x.spec
    r, m, p = spec.rank, spec.modulus, spec.p
    cols = []
    basis = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    for bj in basis:
        cols.append(list(spec.mul_coords(x.coords, bj)))
    # solve M y = e_0 over Z/p^N; pivots must be units since x is a unit
    M = [[cols[j][i] for j in range(r)] for i in range(r)]
    rhs = [1] + [0] * (r - 1)
    perm = list(range(r))
    for col in range(r):
        piv = next((i for i in range(col, r) if M[i][col] % p != 0), None)
        if piv is None:
            raise PrecisionExhausted("multiplication matrix not invertible mod p")
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = pow(M[col][col], -1, m)
        M[col] = [(v * inv) % m for v in M[col]]
        rhs[col] = (rhs[col] * inv) % m
        for i in range(r):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [(M[i][j] - f * M[col][j]) % m for j in range(r)]
                rhs[i] = (rhs[i] - f * rhs[col]) % m
    return RingElem(spec, tuple(rhs))


# -- construction -----------------------------------------------------------


def make_ring(p, N, kind, quad=None, level=0):
    """Build a RingSpec, validating the defining data.

    kind: "zp" | "ramified_quad" | "unramified_quad" | "cyclotomic".
    quad: (b, c) for x^2 + b x + c; level: n for Phi_{p^n}.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if N < 1:
        raise DomainError("precision N must be >= 1")
    if kind == "zp":
        return RingSpec(p, N, "zp")
    if kind == "ramified_quad":
        b, c = quad
        if not (b % p == 0 and c % p == 0 and (c // p) % p != 0):
            raise DomainError("defining polynomial is not Eisenstein")
        return RingSpec(p, N, kind, quad=(b, c))
    if kind == "unramified_quad":
        b, c = quad
        if any((x * x + b * x + c) % p == 0 for x in range(p)):
            raise DomainError("defining polynomial is reducible mod p")
        return RingSpec(p, N, kind, quad=(b, c))
    if kind == "cyclotomic":
        if level < 1:
            raise DomainError("cyclotomic level must be >= 1")
        return RingSpec(p, N, kind, level=level)
    raise DomainError(f"unknown ring kind {kind!r}")


def make_composite(quad_spec, level):
    """Tensor a quadratic RingSpec with the level-n cyclotomic ring."""
    if quad_spec.kind not in ("ramified_quad", "unramified_quad"):
        raise DomainError("composite requires a quadratic spec")
    if level < 1:
        raise DomainError("cyclotomic level must be >= 1")
    return RingSpec(quad_spec.p, quad_spec.N, "composite", quad=quad_spec.quad, level=level)


# -- valuation ---------------------------------------------------------------


def _det_bareiss(M):
    """Exact integer determinant (fraction-free Bareiss)."""
    M = [row[:] for row in M]
    n = len(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def laplace_det(R, rows):
    """Determinant of a small square matrix over a protocol ring R.

    Column-subset Laplace expansion with memoized minors: no division, so it
    works over series rings and quotient rings with zero divisors.
    """
    n = len(rows)
    if n == 0:
        return R.one()
    memo = {}

    def minor(r, mask):
        key = (r, mask)
        if key in memo:
            return memo[key]
        acc = R.zero()
        sign = 1
        for c in range(n):
            if not (mask >> c) & 1:
                continue
            entry = rows[r][c]
            if not R.is_zero(entry):
                sub = R.one() if r == n - 1 else minor(r + 1, mask & ~(1 << c))
                term = R.mul(entry, sub)
                acc = R.add(acc, term) if sign > 0 else R.sub(acc, term)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


def mult_matrix(x):
    """Integer matrix of multiplication by x on the canonical basis."""
    spec = x.spec
    r = spec.rank
    cols = []
    for j in range(r):
        ej = tuple(1 if i == j else 0 for i in range(r))
        cols.append(spec.mul_coords(x.coords, ej))
    return [[cols[j][i] for j in range(r)] for i in range(r)]


def norm_to_base(x):
    """Norm to Z/p^N (determinant of the multiplication matrix)."""
    spec = x.spec
    if spec.kind == "zp":
        return x
    det = _det_bareiss(mult_matrix(x)) % spec.modulus
    base = RingSpec(spec.p, spec.N, "zp")
    return base.from_int(det)


def trace_to_base(x):
    """Trace to Z/p^N."""
    spec = x.spec
    if spec.kind == "zp":
        return x
    M = mult_matrix(x)
    base = RingSpec(spec.p, spec.N, "zp")
    return base.from_int(sum(M[i][i] for i in range(spec.rank)))


def valuation(x):
    """Exact valuation with v(p) = 1, as a Fraction; inf for the zero residue."""
    spec = x.spec
    p, N = spec.p, spec.N
    if x.is_zero():
        return inf
    if spec.kind == "zp":
        return Fraction(ord_int(x.coords[0], p))
    if spec.kind == "ramified_quad":
        v0 = ord_int(x.coords[0], p)
        v1 = ord_int(x.coords[1], p)
        cands = []
        if v0 != inf:
            cands.append(Fraction(v0))
        if v1 != inf:
            cands.append(Fraction(v1) + Fraction(1, 2))
        return min(cands)
    if spec.kind == "unramified_quad":
        return Fraction(min(ord_int(x.coords[0], p), ord_int(x.coords[1], p)))
    det = _det_bareiss(mult_matrix(x)) % spec.modulus
    vd = ord_int(det, p)
    if vd == inf or vd >= N:
        raise PrecisionExhausted("valuation unresolved at precision p^%d" % N)
    return Fraction(vd, spec.rank)


# -- Teichmuller, Frobenius --------------------------------------------------


def teichmuller(x):
    """The Teichmuller representative congruent to x mod the maximal ideal."""
    if not x.is_unit():
        raise DomainError("teichmuller requires a unit")
    q = x.spec.p ** x.spec.residue_degree
    y = x
    for _ in range(x.spec.N * x.spec.ramification_index + 4):
        y2 = y ** q
        if y2 == y:
            return y
        y = y2
    raise PrecisionExhausted("teichmuller iteration did not stabilize")


def frobenius(x):
    """The Frobenius automorphism of an unramified quadratic ring."""
    spec = x.spec
    if spec.kind != "unramified_quad":
        raise DomainError("frobenius is defined on unramified quadratic rings")
    b, _ = spec.quad
    a0, a1 = x.coords
    m = spec.modulus
    return RingElem(spec, ((a0 - b * a1) % m, (-a1) % m))


# -- log / exp ---------------------------------------------------------------


def padic_log(u, max_terms=None):
    """p-adic logarithm of u with v(u-1) > 1/(p-1).

    Returns (value, n_eff): the value is correct mod p^n_eff and n_eff
    reports the digits lost to divisions by term indices.
    """
    spec = u.spec
    p, N = spec.p, spec.N
    h = u - spec.one()
    t = valuation(h) if not h.is_zero() else inf
    if t <= Fraction(1, p - 1):
        raise DomainError("padic_log requires v(u-1) > 1/(p-1)")
    if h.is_zero():
        return spec.zero(), N
    acc = spec.zero()
    power = spec.one()
    loss = 0
    cap = max_terms or (64 * N * (p - 1))
    for k in range(1, cap + 1):
        power = power * h
        a = ord_int(k, p)
        kk = k // (p ** a)
        term = power * pow(kk, -1, spec.modulus)
        term = term.divide_exact_p(a)
        if k % 2 == 0:
            term = -term
        acc = acc + term
        loss = max(loss, a)
        # tail terms k' > k have v >= k'*t - log_p(k'), increasing in k'
        nxt = k + 1
        bound = 0
        while p ** (bound + 1) <= nxt:
            bound += 1
        if nxt * t - bound >= N:
            break
    else:
        raise PrecisionExhausted("padic_log did not converge within term budget")
    return acc, N - loss


def padic_exp(x, max_terms=None):
    """p-adic exponential of x with v(x) > 1/(p-1); returns (value, n_eff)."""
    spec = x.spec
    p, N = spec.p, spec.N
    if x.is_zero():
        return spec.one(), N
    t = valuation(x)
    if t <= Fraction(1, p - 1):
        raise DomainError("padic_exp requires v(x) > 1/(p-1)")
    acc = spec.one()
    power = spec.one()
    fact_ord = 0
    fact_unit = 1
    loss = 0
    cap = max_terms or (64 * N * (p - 1))
    for k in range(1, cap + 1):
        power = power * x
        a = ord_int(k, p)
        fact_ord += a
        fact_unit = (fact_unit * (k // p ** a)) % spec.modulus
        term = power * pow(fact_unit, -1, spec.modulus)
        term = term.divide_exact_p(fact_ord)
        acc = acc + term
        loss = max(loss, fact_ord)
        # ord_p((k+1)!) <= k/(p-1); stop once the next term is certainly >= N
        if (k + 1) * t - Fraction(k, p - 1) >= N:
            break
    else:
        raise PrecisionExhausted("padic_exp did not converge within term budget")
    return acc, N - loss


# -- embeddings --------------------------------------------------------------


def embed(x, target):
    """Embed x into a larger ring (scalars anywhere; quad/cyclo into composite;
    cyclotomic level n into level m >= n via zeta_n = zeta_m^{p^{m-n}})."""
    spec = x.spec
    if spec == target:
        return x
    if spec.p != target.p or spec.N != target.N:
        raise DomainError("embed requires matching p and N")
    if spec.kind == "zp":
        return target.from_int(x.coords[0])
    if spec.kind in ("ramified_quad", "unramified_quad"):
        if target.quad != spec.quad:
            raise DomainError("no embedding: different quadratic part")
        out = target.from_int(x.coords[0])
        return out + target.gen_quad() * x.coords[1]
    if spec.kind == "cyclotomic":
        if target.kind not in ("cyclotomic", "composite") or target.level < spec.level:
            raise DomainError("no embedding of this cyclotomic level")
        gen = target.zeta() ** (spec.p ** (target.level - spec.level))
        out = target.zero()
        power = target.one()
        for c in x.coords:
            if c:
                out = out + power * c
            power = power * gen
        return out
    raise DomainError("unsupported embedding")


def descend(x, base, n_check=None):
    """Project x back to the base ring it was embedded from.

    The coordinates outside the base must vanish mod p^n_check (full
    precision by default); otherwise x genuinely lives upstairs.  embed
    sends zeta_{p^n} to zeta_{p^m}^{p^(m-n)}, so the base basis element
    w^i zeta_{p^n}^j sits at w^i x^(j p^(m-n)) upstairs.
    """
    spec = x.spec
    if spec == base:
        return x
    if base.level > spec.level:
        raise DomainError("cannot descend to a higher cyclotomic level")
    qs = 2 if spec.quad is not None else 1
    qb = 2 if base.quad is not None else 1
    stride = spec.p ** (spec.level - base.level)
    idx = [i + qs * j * stride for j in range(base.phi) for i in range(qb)]
    keep = [x.coords[k] for k in idx]
    kept = set(idx)
    rest = [c for k, c in enumerate(x.coords) if k not in kept]
    q = spec.p ** (spec.N if n_check is None else n_check)
    if any(c % q for c in rest):
        raise PrecisionExhausted("element does not descend to the base ring")
    return base.elem(keep)


def to_json_str(obj):
    return json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":"))
