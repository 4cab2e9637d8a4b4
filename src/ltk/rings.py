"""Exact arithmetic in the finite coefficient rings.

Every ring here is a free Z/p^N-module with a distinguished basis, and every
element is a coordinate vector of canonical residues in [0, p^N).  Supported
kinds:

  zp              Z/p^N, basis (1)
  ramified_quad   (Z/p^N)[w]/(w^2 + b*w + c) with x^2+bx+c Eisenstein, basis (1, w)
  unramified_quad same shape, defining polynomial irreducible mod p
  cyclotomic      (Z/p^N)[x]/Phi_{p^n}(x), basis (1, x, ..., x^{phi-1})
  composite       quad tensor cyclotomic, basis w^i x^j at index i + 2*j

Each is built the same way, as a tower of monic extensions of Z/p^N: quad
is Z/p^N[w]/(w^2 + b w + c), cyclotomic is Z/p^N[x]/Phi_{p^n} (degree 1 for
p = 2, n = 1), composite is quad[x]/Phi_{p^n}, and lubin_tate.QuotientRing
is base[X]/P on top of any of them.  One function, extend, takes a packed
ring and a monic relation and returns the extension's packing and its
reduction map: the canonical coordinates of every monomial of a raw,
unreduced product.  compile_map turns the map, once per ring, into
straight-line Python: reduce_blocks for the packed series kernel and
mul_coords for single products.  No ring has reduction code of its own.

All arithmetic is exact, with no floating point; valuations are exact
Fractions with v(p) = 1; one loop, _power_sum, sums log and exp exactly
mod p^(N + S).  One fraction-free elimination over Z, fraction_free,
serves every multiplication matrix: its determinant gives norm_to_base and
valuation on cyclotomic and composite rings, its adjugate the tower's
divisions (lubin_tate.QuotientRing.make_divider).  A ring sits in a larger
one through one cached index map per pair, placement: embed scatters
coordinates through it and descend gathers them back, so the two accept the
same pairs.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from fractions import Fraction
from math import ceil, factorial, inf

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
    "log_one_unit",
    "padic_exp",
    "embed",
    "descend",
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
        # packing, red_map, reduce_blocks and mul_coords: see _packed.
        _require_ints(p=self.p, N=self.N, level=self.level, quad=self.quad or ())
        put = partial(object.__setattr__, self)
        put("modulus", self.p ** self.N)
        # 'ramified' or 'unramified' for the quadratic part, else None
        b, c, p = *(self.quad or (1, 1)), self.p
        eisenstein = b % p == 0 and c % p == 0 and (c // p) % p != 0
        put("quad_kind", self.quad and ("ramified" if eisenstein else "unramified"))
        # degree of Phi_{p^level}; 1 with no cyclotomic part
        put("phi", 1 if self.level == 0 else self.p ** (self.level - 1) * (self.p - 1))
        for name, value in _packed(self.p, self.N, self.quad, self.level)._asdict().items():
            put(name, value)
        put("rank", self.packing[0])

    def __reduce__(self):  # the compiled functions are rebuilt, not pickled
        return RingSpec, (self.p, self.N, self.kind, self.quad, self.level)

    # -- structure ---------------------------------------------------------

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

    def with_level(self, n):
        """This ring's quadratic part (if any) with zeta_{p^n} adjoined, n >= 1."""
        kind = "cyclotomic" if self.quad is None else "composite"
        return RingSpec(self.p, self.N, kind, self.quad, n)

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

    # -- coordinate arithmetic ---------------------------------------------

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
        if self.kind == "composite":
            quad = {self.quad_kind + "_quad": list(self.quad)}
            return {"composite": {"quad": quad, "level": self.level}}
        return {self.kind: self.level if self.level else list(self.quad or ())}

    def to_json(self):
        return {"p": self.p, "N": self.N, "kind": self.kind_json()}

    @staticmethod
    def from_json(obj):
        p, N, kind = json_fields(obj, "p", "N", "kind")
        if not isinstance(kind, dict) or len(kind) != 1:
            raise DomainError("ring kind must be an object with one key")
        (name, arg), = kind.items()
        if name == "composite":
            quad, level = json_fields(arg, "quad", "level")
            return make_composite(RingSpec.from_json({"p": p, "N": N, "kind": quad}), level)
        if name == "cyclotomic":
            return make_ring(p, N, name, level=arg)
        return make_ring(p, N, name, quad=arg)


class RingElem:
    """Immutable element of a RingSpec; coords are canonical residues."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec, coords):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("RingElem is immutable")

    def __reduce__(self):  # unpickled through the constructor, not setattr
        return RingElem, (self.spec, self.coords)

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
        return is_unit_coords(self.spec, self.coords)

    def inverse(self):
        return RingElem(self.spec, inverse_coords(self.spec, self.coords))

    def divide_exact_p(self, k):
        """Exact division by p^k; raises if any coordinate is not divisible."""
        if k == 0:
            return self
        q = self.spec.p ** k
        if any(x % q for x in self.coords):
            raise PrecisionExhausted("exact division by p^%d fails" % k)
        return RingElem(self.spec, tuple(x // q for x in self.coords))

    def to_json(self):
        d = self.spec.to_json()
        d["coords"] = list(self.coords)
        return d

    @staticmethod
    def from_json(obj):
        spec = RingSpec.from_json(obj)
        return spec.elem(obj["coords"])


def is_unit_coords(spec, c):
    """Whether the element with coordinates c is a unit: whether its image
    in the residue field (x -> 1 in the cyclotomic part, w -> 0 when
    ramified) is nonzero."""
    if spec.level:
        c = (sum(c[0::2]), sum(c[1::2])) if spec.quad else (sum(c),)
    return c[0] % spec.p != 0 or (spec.quad_kind == "unramified" and c[1] % spec.p != 0)


def inverse_coords(spec, c):
    """The coordinates of the inverse of the unit with coordinates c.

    Closed forms on Z/p^N and the quadratic rings.  A cyclotomic or composite
    ring R takes Newton's iteration on mul_coords: x_0 = c^(q - 2), q = p^f
    the residue field's size, then x <- x (2 - c x) until c x = 1.  R is
    local, with maximal ideal m = (p, x - 1), or (p, w, x - 1) when ramified,
    and m^e lies in pR: a product of e = phi (2 phi when ramified) generators
    holds p, or x - 1 phi times ((x - 1)^phi = Phi_{p^n}(x) mod p), or w twice
    (w^2 = -b w - c, p | b, c).  So m^(e N) = 0 in R; as c^(q - 1) = 1 mod m,
    the error 1 - c x_k = (1 - c x_0)^(2^k) lies in m^(2^k) and vanishes
    after at most ceil(log2(e N)) steps.
    """
    if not is_unit_coords(spec, c):
        raise DomainError("not a unit")
    m = spec.modulus
    if spec.kind == "zp":
        return (pow(c[0], -1, m),)
    if spec.kind in ("ramified_quad", "unramified_quad"):
        b, d = spec.quad
        a0, a1 = c
        nm_inv = pow((a0 * a0 - b * a0 * a1 + d * a1 * a1) % m, -1, m)
        return ((a0 - b * a1) * nm_inv % m, (-a1) * nm_inv % m)
    x = (RingElem(spec, c) ** (spec.p ** spec.residue_degree - 2)).coords
    while (cx := spec.mul_coords(c, x)) != spec.one().coords:
        x = spec.mul_coords(x, ((2 - cx[0]) % m,) + tuple(-y % m for y in cx[1:]))
    return x


# -- construction -----------------------------------------------------------


def json_fields(obj, *keys):
    """[obj[k] for k in keys]; DomainError unless obj is a JSON object
    holding every key."""
    if not isinstance(obj, dict) or any(k not in obj for k in keys):
        raise DomainError(f"expected a JSON object with keys {', '.join(keys)}")
    return [obj[k] for k in keys]


def _require_ints(**fields):
    """DomainError unless every named field (or tuple of them) holds ints."""
    for name, v in fields.items():
        if any(type(x) is not int for x in (v if isinstance(v, tuple) else (v,))):
            raise DomainError(f"{name} must be made of integers, got {v!r}")


def make_ring(p, N, kind, quad=None, level=0):
    """Build a RingSpec, validating the defining data.

    kind: "zp" | "ramified_quad" | "unramified_quad" | "cyclotomic".
    quad: (b, c) for x^2 + b x + c; level: n for Phi_{p^n}.
    """
    _require_ints(p=p, N=N, level=level)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if N < 1:
        raise DomainError("precision N must be >= 1")
    if kind == "zp":
        return RingSpec(p, N, "zp")
    if kind in ("ramified_quad", "unramified_quad"):
        if not isinstance(quad, (tuple, list)) or len(quad) != 2:
            raise DomainError("quad must be a pair (b, c)")
        b, c = quad = tuple(quad)
        _require_ints(quad=quad)
    if kind == "ramified_quad":
        if not (b % p == 0 and c % p == 0 and (c // p) % p != 0):
            raise DomainError("defining polynomial is not Eisenstein")
        return RingSpec(p, N, kind, quad=quad)
    if kind == "unramified_quad":
        if any((x * x + b * x + c) % p == 0 for x in range(p)):
            raise DomainError("defining polynomial is reducible mod p")
        return RingSpec(p, N, kind, quad=quad)
    if kind == "cyclotomic":
        if level < 1:
            raise DomainError("cyclotomic level must be >= 1")
        return RingSpec(p, N, kind, level=level)
    raise DomainError(f"unknown ring kind {kind!r}")


def make_composite(quad_spec, level):
    """Tensor a quadratic RingSpec with the level-n cyclotomic ring."""
    if quad_spec.kind not in ("ramified_quad", "unramified_quad"):
        raise DomainError("composite requires a quadratic spec")
    _require_ints(level=level)
    if level < 1:
        raise DomainError("cyclotomic level must be >= 1")
    return RingSpec(quad_spec.p, quad_spec.N, "composite", quad=quad_spec.quad, level=level)


# -- packed rings: towers of monic extensions of Z/p^N ---------------------------


_Packed = namedtuple("_Packed", "packing red_map reduce_blocks mul_coords")

# The compiled mul_coords has rank^2 products: rank 162 compiles in 0.26 s
# and 31 MB (CPython 3.11).  Larger rings are refused, not compiled.
MAX_RANK = 300


def extend(base, rel):
    """Packing and reduction map of base[Z]/(rel(Z)) for a monic rel.

    base is a packed ring: its packing = (rank, block, slots, p^N) says that
    an element is rank coordinates, coordinate i in slot slots[i] of a raw
    product block of block slots; red_map[t] is the canonical form of raw
    slot t; mul_coords is its product.  rel lists base coordinate tuples
    rel_0, ..., rel_d = 1.  Extension coordinate z * rank + i is Z^z times
    base coordinate i, in slot z * block + slots[i], so slot offsets add
    like exponents and raw slot e * block + t is the monomial Z^e t: its row
    is t's canonical form times Z^e, folded onto 1, ..., Z^(d-1) by
    Z^d = -sum_{i<d} rel_i Z^i with the base's own product.
    """
    r, block, slots, m = base.packing
    d = len(rel) - 1
    if d * r > MAX_RANK:
        raise DomainError(f"a ring of rank {d * r} exceeds MAX_RANK = {MAX_RANK}")
    zero = (0,) * r
    z_pows = [[zero] * d for _ in range(d)]
    for e in range(d):
        z_pows[e][e] = (1,) + zero[1:]
    for _ in range(d, 2 * d - 1):
        top, z = z_pows[-1][-1], [zero] + z_pows[-1][:-1]
        z_pows.append([tuple((x - y) % m for x, y in zip(zi, base.mul_coords(top, ri)))
                       for zi, ri in zip(z, rel)])
    red_map = tuple(tuple(chain.from_iterable(base.mul_coords(c, v) for c in ze))
                    for ze in z_pows for v in base.red_map)
    packing = (d * r, (2 * d - 1) * block,
               tuple(z * block + s for z in range(d) for s in slots), m)
    return packing, red_map


def compile_map(packing, red_map):
    """(reduce_blocks, mul_coords) compiled from a packed ring's reduction map.

    reduce_blocks(raw) maps each block of block slots of the raw slot list
    through the map mod p^N, one list comprehension over the strided slices
    raw[s::block] of the slots the map reads; mul_coords(a, b) sums the raw
    product slot by slot, then does the same.  Both are straight-line Python
    whose only literals are slot offsets and map entries reduced mod p^N
    (balanced, so -1 stays -1).  They carry this file's name, so profilers
    count them with the rest of rings.
    """
    rank, block, slots, m = packing
    _require_ints(packing=(rank, block, m) + tuple(slots),
                  map=tuple(chain.from_iterable(red_map)))
    # terms[i] lists (slot, coefficient) for canonical coordinate i
    terms = [[(s, c - m if 2 * c > m else c) for s, row in enumerate(red_map)
              for c in [row[i] % m] if c] for i in range(rank)]
    uses = Counter(s for t in terms for s, _ in t)
    prods = {s: [] for s in uses}
    for i, si in enumerate(slots):
        for j, sj in enumerate(slots):
            if si + sj in prods:
                prods[si + sj].append(f"a{i} * b{j}")

    def reduced(name):
        """The canonical coordinates as a tuple expression in name[s], raw slot s."""
        forms = []
        for t in terms:
            form = " ".join(f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else f'{abs(c)} * '}"
                            f"{name[s]}" for s, c in t)
            forms.append(f"({form.removeprefix('+ ')}) % {m}" if t else "0")
        return "(" + ", ".join(forms) + ",)"

    used = sorted(uses)
    loop = ", ".join(f"r{s}" for s in used) + " in " + (
        f"raw[{used[0]}::{block}]" if len(used) == 1 else
        "zip(" + ", ".join(f"raw[{s}::{block}]" for s in used) + ")")
    src = "\n".join([
        "def reduce_blocks(raw):",
        f"    return [{reduced({s: f'r{s}' for s in used})} for {loop}]",
        "def mul_coords(a, b):",
        "    " + "".join(f"a{i}, " for i in range(rank)) + "= a",
        "    " + "".join(f"b{i}, " for i in range(rank)) + "= b",
        # the slots read twice or more are bound once
        *[f"    r{s} = {' + '.join(prods[s])}" for s in used if uses[s] > 1],
        "    return " + reduced({s: f"r{s}" if uses[s] > 1 else f"({' + '.join(prods[s])})"
                                for s in used}), ""])
    scope = {}
    exec(compile(src, __file__, "exec"), scope)
    return scope["reduce_blocks"], scope["mul_coords"]


@lru_cache(maxsize=256)
def _packed(p, N, quad, level):
    """The _Packed of Z/p^N, extended by w^2 + b w + c for quad = (b, c),
    then by Phi_{p^level}(x) = sum_{k<p} x^(k p^(level-1)) for level >= 1."""
    if level:
        base = _packed(p, N, quad, 0)
        step, r = p ** (level - 1), base.packing[0]
        if (p - 1) * step * r > MAX_RANK:  # refused before Phi is even listed
            raise DomainError(f"level {level} exceeds MAX_RANK = {MAX_RANK}")
        rel = [(1 if k % step == 0 else 0,) + (0,) * (r - 1)
               for k in range((p - 1) * step + 1)]
        packing, red_map = extend(base, rel)
    elif quad is not None:
        b, c = quad
        packing, red_map = extend(_packed(p, N, None, 0), [(c,), (b,), (1,)])
    else:
        packing, red_map = (1, 1, (0,), p ** N), ((1,),)
    return _Packed(packing, red_map, *compile_map(packing, red_map))


# -- the one elimination, and what it gives -----------------------------------


def fraction_free(M, B=None):
    """(det M, adj(M) B) for a square integer matrix M and a matrix B with
    as many rows; adj is None when B is, and (0, None) when det M = 0.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    step k pivots on the first row at or below k nonzero in column k, and
    every other row x (without B, every row below: no later pivot reads the
    rows above) becomes (D x - x_k z) / D_prev, z the pivot row and D its
    entry.  Each entry stays an integer minor, so each division is exact,
    and [M | B] ends as [D I | D M^-1 B], D = det(P M) for the row
    permutation P taken; the swaps count sign(P), and det M = sign(P) D.
    """
    n = len(M)
    aug = [list(row) + list(b) for row, b in zip(M, B or [()] * n)]
    D, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            aug[k], aug[piv], sign = aug[piv], aug[k], -sign
        pk, prev, D = aug[k], D, aug[k][k]
        for i in (range(n) if B is not None else range(k + 1, n)):
            if i != k:
                c = aug[i][k]
                aug[i] = [(D * x - c * z) // prev for x, z in zip(aug[i], pk)]
    return sign * D, None if B is None else [[sign * x for x in row[n:]] for row in aug]


def mult_matrix(K, a):
    """Integer matrix of multiplication by the coordinates a on the canonical
    basis of a packed ring K (a RingSpec or a lubin_tate.QuotientRing)."""
    r = K.packing[0]
    cols = [K.mul_coords(a, tuple(int(i == j) for i in range(r))) for j in range(r)]
    return [list(row) for row in zip(*cols)]


def norm_to_base(x):
    """Norm to Z/p^N (determinant of the multiplication matrix)."""
    spec = x.spec
    if spec.kind == "zp":
        return x
    det = fraction_free(mult_matrix(spec, x.coords))[0]
    return RingSpec(spec.p, spec.N, "zp").from_int(det)


def trace_to_base(x):
    """Trace to Z/p^N."""
    spec = x.spec
    if spec.kind == "zp":
        return x
    M = mult_matrix(spec, x.coords)
    return RingSpec(spec.p, spec.N, "zp").from_int(sum(M[i][i] for i in range(spec.rank)))


def valuation(x):
    """Exact valuation with v(p) = 1, as a Fraction; inf for the zero residue.
    On a cyclotomic or composite ring, O_L / p^N with [L : Q_p] = rank,
    v(x) = v_p(N x) / rank; PrecisionExhausted when N x vanishes mod p^N."""
    spec = x.spec
    if x.is_zero():
        return inf
    if spec.level:
        vd = ord_int(norm_to_base(x).coords[0], spec.p)
        if vd >= spec.N:
            raise PrecisionExhausted("valuation unresolved at precision p^%d" % spec.N)
        return Fraction(vd, spec.rank)
    # in units of v(w): 1/2 when ramified (then v(w^i) = i), else 1
    e = 2 if spec.quad_kind == "ramified" else 1
    return Fraction(min(e * ord_int(c, spec.p) + i * (e - 1)
                        for i, c in enumerate(x.coords) if c), e)


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


def _log(h, t, name):
    """(log(1 + h), n_eff) = sum_{k>=1} (-1)^(k+1) h^k / k for h a RingElem
    or an integral TruncSeries, its coefficients of valuation >= t (t = 0:
    no bound); name, the caller, goes into the errors.  Term k has the
    denominator p^o_k, o_k = ord_p(k), so S_X = max o_k over k < cap; for
    t > 0, term k has valuation >= p^a t - a at a = o_k, and S_p is the least
    s with p^a t - a >= N for all a > s (each a >= max(4, N + 1/t) has it, as
    p^a t >= a^2 t >= a (N t + 1) >= N + a, so no larger a is read).

    n_eff.  For lifts h1 = h2 mod p^n (n >= 1), log(1 + h1) - log(1 + h2) =
    log(1 + z), z = (h1 - h2) / (1 + h2) = 0 mod p^n, and z^k / k = 0 mod
    p^(k n - ord_p(k)), k n - ord_p(k) >= n: log is 1-Lipschitz, and the
    value holds min(n, N - shift) digits for the input's true precision n.
    """
    p, N = h.spec.p, h.spec.N
    if getattr(h, "shift", 0):
        raise DomainError(f"{name}: log(1 + h) needs an integral h; h has shift {h.shift}")
    S_p = max((a for a in range(N + 4 + ceil(1 / t)) if p ** a * t - a < N),
              default=0) if t > 0 else inf
    S_x = max((ord_int(k, p) for k in range(1, getattr(h, "cap", 1))), default=0)

    def term(k, S, m):
        a = ord_int(k, p)
        return (-1) ** (k + 1) * p ** (S - a) * pow(k // p ** a, -1, m) if a <= S else 0

    return _power_sum(h, t, 0, name, S_p, S_x, term)


def _exp(x, t, name):
    """(exp x, n_eff) = sum_{k>=0} x^k / k! for x a RingElem or a TruncSeries,
    its coefficients of valuation >= t.  Term k has the denominator p^o_k,
    o_k = ord_p(k!) + s k for a series stored with shift s (t = 0 then),
    which does not fall, so S_X = o_(cap - 1); for t > 1/(p - 1), term k has
    valuation >= k t - ord_p(k!) >= k (t - 1/(p - 1)) + 1/(p - 1), >= N for
    all k > K = ceil((N - 1/(p - 1)) / (t - 1/(p - 1))) - 1, so S_p = o_K.

    n_eff.  For lifts x1 = x2 mod p^n (n >= 1), z = x1 - x2 has v(z^k / k!)
    >= v(z) + (k - 1)(v(z) - 1/(p - 1)) >= n on the p-adic domain and >=
    k n - ord_p(k!) >= n on the X-adic one (z(0) = 0): exp x1 = exp x2 exp z
    with exp z = 1 mod p^n.  An element's exp is a unit, so n_eff = N; a
    series' min(n, N - shift) counts the digits of that factor, which a lift
    can move below a denominator of exp x (a shift).
    """
    p, N = x.spec.p, x.spec.N
    s, cap, lam = getattr(x, "shift", 0), getattr(x, "cap", 1), Fraction(1, p - 1)
    ord_fact = lambda K: sum(ord_int(k, p) for k in range(1, K + 1))
    S_p = ord_fact(ceil((N - lam) / (t - lam)) - 1) if t > lam else inf

    def term(k, S, m):
        o = ord_fact(k)
        return p ** (S - s * k - o) * pow(factorial(k) // p ** o, -1, m) if s * k + o <= S else 0

    return _power_sum(x, t, lam, name, S_p, s * (cap - 1) + ord_fact(cap - 1), term)


def _power_sum(y, t, lam, name, S_p, S_x, term):
    """(f(y), n_eff) for f = sum_{k>=0} c_k y^k, term(k, S, m) = p^S c_k
    mod m (0 for a term left out): the one loop of _log and _exp.

    On the stored lift y~ of y it sums term(k, S, m) y~^k, exact mod m =
    p^(N + S), up to the first y~^k = 0 mod m (every later one is too).  S
    is the lesser bound that applies: S_x for a series with y(0) = 0, S_p
    for t > lam.  Either leaves out only terms that are 0 mod p^N,
    X-adically or by valuation, so the sum is p^S f(y~) mod m.  Its
    p-content up to S is divided out, the rest goes into a series' shift
    (an element takes none), and n_eff = min(n, N - shift) for y's true
    precision n: N for an element and for a cap-1 series summed X-adically
    (its one coefficient is the constant term the domain fixes), else
    n_eff - shift.
    """
    spec, element = y.spec, isinstance(y, RingElem)
    p, N = spec.p, spec.N
    S = min(S_p, inf if element or any(y.coeffs[0]) else S_x)
    if S == inf:
        raise DomainError(f"{name}: the sum converges neither X-adically (the constant term "
                          f"is not 0) nor p-adically (it needs t > {lam}; t = {t})")
    big = spec.with_precision(N + S)
    x = RingElem(big, y.coords) if element else type(y)(big, y.cap, y.coeffs, N + S)
    acc, power, k = x * 0, x * 0 + 1, 0
    while not power.is_zero():
        acc = acc + power * term(k, S, big.modulus)
        k += 1
        power = power * x
    rows = [acc.coords] if element else acc.coeffs
    shift = S - min([S] + [ord_int(c, p) for c in chain.from_iterable(rows) if c])
    if element and shift:
        raise DomainError(f"{name}: the value has p^-{shift} in its denominator, which an "
                          f"element cannot carry (v = {t} <= 1/(p - 1) allows one)")
    n = N if element or (y.cap == 1 and not t) else y.n_eff - y.shift
    keep = min(n + shift, N)
    if keep <= shift:
        raise PrecisionExhausted(f"{name}: the value has p^-{shift} in its denominators, so it "
                                 f"needs more than {shift} digits; the ring has N = {N}")
    q = p ** (S - shift)
    mod = p ** keep
    cs = [tuple(c // q % mod for c in row) for row in rows]
    return ((RingElem(spec, cs[0]), N) if element
            else (type(y)(spec, y.cap, cs, keep, shift), keep - shift))


def log_one_unit(h, t):
    """(log(1 + h), n_eff) for a RingElem or an integral TruncSeries h, each
    coefficient of valuation >= t > 0 (t = 0 for a series with h(0) = 0)."""
    return _log(h, t, "log_one_unit")


def padic_log(u):
    """(log u, n_eff) for v(u - 1) > 1/(p - 1): _log, n_eff = N."""
    h = u - u.spec.one()
    return _log(h, _valuation_above(h, "padic_log", "u - 1"), "padic_log")


def padic_exp(x):
    """(exp x, n_eff) for v(x) > 1/(p - 1): _exp, n_eff = N."""
    return _exp(x, _valuation_above(x, "padic_exp", "x"), "padic_exp")


def _valuation_above(x, name, what):
    """v(x), needed above 1/(p - 1).  A ramified composite ring can split (as
    Q_3(sqrt -3) holds zeta_3), and then `valuation` averages: refused."""
    spec = x.spec
    if spec.kind == "composite" and spec.quad_kind == "ramified":
        raise DomainError(f"{name}: the ring {spec.kind_json()} may be no field, so v is no bound")
    t, lam = valuation(x), Fraction(1, spec.p - 1)
    if t <= lam:
        raise DomainError(f"{name} needs v({what}) > 1/(p - 1) = {lam}; v({what}) = {t}")
    return t


# -- embeddings --------------------------------------------------------------


@lru_cache(maxsize=256)
def placement(base, target):
    """Where base sits in target: base coordinate i is target coordinate
    placement(base, target)[i]; the other target coordinates vanish on base.

    base embeds when p and N agree, target has base's quadratic part (if
    any) and a cyclotomic level m >= base's level n, and base is not a
    composite other than target; else DomainError.  The embedding fixes w
    and sends zeta_{p^n} to x^(p^(m-n)), so basis element w^i zeta^j (index
    i + qb j, qb = 2 with a quadratic part, else 1) goes to w^i x^(j p^(m-n)),
    a basis element of target: j < phi(p^n) gives j p^(m-n) < phi(p^m).
    """
    if (base.p != target.p or base.N != target.N or base.level > target.level
            or base.quad not in (None, target.quad)
            or base.kind == "composite" and base != target):
        raise DomainError(f"no embedding of {base} in {target}")
    qb, qt = (1 if r.quad is None else 2 for r in (base, target))
    stride = base.p ** (target.level - base.level)
    return tuple(i + qt * j * stride for j in range(base.phi) for i in range(qb))


def embed_coords(coeffs, base, target):
    """The coordinate tuples coeffs of base, each placed in target."""
    idx, zero = placement(base, target), [0] * target.rank
    out = []
    for c in coeffs:
        v = zero[:]
        for k, a in zip(idx, c):
            v[k] = a
        out.append(tuple(v))
    return out


def descend_coords(coeffs, spec, base, n_check=None):
    """The coordinate tuples coeffs of spec, each gathered back to base
    through placement (DomainError for a pair embed refuses).
    PrecisionExhausted unless the coordinates outside base vanish mod
    p^n_check (full precision by default): else the element lives upstairs."""
    idx = placement(base, spec)
    out = [tuple(c[k] for k in idx) for c in coeffs]
    q = spec.p ** (spec.N if n_check is None else n_check)
    if any((a - b) % q for c, e in zip(coeffs, embed_coords(out, base, spec))
           for a, b in zip(c, e)):
        raise PrecisionExhausted("element does not descend to the base ring")
    return out


def embed(x, target):
    """x in a ring that contains its ring (see placement)."""
    if x.spec == target:
        return x
    return RingElem(target, embed_coords([x.coords], x.spec, target)[0])


def descend(x, base, n_check=None):
    """x back in the ring base it was embedded from (see descend_coords)."""
    if x.spec == base:
        return x
    return RingElem(base, descend_coords([x.coords], x.spec, base, n_check)[0])


def to_json_str(obj):
    return json.dumps(obj.to_json(), sort_keys=True, separators=(",", ":"))
