"""Truncated power-series kernel over any RingSpec.

A TruncSeries is a polynomial of degree < cap whose coefficients are exact
ring elements stored mod p^N.  Two bookkeeping fields ride along:

  n_eff   the stored coefficients are meaningful mod p^n_eff (<= spec.N);
  shift   the represented series is p^(-shift) times the stored one.

The shift carries p in denominators (formal logs and exps) as one global
exponent, never per-coefficient fractions; the true precision is n_eff - shift.

Every truncated series product goes through one packed-integer kernel,
packed_mul (Kronecker substitution; Harvey, arXiv:0712.4046): a coefficient
list becomes one Python int, the two ints are multiplied once, and each
product block is reduced once by the ring's relations.  A residue ring
speaks the kernel through `packing` = (rank, block, slots, p^N) and
`reduce_block(raw, o)`.  Every ring has both from one construction
(rings.extend, rings.compile_map): the ring is a tower of monic extensions
of Z/p^N, packing places each coordinate in a slot so that slot offsets add
like exponents, and reduce_block is the ring's reduction map, compiled
once per ring to straight-line code.  RingSpec (the coefficient rings) and
lubin_tate.QuotientRing (base[X]/P) are the two kinds of packed ring.
Determinants over K[Y] (the norm operator's, lambda_modules.det_series)
go through packed_det: each entry is packed once, and each minor is a
signed sum of int products, unpacked and reduced once.  Linear maps
y -> sum_k y_k M_k whose matrices M_k are windows of one table (the norm's
fiber digits, the powers of a torsion translate) go through PackedRows: the
table is packed once, and a call sums one int product per term, unpacked
and reduced once.  Every evaluation at a point is horner: Horner's rule on
coordinate tuples in the point's ring, whose compiled mul_coords it calls.

The structural-series solver, _solve_structural, and its ring protocol
(_Coords, or lubin_tate's exact rationals) live here too: they give the
Lubin-Tate log, exp, [a]_f and translates (tabled in lubin_tate) and every
compositional inverse (_reversion).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import chain
from math import floor, inf

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    RingSpec,
    _require_ints,
    descend_coords,
    embed_coords,
    json_fields,
    ord_int,
    valuation,
)

__all__ = [
    "TruncSeries",
    "packed_mul",
    "packed_times",
    "packed_compose",
    "horner",
    "packed_det",
    "PackedRows",
    "WeierstrassData",
    "weierstrass_prep",
    "poly_divmod_monic",
    "mu_lambda_by_roots",
    "iwasawa_invariants_by_roots",
    "formal_log",
    "formal_exp",
    "reversion",
]


def _as_coords(spec, c):
    if isinstance(c, RingElem):
        if c.spec is not spec and c.spec != spec:
            raise DomainError("coefficient from a different ring")
        return c.coords
    if isinstance(c, int):
        return spec.from_int(c).coords
    if len(c) != spec.rank:
        raise DomainError(f"a coefficient needs {spec.rank} coordinates, not {len(c)}")
    return tuple(int(a) % spec.modulus for a in c)


class TruncSeries:
    __slots__ = ("spec", "cap", "coeffs", "n_eff", "shift")

    def __init__(self, spec, cap, coeffs, n_eff=None, shift=0):
        if cap < 1:
            raise DomainError("cap must be >= 1")
        cs = [_as_coords(spec, c) for c in coeffs[:cap]]
        zero = (0,) * spec.rank
        cs.extend([zero] * (cap - len(cs)))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "n_eff", spec.N if n_eff is None else n_eff)
        object.__setattr__(self, "shift", shift)
        if self.n_eff <= self.shift:
            raise PrecisionExhausted("series has no significant digits left")

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):  # unpickled through _series, not setattr
        return _series, (self.spec, self.cap, self.coeffs, self.n_eff, self.shift)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec, cap):
        return TruncSeries(spec, cap, [])

    @staticmethod
    def one(spec, cap):
        return TruncSeries(spec, cap, [1])

    @staticmethod
    def x(spec, cap):
        return TruncSeries(spec, cap, [0, 1])

    @staticmethod
    def monomial(spec, cap, k, c=1):
        coeffs = [0] * cap
        if k < cap:
            coeffs[k] = c
        return TruncSeries(spec, cap, coeffs)

    # -- accessors ------------------------------------------------------------

    def coeff(self, i):
        if i >= self.cap:
            return self.spec.zero()
        return RingElem(self.spec, self.coeffs[i])

    def constant_term(self):
        return self.coeff(0)

    def degree(self):
        """Largest index with a nonzero stored coefficient, or -1."""
        for i in range(self.cap - 1, -1, -1):
            if any(self.coeffs[i]):
                return i
        return -1

    def __repr__(self):
        return (f"TruncSeries({self.spec.kind}, cap={self.cap}, "
                f"n_eff={self.n_eff}, shift={self.shift})")

    def is_zero(self):
        return all(not any(c) for c in self.coeffs)

    def eq_mod(self, other, n=None):
        """Coefficientwise congruence mod p^n (default: joint precision)."""
        a, b = _align(self, other)
        if n is None:
            n = min(a.n_eff, b.n_eff)
        q = self.spec.p ** n
        for ca, cb in zip(a.coeffs, b.coeffs):
            if any((x - y) % q for x, y in zip(ca, cb)):
                return False
        return True

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = _align(self, other)
        add = self.spec.add_coords
        cs = [add(x, y) for x, y in zip(a.coeffs, b.coeffs)]
        return _series(self.spec, a.cap, cs, min(a.n_eff, b.n_eff), a.shift)

    def __sub__(self, other):
        a, b = _align(self, other)
        sub = self.spec.sub_coords
        cs = [sub(x, y) for x, y in zip(a.coeffs, b.coeffs)]
        return _series(self.spec, a.cap, cs, min(a.n_eff, b.n_eff), a.shift)

    def __neg__(self):
        m = self.spec.modulus
        cs = [tuple((-x) % m for x in c) for c in self.coeffs]
        return _series(self.spec, self.cap, cs, self.n_eff, self.shift)

    def scale(self, c):
        """Multiply by a ring element or integer scalar."""
        spec = self.spec
        if isinstance(c, int):
            cs = [spec.smul_coords(c, a) for a in self.coeffs]
        else:
            cc = _as_coords(spec, c)
            mul = spec.mul_coords
            cs = [mul(cc, a) for a in self.coeffs]
        return _series(spec, self.cap, cs, self.n_eff, self.shift)

    def __mul__(self, other):
        if isinstance(other, (int, RingElem)):
            return self.scale(other)
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise DomainError("mixed ring specs")
        cap = min(self.cap, other.cap)
        return _series(spec, cap, packed_mul(spec, self.coeffs, other.coeffs, cap),
                       min(self.n_eff, other.n_eff), self.shift + other.shift)

    __rmul__ = __mul__

    def pow_int(self, e):
        if e < 0:
            raise DomainError("negative power of a series")
        out = TruncSeries.one(self.spec, self.cap)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def truncate(self, cap2):
        if cap2 >= self.cap:
            return self
        return _series(self.spec, cap2, self.coeffs[:cap2], self.n_eff, self.shift)

    def extend_cap(self, cap2):
        """Zero-pad to a larger cap (the tail is NOT claimed correct)."""
        if cap2 <= self.cap:
            return self.truncate(cap2)
        return TruncSeries(self.spec, cap2, list(self.coeffs),
                           self.n_eff, self.shift)

    def reduce_precision(self, N2):
        spec2 = self.spec.with_precision(N2)
        q = spec2.modulus
        cs = [tuple(x % q for x in c) for c in self.coeffs]
        return _series(spec2, self.cap, cs, min(self.n_eff, N2), self.shift)

    def canonical(self):
        """Reduce stored residues mod p^n_eff (junk above n_eff zeroed)."""
        q = self.spec.p ** self.n_eff
        cs = [tuple(x % q for x in c) for c in self.coeffs]
        return _series(self.spec, self.cap, cs, self.n_eff, self.shift)

    def normalize_shift(self):
        """Strip certified p-content from the stored coefficients."""
        if self.shift == 0:
            return self
        s = self.canonical()
        p = self.spec.p
        content = self.n_eff
        for c in s.coeffs:
            for x in c:
                if x:
                    content = min(content, ord_int(x, p))
            if content == 0:
                break
        t = min(self.shift, content)
        if t == 0:
            return s
        q = p ** t
        cs = [tuple(x // q for x in c) for c in s.coeffs]
        return _series(self.spec, self.cap, cs, self.n_eff - t, self.shift - t)

    def require_integral(self):
        """Normalize and fail loudly if a denominator survives."""
        s = self.normalize_shift()
        if s.shift:
            raise PrecisionExhausted(
                "series is not integral at this precision (shift=%d)" % s.shift)
        return s

    def divide_exact_p(self, k):
        """Exact coefficientwise division by p^k (certified)."""
        if k == 0:
            return self
        s = self.canonical()
        q = self.spec.p ** k
        cs = []
        for i, c in enumerate(s.coeffs):
            if any(x % q for x in c):
                raise PrecisionExhausted(
                    "coefficient %d not divisible by p^%d" % (i, k))
            cs.append(tuple(x // q for x in c))
        return _series(self.spec, self.cap, cs, self.n_eff - k, self.shift)

    # -- composition and evaluation -------------------------------------------

    def compose(self, inner):
        """self(inner); inner must be integral with positive-valuation constant."""
        if inner.shift:
            raise DomainError("inner series of a composition must be integral")
        c0 = inner.constant_term()
        if not c0.is_zero() and valuation(c0) <= 0:
            raise DomainError("inner constant term must have positive valuation")
        cap = min(self.cap, inner.cap)
        return _series(self.spec, cap,
                       packed_compose(self.spec, self.coeffs, inner.coeffs, cap),
                       min(self.n_eff, inner.n_eff), self.shift)

    def compose_affine(self, a, b):
        """self(a + b*X) for ring elements a (positive valuation) and b."""
        spec = self.spec
        inner = [_as_coords(spec, a), _as_coords(spec, b)]
        return _series(spec, self.cap,
                       packed_compose(spec, self.coeffs, inner, self.cap),
                       self.n_eff, self.shift)

    def derive(self):
        spec = self.spec
        cs = [spec.smul_coords(k, self.coeffs[k]) for k in range(1, self.cap)]
        cs.append((0,) * spec.rank)
        return _series(spec, self.cap, cs, self.n_eff, self.shift)

    def invert(self):
        """Multiplicative inverse; requires a unit constant term."""
        s = self.require_integral()
        spec = s.spec
        c0 = s.constant_term()
        if not c0.is_unit():
            raise DomainError("invert requires a unit constant term")
        inv0 = c0.inverse().coords
        mul, sub = spec.mul_coords, spec.sub_coords
        zero = (0,) * spec.rank
        out = [zero] * s.cap
        out[0] = inv0
        for k in range(1, s.cap):
            acc = zero
            for j in range(0, k):
                cj = s.coeffs[k - j]
                if any(cj) and any(out[j]):
                    acc = spec.add_coords(acc, mul(out[j], cj))
            out[k] = mul(inv0, sub(zero, acc))
        return _series(spec, s.cap, out, s.n_eff, 0)

    def eval(self, x):
        """Evaluate at a positive-valuation point in an extension ring.

        Returns (value, guarantee): the value is correct mod p^guarantee,
        guarantee = min(n_eff - shift, floor(cap * v(x))).

        Derivation.  After require_integral, shift = 0 and n_eff has dropped
        by the old shift.  The series is f = sum_k c_k X^k with integral c_k;
        c'_k = c_k mod p^n_eff is stored for k < cap, and the value is
        sum_{k<cap} c'_k x^k, so f(x) - value = sum_{k<cap} (c_k - c'_k) x^k
        + x^cap sum_{k>=cap} c_k x^(k-cap).  Each c_k - c'_k is p^n_eff times
        an integral element and v(x) > 0, so the first sum has valuation
        >= n_eff, and the second >= cap v(x) >= floor(cap v(x)); at x = 0 it
        is 0.  The bound is attained: at x = p in Z/p^N with c_cap a unit,
        f(x) - value = c_cap p^cap mod p^(cap + 1).
        """
        s = self.require_integral()
        target = x.spec
        vx = valuation(x) if not x.is_zero() else inf
        if vx <= 0:
            raise DomainError("evaluation point must have positive valuation")
        acc = horner(target, embed_coords(s.coeffs, s.spec, target), x.coords)
        guar = s.n_eff if vx is inf else min(s.n_eff, floor(s.cap * vx))
        return RingElem(target, acc), guar

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        d = {
            "spec": self.spec.to_json(),
            "D": self.cap,
            "N_eff": self.n_eff,
            "coeffs": [list(c) for c in self.coeffs],
        }
        if self.shift:
            d["shift"] = self.shift
        return d

    @staticmethod
    def from_json(obj):
        spec, cap, n_eff, coeffs = json_fields(obj, "spec", "D", "N_eff", "coeffs")
        spec = RingSpec.from_json(spec)
        shift = obj.get("shift", 0)
        if not (isinstance(coeffs, list)
                and all(isinstance(c, list) and len(c) == spec.rank for c in coeffs)):
            raise DomainError(f"coeffs must be a list of {spec.rank}-integer lists")
        _require_ints(D=cap, N_eff=n_eff, shift=shift, coeffs=tuple(chain(*coeffs)))
        if not 0 <= shift < n_eff <= spec.N:
            raise DomainError("a series needs 0 <= shift < N_eff <= N")
        return TruncSeries(spec, cap, coeffs, n_eff, shift)


def _align(a, b):
    """Common cap and common shift (scaling stored coefficients up)."""
    if isinstance(b, (int, RingElem)):
        b = TruncSeries(a.spec, a.cap, [b], a.spec.N, 0)
    if a.spec is not b.spec and a.spec != b.spec:
        raise DomainError("mixed ring specs")
    cap = min(a.cap, b.cap)
    s = max(a.shift, b.shift)
    a2 = a._shift_up(s - a.shift).truncate(cap)
    b2 = b._shift_up(s - b.shift).truncate(cap)
    return a2, b2


def _shift_up(self, d):
    if d == 0:
        return self
    q = self.spec.p ** d
    m = self.spec.modulus
    cs = [tuple((x * q) % m for x in c) for c in self.coeffs]
    return _series(self.spec, self.cap, cs,
                   min(self.n_eff + d, self.spec.N), self.shift + d)


TruncSeries._shift_up = _shift_up


def _series(spec, cap, coeffs, n_eff, shift=0):
    """A TruncSeries from exactly cap canonical coordinate tuples.

    The internal constructor for kernel and coordinate-arithmetic outputs:
    they are already residues in [0, p^N), so nothing is re-reduced.
    """
    s = object.__new__(TruncSeries)
    put = object.__setattr__
    put(s, "spec", spec)
    put(s, "cap", cap)
    put(s, "coeffs", tuple(coeffs))
    put(s, "n_eff", n_eff)
    put(s, "shift", shift)
    if n_eff <= shift:
        raise PrecisionExhausted("series has no significant digits left")
    return s


# -- the packed-integer kernel ----------------------------------------------------


# The array typecode for each slot width it can move (1, 2, 4 and 8 bytes);
# none on a big-endian host, whose slots go through to_bytes one by one.
_ARRAY_CODES = ({array(c).itemsize: c for c in "QIHB"}
                if sys.byteorder == "little" else {})


def _slot_bytes(bound):
    """Bytes per slot for slot values of absolute value at most bound, with
    a bit to spare: bit_length(bound) + 1 bits in whole bytes, rounded up to
    the next width array moves (1, 2, 4 or 8) when there is one."""
    n = (bound.bit_length() + 8) // 8
    return min((w for w in _ARRAY_CODES if w >= n), default=n)


def _pack(coeffs, block, slots, nbytes):
    """One int holding the coefficient tuples, block slots of nbytes each per
    coefficient, coordinate i of a coefficient in its slot slots[i]."""
    return int.from_bytes(_pack_bytes(coeffs, block, slots, nbytes), "little")


def _pack_bytes(coeffs, block, slots, nbytes):
    """_pack's int as its len(coeffs) * block * nbytes little-endian bytes."""
    if block == 1:
        flat = [c[0] for c in coeffs]
    else:
        flat = [0] * (len(coeffs) * block)
        for i, s in enumerate(slots):
            flat[s::block] = [c[i] for c in coeffs]
    code = _ARRAY_CODES.get(nbytes)
    return (array(code, flat).tobytes() if code
            else b"".join([x.to_bytes(nbytes, "little") for x in flat]))


def _slots(x, count, nbytes, size):
    """The lowest count of the size unsigned nbytes-wide slots of x >= 0."""
    buf = x.to_bytes(size * nbytes, "little")
    code = _ARRAY_CODES.get(nbytes)
    if code is None:
        return [int.from_bytes(buf[i:i + nbytes], "little")
                for i in range(0, count * nbytes, nbytes)]
    out = array(code)
    out.frombytes(memoryview(buf)[:count * nbytes])
    return out.tolist()


def _unpack(K, prod, n, nbytes, size):
    """The first n reduced coefficients of a product packed in size blocks."""
    block = K.packing[1]
    raw = _slots(prod, n * block, nbytes, size * block)
    red = K.reduce_block
    return [red(raw, o) for o in range(0, n * block, block)]


def _trim(coeffs, cap):
    """Length of coeffs[:cap] without its trailing zero coefficients."""
    n = min(len(coeffs), cap)
    while n and not any(coeffs[n - 1]):
        n -= 1
    return n


def packed_mul(K, a, b, cap):
    """The product mod X^cap of coefficient lists a and b over a packed ring K.

    K is a RingSpec or a lubin_tate.QuotientRing; a and b hold canonical
    coordinate tuples of length rank, and so does the result (cap of them).
    Each coefficient fills one block of slots, coordinate i in slot
    slots[i]; blocks follow the powers of X.  Packed at X -> 2^(8 nbytes
    block), the two lists multiply as one pair of ints, and the block of
    X^k in the product is the raw, unreduced product coefficient, which
    K.reduce_block maps onto the basis once (rings.compile_map).

    Slot width.  Every input coordinate lies in [0, m - 1], m = p^N.  Slot
    offsets add like monomial exponents (each variable's degree in a product
    stays below its stride), so coordinate i of one factor meets coordinate
    j of the other in slot slots[i] + slots[j] of the block.  Given the slot
    and i, at most one j fits: at most rank coordinate pairs share a slot
    per pair of coefficients, and at most min(len a, len b) coefficient
    pairs reach one power of X.  A product slot is therefore a nonnegative
    integer of at most min(len a, len b) * rank * (m - 1)^2, and with

        bits >= bit_length(min(len a, len b) * rank * (m - 1)^2) + 1

    no slot carries into the next: the product's slots are exactly the raw
    coefficients.  nbytes is that bit count rounded up to whole bytes, then
    to the next width array moves (1, 2, 4 or 8 bytes; _slot_bytes), so
    packing and unpacking are one array conversion each.  Rounding up keeps
    the slots carry-free: the bound on a slot's value depends on the inputs
    only, not on the width, so a wider slot holds it with bits to spare, and
    the packed product is the same polynomial evaluated at a larger power
    of 2.  Trailing zero coefficients are dropped first, which only shrinks
    the bound.
    """
    rank, block, slots, m = K.packing
    la, lb = _trim(a, cap), _trim(b, cap)
    if not la or not lb:
        return [(0,) * rank] * cap
    n = min(cap, la + lb - 1)
    nbytes = _slot_bytes(min(la, lb) * rank * (m - 1) ** 2)
    A = _pack(a[:la], block, slots, nbytes)
    B = A if a is b else _pack(b[:lb], block, slots, nbytes)
    out = _unpack(K, A * B, n, nbytes, la + lb - 1)
    out.extend([(0,) * rank] * (cap - n))
    return out


def packed_times(K, b, cap):
    """a -> a * b mod X^cap over a packed ring K, as cap coefficients, with
    b packed once.

    The slots are packed_mul's, at the width for len(b) * rank * (m - 1)^2:
    a bound on min(len a, len b) * rank * (m - 1)^2 for every a (lengths
    trimmed).
    """
    rank, block, slots, m = K.packing
    zero = (0,) * rank
    lb = _trim(b, cap)
    nbytes = _slot_bytes(lb * rank * (m - 1) ** 2)
    B = _pack(b[:lb], block, slots, nbytes)

    def times(a):
        la = _trim(a, cap)
        if not la or not lb:
            return [zero] * cap
        n = min(cap, la + lb - 1)
        out = _unpack(K, _pack(a[:la], block, slots, nbytes) * B, n, nbytes, la + lb - 1)
        out.extend([zero] * (cap - n))
        return out

    return times


def packed_compose(K, f, g, cap):
    """f(g) mod X^cap over a packed ring K by Horner's rule.

    f and g are coefficient lists of canonical coordinate tuples.  g is
    packed once (packed_times); each coefficient of f costs one packed
    product.  Every coefficient of f is used, so g(0) need not vanish.
    """
    rank, _, _, m = K.packing
    zero = (0,) * rank
    if not _trim(g, cap):
        c = f[0] if f else zero
        return [c] + [zero] * (cap - 1)
    times_g = packed_times(K, g, cap)
    res = []
    for c in reversed(f):
        if res:
            res = times_g(res)
        if any(c):
            res = res or [zero] * cap
            res[0] = tuple((x + y) % m for x, y in zip(res[0], c))
    return res or [zero] * cap


def horner(K, coeffs, pt):
    """sum_k coeffs[k] pt^k in a packed ring K (a RingSpec or a
    lubin_tate.QuotientRing) by Horner's rule on canonical coordinate
    tuples: one compiled K.mul_coords per coefficient below the last nonzero
    one.  Every evaluation of a series at a point runs through it."""
    n = _trim(coeffs, len(coeffs))
    if not n:
        return (0,) * K.packing[0]
    mul, m = K.mul_coords, K.packing[3]
    acc = coeffs[n - 1]
    for k in range(n - 2, -1, -1):
        acc = mul(acc, pt)
        c = coeffs[k]
        if any(c):
            acc = tuple((x + y) % m for x, y in zip(acc, c))
    return acc


class PackedRows:
    """Rows over a packed ring K, made on demand and kept packed as one
    Kronecker int, and the sums of products of coefficients with windows of
    them: the sum-then-reduce-once step of a linear map y -> sum_k y_k M_k
    whose matrices M_k are windows of one table.

    Row n is a list of stride canonical coordinate tuples: rows lists the
    first ones, and step(row n) is row n + 1.  Row n fills blocks n stride
    .. (n + 1) stride - 1 of the int, which is kept as its little-endian
    bytes, so window k, rows k .. k + width - 1, is a slice of them: the
    int shifted down by k rows and masked to width rows.  combine(ys) is

        sum_k ys[k] * (window k),

    each ys[k] a coordinate tuple of K multiplying every block of its
    window, read as width * stride canonical coordinate tuples.  ys[k] is
    packed as one block, so ys[k] * (window k) is one int product whose
    block b is the raw product of ys[k] with block b of the window (the
    product of two blocks stays in one block, as in packed_mul).  The
    products are summed as plain ints, and the sum is unpacked and reduced
    once (_unpack): a call makes one int product per nonzero ys[k] and
    width * stride reductions, however many terms it sums.

    Slot width.  The coordinates of the rows and of ys lie in [0, m - 1], m
    = p^N.  A slot of one product sums at most r products of two
    coordinates (r = K's rank: given the slot and a coordinate of ys[k], at
    most one coordinate of the block fits, as in packed_mul), so a slot of
    a sum of L products is a nonnegative integer of at most

        L * r * (m - 1)^2,

    and with bit_length of that plus one bit per slot (_slot_bytes) no slot
    carries into the next: the sum's slots are its raw coefficients.  The
    table is packed at the width for the longest trimmed ys asked for so
    far and packed again only when a longer one needs wider slots (a wider
    slot holds the smaller bound too).  Rows are made only up to the last
    one a call reads, L + width - 1 of them for L trimmed terms, so a cold
    call makes no row it does not use.
    """

    def __init__(self, K, stride, width, rows, step):
        self.K, self.stride, self.width, self.step = K, stride, width, step
        self.rows = list(rows)
        self.table = 0, b""   # (slot bytes, the packed rows)

    def combine(self, ys):
        rank, block, slots, m = self.K.packing
        n = self.width * self.stride
        L = _trim(ys, len(ys))
        if not L:
            return [(0,) * rank] * n
        # rows and table are replaced, never changed in place, so concurrent
        # calls each read a consistent snapshot
        rows = self.rows
        if len(rows) < L + self.width - 1:
            rows = list(rows)
            while len(rows) < L + self.width - 1:
                rows.append(self.step(rows[-1]))
            self.rows = rows
        nbytes, table = self.table
        wide = _slot_bytes(L * rank * (m - 1) ** 2)
        if wide > nbytes:   # wider slots: pack every row again
            nbytes, table = wide, b""
        size = block * nbytes
        row = size * self.stride
        done = len(table) // row
        if done < len(rows):
            table += _pack_bytes(list(chain.from_iterable(rows[done:])), block, slots,
                                 nbytes)
            self.table = nbytes, table
        packed_ys = _pack_bytes(ys[:L], block, slots, nbytes)
        acc = 0
        for k, y in enumerate(ys[:L]):
            if any(y):
                acc += (int.from_bytes(packed_ys[k * size:(k + 1) * size], "little")
                        * int.from_bytes(table[k * row:(k + self.width) * row], "little"))
        return _unpack(self.K, acc, n, nbytes, n)


# A d x d determinant makes d 2^(d-1) products and keeps 2^d minors; see
# packed_det for what this bound allows and refuses.
MAX_DET_DIM = 13


def packed_det(K, rows, cap):
    """Determinant mod Y^cap of a square matrix over K[Y], K a packed ring.

    K is a RingSpec or a lubin_tate.QuotientRing; rows[i][j] lists canonical
    coordinate tuples, the Y^k coefficients of entry (i, j) (an entry over K
    itself is a one-coefficient list at cap 1).  Returns cap coordinate
    tuples.  The determinant is a column-subset Laplace expansion with
    memoized minors: it never divides, so it holds over quotient rings with
    zero divisors, such as the torsion tower's.

    Packing.  Each entry is packed once into a Kronecker int as in
    packed_mul, and each memoized minor is kept as one: a minor is the
    signed sum of at most d products entry * smaller minor, formed on plain
    Python ints, then unpacked and reduced once and packed again.  The last
    row's minors are its entries, so a minor of j >= 2 rows costs one
    reduction for its j products.  The sum may be negative and longer than
    cap blocks; with S = 2^(cap block W), W the slot width, the slots below
    S hold the sum's coefficients mod Y^cap with a borrow from each negative
    one into the next.  One biased unpack reads them: adding 2^(W-1) to
    every slot puts each one in [0, 2^W), so the slots of (sum + bias) mod
    S, one & mask, are read unsigned and carry-free, and the bias comes off.
    That mask is exact mod Y^cap: x -> x mod S is a ring map, and composed
    with the Kronecker substitution it sends Y^cap to 0.

    Slot width.  A minor's coordinates lie in [0, m - 1], m = p^N, and so
    do an entry's.  As in packed_mul, a slot of one product sums at most
    L * r products of two coordinates (L <= cap the longest entry, r =
    rank), so a slot of the sum has absolute value at most

        B = d * L * r * (m - 1)^2,

    and W = bit_length(B) + 1 bits hold it with its sign (rounded up as in
    packed_mul, _slot_bytes).

    Reach.  The expansion makes d 2^(d-1) products and keeps up to 2^d
    minors, each reduced once.  d <= MAX_DET_DIM = 13 bounds them by 53248
    products and 8192 minors (q <= 9 needs at most 2304 and 512); q = 25
    would need 4.2e8 products and 3.4e7 minors, so a larger d raises
    DomainError before any work.
    """
    d = len(rows)
    rank, block, slots, m = K.packing
    zero = (0,) * rank
    if d > MAX_DET_DIM:
        raise DomainError(f"a {d} x {d} determinant exceeds MAX_DET_DIM = {MAX_DET_DIM}: "
                          f"{d * 2 ** (d - 1)} products over {2 ** d} minors")
    if not d:
        return [(1,) + zero[1:]] + [zero] * (cap - 1)
    rows = [[e[:_trim(e, cap)] for e in row] for row in rows]
    L = max(len(e) for row in rows for e in row)
    nbytes = _slot_bytes(d * L * rank * (m - 1) ** 2)
    ints = [[_pack(e, block, slots, nbytes) for e in row] for row in rows]
    size = cap * block
    mask = (1 << (8 * nbytes * size)) - 1
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * size, "little")
    red = K.reduce_block
    # minors by their column bitmask; the last row's are its entries
    memo = {1 << c: x for c, x in enumerate(ints[-1])}
    memo[0] = _pack([(1,) + zero[1:]], block, slots, nbytes)

    def expand(r, cols):
        """The signed sum of the products of rows r, r + 1, ... on cols."""
        acc, sign = 0, 1
        for c in range(d):
            if cols >> c & 1:
                if ints[r][c]:
                    t = ints[r][c] * minor(r + 1, cols ^ (1 << c))
                    acc = acc + t if sign > 0 else acc - t
                sign = -sign
        return acc

    def reduced(acc):
        """The cap canonical coefficients of a packed signed sum."""
        raw = [x - half for x in _slots((acc + bias) & mask, size, nbytes, size)]
        return [red(raw, o) for o in range(0, size, block)]

    def minor(r, cols):
        if cols not in memo:
            memo[cols] = _pack(reduced(expand(r, cols)), block, slots, nbytes)
        return memo[cols]

    return reduced(expand(0, (1 << d) - 1))


# -- formal log / exp ---------------------------------------------------------


def formal_log(g):
    """log of a series with constant term 1; denominators go into the shift.

    The stored coefficients are p^S times the true ones with S = max ord_p(k)
    over the term indices used; true precision is n_eff - shift after the
    content strip.
    """
    if g.shift:
        raise DomainError("formal_log input must be integral")
    if g.constant_term() != g.spec.one():
        raise DomainError("formal_log requires constant term 1")
    spec = g.spec
    p, N = spec.p, spec.N
    h = g - TruncSeries.one(spec, g.cap)
    kmax = g.cap - 1
    if kmax < 1 or h.is_zero():
        return TruncSeries.zero(spec, g.cap)
    S = max(ord_int(k, p) for k in range(1, kmax + 1))
    N_int = N + S
    big_spec = spec.with_precision(N_int)
    hb = TruncSeries(big_spec, g.cap, list(h.coeffs), N_int, 0)
    acc = TruncSeries.zero(big_spec, g.cap)
    power = TruncSeries.one(big_spec, g.cap)
    for k in range(1, kmax + 1):
        power = power * hb
        if power.is_zero():
            break
        a = ord_int(k, p)
        c = (p ** (S - a)) * pow(k // p ** a, -1, big_spec.modulus)
        if k % 2 == 0:
            c = -c
        acc = acc + power.scale(c)
    return _pack_shifted(acc, spec, g.n_eff, S)


def formal_exp(f):
    """exp of a series with zero constant term, via inflated-precision sums.

    Accepts a shifted input.  The sum is exact at an inflated modulus, so the
    true precision carried through is the input's n_eff - shift (comfortably
    within the worst-case sum-of-ord_p(k) loss bound).
    """
    spec = f.spec
    p, N = spec.p, spec.N
    if not f.constant_term().is_zero():
        raise DomainError("formal_exp requires zero constant term")
    kmax = f.cap - 1
    if kmax < 1:
        return TruncSeries.one(spec, f.cap)
    fact_ord = 0
    for k in range(1, kmax + 1):
        fact_ord += ord_int(k, p)
    S = f.shift * kmax + fact_ord
    t_out = f.n_eff - f.shift
    N_int = N + S
    big_spec = spec.with_precision(N_int)
    fb = TruncSeries(big_spec, f.cap, list(f.coeffs), N_int, 0)
    acc = TruncSeries.one(big_spec, f.cap).scale(p ** S)
    power = TruncSeries.one(big_spec, f.cap)
    fo = 0
    fact_unit = 1
    for k in range(1, kmax + 1):
        power = power * fb
        if power.is_zero():
            break
        a = ord_int(k, p)
        fo += a
        fact_unit = (fact_unit * (k // p ** a)) % big_spec.modulus
        sc = (p ** (S - f.shift * k - fo)) * pow(fact_unit, -1, big_spec.modulus)
        acc = acc + power.scale(sc)
    return _pack_shifted(acc, spec, t_out, S)


def _pack_shifted(acc_big, spec, true_prec, S):
    """Strip content from a p^S-scaled big-modulus accumulator and repack.

    true_prec bounds the represented series' true precision; the result has
    n_eff - shift = min(true_prec, what the representation can carry).
    """
    p, N = spec.p, spec.N
    content = S
    for c in acc_big.coeffs:
        for x in c:
            if x:
                content = min(content, ord_int(x, p))
        if content == 0:
            break
    shift = S - content
    q = p ** content
    keep = min(true_prec + shift, N)
    if keep <= shift:
        raise PrecisionExhausted("no significant digits survive the shift")
    mod = p ** keep
    cs = [tuple((x // q) % mod for x in c) for c in acc_big.coeffs]
    return _series(spec, acc_big.cap, cs, keep, shift)


# -- structural series ---------------------------------------------------------


class _Coords:
    """A packed ring K on its flat coordinate tuples, as a protocol ring
    (zero, one, from_base, add, sub, mul, is_zero; inv for _reversion).

    Its elements are the canonical coordinate tuples the packed kernel
    reads and writes; products are K's compiled mul_coords, sums are taken
    mod p^N, zero is `not any(...)` and from_base pads a base element's
    coordinates to K's rank.  The residue solves ([a]_f over Z/p^M, the
    translates over the torsion ring, reversion), the tower norms and the
    quotient-ring arithmetic all run over it, so no RingElem is built inside
    them.
    """

    def __init__(self, K):
        self.K = K
        self.rank, _, _, self.m = K.packing
        self.mul = K.mul_coords
        self._zero = (0,) * self.rank

    def zero(self):
        return self._zero

    def one(self):
        return (1,) + self._zero[1:]

    def from_base(self, c):
        return c.coords + self._zero[len(c.coords):]

    def elem(self, coords):
        """The element with these coordinates, reduced mod p^N: the checked
        constructor for outside input."""
        if len(coords) != self.rank:
            raise DomainError("flat coordinate vector has wrong length")
        return tuple(int(x) % self.m for x in coords)

    def add(self, a, b):
        m = self.m
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.m
        return tuple((x - y) % m for x, y in zip(a, b))

    @staticmethod
    def is_zero(a):
        return not any(a)

    def inv(self, a):
        """The inverse of a unit a of K, a RingSpec."""
        return RingElem(self.K, a).inverse().coords


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


def _reversion(R, f, cap):
    """Compositional inverse g of f = f_1 X + ... (f_1 a unit) over R mod X^cap:
    [X^k] f(g) = f_1 c_k + sum_{j>=2} f_j [g^j]_k = 0 for k >= 2 is the
    structural shape with u = -f, D_k = f_1 and head (0, f_1^-1)."""
    inv1 = R.inv(f[1])
    return _solve_structural(R, cap, [R.zero(), inv1], lambda k, x: R.mul(x, inv1),
                             u=[R.sub(R.zero(), c) for c in f])


def reversion(f):
    """Compositional inverse of f = c1*X + ... with c1 a unit."""
    if f.shift:
        raise DomainError("reversion of a shifted series is not supported")
    if not f.constant_term().is_zero():
        raise DomainError("reversion requires zero constant term")
    if not f.coeff(1).is_unit():
        raise DomainError("reversion requires a unit linear coefficient")
    return _series(f.spec, f.cap, _reversion(_Coords(f.spec), f.coeffs, f.cap)[:f.cap],
                   f.n_eff)


# -- Weierstrass preparation ---------------------------------------------------


class WeierstrassData:
    """mu, lambda, distinguished polynomial, and unit cofactor of a series."""

    __slots__ = ("mu", "lam", "dist", "unit", "n_eff")

    def __init__(self, mu, lam, dist, unit, n_eff):
        self.mu = mu
        self.lam = lam
        self.dist = dist      # tuple of RingElem, monic, length lam+1
        self.unit = unit      # TruncSeries with unit constant term
        self.n_eff = n_eff    # reconstruction holds mod p^n_eff

    def dist_series(self, cap=None):
        cap = cap or self.unit.cap
        return TruncSeries(self.unit.spec, cap, list(self.dist))

    def __repr__(self):
        return f"WeierstrassData(mu={self.mu}, lambda={self.lam})"


def poly_divmod_monic(f, P, cap=None):
    """Divide by a monic polynomial P (its coefficients, RingElems or
    coordinate tuples): exact, no p-divisions.

    Returns (Q, R) with f = Q*P + R and deg R < deg P, all mod X^cap.
    """
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


def weierstrass_prep(f):
    """Factor f = p^mu * distinguished * unit over Z_p or a quadratic ring.

    mu is the largest integer with p^mu dividing every coefficient; lambda is
    the least index where f/p^mu has a unit coefficient.  The distinguished
    factor is produced by quadratic Hensel iteration against the monic
    candidate X^lambda and verified by reconstruction.
    """
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
    for _ in range(2 * (F.n_eff * spec.ramification_index).bit_length() + 8):
        E = F - _series(spec, F.cap, [c.coords for c in P] + [zero] * (F.cap - lam - 1),
                        F.n_eff) * U
        if E.canonical().is_zero():
            break
        A = E * U.invert()
        Q, R = poly_divmod_monic(A, P)
        P = [P[i] + R.coeff(i) for i in range(lam)] + [spec.one()]
        U = U + Q * U
    else:
        raise PrecisionExhausted("weierstrass preparation did not converge")
    if not U.constant_term().is_unit():
        raise PrecisionExhausted("unit factor lost its unit constant term")
    return WeierstrassData(mu, lam, tuple(P), U.canonical(), F.n_eff)


# -- root-of-unity oracle -------------------------------------------------------


def mu_lambda_by_roots(f, n_values):
    """ord_p of prod over primitive p^n-th roots zeta of f(zeta - 1), per n.

    Returns a list of (n, Fraction).  The product is computed exactly in the
    cyclotomic extension and must descend to the base ring.
    """
    s = f.require_integral()
    if s.is_zero():
        raise DomainError("zero series")
    spec = s.spec
    if spec.level:
        raise DomainError("unsupported base for the cyclotomic oracle")
    p = spec.p
    out = []
    for n in n_values:
        ext = spec.with_level(n)
        mul, sub = ext.mul_coords, ext.sub_coords
        zeta, one = ext.zeta().coords, ext.one().coords
        coeffs = embed_coords(s.coeffs, spec, ext)
        prod = z = one
        for j in range(1, p ** n):
            z = mul(z, zeta)
            if j % p:
                prod = mul(prod, horner(ext, coeffs, sub(z, one)))
        # each factor is correct mod p^min(n_eff, cap * v(zeta-1))
        phi_n = p ** (n - 1) * (p - 1)
        guar = min(s.n_eff, s.cap // phi_n)
        base_val = RingElem(spec, descend_coords([prod], ext, spec, n_check=guar)[0])
        v = valuation(base_val)
        if v >= guar:
            raise PrecisionExhausted(
                "precision insufficient to resolve the valuation at n=%d" % n)
        out.append((n, v))
    return out


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
