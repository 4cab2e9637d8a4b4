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
`reduce_blocks(raw)`.  Every ring has both from one construction
(rings.extend, rings.compile_map): the ring is a tower of monic extensions
of Z/p^N, packing places each coordinate in a slot so that slot offsets add
like exponents, and reduce_blocks is the ring's reduction map, compiled
once per ring to one comprehension.  RingSpec (the coefficient rings) and
lubin_tate.QuotientRing (base[X]/P) are the two kinds of packed ring.
Determinants over K[Y] (the norm operator's, lambda_modules.det_series)
go through one entry point, packed_det: its callers pass the d^2 entries
flat, each of a length they know, it packs them all in one go, and each
minor is a signed sum of int products, unpacked and reduced once.  Linear
maps y -> sum_k y_k M_k whose matrices M_k are windows of one table (the
norm's fiber digits, the powers of a torsion translate) go through
PackedRows: the table is packed once and each window read as an int once,
and a call sums one int product per term, unpacked and reduced once.  Every
evaluation at a point is horner: Horner's rule on coordinate tuples in the
point's ring, whose compiled mul_coords it calls.
The series inverse (_inverse, behind TruncSeries.invert) is Newton
iteration on packed ints, with the series packed once; Weierstrass
preparation runs its Hensel loop on coordinate lists over packed_mul,
_inverse and one monic division, _divmod_monic, which takes the schoolbook
or Newton's route by its size.

The structural-series solver, _solve_structural, and its ring protocol
(_Coords) live here too: they give the derivative of the Lubin-Tate log,
[a]_f and the translates (tabled in lubin_tate) and every compositional
inverse (_reversion).
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import floor, inf

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    RingSpec,
    _exp,
    _log,
    _require_ints,
    descend_coords,
    embed_coords,
    inverse_coords,
    is_unit_coords,
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
        return (c % spec.modulus,) + (0,) * (spec.rank - 1)
    if len(c) != spec.rank:
        raise DomainError(f"a coefficient needs {spec.rank} coordinates, not {len(c)}")
    return tuple(int(a) % spec.modulus for a in c)


class TruncSeries:
    __slots__ = ("spec", "cap", "coeffs", "n_eff", "shift")

    def __init__(self, spec, cap, coeffs, n_eff=None, shift=0):
        if cap < 1:
            raise DomainError("cap must be >= 1")
        mod, tail = spec.modulus, (0,) * (spec.rank - 1)
        # _as_coords, with its integer case inline
        cs = [(c % mod,) + tail if type(c) is int else _as_coords(spec, c)
              for c in coeffs[:cap]]
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

    # Sums, differences and integer multiples run as one comprehension over
    # the coordinates of all coefficients in a row (_flat) mod p^N,
    # regrouped into coordinate tuples by _regroup.

    def __add__(self, other):
        a, b = _align(self, other)
        m = self.spec.modulus
        flat = [(x + y) % m for x, y in zip(_flat(a.coeffs), _flat(b.coeffs))]
        return _series(self.spec, a.cap, _regroup(flat, self.spec.rank),
                       min(a.n_eff, b.n_eff), a.shift)

    def __sub__(self, other):
        a, b = _align(self, other)
        m = self.spec.modulus
        flat = [(x - y) % m for x, y in zip(_flat(a.coeffs), _flat(b.coeffs))]
        return _series(self.spec, a.cap, _regroup(flat, self.spec.rank),
                       min(a.n_eff, b.n_eff), a.shift)

    def scale(self, c):
        """Multiply by a ring element or integer scalar."""
        spec = self.spec
        if isinstance(c, int):
            m = spec.modulus
            c %= m
            cs = _regroup([c * x % m for x in _flat(self.coeffs)], spec.rank)
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
        """Multiplicative inverse; requires a unit constant term.

        Newton iteration on packed_mul, from the inverse of the constant
        term: _inverse, which the monic division and Weierstrass preparation
        also call.  The inverse mod (p^N, X^cap) is unique, so the result is
        the one any exact method gives.
        """
        s = self.require_integral()
        spec = s.spec
        if not is_unit_coords(spec, s.coeffs[0]):
            raise DomainError("invert requires a unit constant term")
        return _series(spec, s.cap,
                       _inverse(spec, s.coeffs, s.cap, inverse_coords(spec, s.coeffs[0])),
                       s.n_eff, 0)

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


_flat = chain.from_iterable


def _regroup(flat, rank):
    """Consecutive runs of rank integers from flat, as coordinate tuples."""
    return zip(*[iter(flat)] * rank)


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
_WIDTHS = [min((w for w in _ARRAY_CODES if w >= n), default=n) for n in range(9)]


def _slot_bytes(bound):
    """Bytes per slot for slot values of absolute value at most bound, with
    a bit to spare: bit_length(bound) + 1 bits in whole bytes, rounded up to
    the next width array moves (1, 2, 4 or 8) when there is one: _WIDTHS[n]
    for n <= 8 whole bytes."""
    n = (bound.bit_length() + 8) // 8
    return _WIDTHS[n] if n < len(_WIDTHS) else n


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
    return K.reduce_blocks(_slots(prod, n * block, nbytes, size * block))


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
    K.reduce_blocks maps onto the basis, every block in one call
    (rings.compile_map).

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


def _inverse(K, s, cap, v0):
    """The inverse mod X^cap of the coefficient list s over a packed ring K,
    as cap coefficients, given the inverse v0 of its constant term.

    Newton iteration on packed ints (von zur Gathen and Gerhard, Modern
    Computer Algebra, 9.1).  If v inverts s mod X^k, then s v = 1 + X^k e
    mod X^n for n = min(2k, cap), and v - X^k v e inverts s mod X^n, since
    s (v - X^k v e) = 1 - X^2k e^2.  Each doubling costs two int products:
    e = (s v mod X^n)[k:], then v e mod X^(n-k).

    Packing.  s is packed once, at packed_mul's slots for cap * rank *
    (m - 1)^2, which no slot of (s mod X^n) v (at most k < cap coefficient
    pairs) or of v e (n - k <= k pairs) reaches; s mod X^n is that int
    masked to n blocks.  v is kept packed, each new block set above the
    others, and the low k blocks of s v (1 mod X^k) are shifted off.

    Exact exit.  Let ls and lv be the lengths of s and v without their
    trailing zero coefficients.  If e = 0 then s v = 1 mod X^n, and if also
    ls + lv - 1 <= n, then s has no term beyond X^(n-1) and s v, of degree
    at most ls + lv - 2 < n, equals its residue mod X^n: s v = 1 as
    polynomials over Z/p^N.  Then v, padded with zeros, inverts s mod X^cap,
    and the loop stops.  A unit constant exits at the first step, after one
    product; 1 + pX over Z/p^N exits at the first step with k >= N and
    n > N, since its inverse sum (-p)^i X^i ends at X^(N-1).
    """
    rank, block, slots, m = K.packing
    ls = _trim(s, cap)
    nbytes = _slot_bytes(cap * rank * (m - 1) ** 2)
    W = 8 * nbytes * block   # bits per block
    S = _pack(s[:ls], block, slots, nbytes)
    v, V, k = [v0], _pack([v0], block, slots, nbytes), 1
    while k < cap:
        n = min(2 * k, cap)
        e = _unpack(K, (S & ((1 << n * W) - 1)) * V >> k * W, n - k, nbytes, n - 1)
        if not any(map(any, e)) and ls + _trim(v, k) - 1 <= n:
            break
        dv = [tuple([(-x) % m for x in c])
              for c in _unpack(K, V * _pack(e, block, slots, nbytes), n - k, nbytes, n - 1)]
        V |= _pack(dv, block, slots, nbytes) << k * W
        v += dv
        k = n
    return v + [(0,) * rank] * (cap - len(v))


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

    Window ints.  Window k is read as an int once, when a call first needs
    it, and kept beside the table bytes at the same slot width; they are
    dropped with the table when the slots widen.  A warm call converts only
    its ys.  Each window holds width rows, so the windows kept take about
    width times the table's memory.

    Concurrency.  rows and the (slot width, table bytes, window ints)
    snapshot are replaced, never changed in place, so concurrent calls each
    read a consistent snapshot; a call that loses a race to replace one
    only redoes work.
    """

    def __init__(self, K, stride, width, rows, step):
        self.K, self.stride, self.width, self.step = K, stride, width, step
        self.rows = list(rows)
        self.table = 0, b"", []   # (slot bytes, the packed rows, window ints)

    def combine(self, ys):
        rank, block, slots, m = self.K.packing
        n = self.width * self.stride
        L = _trim(ys, len(ys))
        if not L:
            return [(0,) * rank] * n
        rows = self.rows
        if len(rows) < L + self.width - 1:
            rows = list(rows)
            while len(rows) < L + self.width - 1:
                rows.append(self.step(rows[-1]))
            self.rows = rows
        nbytes, table, windows = self.table
        wide = _slot_bytes(L * rank * (m - 1) ** 2)
        if wide > nbytes:   # wider slots: pack every row again
            nbytes, table, windows = wide, b"", []
        size = block * nbytes
        if len(windows) < L:
            row, last = size * self.stride, L + self.width - 1
            done = len(table) // row
            if done < last:
                table += _pack_bytes(list(chain.from_iterable(rows[done:last])), block,
                                     slots, nbytes)
            windows = windows + [int.from_bytes(table[k * row:(k + self.width) * row],
                                                "little") for k in range(len(windows), L)]
            self.table = nbytes, table, windows
        packed_ys = _pack_bytes(ys[:L], block, slots, nbytes)
        acc = 0
        for k, y in enumerate(ys[:L]):
            if any(y):
                acc += int.from_bytes(packed_ys[k * size:(k + 1) * size], "little") * windows[k]
        return _unpack(self.K, acc, n, nbytes, n)


# A d x d determinant makes d 2^(d-1) products and keeps 2^d minors; see
# packed_det for what this bound allows and refuses.
MAX_DET_DIM = 13


def packed_det(K, entries, d, c, cap):
    """Determinant mod Y^cap of a d x d matrix over K[Y], K a packed ring.

    K is a RingSpec or a lubin_tate.QuotientRing.  entries lists the d^2
    entries row by row, each as exactly c canonical coordinate tuples, its
    Y^0 .. Y^(c-1) coefficients (an entry over K itself is one coefficient,
    c = cap = 1), so entry (i, j) is entries[(i d + j) c:(i d + j + 1) c].
    The callers cut or pad them to c; packed_det trims nothing.  Returns
    cap coordinate tuples.  The determinant is a column-subset Laplace
    expansion with memoized minors: it never divides, so it holds over
    quotient rings with zero divisors, such as the torsion tower's.

    Packing.  The entries go into one _pack_bytes call, and entry o is read
    as the int of the c blocks at o c.  Each memoized minor is kept as one
    int too: a minor is the signed sum of at most d products entry *
    smaller minor, formed on plain Python ints, then unpacked and reduced
    once and packed again.  The last row's minors are its entries, so a
    minor of j >= 2 rows costs one reduction for its j products.  The sum
    may be negative and longer than cap blocks; with S = 2^(cap block W), W
    the slot width, the slots below S hold the sum's coefficients mod Y^cap
    with a borrow from each negative one into the next.  One biased unpack
    reads them: adding 2^(W-1) to every slot puts each one in [0, 2^W), so
    the slots of (sum + bias) mod S, one & mask, are read unsigned and
    carry-free, and the bias comes off.  That mask is exact mod Y^cap: x ->
    x mod S is a ring map, and composed with the Kronecker substitution it
    sends Y^cap to 0.

    Slot width.  A minor's coordinates lie in [0, m - 1], m = p^N, and so
    do an entry's.  As in packed_mul, a slot of one product sums at most
    c r products of two coordinates (r = rank), so a slot of the sum has
    absolute value at most

        B = d c r (m - 1)^2,

    and W = bit_length(B) + 1 bits hold it with its sign (rounded up as in
    packed_mul, _slot_bytes).

    Reach.  The expansion makes d 2^(d-1) products and keeps up to 2^d
    minors, each reduced once.  d <= MAX_DET_DIM = 13 bounds them by 53248
    products and 8192 minors (q <= 9 needs at most 2304 and 512); q = 25
    would need 4.2e8 products and 3.4e7 minors, so a larger d raises
    DomainError before anything is packed.
    """
    if d > MAX_DET_DIM:
        raise DomainError(f"a {d} x {d} determinant exceeds MAX_DET_DIM = {MAX_DET_DIM}: "
                          f"{d * 2 ** (d - 1)} products over {2 ** d} minors")
    rank, block, slots, m = K.packing
    zero = (0,) * rank
    if not d:
        return [(1,) + zero[1:]] + [zero] * (cap - 1)
    nbytes = _slot_bytes(d * c * rank * (m - 1) ** 2)
    packed = _pack_bytes(entries, block, slots, nbytes)
    w = c * block * nbytes
    ints = [int.from_bytes(packed[o * w:(o + 1) * w], "little") for o in range(d * d)]
    size = cap * block
    mask = (1 << (8 * nbytes * size)) - 1
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * size, "little")
    # minors by their column bitmask; the last row's are its entries
    memo = {1 << j: x for j, x in enumerate(ints[-d:])}
    memo[0] = _pack([(1,) + zero[1:]], block, slots, nbytes)

    def expand(r, cols):
        """The signed sum of the products of rows r, r + 1, ... on cols."""
        acc, sign = 0, 1
        for j in range(d):
            if cols >> j & 1:
                x = ints[r * d + j]
                if x:
                    t = x * minor(r + 1, cols ^ (1 << j))
                    acc = acc + t if sign > 0 else acc - t
                sign = -sign
        return acc

    def reduced(acc):
        """The cap canonical coefficients of a packed signed sum."""
        raw = _slots((acc + bias) & mask, size, nbytes, size)
        return K.reduce_blocks([x - half for x in raw])

    def minor(r, cols):
        if cols not in memo:
            memo[cols] = _pack(reduced(expand(r, cols)), block, slots, nbytes)
        return memo[cols]

    return reduced(expand(0, (1 << d) - 1))


# -- formal log / exp ---------------------------------------------------------


def formal_log(g):
    """log g for a series with constant term 1: rings._log, summed
    X-adically, with the denominators p^ord_p(k), k < cap, in the shift."""
    return _log(g - TruncSeries.one(g.spec, g.cap), 0, "formal_log")[0]


def formal_exp(f):
    """exp f for a series with zero constant term, shifted or not:
    rings._exp, summed X-adically, with the denominators in the shift."""
    return _exp(f, 0, "formal_exp")[0]


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
        return inverse_coords(self.K, a)


def _solve_structural(R, cap, head, divide, b=(), u=(), v_pows=()):
    """Coefficients c_0..c_{cap-1} of a structural series over R.

    head holds c_0 (0 where u is given), c_1, ...; every later coefficient solves
    D_k c_k = b_k + sum_{2<=j<len(u)} u_j [C^j]_k - sum_{1<=j<k} c_j [V_j]_k,
    where divide(k, x) = x / D_k and v_pows[j] lists the coefficients of V_j.
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

    Returns (Q, R) with f = Q*P + R and deg R < deg P, all mod X^cap.  The
    division is _divmod_monic's, on f's first cap coefficients.
    """
    spec = f.spec
    cap = cap or f.cap
    zero = (0,) * spec.rank
    fc = list(f.coeffs[:cap]) + [zero] * (cap - min(cap, f.cap))
    q, r = _divmod_monic(spec, fc, [_as_coords(spec, c) for c in P], cap)
    return (_series(spec, cap, q, f.n_eff, f.shift),
            _series(spec, max(len(P) - 1, 1), r or [zero], f.n_eff, f.shift))


# Schoolbook products above which _divmod_monic divides by Newton's method.
NEWTON_DIVISION_PRODUCTS = 256


def _divmod_monic(K, f, P, cap):
    """(q, r) with f = q P + r, deg r < lam = len(P) - 1, over a packed ring
    K: f is cap coefficients, P lists lam + 1 of them (the last taken as 1),
    q comes back as cap coefficients (zero from X^(cap - lam) on) and r as
    lam.  f is a polynomial of degree < cap, so q and r are unique and each
    route below gives the same residues.

    Schoolbook: for k from cap - 1 down to lam, q_(k-lam) is the current
    f_k, and q_(k-lam) P_i is taken off f_(k-lam+i) for each nonzero P_i,
    i < lam: t (cap - lam) ring products, t the number of nonzero P_i below
    the leading 1.  Newton: q reversed is f_(cap-1), ..., f_lam times the
    inverse of P reversed, 1 + P_(lam-1) X + ... + P_0 X^lam, mod
    X^(cap-lam) (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1),
    and r is f - q P mod X^lam: about 2 log2(cap - lam) + 2 packed products
    (_inverse), whose cost grows slowly with the quotient length and not
    with t.

    The route is chosen by the schoolbook's product count t (cap - lam),
    Newton above NEWTON_DIVISION_PRODUCTS.  Measured on CPython 3.11.7
    (best of 5), the two routes cost the same at about 130-300 products:
    on dense random inputs (Z/2^14, Z/5^9 and the ramified p = 2 ring at
    N = 6; t = 1, 2, 4, 8; quotient lengths 32-128) at 128 with t = 1, near
    180 with t = 2 and near 200 with t = 4 and t = 8; on the divisions of
    the iwasawa_invariants workload between 4 x 68 (202 against 214 us) and
    4 x 108 (315 against 203 us).  The quotient length alone would place
    the crossover anywhere from below 32 (t = 8) to 128 (t = 1).  The first
    Hensel step of weierstrass_prep, whose P = X^lam has t = 0, costs only
    a copy.
    """
    rank, _, _, m = K.packing
    zero = (0,) * rank
    lam = len(P) - 1
    if cap <= lam:
        return [zero] * cap, f + [zero] * (lam - cap)
    low = [(i, c) for i, c in enumerate(P[:lam]) if any(c)]
    if len(low) * (cap - lam) > NEWTON_DIVISION_PRODUCTS:
        one = (1,) + zero[1:]
        q = packed_mul(K, f[:lam - 1:-1], _inverse(K, [one] + P[lam - 1::-1],
                                                   cap - lam, one), cap - lam)[::-1]
        r = [tuple([(x - y) % m for x, y in zip(a, b)])
             for a, b in zip(f, packed_mul(K, q, P, lam))]
        return q + [zero] * lam, r
    work, q, mul = list(f), [zero] * cap, K.mul_coords
    for k in range(cap - 1, lam - 1, -1):
        c = work[k]
        if any(c):
            q[k - lam] = c
            for i, pc in low:
                w, t = work[k - lam + i], mul(c, pc)
                work[k - lam + i] = tuple([(x - y) % m for x, y in zip(w, t)])
    return q, work[:lam]


def weierstrass_prep(f):
    """Factor f = p^mu * distinguished * unit over Z_p or a quadratic ring.

    mu is the largest integer with p^mu dividing every coefficient; lambda is
    the least index where f/p^mu has a unit coefficient.  The distinguished
    factor is produced by quadratic Hensel iteration against the monic
    candidate X^lambda and verified by reconstruction.

    Step bound.  Write F = f/p^mu, E = F - P U, and v for the least
    valuation of a coefficient, in powers of the uniformizer pi (e of them
    make p).  A step takes A = E U^-1 and A = Q P + R (deg R < lambda, both
    exact mod X^cap), then P' = P + R and U' = U + Q U.  With dP = R and
    dU = Q U this solves E = P dU + U dP exactly mod X^cap, so

        E' = F - (P + dP)(U + dU) = -dP dU.

    U is a unit and P is monic, so v(A), v(Q), v(R) >= v(E), and
    v(E') >= 2 v(E).  The first E is F's terms below X^lambda, non-units,
    so v(E_0) >= 1 and v(E_k) >= 2^k; R is divisible by pi, so P stays
    distinguished.  E vanishes mod p^n_eff once v(E_k) >= e n_eff, after
    ceil(log2(e n_eff)) steps, and one more pass observes E = 0.

    The loop runs on canonical coordinate lists: P U, E U^-1 and Q U are
    packed_mul products, U^-1 is _inverse and the division _divmod_monic.
    Every iterate is the residue mod (p^N, X^cap) that the steps above
    define, whatever route computes it.
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
    cap, n_eff, q = s.cap, s.n_eff - mu, p ** mu
    F = [tuple(x // q for x in c) for c in s.coeffs]
    lam = next((i for i, c in enumerate(F) if is_unit_coords(spec, c)), None)
    if lam is None:
        raise DomainError("no unit coefficient after removing p^mu "
                          "(content has fractional valuation or lambda exceeds cap)")
    # initial factorization: P = X^lam, U = top part of F
    m, q_eff = spec.modulus, p ** n_eff
    zero = (0,) * spec.rank
    one = (1,) + zero[1:]
    P, U = [zero] * lam + [one], F[lam:] + [zero] * lam
    for _ in range((n_eff * spec.ramification_index - 1).bit_length() + 1):
        E = [tuple([(x - y) % m for x, y in zip(a, b)])
             for a, b in zip(F, packed_mul(spec, P, U, cap))]
        if not any(x % q_eff for c in E for x in c):
            break
        if not is_unit_coords(spec, U[0]):
            raise DomainError("invert requires a unit constant term")
        A = packed_mul(spec, E, _inverse(spec, U, cap, inverse_coords(spec, U[0])), cap)
        Q, R = _divmod_monic(spec, A, P, cap)
        P = [tuple([(x + y) % m for x, y in zip(a, b)]) for a, b in zip(P, R)] + [one]
        U = [tuple([(x + y) % m for x, y in zip(a, b)])
             for a, b in zip(U, packed_mul(spec, Q, U, cap))]
    else:
        raise PrecisionExhausted("weierstrass preparation did not converge")
    if not is_unit_coords(spec, U[0]):
        raise PrecisionExhausted("unit factor lost its unit constant term")
    return WeierstrassData(mu, lam, tuple(RingElem(spec, c) for c in P),
                           _series(spec, cap, [tuple(x % q_eff for x in c) for c in U],
                                   n_eff), n_eff)


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
