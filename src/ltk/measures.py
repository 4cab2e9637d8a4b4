"""p-adic measures through their Amice series.

A measure on Z_p is its Mahler/Amice transform sum mu(binom(x,n)) T^n; the
group element a acts as (1+T)^a.  The O_Kp variant stores the diagonal
one-variable series together with the fixed trivialization O_Kp = Z_p^2 and
the coordinate-sum map sigma(a0 + a1 w) = a0 + a1; group elements enter the
series only through sigma.

Coset masses come from one level-n pushforward.  Z_p[[T]] is the inverse
limit of Z_p[Z/p^n] under T -> gamma - 1, so reducing the Amice series mod
(1+T)^{p^n} - 1 gives sum_a m_a (1+T)^a with m_a = mu(a + p^n Z_p).  On
O_Kp, mu(delta U_n) is the sum of the m_a with sigma(delta^-1) a = 1 and
sigma(delta^-1 w) a = 1 mod p^n; that is one m_a or none, and _coset_index
finds its a in closed form from the coordinates of delta.  One reduction per
level serves every coset, and a Measure keeps it, so each (measure, level)
pair is reduced once; no cyclotomic ring and no division by p^n is involved.
Masses, Riemann sums and the partition law run on coordinate tuples of
plain integers, and ring elements are made only for the values returned.

Guarantee.  Only the coefficients below cap are stored.  The integral tail
t = sum_{j >= cap} c_j T^j contributes p^-n sum_s t(zeta^s - 1) zeta^(-s a)
to the Q^a coefficient, over the p^n-th roots of unity zeta^s.  The s = 0
term is t(0) = 0, and v(zeta^s - 1) >= 1/phi(p^n) otherwise, so the
contribution is an integer of valuation at least cap/phi(p^n) - n.  With
stored digits mod p^n_eff and the shift divided out, a mass is correct mod
p^(min(n_eff, ceil(cap/phi(p^n)) - n) - shift); at n = 0 the tail
contributes nothing and the bound is n_eff - shift.  The mass must be
divisible by p^shift, or PrecisionExhausted is raised.

The tilde operator restricts a measure to the units: on series,
h~ = h - (1/p) sum_j h(zeta_p^j (1+T) - 1).  Measures are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    RingSpec,
    descend_coords,
    embed,
    embed_coords,
    json_fields,
    ord_int,
)
from .series import TruncSeries

__all__ = [
    "Measure",
    "FiniteCharacter",
    "sigma_map",
    "dirac",
    "tilde_series",
    "coset_mass",
    "partition_check",
    "moment",
    "moment_guarantee",
    "riemann_moment",
    "unit_residues",
    "gauss_sum",
    "twist_eval",
]

GROUP_TAGS = ("zp", "zp_units", "okp", "okp_units")


def sigma_map(a):
    """The coordinate-sum trivialization O_Kp -> Z_p, as a canonical integer."""
    if isinstance(a, int):
        return a
    if a.spec.kind in ("ramified_quad", "unramified_quad"):
        return (a.coords[0] + a.coords[1]) % a.spec.modulus
    if a.spec.kind == "zp":
        return a.coords[0]
    raise DomainError("sigma is defined on quadratic ring elements")


@dataclass(frozen=True)
class Measure:
    amice: TruncSeries        # series in T = Q - 1 over the value ring
    group: str                # one of GROUP_TAGS
    okp: object = None        # quadratic RingSpec for the okp tags
    # level n -> _pushforward(amice, n), filled on first use; not part of
    # the measure's value (equality, hash, repr and JSON ignore it)
    _pushforwards: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.group not in GROUP_TAGS:
            raise DomainError(f"unknown group tag {self.group!r}")
        if self.group.startswith("okp") and self.okp is None:
            raise DomainError("okp measures need the quadratic group spec")

    @property
    def spec(self):
        return self.amice.spec

    def pushforward(self, n):
        """_pushforward(self.amice, n), computed once per level.  Threads
        that race on a level both compute it and store equal values."""
        got = self._pushforwards.get(n)
        if got is None:
            got = self._pushforwards[n] = _pushforward(self.amice, n)
        return got

    def check_units_invariant(self, n_check=None):
        """For the units tags: the amice series is tilde-fixed (up to the
        truncation-tail window, like every infinite-series identity here)."""
        if not self.group.endswith("units"):
            return True
        t = tilde_series(self.amice)
        nc = min(n_check or t.n_eff, t.n_eff)
        window = max(1, self.amice.cap - (self.spec.p - 1) * nc)
        return t.truncate(window).eq_mod(self.amice.truncate(window), nc)

    def to_json(self):
        d = {"amice": self.amice.to_json(), "group": self.group}
        if self.okp is not None:
            d["okp"] = self.okp.to_json()
        return d

    @staticmethod
    def from_json(obj):
        amice, group = json_fields(obj, "amice", "group")
        okp = RingSpec.from_json(obj["okp"]) if "okp" in obj else None
        return Measure(TruncSeries.from_json(amice), group, okp)


def dirac(a, group, value_spec, cap, okp=None):
    """Dirac measure: amice = (1+T)^a = sum binom(a, j) T^j, exponent
    sigma(a) for the okp tags.

    The exponent uses the canonical integer lift; tests feed small exact
    integers where on-the-nose identities are asserted.
    """
    if group in ("okp", "okp_units"):
        if okp is None and isinstance(a, RingElem):
            okp = a.spec
        if group == "okp_units" and isinstance(a, RingElem) and not a.is_unit():
            raise DomainError("group element is not a unit")
        e = sigma_map(a)
    else:
        e = a if isinstance(a, int) else a.coords[0]
        if group == "zp_units" and e % value_spec.p == 0:
            raise DomainError("group element is not a unit")
    e %= value_spec.modulus
    return Measure(TruncSeries(value_spec, cap, [comb(e, j) for j in range(cap)]),
                   group, okp)


def _level_zeta(ext, n):
    """A primitive p^n-th root of unity in ext, whose level may exceed n."""
    return ext.zeta() ** (ext.p ** (ext.level - n))


def _level_ring(value_spec, n):
    """A ring holding value_spec and the p^n-th roots of unity; its level
    is n or more (the value ring itself when that is already cyclotomic
    of level >= n), so take roots of unity through _level_zeta."""
    return value_spec if n <= value_spec.level else value_spec.with_level(n)


# -- tilde ---------------------------------------------------------------------


def tilde_series(h):
    """Restriction-to-units on the series side (cyclotomic route, descended)."""
    spec = h.spec
    ext = _level_ring(spec, 1)
    zeta = _level_zeta(ext, 1)
    hext = TruncSeries(ext, h.cap, embed_coords(h.coeffs, spec, ext), h.n_eff, h.shift)
    acc = TruncSeries.zero(ext, h.cap)
    zj = ext.one()
    for j in range(spec.p):
        a = zj - ext.one()
        acc = acc + hext.compose_affine(a, zj)
        zj = zj * zeta
    acc = acc.divide_exact_p(1)
    rest = TruncSeries(spec, h.cap, descend_coords(acc.coeffs, ext, spec, acc.n_eff),
                       acc.n_eff, h.shift)
    return h - rest


def restrict_to_units(mu):
    """Measure-level tilde; retags to the units variant."""
    new_tag = {"zp": "zp_units", "okp": "okp_units"}.get(mu.group, mu.group)
    return Measure(tilde_series(mu.amice), new_tag, mu.okp)


# -- coset masses ----------------------------------------------------------------


def _eval_table(h, ext, n):
    """Stored-coefficient values h((zeta^s) - 1), s in Z/p^n, with guarantee.

    The table is built from the stored integral coefficients; a nonzero shift
    is the caller's responsibility (the admissibility check charges for it).
    """
    hs = TruncSeries(h.spec, h.cap, list(h.coeffs), h.n_eff, 0)
    zeta = _level_zeta(ext, n) if n >= 1 else ext.one()
    table, guar, z = [], hs.n_eff, ext.one()
    for _ in range(h.spec.p ** n):
        val, g = hs.eval(z - ext.one())   # at s = 0 the point is 0 and g = n_eff
        table.append(val)
        guar = min(guar, g)
        z = z * zeta
    return table, guar


def _pushforward(h, n):
    """The stored coefficients of h reduced mod (1+T)^{p^n} - 1.

    Horner's rule in Z/p^N[Q]/(Q^{p^n} - 1), Q = 1+T, coordinate by
    coordinate of the value ring.  Returns (m, guarantee): m[a] is the
    coordinate tuple of the Q^a coefficient, correct mod p^guarantee with
    guarantee = min(n_eff, ceil(cap / phi(p^n)) - n) (the module docstring
    derives the bound; at n = 0 the reduction is h(0), exact mod p^n_eff).
    The shift is not applied.
    """
    spec = h.spec
    p, mod = spec.p, spec.modulus
    pn = p ** n
    cols = []
    for i in range(spec.rank):
        acc = [0] * pn
        for c in reversed(h.coeffs):
            # acc <- acc * (Q - 1) + c; acc[-1] is the wrap-around Q^{p^n} = 1
            acc = [acc[a - 1] - acc[a] for a in range(pn)]
            acc[0] += c[i]
        cols.append([x % mod for x in acc])
    m = list(zip(*cols))
    if n == 0:
        return m, h.n_eff
    return m, min(h.n_eff, -(-h.cap // (pn - pn // p)) - n)


def _coset_index(mu, delta, n):
    """The a in Z/p^n with mu(delta U_n) = mu(a + p^n Z_p), or None if empty.

    delta is an int or, on O_Kp, a coordinate pair (d0, d1) = d0 + d1 w (an
    int d is (d, 0)); the pair is read as its canonical residue mod p^N.

    On O_Kp the group enters the series through sigma(a0 + a1 w) = a0 + a1
    only, so the coset collects the a with sigma(delta^-1) a = 1 and
    sigma(delta^-1 w) a = 1 mod p^n.  With w^2 = -b w - c (quad = (b, c))
    the conjugate of delta is d0 - b d1 - d1 w, so

        delta^-1   = (d0 - b d1 - d1 w) / Nm,  Nm = d0^2 - b d0 d1 + c d1^2,
        delta^-1 w = ((d0 - b d1) w - d1 w^2) / Nm = (c d1 + d0 w) / Nm,

    and sigma(delta^-1) = s / Nm, sigma(delta^-1 w) = t / Nm with
    s = d0 - (b + 1) d1 and t = d0 + c d1.  delta is a unit iff its norm Nm
    is a unit of Z_p.  Then s a = Nm has a solution iff s is a unit mod p^n,
    namely a = Nm s^-1, and t a = Nm holds as well iff t = s mod p^n.  At
    n = 0 every residue is 0, and a = 0 indexes the one coset.
    """
    pn = mu.spec.p ** n
    if not mu.group.startswith("okp"):
        return (delta if isinstance(delta, int) else delta[0]) % pn
    okp = mu.okp
    (b, c), mod = okp.quad, okp.modulus
    d0, d1 = (delta, 0) if isinstance(delta, int) else delta
    d0, d1 = d0 % mod, d1 % mod
    nm = d0 * d0 - b * d0 * d1 + c * d1 * d1
    if nm % okp.p == 0:
        raise DomainError("delta must be a unit")
    s = d0 - (b + 1) * d1
    try:
        a = nm * pow(s, -1, pn) % pn
    except ValueError:        # p | s: no a has s a = Nm
        return None
    return a if (d0 + c * d1 - s) % pn == 0 else None


def _mass(h, m, guar, a, n):
    """m[a] / p^shift as a coordinate tuple (zero for a = None), with the
    admissibility check."""
    spec = h.spec
    p, shift = spec.p, h.shift
    if guar < shift + 1:
        raise PrecisionExhausted(
            f"coset_mass at level {n}: needs {shift + 1} digits (shift {shift} "
            f"+ 1), {max(guar, 0)} available (N_eff {h.n_eff}, cap {h.cap})")
    q, ps = p ** guar, p ** shift
    num = (0,) * spec.rank if a is None else [c % q for c in m[a]]
    if any(c % ps for c in num):
        raise PrecisionExhausted(
            f"coset_mass at level {n}: mass is not divisible by p^{shift}, "
            "series is not admissible")
    return tuple(c // ps for c in num), guar - shift


def _require_okp_level(mu, n, what):
    """Refuse a level-n coset on the O_Kp tags when n > okp.N: a delta of
    O_K/p^N does not determine its class mod p^n, and each lift would give
    its own answer."""
    if mu.group.startswith("okp") and n > mu.okp.N:
        raise DomainError(f"{what}: level {n} cosets are not determined by "
                          f"O_K/p^{mu.okp.N} (okp.N = {mu.okp.N})")


def coset_mass(mu, delta, n):
    """mu(delta * U_n) on O_Kp, or mu(delta + p^n Z_p) on Z_p.

    delta is a unit of O_K/p^n (any lift; only its class matters) as a ring
    element or a coordinate pair, or an integer.  Returns (value, n_eff):
    the mass is correct mod p^n_eff.  On O_Kp, n may not exceed okp.N.
    """
    if n < 0:
        raise DomainError("a coset level must be >= 0")
    _require_okp_level(mu, n, f"coset_mass at level {n}")
    m, guar = mu.pushforward(n)
    if isinstance(delta, RingElem):
        delta = delta.coords
    v, g = _mass(mu.amice, m, guar, _coset_index(mu, delta, n), n)
    return RingElem(mu.spec, v), g


def _cosets(mu, n):
    """(delta, pushforward index, sigma(delta)) over the level-n cosets a
    Riemann sum runs over: the units on O_Kp and zp_units, all of Z/p^n on
    zp.  On O_Kp delta is the coordinate pair reduced mod p^N."""
    if mu.group.startswith("okp"):
        mod = mu.okp.modulus
        for d0, d1 in unit_residues(mu.okp, n):
            d = (d0 % mod, d1 % mod)
            yield d, _coset_index(mu, d, n), (d[0] + d[1]) % mod
        return
    p = mu.spec.p
    for a in range(p ** n):
        if mu.group == "zp_units" and a % p == 0:
            continue
        yield a, a, a


def unit_residues(okp, n):
    """Units of O_K/p^n as coordinate pairs (d0, d1)."""
    p = okp.p
    pn = p ** n
    ram = okp.quad_kind == "ramified"
    out = []
    for d0 in range(pn):
        for d1 in range(pn):
            if ram:
                if d0 % p:
                    out.append((d0, d1))
            else:
                if d0 % p or d1 % p:
                    out.append((d0, d1))
    return out


def partition_check(mu, n):
    """sum over delta in U_n/U_{n+1} of mu(delta U_{n+1}) == mu(U_n), n >= 1.

    The law is one of the O_Kp unit filtration, so the Z_p tags are refused.
    The representatives 1 + p^n (c0 + c1 w) are units only from n = 1 on,
    and U_0 is no coset of the units, so level 0 is refused.  The check
    reads the level n + 1 cosets, so n + 1 may not exceed okp.N: mod p^N
    every representative is 1.
    """
    if not mu.group.startswith("okp"):
        raise DomainError(f"partition_check is defined on the O_Kp tags only, "
                          f"not on {mu.group!r}")
    if n < 1:
        raise DomainError(f"partition_check at level {n}: the unit cosets "
                          "U_n start at level 1")
    _require_okp_level(mu, n + 1, f"partition_check at level {n}")
    p = mu.okp.p
    pn = p ** n
    h = mu.amice
    fine, g_fine = mu.pushforward(n + 1)
    lhs = [_mass(h, fine, g_fine, _coset_index(mu, (1 + c0 * pn, c1 * pn), n + 1),
                 n + 1)[0] for c0 in range(p) for c1 in range(p)]
    coarse, g_coarse = mu.pushforward(n)
    rhs, _ = _mass(h, coarse, g_coarse, _coset_index(mu, 1, n), n)
    guar = min(g_fine, g_coarse) - h.shift
    q = p ** guar
    ok = all((sum(xs) - y) % q == 0 for xs, y in zip(zip(*lhs), rhs))
    return ok, guar


# -- moments ----------------------------------------------------------------------


def qddq(h):
    """The operator (1+T) d/dT."""
    return h.derive() * TruncSeries(h.spec, h.cap, [1, 1])


def _check_order(k):
    if k < 0:
        raise DomainError(f"moment order k must be >= 0, got {k}")


def _qddq_power(h, k):
    """(Qd/dQ)^k h for a moment order k >= 0."""
    _check_order(k)
    for _ in range(k):
        h = qddq(h)
    return h


def moment(mu, k):
    """k-th moment: (Qd/dQ)^k amice at T = 0."""
    h = _qddq_power(mu.amice, k)
    v = h.coeff(0)
    if h.shift:
        return v.divide_exact_p(h.shift)
    return v


def moment_guarantee(mu, k):
    """Digits of moment(mu, k) that are certified.

    The moment is sum_j j! S(k, j) c_j over j <= k (S: Stirling numbers of
    the second kind), and the truncated series drops exactly the j >= cap,
    each divisible by p^v_p(cap!).
    """
    _check_order(k)
    h = mu.amice
    g = h.n_eff
    if k >= h.cap:
        g = min(g, ord_int(factorial(h.cap), h.spec.p))
    return g - h.shift


def riemann_moment(mu, k, n):
    """Riemann sum over level-n cosets against sigma(x)^k (or x^k on Z_p).

    On O_Kp and on zp_units the unit cosets start at level 1 (there is no
    unit residue mod p^0), so level 0 is refused there; the zp tag sums over
    Z/1 at level 0.  On O_Kp, n may not exceed okp.N.
    """
    _check_order(k)
    if n < 1 and mu.group != "zp":
        raise DomainError(f"riemann_moment at level {n}: the unit cosets "
                          "U_n start at level 1")
    _require_okp_level(mu, n, f"riemann_moment at level {n}")
    h = mu.amice
    m, guar = mu.pushforward(n)
    terms = [(_mass(h, m, guar, a, n)[0], x ** k) for _, a, x in _cosets(mu, n)]
    spec = h.spec
    acc = tuple(sum(v[i] * xk for v, xk in terms) % spec.modulus
                for i in range(spec.rank))
    return RingElem(spec, acc), guar - h.shift


# -- characters and twists ----------------------------------------------------------


class FiniteCharacter:
    """A character of (O_K/p^n)^x or (Z/p^n)^x tabulated on the whole group."""

    def __init__(self, level, domain, value_spec, table):
        self.level = level
        self.domain = domain          # quadratic RingSpec or "zp"
        self.value_spec = value_spec
        self.table = table            # key -> RingElem
        self._validate()

    def _validate(self):
        if self.level == 0:
            return
        # spot-check multiplicativity on a few products
        keys = list(self.table)
        p = self.value_spec.p
        pn = p ** self.level
        for i in range(0, len(keys), max(1, len(keys) // 8)):
            for j in range(0, len(keys), max(1, len(keys) // 8)):
                a, b = keys[i], keys[j]
                ab = self._mul_key(a, b, pn)
                if ab in self.table:
                    if self.table[ab] != self.table[a] * self.table[b]:
                        raise DomainError("character table is not multiplicative")

    def _mul_key(self, a, b, pn):
        if self.domain == "zp":
            return (a * b) % pn
        x = self.domain.elem(a) * self.domain.elem(b)
        return tuple(c % pn for c in x.coords)

    @staticmethod
    def trivial(value_spec):
        return FiniteCharacter(0, "zp", value_spec, {})

    @staticmethod
    def from_generator(domain, n, value_spec, gen, image):
        """Build a character of a cyclic unit group from one generator."""
        p = value_spec.p
        pn = p ** n
        if domain == "zp":
            order = _mult_order_int(gen, pn)
            target = _unit_count_zp(p, n)
            key = lambda x: x % pn
            mul = lambda x, y: (x * y) % pn
            e = gen
        else:
            order = _mult_order_elem(gen, pn)
            target = len(unit_residues(domain, n))
            key = lambda x: tuple(c % pn for c in x.coords)
            mul = lambda x, y: x * y
            e = gen
        if order != target:
            raise DomainError("element does not generate the unit group")
        if not (image ** order == value_spec.one()):
            raise DomainError("image order does not divide the group order")
        table = {}
        x, v = e, image
        for _ in range(order):
            table[key(x)] = v
            x = mul(x, e)
            v = v * image
        return FiniteCharacter(n, domain, value_spec, table)

    def value(self, x):
        """chi(x) for an int, a ring element or (on O_K) a coordinate pair;
        zero for arguments outside the tabulated units."""
        if self.level == 0:
            return self.value_spec.one()
        pn = self.value_spec.p ** self.level
        if self.domain == "zp":
            k = (x if isinstance(x, int) else x.coords[0]) % pn
        else:
            if isinstance(x, int):
                x = self.domain.from_int(x)
            k = tuple(c % pn for c in (x.coords if isinstance(x, RingElem) else x))
        got = self.table.get(k)
        return got if got is not None else self.value_spec.zero()

    def is_primitive(self):
        """Does chi fail to factor through level n-1?"""
        if self.level == 0:
            return False
        p = self.value_spec.p
        pn1 = p ** (self.level - 1)
        one = self.value_spec.one()
        if self.domain == "zp":
            for t in range(1, p):
                if self.value(1 + t * pn1) != one:
                    return True
            return False
        for c0 in range(p):
            for c1 in range(p):
                if (c0, c1) == (0, 0):
                    continue
                x = self.domain.from_int(1 + c0 * pn1) + \
                    self.domain.gen_quad() * (c1 * pn1)
                if self.value(x) != one:
                    return True
        return False


def _mult_order_int(g, pn):
    from math import gcd
    x = g % pn
    if gcd(x, pn) != 1:
        raise DomainError("not a unit")
    o = 1
    y = x
    while y != 1:
        y = (y * x) % pn
        o += 1
        if o > pn:
            raise DomainError("order overflow")
    return o


def _unit_count_zp(p, n):
    return p ** n - p ** (n - 1)


def _mult_order_elem(g, pn):
    spec = g.spec
    one_k = tuple(c % pn for c in spec.one().coords)
    o = 1
    y = g
    while tuple(c % pn for c in y.coords) != one_k:
        y = y * g
        o += 1
        if o > pn * pn:
            raise DomainError("order overflow")
    return o


def gauss_sum(chi, okp=None):
    """tau(chi): the normalization constant times p^{-2n} times the double sum.

    Gauss sums are generally not integral, so the value is returned as a
    GaussSum record (num, den_exp, const) representing const * num / p^den_exp
    with num content-stripped.  The empty sum at level 0 is taken to be 1, so
    tau(trivial) is exactly the normalization constant; this convention is
    surfaced rather than hidden.
    """
    value_spec = chi.value_spec
    p = value_spec.p
    n = chi.level
    okp = okp or (chi.domain if chi.domain != "zp" else None)
    if okp is None:
        raise DomainError("gauss_sum needs the quadratic group ring")
    const = _tau_constant(okp)
    if n == 0:
        return GaussSum(value_spec.one(), 0, const)
    pn = p ** n
    ext = _level_ring(value_spec, n)
    zeta = _level_zeta(ext, n)
    zpows = [ext.one()]
    for _ in range(pn - 1):
        zpows.append(zpows[-1] * zeta)
    w = okp.gen_quad()
    acc = ext.zero()
    for s in range(pn):
        sigma = okp.one() + w * s      # coset representatives (1, s)
        for j in range(pn):
            x = sigma * j
            cv = chi.value(x)
            if cv.is_zero():
                continue
            term = embed(cv, ext)
            acc = acc + term * zpows[(-sigma_map(x)) % pn]
    t = 0
    while t < 2 * n and not any(c % p for c in acc.coords):
        acc = ext.elem([c // p for c in acc.coords])
        t += 1
    return GaussSum(acc, 2 * n - t, const)


@dataclass(frozen=True)
class GaussSum:
    """tau = const * num / p^den_exp; num is content-stripped."""

    num: RingElem
    den_exp: int
    const: object  # Fraction


def _tau_constant(okp):
    """|(O_K/frakp^eps)^x| / |(Z/q)^x|, eps = floor(1/((p-1) ord_p frakp)) + 1.

    q is the residue size (p ramified, p^2 inert) and |(Z/q)^x| is read as
    phi(q).  The quotient must be a p-unit; a p in the denominator is flagged
    as the normalization ambiguity rather than silently accepted.
    """
    from fractions import Fraction
    p = okp.p
    if okp.quad_kind == "ramified":
        eps = 2 // (p - 1) + 1            # ord_p(frak p) = 1/2
        units = p ** eps - p ** (eps - 1)
        q = p
    else:
        eps = 1 // (p - 1) + 1            # ord_p(frak p) = 1
        units = p ** (2 * eps) - p ** (2 * eps - 2)
        q = p * p
    phi_q = q - q // p
    c = Fraction(units, phi_q)
    if c.denominator % p == 0:
        raise PrecisionExhausted("tau normalization constant is not p-integral")
    return c


def twist_eval(mu, chi, k):
    """The twisted evaluation mu(chi * kappa^k), exactly.

    Computed as the finite sum over unit cosets of chi(delta) times the
    local k-th sigma-moment of mu on delta U_n; for level 0 this is
    tau(trivial)-free, i.e. just the k-th moment.
    """
    n = chi.level
    if n == 0:
        return moment(mu, k)
    h = _qddq_power(mu.amice, k)
    m, guar = _pushforward(h, n)
    terms = []
    for delta, a, _ in _cosets(mu, n):
        cv = chi.value(delta)
        if not cv.is_zero():
            terms.append((cv.coords, _mass(h, m, guar, a, n)[0]))
    if not terms:
        return None
    vspec = chi.value_spec
    masses = embed_coords([v for _, v in terms], h.spec, vspec)
    acc = (0,) * vspec.rank
    for (cv, _), v in zip(terms, masses):
        acc = vspec.add_coords(acc, vspec.mul_coords(cv, v))
    return RingElem(vspec, acc)


def twist_factorization_report(mu, chi, k):
    """Compare the direct twisted evaluation with the Gauss-sum-shaped route.

    The Gauss-sum-shaped product is tau(chi) times the orbit sum over unit cosets
    of chi(delta^{-1}) (d^k amice)(zeta^{sigma(delta)} - 1).  Locally the
    orbit runs over all unit cosets, so the normalization constant of tau
    (which compensates the global-unit collapse of the Artin orbit) must be
    divided back out: the check is num(tau) * orbit == p^den_exp * direct.
    Returns (direct, tau, orbit_sum, match).
    """
    n = chi.level
    direct = twist_eval(mu, chi, k)
    tau = gauss_sum(chi, okp=mu.okp)
    if n == 0:
        return direct, tau, None, None
    h = _qddq_power(mu.amice, k)
    vspec = chi.value_spec
    ext = _level_ring(vspec, n)
    pn = vspec.p ** n
    table, _ = _eval_table(h, ext, n)
    orbit = ext.zero()
    for d in unit_residues(mu.okp, n):
        dl = mu.okp.elem(d)
        cv = chi.value(dl.inverse())
        if cv.is_zero():
            continue
        cve = embed(cv, ext)
        orbit = orbit + cve * table[sigma_map(dl) % pn]
    taue = embed(tau.num, ext)
    prod = taue * orbit
    de = embed(direct, ext)
    match = prod == de * (vspec.p ** tau.den_exp)
    return direct, tau, orbit, match
