"""Complex lattice functions for the elliptic-unit side, in floating point.

This module is the numeric oracle layer: sigma, eta, Delta, Weierstrass p,
the Robert invariant theta(z, L) = Delta(L) e^{-6 eta(z) z} sigma(z)^12, and
the Robert elliptic function psi(z; L, L') built from a product of
wp-differences with a canonical 12th root of Delta(L)^{[L':L]}/Delta(L').

Internally every lattice carries a Gauss-reduced basis so the nome satisfies
|q| <= e^{-pi sqrt 3}, making the q-products converge to machine precision in
a handful of terms.  Quasi-periodicity factors extend sigma from the reduced
fundamental domain.  The eta quasi-periods come from the classical iterated
Eisenstein sums, accelerated by sum_{n} (x+n)^{-2} = pi^2 / sin^2(pi x).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

__all__ = [
    "Lattice",
    "scale_lattice",
    "sublattice_index",
    "coset_reps",
    "psi_robert",
    "delta_canonical",
]

TWO_PI_I = 2j * math.pi
_Q_TERMS = 64


class EllipticDomainError(ValueError):
    pass


def _reduce_basis(w1, w2):
    """Gauss-reduce to |Re tau| <= 1/2, |tau| >= 1 (unimodular, same lattice)."""
    for _ in range(200):
        tau = w1 / w2
        t = round(tau.real)
        if t:
            w1 = w1 - t * w2
            tau = w1 / w2
        if abs(tau) < 1 - 1e-15:
            w1, w2 = -w2, w1
        else:
            return w1, w2
    raise EllipticDomainError("basis reduction did not terminate")


def _eta_sum(w1, w2):
    """eta(w2) = w2 sum_m sum_n' (m w1 + n w2)^{-2} in Eisenstein order.

    The inner sum over n (the index on w2) runs over all of Z when m != 0 and
    skips only the origin; sum_n (x+n)^{-2} = pi^2/sin^2(pi x) collapses each
    inner sum, leaving a geometrically convergent outer sum.  This is the
    classical conditionally-convergent order, pinned by the Legendre relation
    and the sigma quasi-periodicity cross-checks.  eta(w1) is _eta_sum(w2, w1):
    the same order with the roles of the periods swapped.
    """
    tau = w1 / w2
    total = complex(math.pi ** 2 / 3.0)
    for m in range(1, _Q_TERMS + 1):
        s = cmath.sin(math.pi * m * tau)
        term = (math.pi / s) ** 2
        total += 2 * term  # m and -m contribute equally
        if abs(term) < 1e-19:
            break
    return total / w2


@dataclass
class Lattice:
    """Z w1 + Z w2 with Im(w1/w2) > 0 and cached analytic data."""

    w1: complex
    w2: complex
    legendre_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        if (self.w1 / self.w2).imag <= 0:
            raise EllipticDomainError("need Im(w1/w2) > 0")
        r1, r2 = _reduce_basis(self.w1, self.w2)
        self._r1, self._r2 = r1, r2
        self._tau = r1 / r2
        self._q = cmath.exp(TWO_PI_I * self._tau)
        if abs(self._q) > 0.5:
            raise EllipticDomainError("|q| too close to 1 after reduction")
        self._eta_r1 = _eta_sum(r2, r1)
        self._eta_r2 = _eta_sum(r1, r2)
        # Legendre relation for the reduced (oriented) basis: the constant is
        # -2 pi i in this orientation; the defect is recorded at construction
        self.legendre_defect = abs(self._eta_r1 * r2 - self._eta_r2 * r1 + TWO_PI_I)
        if self.legendre_defect > 1e-8:
            raise EllipticDomainError(
                "eta sums violate the Legendre relation (defect %.2e)"
                % self.legendre_defect)
        # R-linear eta form: eta(z) = a z + b conj(z)
        A = (r1 * r2.conjugate() - r1.conjugate() * r2) / TWO_PI_I
        self._area_factor = A
        self._eta_b = (r1 * self._eta_r2 - r2 * self._eta_r1) / (TWO_PI_I * A)
        self._eta_a = (r2.conjugate() * self._eta_r1 -
                       r1.conjugate() * self._eta_r2) / (TWO_PI_I * A)

    # -- lattice coordinates ----------------------------------------------------

    def coords(self, z):
        """Real (x, y) with z = x r1 + y r2 (reduced basis)."""
        a, b = self._r1, self._r2
        det = a.real * b.imag - a.imag * b.real
        x = (z.real * b.imag - z.imag * b.real) / det
        y = (a.real * z.imag - a.imag * z.real) / det
        return x, y

    def contains(self, z):
        x, y = self.coords(z)
        return abs(x - round(x)) < 1e-9 and abs(y - round(y)) < 1e-9

    def reduce_point(self, z):
        """(z0, m, n) with z = z0 + m r1 + n r2 and z0 nearly centered."""
        x, y = self.coords(z)
        m, n = round(x), round(y)
        return z - m * self._r1 - n * self._r2, m, n

    # -- modular quantities -------------------------------------------------------

    def delta(self, terms=_Q_TERMS):
        q = self._q
        prod = complex(1.0)
        qn = complex(1.0)
        for _ in range(terms):
            qn *= q
            prod *= (1 - qn) ** 24
            if abs(qn) < 1e-20:
                break
        return (TWO_PI_I / self._r2) ** 12 * q * prod

    def eisenstein(self, k):
        """Normalized E_4 or E_6 of the reduced tau."""
        q = self._q
        if k == 4:
            coef, power = 240.0, 3
        elif k == 6:
            coef, power = -504.0, 5
        else:
            raise EllipticDomainError("only E_4 and E_6")
        total = complex(1.0)
        for n in range(1, _Q_TERMS + 1):
            sig = sum(d ** power for d in range(1, n + 1) if n % d == 0)
            term = coef * sig * q ** n
            total += term
            if abs(term) < 1e-20:
                break
        return total

    def g2(self):
        return 60.0 * (math.pi ** 4 / 45.0) * self.eisenstein(4) / self._r2 ** 4

    def g3(self):
        return 140.0 * (2 * math.pi ** 6 / 945.0) * self.eisenstein(6) / self._r2 ** 6

    def delta_from_g(self):
        return self.g2() ** 3 - 27.0 * self.g3() ** 2

    # -- quasi-periods and the eta form ---------------------------------------------

    def eta(self, omega):
        """Quasi-period eta(omega) for a lattice point omega."""
        if not self.contains(omega):
            raise EllipticDomainError("eta quasi-period needs a lattice point")
        x, y = self.coords(omega)
        return round(x) * self._eta_r1 + round(y) * self._eta_r2

    def eta_form(self, z):
        """The R-linear form eta(z, L) (agrees with eta() on lattice points)."""
        return self._eta_a * z + self._eta_b * z.conjugate()

    def eta_pair(self):
        """Quasi-periods of the constructor basis (w1, w2)."""
        return self.eta(self.w1), self.eta(self.w2)

    # -- core functions ----------------------------------------------------------------

    def _sigma_raw(self, z):
        r2, q = self._r2, self._q
        u_half = cmath.exp(1j * math.pi * z / r2)
        u = u_half * u_half
        prod = u_half - 1.0 / u_half
        qn = complex(1.0)
        for _ in range(_Q_TERMS):
            qn *= q
            prod *= (1 - qn * u) * (1 - qn / u) / (1 - qn) ** 2
            if abs(qn) < 1e-20:
                break
        return (r2 / TWO_PI_I) * cmath.exp(self._eta_r2 * z * z / (2 * r2)) * prod

    def sigma(self, z):
        """Weierstrass sigma, extended by quasi-periodicity from the core cell."""
        z0, m, n = self.reduce_point(z)
        if m == 0 and n == 0:
            return self._sigma_raw(z)
        omega = m * self._r1 + n * self._r2
        sign = (-1.0) ** (m + n + m * n)
        fac = cmath.exp(self.eta(omega) * (z0 + omega / 2))
        return sign * fac * self._sigma_raw(z0)

    def wp(self, z):
        z0, _, _ = self.reduce_point(z)
        if abs(z0) < 1e-12:
            raise EllipticDomainError("wp pole: z in L")
        r2, q = self._r2, self._q
        u = cmath.exp(TWO_PI_I * z0 / r2)
        total = 1.0 / 12.0 + u / (1 - u) ** 2
        qn = complex(1.0)
        for _ in range(_Q_TERMS):
            qn *= q
            a = qn * u
            b = qn / u
            term = a / (1 - a) ** 2 + b / (1 - b) ** 2 - 2 * qn / (1 - qn) ** 2
            total += term
            if abs(qn) < 1e-20:
                break
        return (TWO_PI_I / r2) ** 2 * total

    def wp_prime(self, z):
        z0, _, _ = self.reduce_point(z)
        if abs(z0) < 1e-12:
            raise EllipticDomainError("wp' pole: z in L")
        r2, q = self._r2, self._q
        u = cmath.exp(TWO_PI_I * z0 / r2)
        total = u * (1 + u) / (1 - u) ** 3
        qn = complex(1.0)
        for _ in range(_Q_TERMS):
            qn *= q
            a = qn * u
            b = qn / u
            term = a * (1 + a) / (1 - a) ** 3 - b * (1 + b) / (1 - b) ** 3
            total += term
            if abs(qn) < 1e-20:
                break
        return (TWO_PI_I / r2) ** 3 * total

    def theta_robert(self, z):
        """Delta(L) e^{-6 eta(z) z} sigma(z)^12: L-periodic, even."""
        s = self.sigma(z)
        return self.delta() * cmath.exp(-6.0 * self.eta_form(z) * z) * s ** 12


def scale_lattice(L, c):
    return Lattice(c * L.w1, c * L.w2)


def sublattice_index(L, Lsup):
    """[Lsup : L] for L a sublattice of Lsup; validates integrality."""
    x1, y1 = Lsup.coords(L.w1)
    x2, y2 = Lsup.coords(L.w2)
    for v in (x1, y1, x2, y2):
        if abs(v - round(v)) > 1e-9:
            raise EllipticDomainError("not a sublattice")
    det = round(x1) * round(y2) - round(y1) * round(x2)
    return abs(det)


def coset_reps(L, Lsup):
    """Representatives of Lsup / L."""
    idx = sublattice_index(L, Lsup)
    reps = []
    keys = set()
    for a in range(idx):
        for b in range(idx):
            z = a * Lsup._r1 + b * Lsup._r2
            x, y = L.coords(z)
            key = (round((x - math.floor(x + 1e-12)) * idx * 4) % (idx * 4),
                   round((y - math.floor(y + 1e-12)) * idx * 4) % (idx * 4))
            if key not in keys:
                keys.add(key)
                reps.append(z - math.floor(x + 1e-12) * L._r1
                            - math.floor(y + 1e-12) * L._r2)
            if len(reps) == idx:
                return reps
    raise EllipticDomainError("could not enumerate cosets")


def _pair_reps(L, Lsup):
    """Nonzero classes of Lsup/L modulo +-1 (for the wp-product)."""
    idx = sublattice_index(L, Lsup)
    reps = coset_reps(L, Lsup)
    out = []
    used = set()
    for i, r in enumerate(reps):
        if L.contains(r):
            continue
        if i in used:
            continue
        # find -r among the remaining reps
        for j, s in enumerate(reps):
            if j != i and j not in used and L.contains(r + s):
                used.add(j)
                break
        used.add(i)
        out.append(r)
    if 2 * len(out) != idx - 1:
        raise EllipticDomainError("index must be odd (coprime to 6)")
    return out


def wp_difference_product(z, L, Lsup):
    """prod over nonzero (L'/L)/{+-1} classes rho of (wp_L(z) - wp_L(rho))."""
    pairs = _pair_reps(L, Lsup)
    prod = complex(1.0)
    wz = L.wp(z)
    for rho in pairs:
        dw = wz - L.wp(rho)
        if abs(dw) < 1e-12:
            raise EllipticDomainError("psi pole: z hits a torsion point")
        prod *= dw
    return prod


def theta_quotient_constant(L, Lsup, z0=None):
    """The z-independent constant theta_L(z)^N / theta_L'(z) * wp-prod(z)^12.

    A genuine cross-check of the theta/wp machinery: it must equal
    Delta(L)^N / Delta(L'), i.e. the 12th power of delta(L, L').
    """
    N = sublattice_index(L, Lsup)
    z0 = z0 if z0 is not None else 0.27718 * L.w1 + 0.41119 * L.w2
    return (L.theta_robert(z0) ** N / Lsup.theta_robert(z0)
            * wp_difference_product(z0, L, Lsup) ** 12)


def delta_canonical(L, Lsup, check=True):
    """delta(L, L') as the principal 12th root of Delta(L)^N / Delta(L').

    Robert's canonical branch has no recipe computable from first principles
    here, so the principal branch is used and the ambiguity is surfaced: any
    identity involving delta holds on the nose only up to a 12th root of
    unity, while its 12th power is exact.  The report cross-checks the
    12th power against the independent theta-quotient constant.
    """
    N = sublattice_index(L, Lsup)
    if math.gcd(N, 6) != 1:
        raise EllipticDomainError("[L':L] must be coprime to 6")
    tgt = L.delta() ** N / Lsup.delta()
    d = cmath.exp(cmath.log(tgt) / 12.0)
    report = {"branch": "principal", "mu12_ambiguity": True}
    if check:
        C = theta_quotient_constant(L, Lsup)
        report["theta_constant_rel_err"] = abs(C - tgt) / abs(tgt)
    return d, report


_delta_cache = {}


def psi_robert(z, L, Lsup):
    """Robert's elliptic function delta(L,L') / prod (wp_L(z) - wp_L(rho)).

    Values carry the principal-branch mu_12 ambiguity of delta; ratios of psi
    values on the same lattice pair, and 12th powers, are unambiguous.
    """
    key = (L.w1, L.w2, Lsup.w1, Lsup.w2)
    if key not in _delta_cache:
        _delta_cache[key] = delta_canonical(L, Lsup)[0]
    return _delta_cache[key] / wp_difference_product(z, L, Lsup)


def distribution_defect(L, a_gen, b_gen, z):
    """LHS/RHS of the distribution relation with principal-branch deltas.

    psi(z; L', a^{-1}L') vs prod over rho in L'/L of psi(z+rho; L, a^{-1}L),
    L' = b^{-1} L.  The modulus and the 12th power of the returned ratio must
    be 1; its argument is the mu_12 branch defect.
    """
    La = scale_lattice(L, 1 / a_gen)
    Lb = scale_lattice(L, 1 / b_gen)
    Lab = scale_lattice(L, 1 / (a_gen * b_gen))
    lhs = psi_robert(z, Lb, Lab)
    rhs = complex(1.0)
    for rho in coset_reps(L, Lb):
        rhs *= psi_robert(z + rho, L, La)
    return lhs / rhs
