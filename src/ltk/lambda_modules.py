"""Toy characteristic-ideal calculus over one-variable Iwasawa algebras.

A torsion module is presented as the cokernel of a square matrix over
O[[T]]; its characteristic ideal is generated by the determinant, read off
through Weierstrass preparation as (mu, lambda, distinguished polynomial).
Additivity along short exact sequences is realized by block-triangular
composition and checked as multiplicativity of determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import DomainError, PrecisionExhausted
from .series import TruncSeries, _series, packed_det, weierstrass_prep

__all__ = [
    "LambdaPresentation",
    "char_ideal",
    "det_series",
    "additivity_check",
    "block_triangular",
]


@dataclass
class LambdaPresentation:
    base: object                 # RingSpec
    matrix: list                 # square, entries TruncSeries over base

    def __post_init__(self):
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n:
                raise DomainError("presentation matrix must be square")

    @property
    def size(self):
        return len(self.matrix)

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(obj):
        from .rings import RingSpec, json_fields
        base, rows = json_fields(obj, "base", "matrix")
        base = RingSpec.from_json(base)
        if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)):
            raise DomainError("matrix must be a nonempty list of rows")
        mat = [[TruncSeries.from_json(e) for e in row] for row in rows]
        if any(e.spec != base for row in mat for e in row):
            raise DomainError("matrix entries must be series over the base ring")
        return LambdaPresentation(base, mat)


def det_series(matrix, spec, cap):
    """Determinant of a square matrix of series over spec, mod X^cap.

    The entries are made integral first (TruncSeries.require_integral, a
    no-op at shift 0).  The coefficients are series.packed_det's.  The cap
    and n_eff are the least, with cap and spec.N, over the entries the
    Laplace expansion multiplies (_multiplied): det is an integral
    polynomial in exactly those, so it is known to their digits and their
    caps.
    """
    rows = [[e.require_integral() for e in row] for row in matrix]
    if any(e.spec != spec for row in rows for e in row):
        raise DomainError("mixed ring specs")
    used = list(_multiplied(rows))
    cap = min([cap] + [e.cap for e in used])
    coeffs = packed_det(spec, [[e.coeffs[:cap] for e in row] for row in rows], cap)
    return _series(spec, cap, coeffs, min([spec.N] + [e.n_eff for e in used]))


def _multiplied(rows):
    """The entries a Laplace expansion down the rows multiplies.

    Entry (r, c) is multiplied when it is nonzero and rows 0..r-1 have
    nonzero entries in distinct columns other than c; a stored zero is
    skipped with its whole subtree.
    """
    reach = {(1 << len(rows)) - 1}  # column sets left after the rows so far
    for row in rows:
        used = [(cols, c) for cols in reach for c, e in enumerate(row)
                if cols >> c & 1 and not e.is_zero()]
        yield from (row[c] for _, c in used)
        reach = {cols ^ (1 << c) for cols, c in used}


def char_ideal(pres):
    """Characteristic ideal data of the cokernel: Weierstrass data of det."""
    cap = min(e.cap for row in pres.matrix for e in row)
    d = det_series(pres.matrix, pres.base, cap)
    if d.canonical().is_zero():
        raise PrecisionExhausted("zero determinant at working precision: "
                                 "module is not torsion at this precision")
    return weierstrass_prep(d)


def block_triangular(sub, quot, off=None):
    """Middle term [[A, C], [0, B]] of a short exact sequence of cokernels."""
    if sub.base != quot.base:
        raise DomainError("mixed base rings")
    n1, n2 = sub.size, quot.size
    cap = min(e.cap for row in sub.matrix + quot.matrix for e in row)
    zero = TruncSeries.zero(sub.base, cap)
    mat = []
    for i in range(n1):
        row = list(sub.matrix[i])
        row += [off[i][j] if off else zero for j in range(n2)]
        mat.append(row)
    for i in range(n2):
        row = [zero] * n1 + list(quot.matrix[i])
        mat.append(row)
    return LambdaPresentation(sub.base, mat)


def additivity_check(sub, quot, off=None, n_check=None):
    """char(middle) = char(sub) * char(quot) up to a unit.

    Compared through (mu, lambda) and the distinguished polynomials, which
    are canonical; returns (ok, data).
    """
    mid = block_triangular(sub, quot, off)
    wa, wb, wm = char_ideal(sub), char_ideal(quot), char_ideal(mid)
    ok = (wm.mu == wa.mu + wb.mu) and (wm.lam == wa.lam + wb.lam)
    if ok:
        cap = wm.unit.cap
        prod = (wa.dist_series(cap) * wb.dist_series(cap)).canonical()
        nc = n_check or min(wa.n_eff, wb.n_eff, wm.n_eff)
        ok = prod.eq_mod(wm.dist_series(cap), nc)
    return ok, {"sub": (wa.mu, wa.lam), "quot": (wb.mu, wb.lam),
                "middle": (wm.mu, wm.lam)}
