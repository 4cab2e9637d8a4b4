"""Determinant and inverse oracles.

The Laplace determinant over a protocol ring is the oracle for
series.packed_det: laplace_det expands over any ring with zero, one, add,
sub, mul and is_zero, reducing after every operation; SeriesRing is
TruncSeries mod Y^cap in that protocol.  Their precision bookkeeping (n_eff
and cap taken as the minimum over every product and sum) is the one
det_series keeps.

det_bareiss (forward-only fraction-free Bareiss elimination) and
generic_inverse (Gaussian elimination mod p^N on the multiplication matrix)
are the oracles for rings.fraction_free's determinant and for the Newton
unit inverse of rings.inverse_coords on cyclotomic and composite rings.
"""

from ltk.rings import PrecisionExhausted, mult_matrix
from ltk.series import TruncSeries


class SeriesRing:
    """Series in one variable over a RingSpec mod Y^cap, as a protocol ring
    (zero, one, from_base, add, sub, mul, is_zero) for determinants."""

    def __init__(self, spec, cap):
        self.spec = spec
        self.cap = cap

    def zero(self):
        return TruncSeries.zero(self.spec, self.cap)

    def one(self):
        return TruncSeries.one(self.spec, self.cap)

    def from_base(self, c):
        return TruncSeries(self.spec, self.cap, [c])

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        """An exact zero: stored zero, known to every digit and past cap.  A
        zero known to less may lift to a nonzero entry, so it is multiplied."""
        return a.is_zero() and a.n_eff == self.spec.N and a.cap >= self.cap


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


def det_bareiss(M):
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


def generic_inverse(spec, c):
    """Invert a unit by Gaussian elimination on its multiplication matrix."""
    r, m, p = spec.rank, spec.modulus, spec.p
    # solve M y = e_0 over Z/p^N; pivots must be units since c is a unit
    M = mult_matrix(spec, c)
    rhs = [1] + [0] * (r - 1)
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
    return tuple(rhs)
