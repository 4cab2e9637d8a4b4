"""The Laplace determinant over a protocol ring, kept as the oracle for
series.packed_det.

laplace_det expands over any ring with zero, one, add, sub, mul and
is_zero, reducing after every operation; SeriesRing is TruncSeries mod
Y^cap in that protocol.  Their precision bookkeeping (n_eff and cap taken
as the minimum over every product and sum) is the one det_series keeps.
"""

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
        return a.is_zero()


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
