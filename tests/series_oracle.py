"""The schoolbook series inverse, kept as the oracle for TruncSeries.invert.

ref_invert solves s v = 1 mod X^cap one coefficient at a time,
v_k = -v_0 sum_{j<k} v_j s_(k-j), with one ring product per term: O(cap^2)
compiled mul_coords calls and no packed product.  Its checks and precision
bookkeeping are invert's: the series is made integral first (a surviving
shift raises PrecisionExhausted), a non-unit constant term raises
DomainError, and the result keeps the integral series' n_eff with shift 0.
"""

from ltk.rings import DomainError
from ltk.series import TruncSeries


def ref_invert(series):
    s = series.require_integral()
    spec = s.spec
    c0 = s.constant_term()
    if not c0.is_unit():
        raise DomainError("invert requires a unit constant term")
    inv0 = c0.inverse().coords
    mul, add, sub = spec.mul_coords, spec.add_coords, spec.sub_coords
    zero = (0,) * spec.rank
    out = [inv0]
    for k in range(1, s.cap):
        acc = zero
        for j in range(k):
            acc = add(acc, mul(out[j], s.coeffs[k - j]))
        out.append(mul(inv0, sub(zero, acc)))
    return TruncSeries(spec, s.cap, out, s.n_eff, 0)
