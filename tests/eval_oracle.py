"""Evaluation by plain ring arithmetic, kept as the oracle for series.horner
and its callers: TruncSeries.eval, mu_lambda_by_roots and
QuotientRing.eval_series.

ref_embed places an element by arithmetic in the target ring (w as the
target's w, zeta_{p^n} as zeta_{p^m}^(p^(m-n))), sharing nothing with the
index map of rings.placement.  ref_horner is Horner's rule over any ring's
add and mul, with no zero skipping and no trimming.
"""

import operator

from ltk.rings import DomainError


def ref_embed(x, target):
    """x in target, built from target's generators; DomainError where target
    does not contain x's ring (a composite only in itself)."""
    spec = x.spec
    if spec == target:
        return x
    if spec.p != target.p or spec.N != target.N:
        raise DomainError("matching p and N needed")
    if spec.kind == "zp":
        return target.from_int(x.coords[0])
    if spec.kind in ("ramified_quad", "unramified_quad"):
        if target.quad != spec.quad:
            raise DomainError("different quadratic part")
        return target.from_int(x.coords[0]) + target.gen_quad() * x.coords[1]
    if spec.kind == "cyclotomic":
        if target.level < spec.level:
            raise DomainError("lower cyclotomic level")
        gen = target.zeta() ** (spec.p ** (target.level - spec.level))
        out, power = target.zero(), target.one()
        for c in x.coords:
            out = out + power * c
            power = power * gen
        return out
    raise DomainError("a composite embeds only into itself")


def ref_horner(coeffs, x, zero, add=operator.add, mul=operator.mul):
    """sum_k coeffs[k] x^k by Horner's rule over one ring's add and mul."""
    acc = zero
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


def ref_eval(f, x):
    """f(x) for a TruncSeries f with shift 0 at a RingElem x: RingElem
    Horner over the coefficients, each embedded in x's ring."""
    return ref_horner([ref_embed(f.coeff(k), x.spec) for k in range(f.cap)],
                      x, x.spec.zero())


def ref_root_product(f, n):
    """prod of f(zeta - 1) over the primitive p^n-th roots of unity zeta,
    in the level-n cyclotomic extension of f's ring."""
    ext = f.spec.with_level(n)
    p, zeta = ext.p, ext.zeta()
    prod = ext.one()
    for j in range(1, p ** n):
        if j % p:
            prod = prod * ref_eval(f, zeta ** j - ext.one())
    return prod
