"""Second routes for the measures module, kept as test oracles.

tilde_mahler is the Mahler-side tilde, independent of the series-side
tilde_series.  qddq_power applies (1+T) d/dT as a derivative followed by
a series product with 1 + T, and moment reads the constant term of that
series; they check the coefficient recurrence of ltk.measures._qddq_power
and the closed-form moment.  The rest is the ring-element coset route: the
coset index through RingElem.inverse and sigma of delta^-1 and delta^-1 w,
and coset masses, Riemann sums, the partition law and twisted evaluations
summed as ring elements, one mass per coset.  It shares only the level-n
pushforward with ltk.measures, whose integer-coordinate route it checks.
"""

from ltk.measures import _pushforward, sigma_map, unit_residues
from ltk.rings import DomainError, PrecisionExhausted, embed
from ltk.series import TruncSeries


def tilde_mahler(h):
    """Independent tilde: expand in powers of Q = 1+T, kill p | n, re-expand."""
    spec, cap = h.spec, h.cap
    # h = sum_m c_m (Q-1)^m -> b_r via binomial transform (exact)
    b = [spec.zero() for _ in range(cap)]
    for m in range(cap):
        cm = h.coeff(m)
        if cm.is_zero():
            continue
        binom = 1
        sign = 1 if m % 2 == 0 else -1
        b[0] = b[0] + cm * (sign * binom)
        for r in range(1, m + 1):
            binom = binom * (m - r + 1) // r
            sign = 1 if (m - r) % 2 == 0 else -1
            b[r] = b[r] + cm * (sign * binom)
    for r in range(0, cap, spec.p):
        b[r] = spec.zero()
    # re-expand in T
    out = [spec.zero() for _ in range(cap)]
    for r in range(cap):
        br = b[r]
        if br.is_zero():
            continue
        binom = 1
        out[0] = out[0] + br
        for m in range(1, r + 1):
            binom = binom * (r - m + 1) // m
            out[m] = out[m] + br * binom
    return TruncSeries(spec, cap, out, h.n_eff, h.shift)


def qddq_power(h, k):
    """(Qd/dQ)^k h as k derivatives, each times 1 + T."""
    if k < 0:
        raise DomainError(f"moment order k must be >= 0, got {k}")
    for _ in range(k):
        h = h.derive() * TruncSeries(h.spec, h.cap, [1, 1])
    return h


def moment(mu, k):
    """The constant term of (Qd/dQ)^k amice, with the shift divided out."""
    h = qddq_power(mu.amice, k)
    v = h.coeff(0)
    if h.shift:
        return v.divide_exact_p(h.shift)
    return v


def coset_index(mu, delta, n):
    """The a in Z/p^n with mu(delta U_n) = mu(a + p^n Z_p), or None if empty:
    a = sigma(delta^-1)^-1 when sigma(delta^-1) and sigma(delta^-1 w) agree."""
    pn = mu.spec.p ** n
    if not mu.group.startswith("okp"):
        return (delta if isinstance(delta, int) else delta.coords[0]) % pn
    okp = mu.okp
    if isinstance(delta, tuple):
        delta = okp.elem(list(delta))
    if not delta.is_unit():
        raise DomainError("delta must be a unit")
    dinv = delta.inverse()
    u = sigma_map(dinv) % pn
    v = sigma_map(dinv * okp.gen_quad()) % pn
    try:
        a = pow(u, -1, pn)
    except ValueError:        # p | u: no a has u a = 1
        return None
    return a if (v * a - 1) % pn == 0 else None


def _mass(h, m, guar, a, n):
    spec = h.spec
    p, shift = spec.p, h.shift
    if guar < shift + 1:
        raise PrecisionExhausted(
            f"coset_mass at level {n}: needs {shift + 1} digits (shift {shift} "
            f"+ 1), {max(guar, 0)} available (N_eff {h.n_eff}, cap {h.cap})")
    q = p ** guar
    num = [0] * spec.rank if a is None else [c % q for c in m[a]]
    if any(c % p ** shift for c in num):
        raise PrecisionExhausted(
            f"coset_mass at level {n}: mass is not divisible by p^{shift}, "
            "series is not admissible")
    return spec.elem([c // p ** shift for c in num]), guar - shift


def coset_mass(mu, delta, n):
    m, guar = _pushforward(mu.amice, n)
    return _mass(mu.amice, m, guar, coset_index(mu, delta, n), n)


def _cosets(mu, n):
    if mu.group.startswith("okp"):
        for d in unit_residues(mu.okp, n):
            dl = mu.okp.elem(d)
            yield dl, coset_index(mu, dl, n), sigma_map(dl)
        return
    p = mu.spec.p
    for a in range(p ** n):
        if mu.group == "zp_units" and a % p == 0:
            continue
        yield a, a, a


def partition_check(mu, n):
    okp = mu.okp
    p = okp.p
    h = mu.amice
    fine, g_fine = _pushforward(h, n + 1)
    lhs = h.spec.zero()
    for c0 in range(p):
        for c1 in range(p):
            d = okp.elem((1 + c0 * p ** n, c1 * p ** n))
            v, _ = _mass(h, fine, g_fine, coset_index(mu, d, n + 1), n + 1)
            lhs = lhs + v
    coarse, g_coarse = _pushforward(h, n)
    rhs, _ = _mass(h, coarse, g_coarse, coset_index(mu, okp.one(), n), n)
    guar = min(g_fine, g_coarse) - h.shift
    q = p ** guar
    ok = all((x - y) % q == 0 for x, y in zip(lhs.coords, rhs.coords))
    return ok, guar


def riemann_moment(mu, k, n):
    h = mu.amice
    m, guar = _pushforward(h, n)
    acc = h.spec.zero()
    for _, a, x in _cosets(mu, n):
        v, _ = _mass(h, m, guar, a, n)
        acc = acc + v * x ** k
    return acc, guar - h.shift


def twist_eval(mu, chi, k):
    """At level >= 1; level 0 is the moment in both routes."""
    n = chi.level
    h = qddq_power(mu.amice, k)
    m, guar = _pushforward(h, n)
    vspec = chi.value_spec
    acc = None
    for delta, a, _ in _cosets(mu, n):
        cv = chi.value(delta)
        if cv.is_zero():
            continue
        mass, _ = _mass(h, m, guar, a, n)
        term = cv * embed(mass, vspec)
        acc = term if acc is None else acc + term
    return acc
