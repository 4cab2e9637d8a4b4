"""The four benchmark workloads.

Each workload has a set-up, which builds what every op shares, and an op,
which draws fresh random inputs from the run's generator, calls ltk's
public API and checks each result against an independent route (the
paper's second construction, or a closed form of the planted input).  An op
returns the smallest number of p-adic digits at which an exact result agreed
with its oracle, capped at the precision ltk claims for it, or None when the
op checks no digits.  A disagreement raises Mismatch.
"""

import contextlib
import io
import json
import random

from ltk import cli
from ltk import coleman as CO
from ltk import elliptic as EL
from ltk import measures as MS
from ltk.lambda_modules import LambdaPresentation, additivity_check
from ltk.lubin_tate import build_group, build_tower
from ltk.rings import PrecisionExhausted, make_ring
from ltk.series import TruncSeries, mu_lambda_by_roots, weierstrass_prep


class Mismatch(Exception):
    """A result disagreed with its oracle, or an expected error did not occur."""


def require(cond, what):
    if not cond:
        raise Mismatch(what)


def expect_error(exc_type, what, fn, *args):
    try:
        fn(*args)
    except exc_type:
        return
    raise Mismatch(f"{what}: expected {exc_type.__name__}, none raised")


def agreement(pairs, p, claim):
    """Smallest p-adic valuation of x - y over integer pairs, capped at claim."""
    level = claim
    q = p ** claim
    for x, y in pairs:
        d = (x - y) % q
        if d:
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            level = min(level, v)
    return level


def series_pairs(a, b):
    return ((x, y) for ca, cb in zip(a.coeffs, b.coeffs) for x, y in zip(ca, cb))


def random_elem(spec, rng):
    return spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])


def random_unit_series(spec, cap, rng, terms=None):
    coeffs = [random_elem(spec, rng) for _ in range(min(terms or cap, cap))]
    while not coeffs[0].is_unit():
        coeffs[0] = random_elem(spec, rng)
    return TruncSeries(spec, cap, coeffs)


# -- lt_coleman --------------------------------------------------------------------


class LtColeman:
    """Criteria 2 and 3 at p=3, pi^2=-3, N=7, cap 24: norm law by both
    routes, fixed point, tower values, interpolation round trip."""

    name = "lt_coleman"
    params = {"p": 3, "ring": "ramified_quad", "quad": [0, 3], "N": 7,
              "cap": 24, "tower_levels": 2, "series_terms": 24,
              "law_digits": 5, "roundtrip_digits": 5}

    def setup(self, seed, workdir):
        spec = make_ring(3, 7, "ramified_quad", quad=(0, 3))
        G = build_group(spec, spec.gen_quad(), 3, 24)
        tw = build_tower(G, 2)
        G.torsion_points()  # warms the endomorphism and pibar caches
        return {"spec": spec, "G": G, "tw": tw, "f": G.f.truncate(24)}

    def op(self, st, i, rng, tr):
        G, tw = st["G"], st["tw"]
        g = random_unit_series(st["spec"], 24, rng)
        with tr.span("lubin_tate.coleman_norm"):
            ng = G.coleman_norm(g)
        with tr.span("series.compose"):
            lhs = ng.compose(st["f"])
        with tr.span("lubin_tate.translates_product"):
            rhs = G.translates_product(g)
        d_law = agreement(series_pairs(lhs, rhs), 3, min(lhs.n_eff, rhs.n_eff))
        require(d_law >= 5, f"(N_f g) o f vs translates agree to p^{d_law}")
        with tr.span("coleman.norm_fixed_point"):
            gf, info = CO.norm_fixed_point(G, g)
        tr.count("coleman.norm_fixed_point.iterations", info["iterations"])
        with tr.span("coleman.system_from_series"):
            system = CO.system_from_series(tw, gf)
        require(system.norm_compatible(),
                "fixed point's tower values are not norm-compatible")
        with tr.span("coleman.interpolate"):
            g_rec, info = CO.interpolate(system)
        n = info["n_eff"]
        with tr.span("coleman.reduce_mod_system_ideal"):
            r1 = CO.reduce_mod_system_ideal(gf, tw, n)
        with tr.span("coleman.reduce_mod_system_ideal"):
            r2 = CO.reduce_mod_system_ideal(g_rec, tw, n)
        d_rt = agreement(series_pairs(r1, r2), 3, n)
        require(d_rt >= 5, f"interpolation round trip agrees to p^{d_rt}")
        return min(d_law, d_rt)


# -- okp_moments ---------------------------------------------------------------------


class OkpMoments:
    """Criterion 6 at p=3, pi^2=-3, N=13, cap 64: moments of a 3-Dirac
    O_Kp measure by Riemann sums at levels 1 and 2, a partition check, and
    a 1/p-scaled negative control that must be rejected.

    The amice series of the Dirac at a is (1+T)^sigma(a), which is the Dirac
    at the integer s = sigma(a) in O_K; so mu = sum w_i delta_{s_i} has k-th
    moment sum w_i s_i^k, and its level-n Riemann sum is sum w_i (s_i mod
    p^n)^k, the coset of s_i being represented by (s_i mod p^n, 0).
    """

    name = "okp_moments"
    params = {"p": 3, "ring": "ramified_quad", "quad": [0, 3], "N": 13,
              "cap": 64, "diracs": 3, "dirac_coord_range": 81,
              "weight_range": [1, 26], "k_cycle": [0, 1, 2, 3, 4],
              "riemann_levels": [1, 2], "partition_level": 1}

    def setup(self, seed, workdir):
        return {"z": make_ring(3, 13, "zp"),
                "okp": make_ring(3, 13, "ramified_quad", quad=(0, 3))}

    def op(self, st, i, rng, tr):
        z, okp = st["z"], st["okp"]
        p, N, cap = 3, 13, 64
        amice = TruncSeries.zero(z, cap)
        planted, diracs = [], []
        for _ in range(3):
            while True:
                a = okp.elem((rng.randrange(p ** 4), rng.randrange(p ** 4)))
                if a.is_unit() and (a.coords[0] + a.coords[1]) % p:
                    break
            w = rng.randrange(1, p ** 3)
            with tr.span("measures.dirac"):
                d = MS.dirac(a, "okp", z, cap, okp=okp)
            amice = amice + d.amice.scale(w)
            planted.append((w, MS.sigma_map(a)))
            diracs.append(d)
        mu = MS.Measure(amice, "okp", okp)
        k = i % 5
        with tr.span("measures.moment"):
            mm = MS.moment(mu, k)
        exact = sum(w * s ** k for w, s in planted)
        digits = agreement([(mm.coords[0], exact)], p, N)
        require(digits == N, f"moment k={k} agrees with the planted sum to p^{digits}")
        for n in (1, 2):
            with tr.span(f"measures.riemann_moment.n{n}"):
                rm, guar = MS.riemann_moment(mu, k, n)
            closed = sum(w * (s % p ** n) ** k for w, s in planted)
            d = agreement([(rm.coords[0], closed)], p, guar)
            require(d == guar, f"level-{n} Riemann sum agrees with the planted "
                    f"sum to p^{d} of p^{guar}")
            digits = min(digits, d)
            # the paper's consistency: level-n Riemann sums approximate the
            # moment to n - 1 digits
            approx = agreement([(rm.coords[0], mm.coords[0])], p, min(guar, N - 1))
            require(approx >= n - 1, f"level-{n} Riemann sum vs moment agree "
                    f"to p^{approx}")
        # partition_check above level 1 needs more precision than N=13 gives
        # at p=3 (it raises PrecisionExhausted), so only level 1 is attempted
        with tr.span("measures.partition_check"):
            ok, guar = MS.partition_check(mu, 1)
        require(ok, "partition law fails at level 1")
        digits = min(digits, guar)
        # criterion 5's negative control: the first Dirac scaled by 1/p has
        # mass 1/p on the coset of (s, 0), which no integral measure has
        s = planted[0][1]
        bad = MS.Measure(TruncSeries(z, cap, list(diracs[0].amice.coeffs), N, 1),
                         "okp", okp)
        delta = okp.elem((s + p * rng.randrange(p ** 3), p * rng.randrange(p ** 3)))
        with tr.span("measures.coset_mass.negative_control"):
            expect_error(PrecisionExhausted, "1/p-scaled coset mass",
                         MS.coset_mass, bad, delta, 1)
        return digits


# -- iwasawa_invariants ------------------------------------------------------------------


def _oracle_level(p, lam):
    """Smallest n with phi(p^n) > lambda (Newton slopes are >= 1/lambda)."""
    n = 1
    while p ** (n - 1) * (p - 1) <= lam:
        n += 1
    return n


def random_poly(z, rng):
    return TruncSeries(z, 16, [rng.randrange(z.modulus) for _ in range(4)])


def planted_presentation(z, size, rng):
    """Criterion 8's torsion presentation over z = Z/3^N at cap 16:
    upper-triangular with distinguished diagonal, scrambled by row
    operations.  Returns it with its planted (mu, lambda), which are those
    of the diagonal's product, the determinant."""
    M = [[TruncSeries(z, 16, []) for _ in range(size)] for _ in range(size)]
    mu_tot = lam_tot = 0
    for r in range(size):
        lam, mu = rng.randrange(3), rng.randrange(2)
        dist = [z.from_int(rng.randrange(3 ** 7) * 3) for _ in range(lam)]
        M[r][r] = TruncSeries(z, 16, dist + [z.one()]).scale(3 ** mu)
        for c in range(r + 1, size):
            M[r][c] = random_poly(z, rng)
        mu_tot += mu
        lam_tot += lam
    if size >= 2:
        for _ in range(3):
            r, c = rng.sample(range(size), 2)
            s = random_poly(z, rng)
            M[r] = [M[r][j] + s * M[c][j] for j in range(size)]
    return LambdaPresentation(z, M), (mu_tot, lam_tot)


class IwasawaInvariants:
    """Criteria 7 and 8: Weierstrass preparation against root-of-unity
    products on planted series for p in {2, 3, 5}, then one additivity check
    of characteristic ideals on a block-triangular sequence over Z_3.

    The planted (mu, lambda) cycle through every admissible pair, so every
    run has the same mix of shapes; the coefficients are random.
    """

    name = "iwasawa_invariants"
    PRIMES = {2: (14, 5), 3: (12, 5), 5: (9, 4)}  # p: (N, lambda bound)
    params = {"primes": {str(p): {"N": N, "lambda_range": [0, lb - 1],
                                  "mu_range": [0, 1]}
                         for p, (N, lb) in PRIMES.items()},
              "cap_rule": "max(16, phi_n * (mu * phi_n + lambda + 2))",
              "unit_terms": 6,
              "additivity": {"p": 3, "N": 8, "cap": 16, "sub": 2, "quot": 1}}

    def setup(self, seed, workdir):
        return {
            "specs": {p: make_ring(p, N, "zp") for p, (N, _) in self.PRIMES.items()},
            "shapes": {p: [(mu, lam) for mu in (0, 1) for lam in range(lb)]
                       for p, (_, lb) in self.PRIMES.items()},
            "z3": make_ring(3, 8, "zp"),
        }

    def op(self, st, i, rng, tr):
        digits = None
        for p, spec in st["specs"].items():
            shapes = st["shapes"][p]
            mu, lam = shapes[i % len(shapes)]
            n_star = _oracle_level(p, lam)
            phi_n = p ** (n_star - 1) * (p - 1)
            cap = max(16, phi_n * (mu * phi_n + lam + 2))
            dist = [spec.from_int(rng.randrange(p ** (spec.N - 1)) * p)
                    for _ in range(lam)] + [spec.one()]
            unit = random_unit_series(spec, cap, rng, terms=6)
            f = (TruncSeries(spec, cap, dist) * unit).scale(p ** mu)
            with tr.span("series.weierstrass_prep"):
                wd = weierstrass_prep(f)
            require((wd.mu, wd.lam) == (mu, lam),
                    f"p={p}: prep found (mu, lambda) = {(wd.mu, wd.lam)}, "
                    f"planted {(mu, lam)}")
            d = agreement(((x.coords[0], y.coords[0]) for x, y in zip(wd.dist, dist)),
                          p, wd.n_eff)
            digits = d if digits is None else min(digits, d)
            with tr.span("series.mu_lambda_by_roots"):
                (_, v), = mu_lambda_by_roots(f, [n_star])
            require(v == mu * phi_n + lam,
                    f"p={p}: root-product valuation {v}, expected "
                    f"{mu * phi_n + lam}")
        sub, sub_inv = planted_presentation(st["z3"], 2, rng)
        quot, quot_inv = planted_presentation(st["z3"], 1, rng)
        off = [[random_poly(st["z3"], rng)] for _ in range(2)]
        with tr.span("lambda_modules.additivity_check"):
            ok, data = additivity_check(sub, quot, off)
        require(ok, "char(middle) != char(sub) * char(quot)")
        middle = (sub_inv[0] + quot_inv[0], sub_inv[1] + quot_inv[1])
        require((data["sub"], data["quot"], data["middle"])
                == (sub_inv, quot_inv, middle),
                f"char invariants {data}, planted sub {sub_inv} quot {quot_inv}")
        return digits


# -- cli_readme ------------------------------------------------------------------------


def run_cli(argv):
    """ltk.cli.run in-process with stdout captured; (exit code, parsed JSON)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise Mismatch(f"ltk {' '.join(argv)} exited {code}: {err.getvalue()[:200]}")
    return json.loads(out.getvalue())


class CliReadme:
    """One README session per op through ltk.cli.run, plus norm-op and
    measure tilde.  Every command builds its own cold group.  The one cache
    that persists in-process is elliptic._delta_cache, warm after the first
    session here while a real CLI user pays for it in every process.

    `coleman mu0` is left out: it exits 2 by design (criterion 9).
    """

    name = "cli_readme"
    RAM3 = ["--p", "3", "--ring", "ram", "--pi-sq", "-3"]
    params = {"commands": ["omega", "norm-op", "coleman interpolate",
                           "measure moment", "measure coset", "measure tilde",
                           "char", "elliptic psi"],
              "fixtures": {"char_matrices": 4, "coleman_systems": 1},
              "moment": {"p": 3, "prec": 8, "k_range": [0, 5]},
              "coset": {"p": 3, "prec": 12, "deg": 64, "level": 1},
              "tilde": {"p": 3, "prec": 10, "deg": 36, "window": 24, "digits": 6},
              "elliptic": {"lattice": ["1j", "1"], "sub": "2+1j",
                           "z_box": [[0.2, 0.4], [0.1, 0.3]], "rel_tol": 1e-8}}

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        matrices = []
        z = make_ring(3, 8, "zp")
        for j in range(4):
            pres, inv = planted_presentation(z, 2, rng)
            path = workdir / f"char{j}.json"
            path.write_text(json.dumps(pres.to_json()))
            matrices.append((str(path), inv))
        # a genuine Coleman system: tower values of a norm-operator fixed point
        spec = make_ring(3, 7, "ramified_quad", quad=(0, 3))
        G = build_group(spec, spec.gen_quad(), 3, 24)
        tw = build_tower(G, 2)
        gf, _ = CO.norm_fixed_point(G, random_unit_series(spec, 24, rng, terms=7))
        system = CO.system_from_series(tw, gf)
        sys_path = workdir / "system.json"
        sys_path.write_text(json.dumps(system.to_json()))
        return {"matrices": matrices, "system": system, "system_path": str(sys_path),
                "tw": tw}

    def op(self, st, i, rng, tr):
        p = 3
        # omega: the [p^n]-factorization check is the CLI's own second route
        with tr.span("cli.omega"):
            out = run_cli(["--p", "2", "--ring", "ram", "--pi-sq", "-2", "--prec",
                           "6", "--deg", "24", "omega", "--n", "2"])
        require(out["factorization_ok"] is True, "omega factorization_ok is false")

        with tr.span("cli.norm_op"):
            out = run_cli(self.RAM3 + ["--prec", "7", "--deg", "24", "--seed",
                                       str(rng.randrange(2 ** 31)), "norm-op"])
        require(out["product_law_ok"] is True, "norm-op product_law_ok is false")

        with tr.span("cli.coleman_interpolate"):
            out = run_cli(self.RAM3 + ["--prec", "7", "--deg", "24", "coleman",
                                       "interpolate", "--system", st["system_path"]])
        require(out["norm_compatible"] is True, "fixture system not norm-compatible")
        self._check_interpolation(st, out)

        a, k = rng.randrange(1, p ** 8), rng.randrange(6)
        with tr.span("cli.measure_moment"):
            out = run_cli(["--p", "3", "--prec", "8", "--deg", "24", "measure",
                           "moment", "--dirac", str(a), "--k", str(k)])
        # digits are capped at the requested --prec, not at the reported
        # achieved_precision
        digits = agreement([(out["moment"]["coords"][0], a ** k)], p, 8)
        require(digits == 8, f"Dirac moment {a}^{k} agrees to p^{digits}")

        self._coset(rng, tr)
        self._tilde(rng, tr)

        path, (mu, lam) = st["matrices"][i % len(st["matrices"])]
        with tr.span("cli.char"):
            out = run_cli(["char", "--matrix", path])
        require((out["mu"], out["lambda"]) == (mu, lam),
                f"char gave (mu, lambda) = {(out['mu'], out['lambda'])}, "
                f"planted {(mu, lam)}")

        self._psi(rng, tr)
        return digits

    def _check_interpolation(self, st, out):
        g = TruncSeries.from_json(out["series"])
        n = out["info"]["n_eff"]
        got = CO.system_from_series(st["tw"], g)
        for m, want in st["system"].values.items():
            d = agreement(((x, y) for a, b in zip(got.values[m], want)
                           for x, y in zip(a.coords, b.coords)), 3, n)
            require(d == n, f"interpolated series misses beta_{m}: p^{d} of p^{n}")

    def _coset(self, rng, tr):
        """Dirac coset mass against the sigma-indicator: at level 1 the mass
        of delta*U_1 is 1 iff delta = (sigma(a), 0) mod p."""
        p = 3
        while True:
            a0, a1 = rng.randrange(p ** 12), rng.randrange(p ** 12)
            s = (a0 + a1) % p ** 12
            if s % p:
                break
        if rng.randrange(2):
            d0, d1 = s % p + p * rng.randrange(p ** 3), p * rng.randrange(p ** 3)
        else:
            d0, d1 = rng.randrange(1, p) + p * rng.randrange(p ** 3), rng.randrange(p ** 4)
        expect = 1 if (d0 - s) % p == 0 and d1 % p == 0 else 0
        with tr.span("cli.measure_coset"):
            out = run_cli(self.RAM3 + ["--prec", "12", "--deg", "64", "measure",
                                       "coset", "--dirac", f"{a0},{a1}", "--delta",
                                       f"{d0},{d1}", "--level", "1"])
        g = out["mass_n_eff"]
        mass = out["mass"]["coords"][0]
        require(g >= 1 and mass % p ** g == expect,
                f"coset mass {mass} mod p^{g}, sigma-indicator {expect}")

    def _tilde(self, rng, tr):
        """tilde fixes the Dirac at a unit and kills one at a multiple of p,
        below the truncation-tail window cap - (p-1) * digits (criterion 4)."""
        p, N, cap, nc = 3, 10, 36, 6
        a = rng.randrange(1, p ** N)
        with tr.span("cli.measure_tilde"):
            out = run_cli(["--p", "3", "--prec", str(N), "--deg", str(cap),
                           "measure", "tilde", "--dirac", str(a)])
        t = TruncSeries.from_json(out["tilde"])
        window = cap - (p - 1) * nc
        want = [0] * window
        if a % p:
            b = 1
            for j in range(window):
                want[j] = b
                b = b * (a - j) // (j + 1)
        got = [t.coeff(j).coords[0] for j in range(window)]
        claim = min(nc, t.n_eff)
        d = agreement(zip(got, want), p, claim)
        require(d == claim, f"tilde of the Dirac at {a} agrees to p^{d} of p^{claim}")

    def _psi(self, rng, tr):
        """psi(z)^12 = theta_L(z)^5 / theta_L'(z) for L' = (2+i)^-1 L: the
        wp-product route against the sigma/theta route."""
        z = complex(0.2 + 0.2 * rng.random(), 0.1 + 0.2 * rng.random())
        with tr.span("cli.elliptic_psi"):
            out = run_cli(["elliptic", "psi", "--lattice", "1j", "1", "--z",
                           repr(z).strip("()"), "--sub", "2+1j"])
        psi = complex(*out["psi"])
        L = EL.Lattice(1j, 1.0)
        Lsub = EL.scale_lattice(L, 1 / (2 + 1j))
        theta = L.theta_robert(z) ** 5 / Lsub.theta_robert(z)
        err = abs(psi ** 12 - theta) / abs(theta)
        require(err <= 1e-8, f"psi^12 vs theta quotient: relative error {err:.2e}")


WORKLOADS = {w.name: w for w in (LtColeman(), OkpMoments(), IwasawaInvariants(),
                                 CliReadme())}
