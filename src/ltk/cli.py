"""The `ltk` command line: every pipeline behind one subcommand tree.

All numeric output is exact residue data (coordinate vectors, valuations),
never decimal p-adics; complex values from the elliptic side are emitted as
[re, im] pairs with truncation metadata.  Every result carries a provenance
block {inputs_hash, caps, achieved_precision} and runs are deterministic
under a fixed --seed.

Exit codes: 0 success, 1 usage/validation errors, 2 precision exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field

from .rings import (DomainError, PrecisionExhausted, RingElem, _require_ints,
                    json_fields, make_ring, valuation)
from .series import TruncSeries
from .lubin_tate import build_group, build_tower
from . import measures as MS
from . import coleman as CO
from .lambda_modules import LambdaPresentation, char_ideal
from . import elliptic as EL

__all__ = ["main", "run", "JobConfig"]


@dataclass
class JobConfig:
    subcommand: str
    p: int = 3
    prec: int = 8
    deg: int = 32
    ring: str = "zp"
    pi_sq: int = 0
    seed: int = 0
    out: str = ""
    variant: str = "auto"
    verbose: int = 0
    inputs: dict = field(default_factory=dict)   # parsed arguments, hashed
    extra: dict = field(default_factory=dict)

    def validate(self):
        if self.p < 2:
            raise DomainError("p must be a prime >= 2")
        if self.prec < 1 or self.deg < 2:
            raise DomainError("insufficient precision or degree cap")
        if self.ring not in ("zp", "ram", "unram"):
            raise DomainError("ring must be zp, ram or unram")

    def base_spec(self):
        if self.ring == "zp":
            return make_ring(self.p, self.prec, "zp")
        if self.ring == "ram":
            c = -self.pi_sq if self.pi_sq else self.p
            return make_ring(self.p, self.prec, "ramified_quad", quad=(0, c))
        return make_ring(self.p, self.prec, "unramified_quad",
                         quad=_unram_poly(self.p))


def _unram_poly(p):
    """(1, c) for the least c >= 1 with x^2 + x + c irreducible mod p.

    c = 1 serves p = 2.  For odd p the discriminant 1 - 4c runs over every
    residue as c runs over Z/p, so a non-square always turns up.
    """
    return next((1, c) for c in range(1, p + 1)
                if all((x * x + x + c) % p for x in range(p)))


def _inputs_hash(cfg):
    """SHA-256 prefix over the parsed arguments, the effective degree cap and
    the contents of input files; output routing (--out, -v) is left out."""
    inputs = {k: v for k, v in cfg.inputs.items() if k not in ("out", "verbose")}
    inputs["cap"] = cfg.deg
    for key in ("series", "matrix", "system"):
        if inputs.get(key):
            with open(inputs[key], "rb") as fh:
                inputs[key] = hashlib.sha256(fh.read()).hexdigest()
    text = json.dumps(inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _provenance(cfg):
    return {
        "inputs_hash": _inputs_hash(cfg),
        "caps": {"degree": cfg.deg, "precision": cfg.prec},
        "achieved_precision": cfg.extra.get("achieved", cfg.prec),
    }


def _elem_json(x):
    return {"coords": list(x.coords), "valuation": _val_str(x)}


def _val_str(x):
    try:
        v = valuation(x)
    except PrecisionExhausted:
        return "unresolved"
    return "inf" if v == float("inf") else str(v)


def _emit(cfg, payload):
    payload["provenance"] = _provenance(cfg)
    text = json.dumps(payload, indent=2, default=str)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- subcommands ------------------------------------------------------------------


def _group_of(cfg, cap=None):
    spec = cfg.base_spec()
    cap = cap or cfg.deg
    variant = cfg.variant
    if variant == "auto":
        variant = "multiplicative" if cfg.ring == "zp" else "standard"
    if cfg.ring == "zp":
        return build_group(spec, spec.from_int(cfg.p), cfg.p, cap,
                           variant=variant)
    if cfg.ring == "ram":
        return build_group(spec, spec.gen_quad(), cfg.p, cap, variant=variant)
    return build_group(spec, spec.from_int(cfg.p), cfg.p ** 2, cap,
                       variant=variant)


def cmd_group(cfg, args):
    G = _group_of(cfg)
    log = G.log_series(min(16, G.cap))
    return _emit(cfg, {
        "f": G.f.truncate(min(G.cap, cfg.deg)).to_json(),
        "q": G.q,
        "log_series": log.to_json(),
        "log_derivative_unit": G.log_derivative_is_unit(min(16, G.cap)),
    })


def cmd_omega(cfg, args):
    G = _group_of(cfg)
    n = args.n
    om = G.omega_polys(2 * n)
    target = None
    if cfg.ring == "ram":
        target = G.endomorphism(G.spec.from_int(cfg.p ** n), G.cap)
    unit, ok = G.omega_factorization_check(n, target=target)
    cfg.extra["achieved"] = min(cfg.prec, unit.n_eff)
    return _emit(cfg, {
        "n": n,
        "pibar": {str(m): [list(c.coords) for c in pb]
                  for m, pb in om["pibar"].items()},
        "omega_plus": om["omega_plus"].to_json(),
        "omega_tilde_minus": om["omega_tilde_minus"].to_json(),
        "factorization_ok": ok,
    })


def cmd_norm_op(cfg, args):
    G = _group_of(cfg)
    rng = random.Random(cfg.seed)
    spec = G.spec
    if args.series:
        g = TruncSeries.from_json(json.load(open(args.series)))
    else:
        g = TruncSeries(spec, G.cap, [spec.one()] + [
            spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
            for _ in range(min(10, G.cap - 1))])
    ng = G.coleman_norm(g)
    digits = min(spec.N - 1, g.n_eff - 1)
    law = ng.compose(G.f.truncate(g.cap)).eq_mod(G.translates_product(g), digits)
    cfg.extra["achieved"] = digits
    return _emit(cfg, {"norm": ng.to_json(), "product_law_ok": law})


def cmd_tower(cfg, args):
    G = _group_of(cfg)
    tw = build_tower(G, args.levels)
    payload = {"levels": args.levels}
    for m in range(1, args.levels + 1):
        E = tw.rings[m]
        nm = tw.norm(m, tw.alphas[m])
        payload[f"level_{m}"] = {
            "degree": E.deg,
            "norm_of_alpha": _elem_json(nm) if isinstance(nm, RingElem)
            else [list(c.coords) for c in nm],
        }
    return _emit(cfg, payload)


def cmd_coleman(cfg, args):
    G = _group_of(cfg)
    tw = build_tower(G, args.levels)
    if args.system:
        sys_ = _read_system(tw, args.system)
    else:
        rng = random.Random(cfg.seed)
        spec = G.spec
        g0 = TruncSeries(spec, G.cap, [spec.one()] + [
            spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
            for _ in range(6)])
        if args.action == "mu0":
            # the measure pipeline wants a genuine Coleman system
            g0, _ = CO.norm_fixed_point(G, g0, target=spec.N - 2)
        sys_ = CO.system_from_series(tw, g0)
    if args.action == "interpolate":
        g, info = CO.interpolate(sys_)
        cfg.extra["achieved"] = info["n_eff"]
        return _emit(cfg, {"series": g.to_json(), "info": info,
                           "norm_compatible": sys_.norm_compatible()})
    mu, g, rep = CO.mu_zero(G, sys_)
    cfg.extra["achieved"] = rep["n_eff"]
    return _emit(cfg, {
        "amice": mu.amice.to_json(),
        "report": {k: (v if not isinstance(v, RingElem) else _elem_json(v))
                   for k, v in rep.items()},
    })


def _read_system(tw, path):
    """The CompatibleSystem of a JSON file {"values": {"m": flat coords}}."""
    values, = json_fields(json.load(open(path)), "values")
    if not isinstance(values, dict):
        raise DomainError("system values must be an object keyed by level")
    vals = {}
    for m, v in values.items():
        E = tw.rings.get(int(m)) if m.isdecimal() else None
        if E is None or not isinstance(v, list):
            raise DomainError(f"system level {m!r} is no tower level or has no list")
        _require_ints(value=tuple(v))
        vals[int(m)] = E.from_flat([x % E.base.modulus for x in v])
    return CO.CompatibleSystem(tw, vals)


def cmd_measure(cfg, args):
    spec = cfg.base_spec() if cfg.ring == "zp" else make_ring(cfg.p, cfg.prec, "zp")
    okp = None
    if cfg.ring != "zp":
        okp = cfg.base_spec()
    cap = cfg.deg
    if args.dirac is not None:
        if okp is not None:
            a0, a1 = (int(t) for t in args.dirac.split(",")) \
                if "," in args.dirac else (int(args.dirac), 0)
            elem = okp.elem((a0, a1))
            mu = MS.dirac(elem, "okp", spec, cap, okp=okp)
        else:
            mu = MS.dirac(int(args.dirac), "zp", spec, cap)
    elif args.series:
        mu = MS.Measure.from_json(json.load(open(args.series)))
    else:
        raise DomainError("need --dirac or --series")
    if args.action == "moment":
        v = MS.moment(mu, args.k)
        cfg.extra["achieved"] = MS.moment_guarantee(mu, args.k)
        return _emit(cfg, {"k": args.k, "moment": _elem_json(v)})
    if args.action == "coset":
        if mu.group.startswith("okp"):
            d0, d1 = (int(t) for t in args.delta.split(",")) \
                if "," in args.delta else (int(args.delta), 0)
            delta = mu.okp.elem((d0, d1))
        else:
            delta = int(args.delta)
        v, g = MS.coset_mass(mu, delta, args.level)
        cfg.extra["achieved"] = g
        return _emit(cfg, {"delta": args.delta, "level": args.level,
                           "mass": _elem_json(v), "mass_n_eff": g})
    if args.action == "tilde":
        t = MS.tilde_series(mu.amice)
        cfg.extra["achieved"] = t.n_eff - t.shift
        return _emit(cfg, {"tilde": t.to_json()})
    raise DomainError("unknown measure action")


def cmd_char(cfg, args):
    data = json.load(open(args.matrix))
    pres = LambdaPresentation.from_json(data)
    wd = char_ideal(pres)
    cfg.extra["achieved"] = wd.n_eff
    return _emit(cfg, {
        "mu": wd.mu,
        "lambda": wd.lam,
        "distinguished": [list(c.coords) for c in wd.dist],
    })


def cmd_elliptic(cfg, args):
    parts = args.lattice
    if len(parts) == 1 and "," in parts[0]:
        parts = parts[0].split(",")
    if len(parts) != 2:
        raise DomainError("--lattice needs two periods (w1 w2 or w1,w2)")
    w1, w2 = complex(parts[0]), complex(parts[1])
    z = complex(args.z)
    try:
        L = EL.Lattice(w1, w2)
        if args.action == "theta":
            v = L.theta_robert(z)
            payload = {"theta": [v.real, v.imag]}
        else:
            asub = complex(args.sub)
            if asub == 0:
                raise DomainError("--sub must be nonzero")
            Lsub = EL.scale_lattice(L, 1 / asub)
            # psi(z; L, a^{-1} L)
            v = EL.psi_robert(z, L, Lsub)
            d, rep = EL.delta_canonical(L, Lsub)
            payload = {"psi": [v.real, v.imag],
                       "delta_branch": rep["branch"],
                       "mu12_ambiguity": rep["mu12_ambiguity"]}
    except OverflowError as exc:
        raise PrecisionExhausted(
            f"elliptic values overflow double precision: {exc}") from exc
    payload["truncation"] = {"q_terms": EL._Q_TERMS,
                             "legendre_defect": L.legendre_defect}
    return _emit(cfg, payload)


# -- argument parsing ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are raised, so run reports them as JSON."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="ltk",
        description="exact-arithmetic toolkit for height-2 local Iwasawa theory")
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--prec", type=int, default=8, help="coefficients mod p^prec")
    ap.add_argument("--deg", type=int, default=32, help="series degree cap")
    ap.add_argument("--ring", choices=["zp", "ram", "unram"], default="zp")
    ap.add_argument("--pi-sq", type=int, default=0,
                    help="Eisenstein constant: pi^2 = pi_sq (ramified ring)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--variant", choices=["auto", "standard", "multiplicative"],
                    default="auto", help="Frobenius series shape")
    ap.add_argument("-v", "--verbose", action="count", default=0)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("group")

    p_om = sub.add_parser("omega")
    p_om.add_argument("--n", type=int, default=1)

    p_no = sub.add_parser("norm-op")
    p_no.add_argument("--series", default="")

    p_tw = sub.add_parser("tower")
    p_tw.add_argument("--levels", type=int, default=2)

    p_co = sub.add_parser("coleman")
    p_co.add_argument("action", choices=["interpolate", "mu0"])
    p_co.add_argument("--system", default="")
    p_co.add_argument("--levels", type=int, default=2)

    p_me = sub.add_parser("measure")
    p_me.add_argument("action", choices=["coset", "moment", "tilde"])
    p_me.add_argument("--dirac", default=None)
    p_me.add_argument("--series", default="")
    p_me.add_argument("--delta", default="1")
    p_me.add_argument("--level", type=int, default=1)
    p_me.add_argument("--k", type=int, default=1)

    p_ch = sub.add_parser("char")
    p_ch.add_argument("--matrix", required=True)

    p_el = sub.add_parser("elliptic")
    p_el.add_argument("action", choices=["theta", "psi"])
    p_el.add_argument("--lattice", nargs="+", default=["1j", "1"],
                      help="w1 w2 or w1,w2")
    p_el.add_argument("--z", default="0.3+0.2j")
    p_el.add_argument("--sub", default="2+1j")
    return ap


COMMANDS = {
    "group": cmd_group,
    "omega": cmd_omega,
    "norm-op": cmd_norm_op,
    "tower": cmd_tower,
    "coleman": cmd_coleman,
    "measure": cmd_measure,
    "char": cmd_char,
    "elliptic": cmd_elliptic,
}


def run(argv):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return 1 if exc.code else 0
        cfg = JobConfig(
            subcommand=args.subcommand, p=args.p, prec=args.prec, deg=args.deg,
            ring=args.ring, pi_sq=args.pi_sq, seed=args.seed, out=args.out,
            variant=args.variant, verbose=args.verbose, inputs=vars(args))
        # the override is one more source of the degree cap, validated with it
        override = os.environ.get("LTK_CAP_OVERRIDE")
        if override:
            cfg.deg = int(override)
        if cfg.verbose:
            print(f"# ltk {args.subcommand} p={cfg.p} prec={cfg.prec} "
                  f"deg={cfg.deg} ring={cfg.ring}", file=sys.stderr)
        cfg.validate()
        return COMMANDS[args.subcommand](cfg, args)
    except PrecisionExhausted as exc:
        print(json.dumps({"error": "precision-exhausted", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except (DomainError, EL.EllipticDomainError, ValueError, OSError) as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
