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

from .rings import (DomainError, PrecisionExhausted, RingElem, _require_ints,
                    json_fields, make_ring, valuation)
from .series import TruncSeries
from .lubin_tate import build_group, build_tower
from . import measures as MS
from . import coleman as CO
from .lambda_modules import LambdaPresentation, char_ideal
from . import elliptic as EL

__all__ = ["main", "run"]


def _validate(args):
    if args.p < 2:
        raise DomainError("p must be a prime >= 2")
    if args.prec < 1 or args.deg < 2:
        raise DomainError("insufficient precision or degree cap")


def _base_spec(args):
    if args.ring == "zp":
        return make_ring(args.p, args.prec, "zp")
    if args.ring == "ram":
        c = -args.pi_sq if args.pi_sq else args.p
        return make_ring(args.p, args.prec, "ramified_quad", quad=(0, c))
    return make_ring(args.p, args.prec, "unramified_quad",
                     quad=_unram_poly(args.p))


def _unram_poly(p):
    """(1, c) for the least c >= 1 with x^2 + x + c irreducible mod p.

    c = 1 serves p = 2.  For odd p the discriminant 1 - 4c runs over every
    residue as c runs over Z/p, so a non-square always turns up.
    """
    return next((1, c) for c in range(1, p + 1)
                if all((x * x + x + c) % p for x in range(p)))


def _inputs_hash(inputs, cap):
    """SHA-256 prefix over the parsed arguments (as given, before any cap
    override), the effective degree cap and the contents of input files;
    output routing (--out, -v) is left out."""
    inputs = {k: v for k, v in inputs.items() if k not in ("out", "verbose")}
    inputs["cap"] = cap
    for key in ("series", "matrix", "system"):
        if inputs.get(key):
            with open(inputs[key], "rb") as fh:
                inputs[key] = hashlib.sha256(fh.read()).hexdigest()
    text = json.dumps(inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _elem_json(x):
    return {"coords": list(x.coords), "valuation": _val_str(x)}


def _val_str(x):
    try:
        v = valuation(x)
    except PrecisionExhausted:
        return "unresolved"
    return "inf" if v == float("inf") else str(v)


# -- subcommands ------------------------------------------------------------------


def _group_of(args):
    spec = _base_spec(args)
    variant = args.variant
    if variant == "auto":
        variant = "multiplicative" if args.ring == "zp" else "standard"
    pi = spec.gen_quad() if args.ring == "ram" else spec.from_int(args.p)
    q = args.p ** 2 if args.ring == "unram" else args.p
    return build_group(spec, pi, q, args.deg, variant=variant)


def cmd_group(args):
    G = _group_of(args)
    log = G.log_series(min(16, G.cap))
    return {
        "f": G.f.truncate(min(G.cap, args.deg)).to_json(),
        "q": G.q,
        "log_series": log.to_json(),
        "log_derivative_unit": G.log_derivative_is_unit(min(16, G.cap)),
    }, None


def cmd_omega(args):
    G = _group_of(args)
    n = args.n
    om = G.omega_polys(2 * n)
    target = None
    if args.ring == "ram":
        target = G.endomorphism(G.spec.from_int(args.p ** n), G.cap)
    unit, ok = G.omega_factorization_check(n, target=target)
    return {
        "n": n,
        "pibar": {str(m): [list(c.coords) for c in pb]
                  for m, pb in om["pibar"].items()},
        "omega_plus": om["omega_plus"].to_json(),
        "omega_tilde_minus": om["omega_tilde_minus"].to_json(),
        "factorization_ok": ok,
    }, min(args.prec, unit.n_eff)


def cmd_norm_op(args):
    G = _group_of(args)
    rng = random.Random(args.seed)
    spec = G.spec
    if args.series:
        g = TruncSeries.from_json(_read_json(args.series))
    else:
        g = TruncSeries(spec, G.cap, [spec.one()] + [
            spec.elem([rng.randrange(spec.modulus) for _ in range(spec.rank)])
            for _ in range(min(10, G.cap - 1))])
    ng = G.coleman_norm(g)
    digits = min(spec.N - 1, g.n_eff - 1)
    law = ng.compose(G.f.truncate(g.cap)).eq_mod(G.translates_product(g), digits)
    return {"norm": ng.to_json(), "product_law_ok": law}, digits


def cmd_tower(args):
    G = _group_of(args)
    tw = build_tower(G, args.levels)
    payload = {"levels": args.levels}
    for m in range(1, args.levels + 1):
        nm = tw.norm(m, tw.alphas[m])
        payload[f"level_{m}"] = {
            "degree": tw.rings[m].deg,
            # in the base ring at m = 1, else in O'_{m-1}
            "norm_of_alpha": _elem_json(RingElem(G.spec, nm)) if m == 1
            else [list(c) for c in tw.rings[m - 1].coeffs(nm)],
        }
    return payload, None


def cmd_coleman(args):
    G = _group_of(args)
    tw = build_tower(G, args.levels)
    if args.system:
        sys_ = _read_system(tw, args.system)
    else:
        rng = random.Random(args.seed)
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
        return {"series": g.to_json(), "info": info,
                "norm_compatible": sys_.norm_compatible()}, info["n_eff"]
    mu, g, rep = CO.mu_zero(G, sys_)
    return {
        "amice": mu.amice.to_json(),
        "report": {k: (v if not isinstance(v, RingElem) else _elem_json(v))
                   for k, v in rep.items()},
    }, rep["n_eff"]


def _read_system(tw, path):
    """The CompatibleSystem of a JSON file {"values": {"m": flat coords}}."""
    values, = json_fields(_read_json(path), "values")
    if not isinstance(values, dict):
        raise DomainError("system values must be an object keyed by level")
    vals = {}
    for m, v in values.items():
        E = tw.rings.get(int(m)) if m.isdecimal() else None
        if E is None or not isinstance(v, list):
            raise DomainError(f"system level {m!r} is no tower level or has no list")
        _require_ints(value=tuple(v))
        vals[int(m)] = E.elem(v)
    return CO.CompatibleSystem(tw, vals)


def cmd_measure(args):
    spec = make_ring(args.p, args.prec, "zp")
    okp = _base_spec(args) if args.ring != "zp" else None
    if args.dirac is not None:
        if okp is not None:
            a0, a1 = (int(t) for t in args.dirac.split(",")) \
                if "," in args.dirac else (int(args.dirac), 0)
            elem = okp.elem((a0, a1))
            mu = MS.dirac(elem, "okp", spec, args.deg, okp=okp)
        else:
            mu = MS.dirac(int(args.dirac), "zp", spec, args.deg)
    elif args.series:
        mu = MS.Measure.from_json(_read_json(args.series))
    else:
        raise DomainError("need --dirac or --series")
    if args.action == "moment":
        v = MS.moment(mu, args.k)
        return ({"k": args.k, "moment": _elem_json(v)},
                MS.moment_guarantee(mu, args.k))
    if args.action == "coset":
        if mu.group.startswith("okp"):
            d0, d1 = (int(t) for t in args.delta.split(",")) \
                if "," in args.delta else (int(args.delta), 0)
            delta = mu.okp.elem((d0, d1))
        else:
            delta = int(args.delta)
        v, g = MS.coset_mass(mu, delta, args.level)
        return {"delta": args.delta, "level": args.level,
                "mass": _elem_json(v), "mass_n_eff": g}, g
    if args.action == "tilde":
        t = MS.tilde_series(mu.amice)
        return {"tilde": t.to_json()}, t.n_eff - t.shift
    raise DomainError("unknown measure action")


def cmd_char(args):
    pres = LambdaPresentation.from_json(_read_json(args.matrix))
    wd = char_ideal(pres)
    return {
        "mu": wd.mu,
        "lambda": wd.lam,
        "distinguished": [list(c.coords) for c in wd.dist],
    }, wd.n_eff


def cmd_elliptic(args):
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
    return payload, None


# -- argument parsing ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are raised, so run reports them as JSON."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _opt(*flags, **kwargs):
    return flags, kwargs


# subcommand -> (handler, its arguments); run builds the parser of one of them
SUBCOMMANDS = {
    "group": (cmd_group, []),
    "omega": (cmd_omega, [_opt("--n", type=int, default=1)]),
    "norm-op": (cmd_norm_op, [_opt("--series", default="")]),
    "tower": (cmd_tower, [_opt("--levels", type=int, default=2)]),
    "coleman": (cmd_coleman, [
        _opt("action", choices=["interpolate", "mu0"]),
        _opt("--system", default=""),
        _opt("--levels", type=int, default=2)]),
    "measure": (cmd_measure, [
        _opt("action", choices=["coset", "moment", "tilde"]),
        _opt("--dirac", default=None),
        _opt("--series", default=""),
        _opt("--delta", default="1"),
        _opt("--level", type=int, default=1),
        _opt("--k", type=int, default=1)]),
    "char": (cmd_char, [_opt("--matrix", required=True)]),
    "elliptic": (cmd_elliptic, [
        _opt("action", choices=["theta", "psi"]),
        _opt("--lattice", nargs="+", default=["1j", "1"], help="w1 w2 or w1,w2"),
        _opt("--z", default="0.3+0.2j"),
        _opt("--sub", default="2+1j")]),
}


def _parse(argv):
    """(namespace, handler) of one command line, building only the chosen
    subcommand's parser.

    The first parser reads the global options and gives the subcommand name
    and everything after it to one positional of nargs PARSER, the nargs of
    argparse's own subparsers action; the second reads the rest into the same
    namespace.  Arguments that neither knows are reported by the first, as
    argparse reports a subparser's.  So every command line gets the namespace,
    or the usage error, that one parser with eight subparsers gives it
    (tests/cli_oracle.py).
    """
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
    ap.add_argument("subcommand", nargs=argparse.PARSER, choices=SUBCOMMANDS)
    args, extras = ap.parse_known_args(argv)
    args.subcommand, *rest = args.subcommand
    handler, arguments = SUBCOMMANDS[args.subcommand]
    sub = _Parser(prog=f"ltk {args.subcommand}")
    for flags, kwargs in arguments:
        sub.add_argument(*flags, **kwargs)
    args, more = sub.parse_known_args(rest, args)
    if extras or more:
        ap.error(f"unrecognized arguments: {' '.join(extras + more)}")
    return args, handler


def run(argv):
    try:
        try:
            args, handler = _parse(argv)
        except SystemExit as exc:  # --help
            return 1 if exc.code else 0
        inputs = dict(vars(args))
        # the override is one more source of the degree cap, validated with it
        override = os.environ.get("LTK_CAP_OVERRIDE")
        if override:
            args.deg = int(override)
        if args.verbose:
            print(f"# ltk {args.subcommand} p={args.p} prec={args.prec} "
                  f"deg={args.deg} ring={args.ring}", file=sys.stderr)
        _validate(args)
        payload, achieved = handler(args)
        # group, tower and elliptic derive no precision yet: they report --prec
        payload["provenance"] = {
            "inputs_hash": _inputs_hash(inputs, args.deg),
            "caps": {"degree": args.deg, "precision": args.prec},
            "achieved_precision": args.prec if achieved is None else achieved,
        }
        text = json.dumps(payload, indent=2, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
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
