"""The one-parser command line, kept as the oracle for cli._parse.

build_parser builds the global options and all eight subcommands as
argparse subparsers of one parser, as the CLI did before it built only the
chosen subcommand's parser.  For every command line, cli._parse must give
the namespace this parser gives, or refuse it with the same usage error.
"""

from ltk.cli import _Parser


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
