import gc
import json
import os
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ltk import cli, lubin_tate as LT, measures as MS
from ltk.cli import run
from ltk.rings import DomainError, make_ring
from ltk.series import TruncSeries
from ltk.lambda_modules import LambdaPresentation
from ltk.lubin_tate import FormalGroup

from cli_oracle import build_parser


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


def test_group_subcommand(capsys):
    rc, d = run_json(capsys, ["--p", "2", "--ring", "ram", "--pi-sq", "-2",
                              "--prec", "6", "--deg", "16", "group"])
    assert rc == 0
    assert d["q"] == 2
    assert d["log_derivative_unit"] is True
    assert "provenance" in d
    assert d["provenance"]["caps"] == {"degree": 16, "precision": 6}


GROUP_RUNS = [
    ["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "7", "--deg", "24", "group"],
    ["--p", "2", "--ring", "unram", "--prec", "6", "--deg", "20", "group"],
    ["--p", "3", "--prec", "8", "--deg", "24", "group"],
]


@pytest.mark.parametrize("argv", GROUP_RUNS)
def test_group_derives_its_achieved_precision(capsys, monkeypatch, argv):
    # log_F' is exact mod p^N, so the log holds N_eff - shift = N digits
    prec = int(argv[argv.index("--prec") + 1])
    rc, d = run_json(capsys, argv)
    log = d["log_series"]
    assert rc == 0 and log["shift"] >= 1
    assert d["provenance"]["achieved_precision"] == log["N_eff"] - log["shift"] == prec
    # the figure is read off the log series, not the --prec fallback
    solve = FormalGroup.log_series

    def two_digits_short(G, cap):
        s = solve(G, cap)
        return TruncSeries(s.spec, s.cap, s.coeffs, s.n_eff - 2, s.shift)

    monkeypatch.setattr(FormalGroup, "log_series", two_digits_short)
    rc, d = run_json(capsys, argv)
    assert rc == 0 and d["provenance"]["achieved_precision"] == prec - 2


@pytest.mark.parametrize("argv", GROUP_RUNS)
def test_group_solves_the_log_derivative_once(capsys, monkeypatch, argv):
    # log_series solves log_F' at N + S_b; the unit check reduces that solve
    # mod p^N instead of solving again
    solve, calls = LT._solve_structural, []
    monkeypatch.setattr(LT, "_solve_structural",
                        lambda *a, **kw: calls.append(a[1]) or solve(*a, **kw))
    rc, d = run_json(capsys, argv)
    assert rc == 0 and d["log_derivative_unit"] is True
    assert len(calls) == 1


def test_omega_subcommand(capsys):
    rc, d = run_json(capsys, ["--p", "2", "--ring", "ram", "--pi-sq", "-2",
                              "--prec", "6", "--deg", "24", "omega", "--n", "1"])
    assert rc == 0
    assert d["factorization_ok"] is True
    # pibar_1 = pi + X
    assert d["pibar"]["1"] == [[0, 1], [1, 0]]


def test_measure_moment_dirac(capsys):
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "24",
                              "measure", "moment", "--dirac", "5", "--k", "3"])
    assert rc == 0
    assert d["moment"]["coords"][0] == 125


def test_measure_coset(capsys):
    rc, d = run_json(capsys, ["--p", "3", "--ring", "ram", "--pi-sq", "-3",
                              "--prec", "12", "--deg", "64",
                              "measure", "coset", "--dirac", "4,3",
                              "--delta", "7,0", "--level", "1"])
    assert rc == 0
    assert d["mass"]["coords"][0] % 3 ** d["mass_n_eff"] == 1


def test_char_subcommand(tmp_path, capsys):
    z = make_ring(3, 8, "zp")
    pres = LambdaPresentation(z, [
        [TruncSeries(z, 16, [3]), TruncSeries(z, 16, [])],
        [TruncSeries(z, 16, []), TruncSeries(z, 16, [-3, 1])],
    ])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(pres.to_json()))
    rc, d = run_json(capsys, ["char", "--matrix", str(path)])
    assert rc == 0
    assert (d["mu"], d["lambda"]) == (1, 1)


def test_elliptic_subcommands(capsys):
    rc, d = run_json(capsys, ["elliptic", "theta",
                              "--lattice", "1j", "1", "--z", "0.25+0.15j"])
    assert rc == 0
    assert "theta" in d and "truncation" in d
    rc2, d2 = run_json(capsys, ["elliptic", "psi",
                                "--lattice", "1j", "1", "--z", "0.3+0.2j",
                                "--sub", "2+1j"])
    assert rc2 == 0
    assert d2["mu12_ambiguity"] is True


def test_determinism_under_seed(capsys):
    argv = ["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "6",
            "--deg", "20", "--seed", "11", "norm-op"]
    rc1, d1 = run_json(capsys, argv)
    rc2, d2 = run_json(capsys, argv)
    assert rc1 == rc2 == 0
    assert d1 == d2


def test_exit_codes(capsys, tmp_path):
    # usage error
    assert run(["--p", "4", "group"]) == 1
    capsys.readouterr()
    # precision exhaustion: the ramified mu0 pipeline hits the documented
    # tilde-log integrality obstruction
    rc = run(["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "6",
              "--deg", "20", "coleman", "mu0"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("ring", ["zp", "unram"])
def test_precision_one_is_exhaustion_not_a_bad_uniformizer(capsys, ring):
    # pi = p is a uniformizer, but it is 0 mod p^1
    rc, err = run_err(capsys, ["--p", "3", "--ring", ring, "--prec", "1", "norm-op"])
    assert rc == 2 and err["error"] == "precision-exhausted"
    assert "N = 1" in err["detail"]


def test_out_file_and_cap_override(tmp_path, capsys, monkeypatch):
    out = tmp_path / "res.json"
    rc = run(["--p", "3", "--prec", "8", "--deg", "24",
              "--out", str(out), "measure", "moment", "--dirac", "2", "--k", "2"])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["moment"]["coords"][0] == 4
    monkeypatch.setenv("LTK_CAP_OVERRIDE", "12")
    rc2, d2 = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "999",
                                "measure", "moment", "--dirac", "2", "--k", "2"])
    assert rc2 == 0
    assert d2["moment"]["coords"][0] == 4


@pytest.mark.parametrize("ring, p, norm1, val1, norm2", [
    # f = (1 + X)^3 - 1: pibar_1 = X^2 + 3 X + 3, N(alpha_1) = 3
    ("zp", 3, [3], "1", [[0], [1]]),
    # f = w X + X^3 with w^2 = -3: pibar_1 = X^2 + w, N(alpha_1) = w
    ("ram", 3, [0, 1], "1/2", [[0, 0], [1, 0]]),
    # f = 2 X + X^4 over Z_4: pibar_1 = X^3 + 2, N(alpha_1) = -2, and
    # N(alpha_2) = (-1)^(q+1) alpha_1 = -alpha_1 (q = 4)
    ("unram", 2, [2 ** 6 - 2, 0], "1", [[0, 0], [2 ** 6 - 1, 0], [0, 0]]),
])
def test_tower_norms_of_alpha_in_closed_form(capsys, ring, p, norm1, val1, norm2):
    rc, d = run_json(capsys, ["--p", str(p), "--ring", ring, "--prec", "6",
                              "--deg", "24", "tower", "--levels", "2"])
    assert rc == 0
    q = p ** (2 if ring == "unram" else 1)
    assert d["level_1"] == {"degree": q - 1,
                            "norm_of_alpha": {"coords": norm1, "valuation": val1}}
    assert d["level_2"] == {"degree": (q - 1) * q, "norm_of_alpha": norm2}


@pytest.mark.parametrize("argv, m, deg", [
    # q = 9: pibar_2 has degree 8 * 9
    (["--p", "3", "--ring", "unram", "--prec", "5", "--deg", "24", "tower"], 2, 72),
    # q = 2: omega --n 3 builds pibar_1 .. pibar_6, and pibar_6 has degree 2^5
    (["--p", "2", "--prec", "8", "--deg", "24", "omega", "--n", "3"], 6, 32),
])
def test_pibar_beyond_the_cap_names_degree_and_caps(capsys, argv, m, deg):
    rc, err = run_err(capsys, argv)
    assert rc == 2 and err["error"] == "precision-exhausted"
    assert err["detail"] == (f"cap too small for pibar_{m}: it has degree (q - 1) q^(m - 1) = "
                             f"{deg}, so it needs a cap of at least {deg + 1}; the group's cap "
                             f"is 24")
    # the cap it names is enough
    cap = argv.index("--deg") + 1
    assert run(argv[:cap] + [str(deg + 1)] + argv[cap + 1:]) == 0
    capsys.readouterr()


def test_coleman_interpolate_cli(capsys):
    rc, d = run_json(capsys, ["--p", "3", "--ring", "ram", "--pi-sq", "-3",
                              "--prec", "7", "--deg", "24",
                              "coleman", "interpolate"])
    assert rc == 0
    assert d["info"]["modulus_degree"] == 8
    assert d["norm_compatible"] is False  # random series system


def test_coleman_mu0_multiplicative(capsys):
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "30",
                              "coleman", "mu0"])
    assert rc == 0
    assert "amice" in d


def test_negative_moment_order_is_usage_error(capsys):
    rc = run(["--p", "3", "--prec", "8", "--deg", "24",
              "measure", "moment", "--dirac", "5", "--k", "-1"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert err["error"] == "usage" and "k must be >= 0" in err["detail"]


def test_coset_precision_error_names_stage(capsys):
    rc = run(["--deg", "24", "measure", "coset", "--dirac", "5", "--level", "3"])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "precision-exhausted"
    assert "coset_mass at level 3" in err["detail"]
    assert "needs 1 digits" in err["detail"] and "0 available" in err["detail"]


def test_coset_level_above_the_precision_is_a_usage_error(capsys):
    # delta is read in O_K/3^4, which does not fix its class mod 3^5
    args = ["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "4", "--deg", "24",
            "measure", "coset", "--dirac", "4,3", "--delta", "7,0", "--level"]
    rc = run(args + ["5"])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert rc == 1 and captured.out == ""
    assert err["error"] == "usage"
    assert "coset_mass at level 5" in err["detail"] and "okp.N = 4" in err["detail"]
    # level 4 = okp.N passes that check; cap 24 then runs out of digits
    assert run(args + ["4"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "precision-exhausted"
    assert run(args + ["1"]) == 0


def test_inputs_hash_covers_the_inputs(capsys, tmp_path):
    base = ["--p", "3", "--prec", "8", "--deg", "24", "measure", "moment"]
    hashes = []
    for extra in (["--dirac", "5", "--k", "3"], ["--dirac", "7", "--k", "1"],
                  ["--dirac", "5", "--k", "1"], ["--dirac", "5", "--k", "3"]):
        rc, d = run_json(capsys, base + extra)
        assert rc == 0
        hashes.append(d["provenance"]["inputs_hash"])
    assert len(set(hashes[:3])) == 3
    assert hashes[3] == hashes[0]
    # --out routes the output and is not an input
    out = tmp_path / "res.json"
    assert run(["--out", str(out)] + base + ["--dirac", "5", "--k", "3"]) == 0
    assert json.loads(out.read_text())["provenance"]["inputs_hash"] == hashes[0]
    # an input file counts by its contents
    z = make_ring(3, 8, "zp")
    series = []
    for coeffs in ([1, 2], [1, 3]):
        path = tmp_path / f"mu{len(series)}.json"
        path.write_text(json.dumps({"amice": TruncSeries(z, 24, coeffs).to_json(),
                                    "group": "zp"}))
        series.append(str(path))
    got = []
    for path in series:
        rc, d = run_json(capsys, base + ["--series", path, "--k", "1"])
        assert rc == 0
        got.append(d["provenance"]["inputs_hash"])
    assert got[0] != got[1]


def test_measure_achieved_precision_is_derived(capsys):
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "24",
                              "measure", "tilde", "--dirac", "5"])
    assert rc == 0
    assert d["provenance"]["achieved_precision"] == d["tilde"]["N_eff"] == 7
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "24",
                              "measure", "moment", "--dirac", "5", "--k", "3"])
    assert rc == 0 and d["provenance"]["achieved_precision"] == 8
    # k >= cap: the truncated tail costs v_3(6!) = 2 digits, and they are
    # all the digits there are
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "6",
                              "measure", "moment", "--dirac", "7", "--k", "6"])
    assert rc == 0 and d["provenance"]["achieved_precision"] == 2
    diff = d["moment"]["coords"][0] - 7 ** 6
    assert diff % 9 == 0 and diff % 27 != 0


def test_norm_op_achieved_precision_is_derived(capsys):
    # the product law is checked mod p^(N - 1), and that is what is reported
    rc, d = run_json(capsys, ["--p", "3", "--ring", "ram", "--pi-sq", "-3",
                              "--prec", "8", "--deg", "16", "norm-op"])
    assert rc == 0 and d["product_law_ok"] is True
    assert d["provenance"]["achieved_precision"] == 7
    assert d["norm"]["N_eff"] == 8


@pytest.mark.parametrize("argv, code", [
    (["coleman", "interpolate", "--levels", "0"], 1),
    (["tower", "--levels", "0"], 1),
    (["elliptic", "psi", "--sub", "0"], 1),
] + [
    # the default unramified polynomial is irreducible for every p
    (["--p", str(p), "--ring", "unram", "--prec", "4", "--deg", str(p * p + 1),
      "group"], 0) for p in (2, 3, 5, 7)
])
def test_exit_code_and_json_error(capsys, argv, code):
    rc = run(argv)
    out, err = capsys.readouterr()
    assert rc == code
    if code:
        assert json.loads(err)["error"] == "usage"
    else:
        assert err == ""
        assert "provenance" in json.loads(out)


def test_norm_op_out_of_reach_is_refused_at_once(capsys):
    # q = 25: the 25 x 25 norm determinant would take 4.2e8 products over
    # 3.4e7 minors; it is refused before any of them
    start = time.perf_counter()
    rc = run(["--p", "5", "--ring", "unram", "--prec", "7", "--deg", "32", "norm-op"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "usage"
    assert "MAX_DET_DIM" in json.loads(err)["detail"]
    assert elapsed < 5


# -- malformed inputs: exit 1 or 2 with one JSON error, never a traceback ----------


RAM3 = ["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "7", "--deg", "24"]


def run_err(capsys, argv):
    """(exit code, the JSON error object on stderr, or None on success)."""
    rc = run(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == "" and "provenance" in json.loads(out)
        return rc, None
    return rc, json.loads(err)


@pytest.mark.parametrize("field, value", [
    ("N", 7.0), ("p", "3"), ("quad", ["0", 3]), ("quad", [0, 3.0]),
])
def test_ring_data_must_be_integers(tmp_path, capsys, field, value):
    q3 = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    doc = TruncSeries(q3, 24, [1, 2]).to_json()
    if field == "quad":
        doc["spec"]["kind"]["ramified_quad"] = value
    else:
        doc["spec"][field] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    rc, err = run_err(capsys, RAM3 + ["norm-op", "--series", str(path)])
    assert rc == 1 and err["error"] == "usage"
    assert "must be made of integers" in err["detail"]


@pytest.mark.parametrize("argv, doc", [
    (["char", "--matrix"], {}),
    (RAM3 + ["norm-op", "--series"], {}),
    (RAM3 + ["coleman", "interpolate", "--system"], {"values": {"9": []}}),
    (["--p", "3", "--prec", "8", "--deg", "24", "measure", "moment", "--series"],
     TruncSeries(make_ring(3, 8, "zp"), 24, [1, 2]).to_json()),
])
def test_malformed_documents_are_usage_errors(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc, err = run_err(capsys, argv + [str(path)])
    assert rc == 1 and err["error"] == "usage"


@pytest.mark.parametrize("m, bad", [(2, "alpha"), (1, "p times beta")])
def test_coleman_system_with_a_non_unit_is_a_usage_error(tmp_path, capsys, m, bad):
    # the tower's unit test refuses beta_m = alpha_m and p beta_m with one
    # JSON error and exit code 1, no traceback
    from ltk.coleman import system_from_series
    from ltk.lubin_tate import build_group, build_tower
    q3 = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    tw = build_tower(build_group(q3, q3.gen_quad(), 3, 24), 2)
    doc = system_from_series(tw, TruncSeries(q3, 24, [1, [2, 1], 5])).to_json()
    beta = doc["values"][str(m)]
    doc["values"][str(m)] = (list(tw.alphas[m]) if bad == "alpha"
                             else [3 * x % q3.modulus for x in beta])
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    rc, err = run_err(capsys, RAM3 + ["coleman", "interpolate", "--system", str(path)])
    assert rc == 1 and err == {"error": "usage", "detail": "beta_%d is not a unit" % m}


def test_cap_override_is_validated_and_reported(capsys, monkeypatch):
    monkeypatch.setenv("LTK_CAP_OVERRIDE", "1")
    rc, err = run_err(capsys, ["--p", "3", "--ring", "ram", "--prec", "7",
                               "--deg", "24", "norm-op"])
    assert rc == 1 and err["error"] == "usage"
    monkeypatch.setenv("LTK_CAP_OVERRIDE", "12")
    rc, d = run_json(capsys, ["--p", "3", "--prec", "8", "--deg", "999",
                              "measure", "moment", "--dirac", "2", "--k", "2"])
    assert rc == 0 and d["provenance"]["caps"]["degree"] == 12


@pytest.mark.parametrize("argv, ring", [
    (["--p", "3", "--prec", "7", "--deg", "24"], make_ring(3, 6, "zp")),
    (RAM3, make_ring(3, 7, "zp")),
])
def test_norm_op_series_over_another_ring_is_a_usage_error(tmp_path, capsys, argv, ring):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(TruncSeries(ring, 24, [1, 2, 5]).to_json()))
    rc, err = run_err(capsys, argv + ["norm-op", "--series", str(path)])
    assert rc == 1 and err["error"] == "usage"
    group_kind = "ramified_quad" if "ram" in argv else "zp"
    assert f"series over RingSpec(p=3, N={ring.N}, kind='zp'" in err["detail"]
    assert f"group is over RingSpec(p=3, N=7, kind='{group_kind}'" in err["detail"]


def _fuzz_documents():
    """(argv before the file, a valid document) per file-reading command,
    on small rings and caps so that every run is cheap."""
    from ltk.coleman import norm_fixed_point, system_from_series
    from ltk.lubin_tate import build_group, build_tower
    z = make_ring(3, 4, "zp")
    q3 = make_ring(3, 4, "ramified_quad", quad=(0, 3))
    pres = LambdaPresentation(z, [[TruncSeries(z, 8, [3]), TruncSeries(z, 8, [1])],
                                  [TruncSeries(z, 8, []), TruncSeries(z, 8, [-3, 1])]])
    G = build_group(q3, q3.gen_quad(), 3, 12)
    gf, _ = norm_fixed_point(G, TruncSeries(q3, 12, [1, [1, 1], 2]))
    system = system_from_series(build_tower(G, 2), gf)
    ram = ["--p", "3", "--ring", "ram", "--pi-sq", "-3", "--prec", "4", "--deg", "12"]
    return {
        "char": (["char", "--matrix"], pres.to_json()),
        "norm-op": (ram + ["norm-op", "--series"],
                    TruncSeries(q3, 12, [1, [2, 1], 0, 5]).to_json()),
        "coleman": (ram + ["coleman", "interpolate", "--system"], system.to_json()),
        "measure": (["--p", "3", "--prec", "4", "--deg", "8", "measure", "moment",
                     "--series"],
                    {"amice": TruncSeries(z, 8, [1, 2, 1]).to_json(), "group": "zp"}),
    }


FUZZ_DOCS = _fuzz_documents()
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.sampled_from([0.5, 7.0])
    | st.text("ab1", max_size=2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text("ab1", max_size=2), kids, max_size=2),
    max_leaves=4)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


@st.composite
def mutated(draw, doc):
    """doc with one node replaced by a small JSON value, or deleted."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(SMALL_JSON)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(SMALL_JSON)
    return doc


@pytest.mark.parametrize("command", sorted(FUZZ_DOCS))
@settings(max_examples=25, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_documents_end_in_json(tmp_path, capsys, command, data):
    argv, doc = FUZZ_DOCS[command]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data.draw(mutated(doc))))
    run_err(capsys, argv + [str(path)])


# -- fuzzed arguments: exit 0, 1 or 2, one JSON error, never a traceback ------------


@st.composite
def cli_arguments(draw):
    """Global options and one subcommand with its arguments, all small: p
    prime or not, caps and levels around the edges of their domains."""
    pick = lambda *xs: str(draw(st.sampled_from(xs)))
    argv = ["--p", pick(-3, 0, 1, 2, 3, 4, 5, 6, 7, 9),
            "--prec", str(draw(st.integers(-1, 6))),
            "--deg", str(draw(st.integers(0, 16))),
            "--ring", pick("zp", "ram", "unram", "bogus"),
            "--pi-sq", str(draw(st.integers(-6, 6))),
            "--variant", pick("auto", "standard", "multiplicative"),
            "--seed", str(draw(st.integers(0, 3)))]
    sub = draw(st.sampled_from(["group", "omega", "norm-op", "tower", "coleman",
                                "measure", "elliptic"]))
    if sub == "omega":
        return argv + ["omega", "--n", str(draw(st.integers(-1, 3)))]
    if sub in ("tower", "coleman"):
        action = [pick("interpolate", "mu0")] if sub == "coleman" else []
        return argv + [sub, *action, "--levels", str(draw(st.integers(-1, 3)))]
    if sub == "measure":
        return argv + ["measure", pick("coset", "moment", "tilde"),
                       "--dirac", pick("0", "1", "5", "-2", "4,3", "1,1"),
                       "--k", str(draw(st.integers(-1, 4))),
                       "--level", str(draw(st.integers(-1, 3))),
                       "--delta", pick("0", "1", "-1", "7,0", "2,1")]
    if sub == "elliptic":
        return ["elliptic", pick("theta", "psi"),
                "--lattice", *draw(st.sampled_from([["1j", "1"], ["1", "1"], ["1j"],
                                                    ["1e300j", "1"], ["x", "1"]])),
                "--z", pick("0", "0.3+0.2j", "1e10", "nan"),
                "--sub", pick("0", "2+1j", "1j")]
    return argv + [sub]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_arguments())
def test_fuzzed_arguments_end_in_json(capsys, argv):
    rc, err = run_err(capsys, argv)
    assert rc == 0 or set(err) == {"error", "detail"}


# -- one configuration per run: derived precisions, no state between runs ----------


def _expected_achieved(command, tmp_path):
    """(argv, the achieved_precision it must report), the value derived here
    through the library rather than read from the CLI's output."""
    from ltk import coleman as CO
    from ltk.lambda_modules import char_ideal
    from ltk.lubin_tate import build_group, build_tower
    q2 = make_ring(2, 6, "ramified_quad", quad=(0, 2))
    q3 = make_ring(3, 7, "ramified_quad", quad=(0, 3))
    path = tmp_path / "doc.json"
    if command == "omega":
        G = build_group(q2, q2.gen_quad(), 2, 24, variant="standard")
        unit, _ = G.omega_factorization_check(2, target=G.endomorphism(
            q2.from_int(4), G.cap))
        return (["--p", "2", "--ring", "ram", "--pi-sq", "-2", "--prec", "6",
                 "--deg", "24", "omega", "--n", "2"], min(6, unit.n_eff))
    if command == "norm-op":
        # a series known to 4 digits: the law holds to 3, below N - 1 = 6
        g = TruncSeries(q3, 24, [1, [2, 1], 0, 5], n_eff=4)
        path.write_text(json.dumps(g.to_json()))
        return RAM3 + ["norm-op", "--series", str(path)], 3
    if command == "coleman":
        argv, doc = FUZZ_DOCS["coleman"]
        path.write_text(json.dumps(doc))
        r4 = make_ring(3, 4, "ramified_quad", quad=(0, 3))
        tw = build_tower(build_group(r4, r4.gen_quad(), 3, 12), 2)
        system = CO.CompatibleSystem(tw, {int(m): tw.rings[int(m)].elem(v)
                                          for m, v in doc["values"].items()})
        return argv + [str(path)], CO.interpolate(system)[1]["n_eff"]
    if command == "measure":
        mu = MS.dirac(q3.elem((4, 3)), "okp", make_ring(3, 7, "zp"), 24, okp=q3)
        _, guarantee = MS.coset_mass(mu, q3.elem((7, 0)), 1)
        return RAM3 + ["measure", "coset", "--dirac", "4,3", "--delta", "7,0",
                       "--level", "1"], guarantee
    if command == "char":
        argv, doc = FUZZ_DOCS["char"]
        path.write_text(json.dumps(doc))
        return argv + [str(path)], char_ideal(LambdaPresentation.from_json(doc)).n_eff
    # group, tower and elliptic derive no precision and report --prec
    return ["--prec", "5", "--deg", "16", command], 5


@pytest.mark.parametrize("command", ["group", "omega", "norm-op", "tower",
                                     "coleman", "measure", "char", "elliptic"])
def test_achieved_precision_of_every_subcommand(tmp_path, capsys, command):
    argv, expected = _expected_achieved(command, tmp_path)
    if command == "elliptic":
        argv.append("psi")
    rc, d = run_json(capsys, argv)
    assert rc == 0
    assert d["provenance"]["achieved_precision"] == expected


@pytest.mark.parametrize("first, plain", [
    (["measure", "moment", "--dirac", "5", "--k", "3"],
     ["measure", "moment", "--dirac", "5"]),
    (["elliptic", "psi", "--lattice", "1,1j"], ["elliptic", "psi"]),
    (["elliptic", "psi", "--lattice", "2j", "1"], ["elliptic", "psi"]),
])
def test_back_to_back_runs_share_no_state(capsys, first, plain):
    fresh = run(plain), capsys.readouterr()
    run(first)
    capsys.readouterr()
    assert (run(plain), capsys.readouterr()) == fresh
    if plain[0] == "measure":
        assert json.loads(fresh[1].out)["k"] == 1
    else:
        assert run(plain + ["--lattice", "1j", "1"]) == 0
        assert capsys.readouterr().out == fresh[1].out


def test_input_files_are_closed(tmp_path, capsys):
    runs = []
    for command in sorted(FUZZ_DOCS):
        argv, doc = FUZZ_DOCS[command]
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        runs.append(argv + [str(path)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv in runs:
            assert run(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught] == []


# -- the two-stage parse: the one-parser oracle's namespaces and errors, two parsers -


EDGE_ARGVS = [
    [], ["--p", "3"], ["-x"], ["--seed"], ["bogus"], ["--", "--p", "3"],
    ["--p", "3", "--", "group"], ["-v", "--", "measure", "--", "moment"],
    ["--out", "--", "group"], ["coleman", "--", "mu0"], ["group", "--", "x"],
    ["measure", "--p", "3", "moment"], ["group", "--p", "3"], ["group", "extra"],
    ["--p", "3", "group", "group"], ["--bogus", "group"],
    ["--bogus", "measure", "bad"], ["--bogus", "group", "extra", "--more"],
    ["coleman"], ["coleman", "bad"], ["char"], ["elliptic", "psi", "--lattice"],
    ["measure", "moment", "--k"], ["measure", "moment", "-k", "3"],
    ["measure", "moment", "--", "--k"], ["measure", "moment", "--lev", "2"],
    ["--ring", "bogus", "group"], ["--p", "x", "group"], ["-vv", "group"],
    ["--p=3", "group"], ["--pr", "8", "group"], ["--pi-sq", "-3", "tower"],
    ["elliptic", "psi", "--lattice", "1", "2", "--z", "-1"],
    ["--help"], ["-h"], ["measure", "--help"], ["group", "-h", "--p", "3"],
]
EDIT_TOKENS = ["--", "-", "--p", "3", "-v", "-h", "--bogus", "extra", "group",
               "moment", "--k", "-k", "--levels"]


@st.composite
def edited_arguments(draw):
    """cli_arguments() with one more token put in at any place."""
    argv = draw(cli_arguments())
    i = draw(st.integers(0, len(argv)))
    return argv[:i] + [draw(st.sampled_from(EDIT_TOKENS))] + argv[i:]


def check_parse_against_oracle(capsys, argv):
    """The oracle's namespace where it accepts argv; where it refuses, exit 1
    with its usage error; where it prints help, exit 0 with its help."""
    try:
        want = vars(build_parser().parse_args(argv))
    except DomainError as exc:
        rc, err = run_err(capsys, argv)
        assert rc == 1 and err == {"error": "usage", "detail": str(exc)}
    except SystemExit as exc:
        assert exc.code == 0
        help_text = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr() == (help_text, "")
    else:
        assert vars(cli._parse(argv)[0]) == want


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=" ".join)
def test_edge_arguments_parse_as_under_one_parser(capsys, argv):
    check_parse_against_oracle(capsys, argv)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_arguments() | edited_arguments())
def test_arguments_parse_as_under_one_parser(capsys, argv):
    check_parse_against_oracle(capsys, argv)


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_one_run_builds_two_parsers(tmp_path, capsys, monkeypatch, command):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, **kw: built.append(kw["prog"]) or init(self, **kw))
    argv, _ = _expected_achieved(command, tmp_path)
    if command == "elliptic":
        argv.append("psi")
    assert run(argv) == 0
    capsys.readouterr()
    assert built == ["ltk", f"ltk {command}"]
