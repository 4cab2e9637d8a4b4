"""ltk benchmark: verified throughput of four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ltk is imported from ./src.  Each
workload runs in its own process as a closed loop: one client, no threads,
the next op starts when the previous one has been checked.

--trace 0 measures the end-to-end metrics untraced.  --trace 1 measures the
per-layer metrics: a profiled set-up plus a fixed number of ops (call
counts only; profiled times are never reported), then an untraced and a
traced loop of S/2 seconds each (span times and the tracing overhead), then
the timed ring and series probes.  Both modes check every op against its
oracle and print a report line followed by the result line, whose metric
names and units must match BENCHMARK.json.

End-to-end times are host-scaled.  The 2-core VM this benchmark was built
on runs identical Python code up to 40% slower for seconds to minutes at a
time, so raw times of identical runs spread by about 25%.  A short
pure-Python reference loop (probes.reference_loop, no ltk code) therefore
runs before the first op and after every op, outside the op's time, and
each op's wall time is multiplied by REF_NOMINAL_S over the mean of the two
passes around it.  ops_per_s, op_p50_ms, op_tail_ms and setup_s are thus
the times on a host where that loop takes REF_NOMINAL_S; the raw
wall-clock values are in the report line.  Span and probe times are raw.
"""

import argparse
import cProfile
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probes
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5     # fresh processes timed for setup_s
MIN_OPS = 11          # so that op_tail_ms has 10 ops beyond it
PROFILED_OPS = {"lt_coleman": 1, "okp_moments": 1, "iwasawa_invariants": 40,
                "cli_readme": 2}

SPANS = [
    "lubin_tate.coleman_norm", "lubin_tate.translates_product", "series.compose",
    "coleman.norm_fixed_point", "coleman.system_from_series", "coleman.interpolate",
    "coleman.reduce_mod_system_ideal",
    "measures.dirac", "measures.riemann_moment.n1", "measures.riemann_moment.n2",
    "measures.moment", "measures.partition_check",
    "measures.coset_mass.negative_control",
    "series.weierstrass_prep", "series.mu_lambda_by_roots",
    "lambda_modules.additivity_check",
    "cli.omega", "cli.norm_op", "cli.coleman_interpolate", "cli.measure_moment",
    "cli.measure_coset", "cli.measure_tilde", "cli.char", "cli.elliptic_psi",
]
SPAN_LAYERS = ["lubin_tate", "series", "coleman", "measures", "lambda_modules", "cli"]
COUNTED = ["coleman.norm_fixed_point.iterations"]
MODULES = ["rings", "series", "lubin_tate", "measures", "coleman",
           "lambda_modules", "elliptic", "cli"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_ops(wl, state, seed, seconds, tracer, min_ops):
    """Closed loop until `seconds` have passed and at least min_ops ran.

    A reference pass runs before the first op and after every op, outside
    the op's time; each op's wall time is also kept scaled by the host speed
    the two passes around it measured.
    """
    rng = random.Random(seed)
    lat, scaled, failures, digits = [], [], [], []
    ref_before = probes.reference_loop()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < min_ops:
        tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            d = wl.op(state, i, rng, tracer)
        except Exception as exc:  # every failure is counted, the loop goes on
            failures.append({"op": i, "error": "".join(
                traceback.format_exception_only(type(exc), exc)).strip()[:300]})
        else:
            if d is not None:
                digits.append(d)
        lat.append(time.perf_counter() - t0)
        tracer.end_op()
        ref_after = probes.reference_loop()
        scaled.append(lat[-1] * probes.host_scale(ref_before, ref_after))
        ref_before = ref_after
        i += 1
    return {"lat": lat, "scaled": scaled, "failures": failures, "digits": digits}


def time_setups(args):
    """setup_s samples: time from spawning a fresh process to the moment it
    has imported ltk and built everything the first op needs.  Each is also
    kept scaled by the host speed that the child measured at its start and
    when ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"set-up process failed: {line!r}")
        before, after = (float(x) for x in line.split()[1:])
        raw.append(elapsed)
        scaled.append(elapsed * probes.host_scale(before, after))
    return raw, scaled


def host_reference():
    """Median of three reference passes: the host speed at this moment."""
    return statistics.median(probes.reference_loop() for _ in range(3))


def timing(lat, verified):
    """ops_per_s, op_p50_ms and op_tail_ms of a list of op times in s; the
    tail is the highest rank with 10 ops beyond it."""
    srt = sorted(lat)
    return {"ops_per_s": verified / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": srt[len(srt) - 11] * 1e3}


def end_to_end(run, setup_raw, setup_scaled):
    n = len(run["lat"])
    verified = n - len(run["failures"])
    scaled = timing(run["scaled"], verified)
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "verified_digits_min": (min(run["digits"]) if run["digits"] else 0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    srt = sorted(run["lat"])
    extra = {"ops": n, "op_tail_percentile": round(100 * (n - 10) / n, 2),
             "wall": {**timing(run["lat"], verified),
                      "setup_s": statistics.median(setup_raw),
                      "op_quantiles_ms": {f"p{q}": srt[int(q / 100 * (n - 1))] * 1e3
                                          for q in (0, 10, 25, 50, 75, 90, 100)}},
             "setup_samples_s": {"wall": setup_raw, "scaled": setup_scaled}}
    return metrics, extra


def per_layer(wl, args, workdir):
    import ltk
    from ltk import lubin_tate, measures, rings, series

    # profiled: set-up plus a fixed op count, so the counts repeat exactly
    tables = {"built": 0, "keys": set()}
    eval_table = measures._eval_table

    def counting_eval_table(h, ext, n):
        tables["built"] += 1
        tables["keys"].add((h.spec, h.coeffs, h.shift, n))
        return eval_table(h, ext, n)

    prof = cProfile.Profile()
    measures._eval_table = counting_eval_table
    try:
        prof.enable()
        state = wl.setup(args.seed, workdir)
        prof_run = run_ops(wl, state, args.seed, 0, spans.NullTracer(),
                           PROFILED_OPS[wl.name])
        prof.disable()
    finally:
        measures._eval_table = eval_table
    modules = {m: getattr(ltk, m) for m in MODULES}
    counts = spans.profiled_counts(prof, modules, {
        "rings.RingElem.__init__": rings.RingElem.__init__,
        "rings.RingSpec.__eq__": rings.RingSpec.__eq__,
        "series.TruncSeries.eval": series.TruncSeries.eval,
        "lubin_tate._fr_mul": lubin_tate._fr_mul,
        "measures._eval_table": eval_table,
    })
    metrics = {k: (v, "count") for k, v in counts.items()}
    metrics["measures.eval_tables_per_level"] = (
        tables["built"] / len(tables["keys"]) if tables["keys"] else 0.0, "count")

    half = args.seconds / 2
    untraced = run_ops(wl, state, args.seed, half, spans.NullTracer(), 3)
    tracer = spans.Tracer()
    traced = run_ops(wl, state, args.seed, half, tracer, 3)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(span_file)
    metrics.update(tracer.summary(SPANS, SPAN_LAYERS, COUNTED))

    def rate(run):
        return (len(run["lat"]) - len(run["failures"])) / sum(run["scaled"])
    metrics["trace.untraced_ops_per_s"] = (rate(untraced), "1/s")
    metrics["trace.traced_ops_per_s"] = (rate(traced), "1/s")
    metrics["trace.overhead_ops_per_s"] = (rate(untraced) - rate(traced), "1/s")
    metrics.update(probes.ring_probes())
    metrics.update(probes.series_probes())
    runs = [prof_run, untraced, traced]
    extra = {"profiled_ops": PROFILED_OPS[wl.name], "span_file": str(span_file.relative_to(ROOT)),
             "ops": [len(r["lat"]) for r in runs],
             "verified_digits_min_profiled": min(prof_run["digits"], default=None)}
    return metrics, runs, extra


def check_names(metrics, trace):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"extra {extra}, unit mismatch {wrong}")


def main(argv=None):
    args = parse_args(argv)
    ref_start = host_reference()
    if not (ROOT / "src" / "ltk" / "__init__.py").is_file():
        print(f"error: no ltk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=HERE / ".work"))
    try:
        if args.setup_only:
            wl.setup(args.seed, workdir)
            print(f"ready {ref_start!r} {host_reference()!r}", flush=True)
            return 0
        calib_before = probes.host_calib_ms()
        if args.trace:
            metrics, runs, extra = per_layer(wl, args, workdir)
        else:
            setup_raw, setup_scaled = time_setups(args)
            state = wl.setup(args.seed, workdir)
            run = run_ops(wl, state, args.seed, args.seconds, spans.NullTracer(),
                          MIN_OPS)
            metrics, extra = end_to_end(run, setup_raw, setup_scaled)
            runs = [run]
        calib_after = probes.host_calib_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["host.calib_ms"] = (statistics.median([calib_before, calib_after]), "ms")
    check_names(metrics, args.trace)
    attempted = sum(len(r["lat"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": wl.params,
              "host_calib_ms": {"before": calib_before, "after": calib_after},
              "failed_frac": len(failures) / attempted, "failures": failures[:10],
              **extra}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
