#!/usr/bin/env python3
"""Record benchmark runs to BENCH_<sha>.json files and compare two of them.

    python3 scripts/bench_record.py record PARENT CHANGE
        --workloads W [W ...] --seeds N [N ...] [--out-dir DIR]
    python3 scripts/bench_record.py compare BENCH_A.json BENCH_B.json

record runs perfbench/run.py of two git checkouts (the parent and the
change) for every workload and seed, each run as long as BENCHMARK.json's
run_seconds and untraced.  The checkouts take turns on each (workload,
seed), the one that goes first alternating from one to the next, so their
runs come in pairs that share the host's slow and fast spells.  A checkout
with uncommitted changes to tracked files is refused, so the commit names
the code measured.  It writes BENCH_<short sha>.json per checkout: the full
sha, the Python version, the command, and for every run the report line
(raw times, host calibration) and the result line (the metrics) exactly as
run.py printed them.

compare takes the median of each end-to-end metric over a file's runs of a
workload and applies the bounds of BENCHMARK.json unchanged: B fails a
metric when it is worse than A by more than the metric's bound (relative to
A), or when a larger share of its ops failed.  It also prints, per metric,
how many seed pairs B won and the interquartile range of A's runs, the
figures a claimed gain is judged by.  Exits 1 if any bound is exceeded.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(checkout, *args):
    out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_once(checkout, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    *_, report, result = out.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, **json.loads(report), **json.loads(result)}


def record(args):
    sides = []
    for checkout in (args.parent, args.change):
        checkout = Path(checkout).resolve()
        sha = git(checkout, "rev-parse", "HEAD")
        if sha is None or not (checkout / "perfbench" / "run.py").is_file():
            sys.exit(f"error: {checkout} is not a git checkout with perfbench/run.py")
        if git(checkout, "status", "--porcelain", "--untracked-files=no"):
            sys.exit(f"error: {checkout} has uncommitted changes; commit them first")
        sides.append((checkout, {
            "git_sha": sha,
            "python": sys.version.split()[0],
            "command": ["python3", "perfbench/run.py", "--seconds",
                        str(SPEC["run_seconds"]), "--trace", "0"],
            "runs": [],
        }))
    pairs = [(w, s) for w in args.workloads for s in args.seeds]
    for i, (workload, seed) in enumerate(pairs):
        # alternate which checkout runs first
        for checkout, doc in sides[::-1] if i % 2 else sides:
            run = run_once(checkout, workload, seed)
            doc["runs"].append(run)
            ops = run["metrics"].get("ops_per_s", {}).get("value")
            print(f"{doc['git_sha'][:7]} {workload} seed {seed}: ops_per_s {ops}",
                  flush=True)
        # written after every pair, so an interrupted series keeps its runs
        for _, doc in sides:
            path = Path(args.out_dir) / f"BENCH_{doc['git_sha'][:7]}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    print(f"A = {a['git_sha']}, B = {b['git_sha']}")
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in a["runs"]):
        ra = {r["seed"]: r for r in a["runs"] if r["workload"] == workload}
        rb = {r["seed"]: r for r in b["runs"] if r["workload"] == workload}
        if not rb:
            continue
        fa = sum(r["failed"] for r in ra.values()) / sum(r["attempted"] for r in ra.values())
        fb = sum(r["failed"] for r in rb.values()) / sum(r["attempted"] for r in rb.values())
        print(f"\n{workload}: {len(ra)} runs of A, {len(rb)} of B, "
              f"failed share {fa:.3g} -> {fb:.3g}")
        ok &= fb <= fa
        for m in SPEC["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            va = [r["metrics"][name]["value"] for r in ra.values()]
            vb = [r["metrics"][name]["value"] for r in rb.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (ma - mb if higher else mb - ma) / ma if ma else 0.0
            pairs = [(ra[s]["metrics"][name]["value"], rb[s]["metrics"][name]["value"])
                     for s in ra if s in rb]
            wins = sum((y > x) if higher else (y < x) for x, y in pairs)
            q1, q3 = quartiles(va)
            verdict = "ok" if worse <= bound else f"WORSE than bound {bound}"
            ok &= worse <= bound
            print(f"  {name:20s} {ma:10.4g} -> {mb:10.4g}  x{mb / ma if ma else 0:6.3f}  "
                  f"B wins {wins}/{len(pairs)}  A IQR {q3 - q1:.4g}  {verdict}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("parent")
    rec.add_argument("change")
    rec.add_argument("--workloads", nargs="+", required=True)
    rec.add_argument("--seeds", nargs="+", type=int, required=True)
    rec.add_argument("--out-dir", default=".")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)
    return record(args) if args.mode == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
