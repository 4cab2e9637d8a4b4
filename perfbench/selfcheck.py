"""Check the benchmark against itself.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (all four by default) this makes two traced runs with the
same seed and checks that no op failed in either, and that the profiled call
counts and the profiled ops' verified_digits_min are identical between the
two runs.  Profiled counts come from a fixed number of ops, so they must
repeat exactly; a count that moves between identical runs cannot support a
claim.  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["lt_coleman", "okp_moments", "iwasawa_invariants", "cli_readme"]


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True)
    *_, report, result = out.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args(argv)
    ok = True
    for w in args.workloads:
        runs = [traced_run(w, args.seed, args.seconds) for _ in range(2)]
        counts = [{k: v["value"] for k, v in res["metrics"].items()
                   if v["unit"] == "count" and not k.startswith("coleman.norm_fixed")}
                  for _, res in runs]
        digits = [rep["verified_digits_min_profiled"] for rep, _ in runs]
        failed = [res["failed"] for _, res in runs]
        moved = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        good = not moved and digits[0] == digits[1] and failed == [0, 0]
        ok &= good
        print(f"{w}: {'ok' if good else 'FAIL'}  failed={failed} "
              f"verified_digits_min_profiled={digits} counts_moved={moved}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
