#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Every run lasts BENCHMARK.json's run_seconds, as the benchmark's own runs
do.  For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median, next to the metric's bound in BENCHMARK.json.  It also prints
the share of failed operations of every run.  The result lines are appended
to perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(v) for v in args.seeds.split("-"))
    seconds = str(bench["run_seconds"])
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in range(first, last + 1):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **res}) + "\n")
        vals = "  ".join(f"{k} {m['value']:.4g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct {res['correct']} failed {res['failed']}/{res['attempted']}  {vals}",
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:>12}: median {med:.5g} {m['unit']}, spread {(q3 - q1) / med:.3f}"
              f" (bound {m['bound']}, aim below {m['bound'] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
