#!/usr/bin/env python3
"""banachlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each round in a fresh worker process
(perfbench/worker.py), until S seconds have passed, plus a few set-up-only
probes.  Every round's outputs are checked.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, as
medians over rounds; with --trace 1 the run alternates untraced and traced
rounds and reports the per-layer ones, with trace.overhead_s.

Scratch files go to perfbench/out/ and are removed at the end, except the
trace of a traced run (perfbench/out/trace-<workload>-s<seed>.json).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 8
RUN_LIMIT_S = 170.0
# The program is single-threaded.  One thread per math library keeps a
# worker on one core, so its timings do not depend on the core count.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RoundFailed(RuntimeError):
    pass


def _worker(run_dir: Path, tag: str, workload: str, cfg_path: Path, deadline: float,
            extra=()) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(cfg_path), "--out", str(run_dir / tag),
           "--result", str(result), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundFailed("out of time before " + tag)
    try:
        proc = subprocess.run(cmd, env={**os.environ, **THREAD_ENV}, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{tag} did not finish within the run's time limit")
    if proc.returncode != 0:
        raise RoundFailed(f"{tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(result.read_text())
    shutil.rmtree(run_dir / tag, ignore_errors=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    out_root = HERE / "out"
    run_dir = out_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(workloads.config(args.workload, args.seed), indent=1))

        probes = [_worker(run_dir, f"probe{k}", args.workload, cfg_path, deadline,
                          ["--setup-only"])
                  for k in range(SETUP_PROBES)]
        plain, traced = [], []
        trace_file = out_root / f"trace-{args.workload}-s{args.seed}.json"
        t_measure = time.monotonic()
        while True:
            t_round = time.monotonic()
            plain.append(_worker(run_dir, f"round{len(plain)}", args.workload,
                                 cfg_path, deadline))
            if args.trace:
                traced.append(_worker(run_dir, f"traced{len(traced)}", args.workload,
                                      cfg_path, deadline, ["--trace-file", str(trace_file)]))
            now = time.monotonic()
            if now - t_measure >= args.seconds or now + (now - t_round) > deadline:
                break
    except RoundFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = plain + traced
    digests = {r["digest"] for r in rounds}
    broken = [b for r in rounds for b in r["broken"]]
    if len(digests) != 1:
        broken.append(f"rounds with the same inputs gave {len(digests)} different outputs")
    for r in rounds:
        for p in r["problems"]:
            print(f"problem: {p}")
    for b in broken:
        print(f"broken: {b}")

    def med(key, rs):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        layer = {k: statistics.median(t["trace"].get(k, 0) for t in traced)
                 for k in traced[0]["trace"]}
        layer["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
        specs = bench["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in specs}
    else:
        values = {"wall_s": med("wall_s", plain), "cpu_s": med("cpu_s", plain),
                  "setup_s": med("setup_s", probes + rounds),
                  "peak_rss_mb": med("peak_rss_mb", plain)}
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    print(f"{args.workload} seed {args.seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {len(probes) + len(rounds)} set-ups (medians)")
    for r in plain:
        print(f"  round wall {r['wall_s']:.3f} s  cpu {r['cpu_s']:.3f} s  setup {r['setup_s']:.3f} s"
              f"  rss {r['peak_rss_mb']:.1f} MiB  ops {r['attempted']} failed {r['failed']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not broken,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
