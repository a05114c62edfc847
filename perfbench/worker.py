"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --config CFG --out DIR
        --result FILE [--trace-file FILE] [--setup-only]

Set-up (timed as setup_s) imports banachlab from the checkout's src/,
builds norm_zoo() and set_registry(), and loads and validates the config.
The workload itself is timed from its first call into the program to its
last output written; its outputs are checked afterwards.  The round's
figures go to --result as JSON.  With --trace-file the round runs traced and
writes its spans there.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import banachlab
    from banachlab import cli, zoo
    if src.resolve() not in Path(banachlab.__file__).resolve().parents:
        print(f"banachlab imported from {banachlab.__file__}, not {src}", file=sys.stderr)
        return 2
    zoo.set_registry(zoo.norm_zoo())
    raw_cfg = json.loads(Path(args.config).read_text())
    cfg = cli.load_config(args.config, seed=raw_cfg["seed"], budget=raw_cfg["budget"],
                          out_dir=args.out)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import workloads
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tracer = None
        if args.trace_file:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        raw = workloads.run(args.workload, cfg, Path(args.config), out)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace_file)
        ops, broken, digest = workloads.check(args.workload, cfg, raw, out)
        result.update({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": len(ops),
            "failed": sum(1 for _, probs in ops if probs),
            "problems": [p for _, probs in ops for p in probs][:20],
            "broken": broken,
            "digest": digest,
            "trace": tracer.metrics() if tracer is not None else None,
        })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
