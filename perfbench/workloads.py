"""The benchmark's workloads: inputs made from the seed, the timed calls
into banachlab, and the checks of their outputs.

``config`` needs only the standard library, so run.py can write
a round's inputs without importing the program.  ``run`` and ``check`` run
inside the worker process, after banachlab has been imported.

An operation is one run_report.json record for the CLI workloads, and one
curve or one gamma point for gamma-sweep.  It fails when its call raises or
when its output fails a check that applies to it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from pathlib import Path

from oracles import curve_problems, expected_smooth, expected_verdict, gamma_problems

ALL_NORMS = ["euclid", "l15", "l3", "l1", "linf", "poly", "ellipse"]
SMOOTH_UC = ("euclid", "l15", "l3", "ellipse")

# suite-low: every stage of `banachlab all`, on three norm kinds (Hilbert,
# Hanner l_p, polygon) and five sets, two of them red by geometry.
SUITE_NORMS = ["euclid", "l3", "poly"]
SUITE_SETS = [["disc_complement", 1.0], ["l3_ball_complement", 1.0], ["halfplane", 2.0],
              ["disc", 1.5], ["square_complement", 0.5]]
SUITE_GRIDS = {"eps": [0.1, 0.25, 0.5, 0.8, 1.1, 1.4, 1.8],
               "tau": [0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0],
               "r": [0.1, 0.3, 0.5, 0.75, 1.0]}

MODULI_R = [0.25, 0.5, 1.0]

GAMMA_NORMS = ["euclid", "ellipse", "l15", "l3"]
GAMMA_POINTS = 8
GAMMA_PAIRS = 1024  # the pair budget `banachlab hypo --budget low` uses

WORKLOADS = ("suite-low", "moduli-default", "gamma-sweep")


def config(workload: str, seed: int) -> dict:
    """The JSON suite config of one workload, made from the seed alone."""
    rng = random.Random(seed)
    cli_seed = seed % (2 ** 31)
    if workload == "suite-low":
        return {"norms": SUITE_NORMS, "sets": SUITE_SETS, "grids": SUITE_GRIDS,
                "seed": cli_seed, "budget": "low"}
    if workload == "moduli-default":
        # Short grids, so the fixed 4096-angle pair scans dominate.  tau and
        # r double exactly from point to point, which the doubling-window
        # record needs.  r ends at 1, as the CLI's default r grid does, so
        # cmd_moduli evaluates delta at eps = 2r = 2.
        # The seed moves every eps and tau point by up to 2%, little enough
        # that the work, and so the time, hardly depends on it.  r is fixed.
        tau0 = round(rng.uniform(0.0196, 0.0204), 6)
        grids = {"eps": [round(e * rng.uniform(0.98, 1.02), 6) for e in (0.15, 0.5, 1.0, 1.6)],
                 "tau": [tau0 * 2 ** k for k in range(4)],
                 "r": MODULI_R}
        return {"norms": ALL_NORMS, "sets": [], "grids": grids,
                "seed": cli_seed, "budget": "default"}
    if workload == "gamma-sweep":
        # eps on (0, 0.5], so that 2 eps stays in the (0, 1] the upper
        # supporting modulus accepts.
        off = rng.uniform(0.0, 0.02)
        eps = [round(0.04 + 0.06 * k + off, 6) for k in range(GAMMA_POINTS)]
        return {"norms": GAMMA_NORMS, "sets": [],
                "grids": {"eps": eps, "tau": [e / 4.0 for e in eps], "r": [2.0 * e for e in eps]},
                "seed": cli_seed, "budget": "low"}
    raise KeyError(workload)


def cli_command(workload: str) -> str | None:
    return {"suite-low": "all", "moduli-default": "moduli"}.get(workload)


# ---------------------------------------------------------------------------
# timed part


def run(workload: str, cfg, cfg_path: Path, out: Path):
    """Call into banachlab; returns what check() needs."""
    command = cli_command(workload)
    if command is not None:
        from banachlab import cli
        argv = [command, "--config", str(cfg_path), "--out", str(out),
                "--seed", str(cfg.seed), "--budget", cfg.budget]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return {"rc": cli.main(argv)}
            except Exception as e:  # the call raised: every record fails
                return {"rc": None, "error": repr(e)}
    return _run_gamma(cfg)


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as e:
        return None, repr(e)


def _run_gamma(cfg):
    # module attributes are looked up at call time, so traced wrappers apply
    from banachlab import hypo as H, moduli as M, sets as S, zoo as Z
    norms = Z.norm_zoo()
    low = M.SearchBudget.preset("low")
    out = {}
    for nid in cfg.norms:
        n = norms[nid]
        A = S.make_ball_complement([0.0] * n.dim, 1.0, gauge=None if nid == "euclid" else n)
        out[nid] = {
            "rho": _attempt(M.rho_estimate, n, cfg.tau_grid, low),
            "support_upper": _attempt(M.supporting_modulus_estimate, n, cfg.r_grid, "upper", low),
            "gamma": [_attempt(H.gamma_estimate, A, n, float(e), budget=GAMMA_PAIRS)
                      for e in cfg.eps_grid],
        }
    return out


# ---------------------------------------------------------------------------
# checks, after the timed interval


def check(workload: str, cfg, raw, out: Path):
    """Returns (ops, broken, digest).

    ops is a list of (operation name, problems); an operation with problems
    failed.  broken lists faults of the run as a whole (a record missing or
    unexpected, a wrong exit code).  digest fingerprints the outputs, so that
    rounds of one run can be compared byte for byte.
    """
    command = cli_command(workload)
    if command is not None:
        return _check_cli(command, cfg, raw, out)
    return _check_gamma(cfg, raw)


def expected_checks(command: str, cfg, smooth: dict) -> list:
    """Record names `banachlab moduli` or `banachlab all` writes for a
    config, in any order."""
    names = []
    for nid in cfg.norms:
        names += [f"moduli/{nid}/{c}" for c in (
            "curves", "support-shift-sandwich-lower", "support-shift-sandwich-upper",
            "support-shift-order", "roundest-space-extremality", "doubling-window")]
    if command == "moduli":
        return names
    tags = [f"{sid}@{float(R):g}" for sid, R in cfg.sets]
    for tag in tags:
        names += [f"sets/{tag}/{c}" for c in
                  ("certificate", "rolling-projection", "rolling-normal", "coherence")]
    for nid in cfg.norms:
        if nid in SMOOTH_UC:
            names.append(f"hypo/{nid}/gamma-sandwich")
        if nid == "euclid":
            names.append("hypo/euclid/gamma-quadratic")
        names.append(f"hypo/{nid}/seventeenth-smoothness")
    for tag in tags:
        names += [f"hypo/{tag}/forward-smoothness", f"hypo/{tag}/forward-convexity"]
    names.append("hypo/renorm-transfer")
    names += [f"hypo/{tag}/section-bound" for tag in tags if smooth[tag]]
    names.append("hypo/touching-construction")
    return names


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verdict_problems(check_name: str, verdict: str, smooth: dict) -> list:
    want = expected_verdict(check_name, smooth)
    allowed = {"pass", "fail", "skip"} if want is None else (
        want if isinstance(want, set) else {want})
    if verdict not in allowed:
        return [f"{check_name}: verdict {verdict!r}, expected {sorted(allowed)}"]
    return []


def _record_problems(rec: dict, smooth: dict, out: Path) -> list:
    check_name, verdict = rec["check"], rec["verdict"]
    probs = verdict_problems(check_name, verdict, smooth)
    parts = check_name.split("/")
    if check_name.endswith("/curves"):
        nid = parts[1]
        for kind in ("delta", "rho", "support_lower", "support_upper"):
            rows = _read_rows(out / f"{nid}_{kind}.csv")
            directions = {r["direction"] for r in rows}
            probs += curve_problems(nid, kind, [r["arg"] for r in rows],
                                    [r["value"] for r in rows],
                                    directions.pop() if len(directions) == 1 else repr(directions))
    elif check_name.endswith("/gamma-sandwich"):
        for row in _read_rows(out / f"gamma_{parts[1]}.csv"):
            probs += gamma_problems(parts[1], float(row["eps"]), float(row["gamma"]))
    elif parts[0] == "sets" and parts[2] != "coherence":
        key = parts[2].replace("-", "_")
        art = json.loads((out / rec["artifacts"][0]).read_text())
        if art[key]["verdict"] != verdict:
            probs.append(f"{check_name}: artifact says {art[key]['verdict']!r}")
    return probs


def _digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _check_cli(command: str, cfg, raw, out: Path):
    smooth = {f"{sid}@{float(R):g}": expected_smooth(sid, float(R)) for sid, R in cfg.sets}
    expected = expected_checks(command, cfg, smooth)
    report_path = out / "run_report.json"
    if raw["rc"] is None or not report_path.exists():
        err = raw.get("error", "no run_report.json")
        return [(name, [err]) for name in expected], [], err
    records = json.loads(report_path.read_text())["records"]
    broken = []
    got = sorted(r["check"] for r in records)
    if got != sorted(expected):
        broken.append(f"records {sorted(set(got) ^ set(expected))} missing or unexpected")
    want_rc = 1 if any(r["verdict"] == "fail" for r in records) else 0
    if raw["rc"] != want_rc:
        broken.append(f"exit code {raw['rc']}, records imply {want_rc}")
    ops = []
    for rec in records:
        try:
            probs = _record_problems(rec, smooth, out)
        except (OSError, KeyError, ValueError) as e:
            probs = [f"{rec['check']}: {e!r}"]
        ops.append((rec["check"], probs))
    return ops, broken, _digest_dir(out)


def _check_gamma(cfg, raw):
    ops = []
    fingerprint = []
    for nid, res in raw.items():
        for kind in ("rho", "support_upper"):
            curve, err = res[kind]
            if err is not None:
                ops.append((f"{nid}/{kind}", [err]))
                continue
            ops.append((f"{nid}/{kind}", curve_problems(
                nid, kind, curve.args, curve.values, curve.direction)))
            fingerprint.append([float(v) for v in curve.values])
        for eps, (g, err) in zip(cfg.eps_grid, res["gamma"]):
            if err is not None:
                ops.append((f"{nid}/gamma@{eps:g}", [err]))
                continue
            ops.append((f"{nid}/gamma@{eps:g}", gamma_problems(nid, float(eps), float(g))))
            fingerprint.append(float(g))
    digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
    return ops, [], digest
