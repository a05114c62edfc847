"""Suite runner.

Subcommands: moduli (curve sweeps and modulus inequalities), sets (projection
and rolling-ball certificates over the set zoo), hypo (pairing-functional
sweeps, hypomonotonicity records, touching-point construction), all.  The
stages of one run share a RunCache: before any stage runs, it estimates
every modulus curve they read, each (curve, norm) once on the union of their
grids, and it runs each rolling-ball normal check once.

Outputs one CSV per curve and a run_report.json per invocation.  Under a fixed
seed and budget, repeated runs are byte-identical; no timestamps are written.
Exit codes: 0 all records pass, 1 any record fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import hypo as H
from . import moduli as M
from . import psifuncs as P
from . import sets as S
from . import zoo as Z


class ConfigError(ValueError):
    pass


_SMOOTH_UC = ("euclid", "l15", "l3", "ellipse")  # uniformly convex and smooth

_BUDGET_SAMPLES = {
    "low": {"cert": 20, "roll": 24, "pairs": 512, "gamma": 1024, "section": 200, "touch": 20},
    "default": {"cert": 40, "roll": 48, "pairs": 2048, "gamma": 4096, "section": 1000, "touch": 100},
    "high": {"cert": 80, "roll": 96, "pairs": 8192, "gamma": 8192, "section": 2000, "touch": 200},
}


def _default_eps_grid():
    return [round(0.05 * k, 10) for k in range(1, 39)]  # 0.05 .. 1.90


def _default_tau_grid():
    pts = sorted({min(1.0, round(0.01 * 2.0 ** (k / 3.0), 12)) for k in range(20)} | {1.0})
    return pts


def _default_r_grid():
    return [round(v, 10) for v in np.linspace(0.05, 1.0, 20)]


@dataclasses.dataclass
class SuiteConfig:
    norms: list
    sets: list  # (set id, R) pairs
    eps_grid: list
    tau_grid: list
    r_grid: list
    seed: int = 0
    budget: str = "default"
    out_dir: str = "out"


def default_config() -> SuiteConfig:
    return SuiteConfig(
        norms=["euclid", "l15", "l3", "l1", "linf", "poly", "ellipse"],
        sets=[list(t) for t in Z.DEFAULT_SET_SCALES],
        eps_grid=_default_eps_grid(),
        tau_grid=_default_tau_grid(),
        r_grid=_default_r_grid(),
    )


def load_config(path, seed=None, budget=None, out_dir=None) -> SuiteConfig:
    cfg = default_config()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:  # bad UTF-8 and over-long integers too
            raise ConfigError(f"cannot read config: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key in raw:
            if key not in {"norms", "sets", "grids", "seed", "budget", "out_dir"}:
                raise ConfigError(f"unknown config key {key!r}")
        if "norms" in raw:
            cfg.norms = raw["norms"]
        if "sets" in raw:
            cfg.sets = raw["sets"]
        grids = raw.get("grids", {})
        if not isinstance(grids, dict):
            raise ConfigError("grids must be a JSON object")
        for key in grids:
            if key not in {"eps", "tau", "r"}:
                raise ConfigError(f"unknown grids key {key!r}")
        for key, attr in (("eps", "eps_grid"), ("tau", "tau_grid"), ("r", "r_grid")):
            if key in grids:
                if not isinstance(grids[key], list):
                    raise ConfigError(f"{key} grid must be a list, got {grids[key]!r}")
                setattr(cfg, attr, [_number(v, f"{key} grid value") for v in grids[key]])
        if "seed" in raw:
            cfg.seed = raw["seed"]
        if "budget" in raw:
            cfg.budget = str(raw["budget"])
        if "out_dir" in raw:
            if not isinstance(raw["out_dir"], str):
                raise ConfigError(f"out_dir must be a string, got {raw['out_dir']!r}")
            cfg.out_dir = raw["out_dir"]
    if seed is not None:
        cfg.seed = seed
    if budget is not None:
        cfg.budget = budget
    if out_dir is not None:
        cfg.out_dir = out_dir
    _validate(cfg)
    return cfg


def _number(v, what: str) -> float:
    """v as a float, when it is a JSON number that a float holds finitely."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = np.inf
        if np.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {v!r}")


def _validate(cfg: SuiteConfig):
    norms = Z.norm_zoo()
    registry = Z.set_registry(norms)
    if not isinstance(cfg.norms, list) or not isinstance(cfg.sets, list):
        raise ConfigError("norms and sets must be lists")
    for nid in cfg.norms:
        if not isinstance(nid, str) or nid not in norms:
            raise ConfigError(f"unknown norm id {nid!r}")
    for entry in cfg.sets:
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[0], str):
            raise ConfigError(f"set entries must be [id, R], got {entry!r}")
        sid, R = entry
        if sid not in registry:
            raise ConfigError(f"unknown set id {sid!r}")
        if not (_number(R, "set scale") > 0):
            raise ConfigError(f"set scale must be positive, got {R!r}")
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.budget not in _BUDGET_SAMPLES:
        raise ConfigError(f"budget must be one of low/default/high, got {cfg.budget!r}")
    for v in cfg.eps_grid:
        if not (0.0 < v <= 2.0):
            raise ConfigError(f"eps grid value {v} outside (0, 2]")
    for label, grid in (("tau", cfg.tau_grid), ("r", cfg.r_grid)):
        for v in grid:
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{label} grid value {v} outside (0, 1]")
    if not cfg.eps_grid or not cfg.tau_grid or not cfg.r_grid:
        raise ConfigError("grids must be nonempty")


# ---------------------------------------------------------------------------
# report plumbing


def _rec(check, anchor, verdict, margin, artifacts=()):
    return {
        "check": check,
        "anchor": anchor,
        "verdict": verdict,
        "margin": None if margin is None else float(margin),
        "artifacts": list(artifacts),
    }


def _bound(check, anchor, margin, artifacts=()):
    """A record that passes when its margin is nonnegative."""
    return _rec(check, anchor, "pass" if margin >= 0 else "fail", margin, artifacts)


def _fmt(v) -> str:
    return "%.12g" % float(v)


def _grid(*parts):
    """The sorted distinct values of the parts, as np.unique gives them;
    np.unique's first call would import numpy.ma, a cost of every run."""
    v = np.sort(np.concatenate([np.ravel(np.asarray(p, dtype=float)) for p in parts]))
    return v[np.concatenate([[True], v[1:] != v[:-1]])]


def _write_rows(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_curve(out: Path, stem: str, curve: M.ModulusCurve) -> str:
    fname = f"{stem}.csv"
    rows = [(a, v, curve.direction) for a, v in zip(curve.args, curve.values)]
    _write_rows(out / fname, ("arg", "value", "direction"), rows)
    return fname


# ---------------------------------------------------------------------------
# per-run cache

_SANDWICH_EPS = np.array([0.05, 0.1, 0.2, 0.4])  # the eps of hypo's gamma sandwich


def _moduli_grids(cfg: SuiteConfig) -> dict:
    """The grid of each curve cmd_moduli reads of every norm, by kind."""
    r = np.asarray(cfg.r_grid, dtype=float)
    return {"delta": _grid(cfg.eps_grid, 2.0 * r), "rho": _grid(cfg.tau_grid, r / 2.0, 2.0 * r),
            "lower": r, "upper": r}


def _sandwich_grids(cfg: SuiteConfig) -> dict:
    """The grid of each curve hypo's gamma sandwich reads, by kind: rho at
    eps/4 (and the r grid) and the upper supporting modulus at 2 eps."""
    return {"rho": _grid(_SANDWICH_EPS / 4.0, cfg.r_grid), "upper": 2.0 * _SANDWICH_EPS}


def _ambient_grid(r_grid):
    """The grid of the delta and rho curves that hypo turns into psi."""
    return _grid(r_grid, np.linspace(0.0125, 0.1, 8), np.linspace(1.1, 2.0, 6))


def _forward_ambient(cfg: SuiteConfig, ambient_id: str) -> bool:
    """Whether hypo checks the forward implications of a set under this
    ambient: a Euclidean one, or one of the configured norms."""
    return ambient_id in ("euclid", "euclid3") or ambient_id in cfg.norms


def _curve_requests(cfg: SuiteConfig, commands, registry: dict) -> list:
    """(kind, norm id, grid) of every modulus curve the stages of commands
    read; kind is delta, rho, or the lower or upper supporting modulus."""
    req = []
    if "moduli" in commands:
        req += [(kind, nid, g) for nid in cfg.norms for kind, g in _moduli_grids(cfg).items()]
    if "hypo" in commands:
        ambient = _ambient_grid(cfg.r_grid)
        for nid in cfg.norms:
            if nid in _SMOOTH_UC:
                req += [(kind, nid, g) for kind, g in _sandwich_grids(cfg).items()]
            req.append(("rho", nid, ambient))
        for sid, _ in cfg.sets:
            ambient_id = registry[sid][1]
            if _forward_ambient(cfg, ambient_id):
                req += [("delta", ambient_id, ambient), ("rho", ambient_id, ambient)]
    return req


class RunCache:
    """What one run computes once for all of its stages.

    `main` builds one per run from the curve requests of the stages it will
    run (_curve_requests), and resolves them before any stage runs: each
    (kind, norm) is estimated once, on the union of the grids that read it,
    and both supporting moduli of a norm come from one search over the
    union of their grids.  A stage slices its grid out of that table
    (curve).  Each grid point is an independent search, so a point has the
    bits it would have on a stage's grid alone.  Rolling-ball normal
    reports are kept per call, and the stages read the run's norm zoo and
    set registry (norms, registry).
    """

    def __init__(self, cfg: SuiteConfig, commands):
        self.norms = norms = Z.norm_zoo()
        self.registry = Z.set_registry(norms)
        grids = {}
        for kind, nid, g in _curve_requests(cfg, commands, self.registry):
            grids.setdefault((kind, nid), []).append(g)
        budget = M.SearchBudget.preset(cfg.budget)
        self._curves = {}
        for nid in dict.fromkeys(nid for _, nid in grids):
            n = Z.ambient_norm(norms, nid)
            for kind, estimator in (("delta", M.delta_estimate), ("rho", M.rho_estimate)):
                if (kind, nid) in grids:
                    self._curves[kind, nid] = estimator(n, _grid(*grids[kind, nid]), budget)
            which = tuple(w for w in ("lower", "upper") if (w, nid) in grids)
            if which:
                r = _grid(*(g for w in which for g in grids[w, nid]))
                self._curves.update(zip([(w, nid) for w in which],
                                        M.supporting_modulus_estimate(n, r, which, budget)))
        self._rolling = {}

    def curve(self, kind, nid, args) -> M.ModulusCurve:
        """The resolved curve of kind on norm id nid, at args in their order;
        KeyError for a curve or an argument that no request stated."""
        c = self._curves[kind, nid]
        args = np.asarray(args, dtype=float)
        i = np.minimum(np.searchsorted(c.args, args), c.args.size - 1)
        if not np.array_equal(c.args[i], args):
            raise KeyError(f"{kind} of {nid} was not requested at every argument")
        return dataclasses.replace(c, args=args.copy(), values=c.values[i])

    def rolling_normal(self, spec, n, R, sample_count, seed):
        key = (spec, n, R, sample_count, seed)
        if key not in self._rolling:
            self._rolling[key] = S.rolling_ball_check_normal(spec, n, R, sample_count=sample_count,
                                                             seed=seed)
        return self._rolling[key]


# ---------------------------------------------------------------------------
# moduli command


def cmd_moduli(cfg: SuiteConfig, out: Path, cache: RunCache) -> list:
    records = []
    tol = 5e-3
    grids = _moduli_grids(cfg)
    r = grids["upper"]
    for nid in cfg.norms:
        delta, rho, lam_lo, lam_hi = (cache.curve(kind, nid, g) for kind, g in grids.items())
        arts = [
            _write_curve(out, f"{nid}_delta", delta),
            _write_curve(out, f"{nid}_rho", rho),
            _write_curve(out, f"{nid}_support_lower", lam_lo),
            _write_curve(out, f"{nid}_support_upper", lam_hi),
        ]
        records.append(_rec(f"moduli/{nid}/curves", "modulus-curve-sweep", "pass", None, arts))

        lo_v = np.asarray(lam_lo.values)
        hi_v = np.asarray(lam_hi.values)
        d2r = np.array([delta.eval(t) for t in 2.0 * r])
        rho_half = np.array([rho.eval(t) for t in r / 2.0])
        rho_twice = np.array([rho.eval(t) for t in 2.0 * r])
        chord_gap = 1.0 - np.sqrt(np.maximum(0.0, 1.0 - r * r))

        records.append(_bound(f"moduli/{nid}/support-shift-sandwich-lower", "support-shift-vs-convexity",
                              np.min(np.minimum(d2r + tol - lo_v, chord_gap + tol - d2r))))
        records.append(_bound(f"moduli/{nid}/support-shift-sandwich-upper", "support-shift-vs-smoothness",
                              np.min(np.minimum(hi_v - rho_half + tol, rho_twice + tol - hi_v))))
        records.append(_bound(f"moduli/{nid}/support-shift-order", "support-shift-order",
                              np.min(np.minimum.reduce([lo_v + tol, hi_v - lo_v + tol, r - hi_v + tol]))))

        d_vals = np.asarray(delta.values)
        r_vals = np.asarray(rho.values)
        records.append(_bound(f"moduli/{nid}/roundest-space-extremality", "roundest-space-extremality",
                              min(np.min(M.hilbert_delta(np.asarray(delta.args)) + tol - d_vals),
                                  np.min(r_vals - M.hilbert_rho(np.asarray(rho.args)) + tol))))

        if nid in _SMOOTH_UC:
            lo_b, hi_b = M.doubling_ratio(rho)
            records.append(_bound(f"moduli/{nid}/doubling-window", "smoothness-doubling-window",
                                  min(4.15 - hi_b, lo_b - 1.85)))
        else:
            records.append(_rec(f"moduli/{nid}/doubling-window", "smoothness-doubling-window",
                                "skip", None))
    return records


# ---------------------------------------------------------------------------
# sets command


def cmd_sets(cfg: SuiteConfig, out: Path, cache: RunCache) -> list:
    norms, registry = cache.norms, cache.registry
    counts = _BUDGET_SAMPLES[cfg.budget]
    records = []
    for sid, R in cfg.sets:
        R = float(R)
        spec, ambient_id = registry[sid]
        n = Z.ambient_norm(norms, ambient_id)
        tag = f"{sid}@{R:g}"
        cert = S.prox_smooth_certificate(spec, n, R, sample_count=counts["cert"], seed=cfg.seed)
        omp = S.rolling_ball_check_projection(spec, n, R, sample_count=counts["roll"], seed=cfg.seed)
        omn = cache.rolling_normal(spec, n, R, counts["roll"], cfg.seed)
        fname = f"sets_{sid}_{R:g}.json"
        (out / fname).write_text(json.dumps({
            "certificate": json.loads(cert.to_json()),
            "rolling_projection": json.loads(omp.to_json()),
            "rolling_normal": json.loads(omn.to_json()),
        }, sort_keys=True, indent=2) + "\n")
        records.append(_rec(f"sets/{tag}/certificate", "shell-projection-certificate",
                            cert.verdict, cert.worst_margin, [fname]))
        records.append(_rec(f"sets/{tag}/rolling-projection", "exterior-ball-along-projection",
                            omp.verdict, omp.worst_margin, [fname]))
        records.append(_rec(f"sets/{tag}/rolling-normal", "exterior-ball-along-normal",
                            omn.verdict, omn.worst_margin, [fname]))
        coherent = cert.verdict == omp.verdict == omn.verdict
        records.append(_rec(f"sets/{tag}/coherence", "certificate-coherence",
                            "pass" if coherent else "fail", None))
    return records


# ---------------------------------------------------------------------------
# hypo command


def _hypo_verdict(spec, n, psi, R: float, pairs: int, seed: int):
    """The verdict and margin of hypo_check at eps_max = 2R; a set with no
    feasible pair passes, with no margin."""
    try:
        rep = H.hypo_check(spec, n, psi, R, eps_max=2.0 * R, pair_budget=pairs, seed=seed)
    except H.NoFeasiblePairs:
        return "pass", None
    return rep.verdict, rep.worst_margin


def cmd_hypo(cfg: SuiteConfig, out: Path, cache: RunCache) -> list:
    norms, registry = cache.norms, cache.registry
    counts = _BUDGET_SAMPLES[cfg.budget]
    records = []
    ambient = _ambient_grid(cfg.r_grid)
    grids = _sandwich_grids(cfg)

    # pairing-functional sandwich per uniformly convex and smooth norm
    for nid in [x for x in cfg.norms if x in _SMOOTH_UC]:
        n = norms[nid]
        A = S.make_ball_complement([0.0] * n.dim, 1.0, gauge=n)
        rho, lam_hi = (cache.curve(kind, nid, grids[kind]) for kind in ("rho", "upper"))
        gamma = H.gamma_estimate(A, n, _SANDWICH_EPS, budget=counts["gamma"], seed=cfg.seed)
        rows = []
        worst = np.inf
        for eps, g in zip(_SANDWICH_EPS, gamma.tolist()):
            lo = float(rho.eval(eps / 4.0))
            hi = 2.0 * float(lam_hi.eval(2.0 * eps))
            rows.append((eps, g, lo, hi))
            worst = min(worst, g - (lo - 5e-3), (hi + 5e-3) - g)
        fname = f"gamma_{nid}.csv"
        _write_rows(out / fname, ("eps", "gamma", "lower_bound", "upper_bound"), rows)
        records.append(_bound(f"hypo/{nid}/gamma-sandwich", "pairing-defect-sandwich", worst, [fname]))
        if nid == "euclid":
            records.append(_bound("hypo/euclid/gamma-quadratic", "euclidean-pairing-defect",
                                  min(1e-3 - abs(g - e * e) for e, g, _, _ in rows), [fname]))

    # one-seventeenth smoothness certificate per test norm
    for nid in cfg.norms:
        n = norms[nid]
        A = S.make_ball_complement([0.0] * n.dim, 1.0, gauge=n)
        psi = P.psi_from_curve(cache.curve("rho", nid, ambient), scale=1.0 / 17.0,
                               name="seventeenth-smoothness")
        rep = H.hypo_check(A, n, psi, 1.0, eps_max=0.4, pair_budget=counts["pairs"], seed=cfg.seed)
        records.append(_rec(f"hypo/{nid}/seventeenth-smoothness", "seventeenth-smoothness-certificate",
                            rep.verdict, rep.worst_margin))

    # desk-scale forward implications over the configured sets, and the
    # section bound for members that clear the rolling-ball normal check
    sections = []
    for sid, R in cfg.sets:
        R = float(R)
        spec, ambient_id = registry[sid]
        tag = f"{sid}@{R:g}"
        n = Z.ambient_norm(norms, ambient_id)
        if not _forward_ambient(cfg, ambient_id):
            records.append(_rec(f"hypo/{tag}/forward-smoothness", "rolling-ball-implies-hypomonotone",
                                "skip", None))
            records.append(_rec(f"hypo/{tag}/forward-convexity", "hypomonotone-implies-rolling-ball",
                                "skip", None))
            continue
        omn = cache.rolling_normal(spec, n, R, counts["roll"], cfg.seed)
        delta_c, rho_c = (cache.curve(kind, ambient_id, ambient) for kind in ("delta", "rho"))
        smooth = (_hypo_verdict(spec, n, P.psi_from_curve(rho_c, scale=4.0, name="four-smoothness"), R,
                                counts["pairs"], cfg.seed) if omn.verdict == "pass" else ("skip", None))
        convex = _hypo_verdict(spec, n, P.psi_from_curve(delta_c, scale=2.0, name="two-convexity"), R,
                               counts["pairs"], cfg.seed)[0] == "pass"
        records.append(_rec(f"hypo/{tag}/forward-smoothness", "rolling-ball-implies-hypomonotone",
                            *smooth))
        records.append(_rec(f"hypo/{tag}/forward-convexity", "hypomonotone-implies-rolling-ball",
                            *((omn.verdict, omn.worst_margin) if convex else ("skip", None))))
        if omn.verdict == "pass":
            a0 = np.asarray(S.boundary_sample(spec, n, 1, seed=cfg.seed + 29)[0])
            rep = H.section_bound_check(spec, n, R, rho_c, a0, delta=R / 2.0,
                                        sample_count=counts["section"], seed=cfg.seed)
            sections.append(_rec(f"hypo/{tag}/section-bound", "boundary-section-bound",
                                 rep.verdict, rep.worst_margin))

    # renorming transfer: box complement, max-norm certificate moved to euclid
    box = Z.linf_box_complement(norms)
    tgrid = np.linspace(0.0, 1.2, 13)
    psi_lin = P.PsiSpec(knots=tgrid, values=2.0 * tgrid, lipschitz=2.0, name="two-linear")
    rep_inf = H.hypo_check(box, norms["linf"], psi_lin, 1.0, eps_max=0.5,
                           pair_budget=counts["pairs"], seed=cfg.seed)
    psi_moved = P.rescale_psi(psi_lin, arg_scale=np.sqrt(2.0), value_scale=2.0, name="moved")
    rep_e = H.hypo_check(box, norms["euclid"], psi_moved, 1.0 / np.sqrt(2.0), eps_max=0.35,
                         pair_budget=counts["pairs"], seed=cfg.seed)
    ok = rep_inf.verdict == "pass" and rep_e.verdict == "pass"
    records.append(_rec("hypo/renorm-transfer", "equivalent-norm-transfer",
                        "pass" if ok else "fail",
                        min(rep_inf.worst_margin, rep_e.worst_margin)))
    records += sections

    # constructive touching points across the zoo
    if not cfg.sets:
        records.append(_rec("hypo/touching-construction", "near-touch-construction",
                            "skip", None))
        return records
    rng = np.random.default_rng(cfg.seed + 41)
    failures = 0
    attempts = 0
    k = 0
    while attempts < counts["touch"] and k < 50 * counts["touch"]:
        sid, R = cfg.sets[k % len(cfg.sets)]
        k += 1
        spec, ambient_id = registry[sid]
        n = Z.ambient_norm(norms, ambient_id)
        try:
            z0 = S.shell_sample(spec, n, float(R), 1, seed=cfg.seed + k)[0]
        except S.EmptyShell:
            continue
        z1 = Z.sample_inside(spec, rng)
        eps = float(rng.uniform(0.05, 0.5))
        attempts += 1
        try:
            H.touching_point_search(spec, n, z0, z1, eps)  # it checks both separation inequalities
        except (H.ConstructionFailed, ValueError):
            failures += 1
    records.append(_rec("hypo/touching-construction", "near-touch-construction",
                        "pass" if failures == 0 else "fail", -float(failures)))
    return records


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="banachlab",
                                     description="normed-space geometry suite runner")
    parser.add_argument("command", choices=["moduli", "sets", "hypo", "all"])
    parser.add_argument("--config", default=None, help="path to a JSON suite config")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--budget", choices=["low", "default", "high"], default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed, budget=args.budget, out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"config error: cannot create output directory: {e}", file=sys.stderr)
        return 2

    commands = ("moduli", "sets", "hypo") if args.command == "all" else (args.command,)
    cache = RunCache(cfg, commands)
    stages = {"moduli": cmd_moduli, "sets": cmd_sets, "hypo": cmd_hypo}
    records = []
    for command in commands:
        records += stages[command](cfg, out, cache)

    report = {
        "command": args.command,
        "seed": cfg.seed,
        "budget": cfg.budget,
        "records": records,
    }
    (out / "run_report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    n_fail = sum(1 for r in records if r["verdict"] == "fail")
    for r in records:
        print(f"[{r['verdict'].upper():>4}] {r['check']}")
    print(f"{len(records)} records, {n_fail} failing; report: {out / 'run_report.json'}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
