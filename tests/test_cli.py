"""Suite runner: config validation, file formats, determinism."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import banachlab as bl
from banachlab import cli


def run_cli(args):
    return cli.main(list(args))


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TINY = {
    "norms": ["euclid"],
    "sets": [["two_points", 0.5]],
    "grids": {
        "eps": [0.1, 0.3, 0.6],
        "tau": [0.05, 0.1, 0.2, 0.4, 0.8],
        "r": [0.1, 0.25, 0.4],
    },
    "budget": "low",
    "seed": 5,
}


# ---------------------------------------------------------------------------
# config validation (exit code 2)


def test_rejects_out_of_domain_eps(tmp_path):
    cfg = dict(TINY, grids=dict(TINY["grids"], eps=[0.5, 2.5]))
    path = write_config(tmp_path, cfg)
    assert run_cli(["moduli", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_rejects_unknown_norm(tmp_path):
    cfg = dict(TINY, norms=["euclid", "l7"])
    path = write_config(tmp_path, cfg)
    assert run_cli(["moduli", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_rejects_unknown_set(tmp_path):
    cfg = dict(TINY, sets=[["three_points", 0.5]])
    path = write_config(tmp_path, cfg)
    assert run_cli(["sets", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_rejects_unknown_key(tmp_path):
    cfg = dict(TINY, extra=1)
    path = write_config(tmp_path, cfg)
    assert run_cli(["moduli", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_cli(["moduli", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_rejects_bad_budget(tmp_path):
    cfg = dict(TINY, budget="huge")
    path = write_config(tmp_path, cfg)
    assert run_cli(["moduli", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("change", [
    {"sets": [["disc", "x"]]},
    {"sets": [["disc", math.inf]]},
    {"sets": [["disc", -1.0]]},
    {"sets": [[1.5, "disc"]]},
    {"sets": 5},
    {"norms": [["euclid"]]},
    {"seed": "abc"},
    {"seed": -3},
    {"seed": 2.5},
    {"grids": {"r": 0.5}},
    {"grids": 5},
    {"grids": {"eps": [0.1, "a"]}},
    {"grids": {"tau": [0.1, math.nan]}},
    {"grids": {"tau": [0.1, 10 ** 400]}},
    {"sets": [["disc", 10 ** 400]]},
    {"grids": {"tua": [0.5]}},
    {"out_dir": None},
], ids=["scale-text", "scale-inf", "scale-negative", "set-id-number", "sets-number",
        "norm-id-list", "seed-text", "seed-negative", "seed-fraction", "grid-number",
        "grids-number", "grid-text", "grid-nan", "grid-huge-integer", "scale-huge-integer",
        "grids-unknown-key", "out-dir-null"])
def test_rejects_bad_values(tmp_path, change):
    """Non-numeric, non-finite and negative config values, integers beyond the
    float range, unknown grid names and a non-string out_dir are
    configuration errors, not failing records (exit 1), tracebacks or a
    silently ignored entry."""
    path = write_config(tmp_path, dict(TINY, **change))
    assert run_cli(["sets", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "integer-beyond-int-parsing"])
def test_rejects_unreadable_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert run_cli(["moduli", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_rejects_negative_seed_option(tmp_path):
    path = write_config(tmp_path, TINY)
    assert run_cli(["moduli", "--config", path, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2


def test_euclidean_ambient_curves_are_closed_form_arrays():
    """The hypo stage reads the curves of the Euclidean ambients, euclid3
    included, from the estimators' closed forms: ndarray arguments and
    values, so the curve helpers accept them, with the bits of the planar
    euclid curves."""
    low, norms = bl.SearchBudget.preset("low"), bl.norm_zoo()
    grid = [0.01, 0.02, 0.04, 0.08]
    for nid in ("euclid", "euclid3"):
        delta, rho = (cli._ambient_curve(e, nid, norms, low, grid, cli.RunCache())
                      for e in (bl.delta_estimate, bl.rho_estimate))
        assert isinstance(rho.args, np.ndarray) and isinstance(delta.values, np.ndarray)
        assert np.array_equal(rho.values, bl.rho_estimate(norms["euclid"], rho.args, low).values)
        assert np.array_equal(delta.values, bl.delta_estimate(norms["euclid"], delta.args, low).values)
        lo, hi = bl.doubling_ratio(rho)
        assert 3.9 < lo <= hi < 4.0


def test_empty_norm_list_is_a_clean_no_op(tmp_path):
    cfg = dict(TINY, norms=[], sets=[])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert run_cli(["moduli", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["records"] == []


def _scipy_modules_after(code: str) -> str:
    """The SciPy modules loaded in a fresh interpreter after running code."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_import_and_registry_do_not_load_scipy():
    """A cold start (the package, the norm zoo and the set registry) needs no
    SciPy, which is a test dependency only: numpy is the one runtime
    dependency."""
    assert _scipy_modules_after("import banachlab\nfrom banachlab import zoo\n"
                                "zoo.set_registry(zoo.norm_zoo())") == "[]"


def test_chord_projection_check_does_not_load_scipy():
    """The chord search, the last one that used SciPy, runs on the bracketed
    root search of the moduli."""
    assert _scipy_modules_after("import banachlab as bl\n"
                                "print(bl.chord_projection_check(bl.lp_norm(3), [1.0, 0.0], [1.0, 0.4])[0])"
                                ) == "True\n[]"


# ---------------------------------------------------------------------------
# artifacts


@pytest.fixture(scope="module")
def moduli_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("moduli")
    path = write_config(tmp, TINY)
    out = tmp / "out"
    code = run_cli(["moduli", "--config", path, "--out", str(out)])
    return code, out


def test_moduli_exit_code(moduli_run):
    code, _ = moduli_run
    assert code == 0


def test_moduli_writes_curve_files(moduli_run):
    _, out = moduli_run
    for stem in ("euclid_delta", "euclid_rho",
                 "euclid_support_lower", "euclid_support_upper"):
        f = out / f"{stem}.csv"
        assert f.exists(), stem
        rows = list(csv.reader(f.open()))
        assert rows[0] == ["arg", "value", "direction"]
        assert len(rows) > 1


def test_moduli_curves_monotone(moduli_run):
    _, out = moduli_run
    rows = list(csv.DictReader((out / "euclid_delta.csv").open()))
    vals = [float(r["value"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_report_schema(moduli_run):
    _, out = moduli_run
    report = json.loads((out / "run_report.json").read_text())
    assert set(report) == {"budget", "command", "records", "seed"}
    for rec in report["records"]:
        assert set(rec) == {"check", "anchor", "verdict", "margin", "artifacts"}
        assert rec["verdict"] in ("pass", "fail", "skip")


def test_sets_artifacts_and_expected_failures(tmp_path):
    cfg = dict(TINY, sets=[["two_points", 0.5], ["two_points", 1.5]])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = run_cli(["sets", "--config", path, "--out", str(out)])
    assert code == 1  # the wide two-point scale must fail
    report = json.loads((out / "run_report.json").read_text())
    by_check = {r["check"]: r["verdict"] for r in report["records"]}
    assert by_check["sets/two_points@0.5/certificate"] == "pass"
    assert by_check["sets/two_points@1.5/certificate"] == "fail"
    assert by_check["sets/two_points@1.5/coherence"] == "pass"
    assert (out / "sets_two_points_1.5.json").exists()


def test_hypo_gamma_artifacts(tmp_path):
    cfg = dict(TINY, sets=[])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = run_cli(["hypo", "--config", path, "--out", str(out)])
    assert code == 1  # the seventeenth-smoothness record is expected red
    rows = list(csv.DictReader((out / "gamma_euclid.csv").open()))
    assert [r["eps"] for r in rows] == ["0.05", "0.1", "0.2", "0.4"]
    for r in rows:
        g = float(r["gamma"])
        assert float(r["lower_bound"]) - 5e-3 <= g <= float(r["upper_bound"]) + 5e-3


def test_hypo_estimates_only_the_curves_it_reads(tmp_path, monkeypatch):
    """The seventeenth-smoothness records read rho alone, so hypo on a norm
    with no sets estimates no delta curve."""
    calls = []
    delta_estimate = cli.M.delta_estimate
    monkeypatch.setattr(cli.M, "delta_estimate", lambda *a: calls.append(a) or delta_estimate(*a))
    path = write_config(tmp_path, dict(TINY, norms=["poly"], sets=[]))
    run_cli(["hypo", "--config", path, "--out", str(tmp_path / "out")])
    assert calls == []


def test_gamma_sweep_script_on_a_polygon(tmp_path):
    """scripts/gamma_sweep.py, the one caller that reaches gamma on a
    polyhedral norm: finite gamma cells, and the supporting-modulus cell
    empty exactly where 2 eps > 1."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "gamma_sweep.py"
    spec = importlib.util.spec_from_file_location("gamma_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    out = tmp_path / "sweep.csv"
    assert sweep.main(["--norm", "poly", "--steps", "3", "--bounds", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    for r in rows:
        assert math.isfinite(float(r["gamma"]))
        assert (r["upper_twice_lam"] == "") == (2.0 * float(r["eps"]) > 1.0)


def test_seed_override_changes_report_header(tmp_path):
    path = write_config(tmp_path, TINY)
    out = tmp_path / "out"
    run_cli(["moduli", "--config", path, "--out", str(out), "--seed", "77"])
    report = json.loads((out / "run_report.json").read_text())
    assert report["seed"] == 77


# ---------------------------------------------------------------------------
# determinism


def _slurp(root: Path):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_repeat_runs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, TINY)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = run_cli(["sets", "--config", path, "--out", str(out)])
        assert code == 0
        outs.append(_slurp(out))
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name


def test_same_seed_same_verdicts_across_commands(tmp_path):
    path = write_config(tmp_path, TINY)
    verdicts = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_cli(["moduli", "--config", path, "--out", str(out)])
        report = json.loads((out / "run_report.json").read_text())
        verdicts.append([(r["check"], r["verdict"]) for r in report["records"]])
    assert verdicts[0] == verdicts[1]


def test_all_equals_the_separate_stages(tmp_path):
    """`all` computes each curve point and rolling-ball check once and shares
    them between stages; its artifacts and records must still be those of
    the three stages run on their own."""
    cfg = {
        "norms": ["l3"],
        "sets": [["l3_ball_complement", 1.0], ["halfplane", 2.0]],
        "grids": {"eps": [0.1, 0.5, 1.2], "tau": [0.05, 0.1, 0.2, 0.4], "r": [0.1, 0.3, 0.5]},
        "budget": "low",
        "seed": 3,
    }
    path = write_config(tmp_path, cfg)
    run_cli(["all", "--config", path, "--out", str(tmp_path / "all")])
    whole = _slurp(tmp_path / "all")
    parts = {}
    records = []
    for command in ("moduli", "sets", "hypo"):
        out = tmp_path / command
        run_cli([command, "--config", path, "--out", str(out)])
        files = _slurp(out)
        records += json.loads(files.pop("run_report.json"))["records"]
        assert not parts.keys() & files.keys(), command
        parts.update(files)
    report = json.loads(whole.pop("run_report.json"))
    assert report["records"] == records
    assert whole.keys() == parts.keys()
    for name in whole:
        assert whole[name] == parts[name], name
