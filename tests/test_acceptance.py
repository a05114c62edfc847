"""Acceptance suite: eleven end-to-end checks at their stated tolerances.

Each test prints one [PASS]/[FAIL] line. One check (05) is expected to be
red: the one-seventeenth smoothness certificate is too small for the unit
ball complement at radius one on every test norm, and the check is kept
faithful rather than loosened. See the package README.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import banachlab as bl
from banachlab.moduli import SearchBudget
from conftest import EPS_GRID, R_GRID, TAU_GRID


SMOOTH_UC = ("euclid", "l15", "l3", "ellipse")
ALL_NORMS = ("euclid", "l15", "l3", "l1", "linf", "poly", "ellipse")


def _line(capsys, num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    msg = f"[{tag}] {num:02d} {name}"
    if extra:
        msg += f"  ({extra})"
    with capsys.disabled():
        print(msg)


@pytest.fixture(scope="module")
def zoo_entries(norms):
    return bl.set_zoo(norms)


@pytest.fixture(scope="module")
def membership(norms, zoo_entries):
    """Certificate / outward-ball verdicts per zoo entry, shared by the
    coherence and section-bound checks."""
    out = {}
    for entry in zoo_entries:
        n = bl.ambient_norm(norms, entry.ambient)
        cert = bl.prox_smooth_certificate(entry.spec, n, entry.R,
                                          sample_count=20, seed=3)
        omp = bl.rolling_ball_check_projection(entry.spec, n, entry.R,
                                               sample_count=24, seed=3)
        omn = bl.rolling_ball_check_normal(entry.spec, n, entry.R,
                                           sample_count=24, seed=3)
        out[entry.name] = (entry, cert, omp, omn)
    return out


def test_01_euclidean_moduli_oracle(capsys):
    """Estimated convexity / smoothness curves of the plane Euclidean norm
    match the closed forms within 1e-4, in under ten seconds."""
    n = bl.lp_norm(2)
    t0 = time.time()
    d = bl.delta_estimate(n, EPS_GRID, SearchBudget.preset("default"))
    r = bl.rho_estimate(n, TAU_GRID, SearchBudget.preset("default"))
    elapsed = time.time() - t0
    derr = float(np.max(np.abs(np.asarray(d.values) - bl.hilbert_delta(EPS_GRID))))
    rerr = float(np.max(np.abs(np.asarray(r.values) - bl.hilbert_rho(TAU_GRID))))
    ok = derr <= 1e-4 and rerr <= 1e-4 and elapsed < 10.0
    _line(capsys, 1, "euclidean-moduli-oracle", ok,
          f"delta err {derr:.2e}, rho err {rerr:.2e}, {elapsed:.1f}s")
    assert derr <= 1e-4
    assert rerr <= 1e-4
    assert elapsed < 10.0


def test_02_supporting_moduli_sandwiches(capsys, curve_bank):
    """Two-sided bounds between the supporting moduli and the classical
    moduli hold at every grid point for all seven norms, tolerance 5e-3;
    the polyhedral norms take their exact values 0 and r."""
    tol = 5e-3
    bad = []
    for nid in ALL_NORMS:
        c = curve_bank[nid]
        rho, delta = c["rho"], c["delta"]
        hi = np.asarray(c["lam_hi"].values)
        lo = np.asarray(c["lam_lo"].values)
        for i, r in enumerate(R_GRID):
            checks = (
                rho.eval(r / 2) - tol <= hi[i],
                hi[i] <= rho.eval(2 * r) + tol,
                lo[i] <= delta.eval(2 * r) + tol,
                delta.eval(2 * r) <= 1 - np.sqrt(max(0.0, 1 - r * r)) + tol,
                -tol <= lo[i] <= hi[i] + tol,
                hi[i] <= r + tol,
            )
            if not all(checks):
                bad.append((nid, float(r), checks))
    for nid in ("l1", "linf"):
        if not np.allclose(curve_bank[nid]["lam_lo"].values, 0.0, atol=tol):
            bad.append((nid, "lower-not-zero", None))
        if not np.allclose(curve_bank[nid]["lam_hi"].values, R_GRID, atol=tol):
            bad.append((nid, "upper-not-r", None))
    _line(capsys, 2, "supporting-moduli-sandwiches", not bad,
          f"{len(ALL_NORMS)} norms x {len(R_GRID)} grid points")
    assert not bad, bad[:4]


def test_03_smoothness_doubling_window(capsys, curve_bank):
    """Doubling ratio of the smoothness curve stays inside [1.85, 4.15]
    for the uniformly smooth norms."""
    bad = {}
    for nid in SMOOTH_UC:
        lo, hi = bl.doubling_ratio(curve_bank[nid]["rho"])
        if not (1.85 <= lo <= hi <= 4.15):
            bad[nid] = (lo, hi)
    _line(capsys, 3, "smoothness-doubling-window", not bad,
          f"norms {', '.join(SMOOTH_UC)}")
    assert not bad, bad


def test_04_defect_functional_sandwich(capsys, curve_bank, norms):
    """The hypomonotonicity defect of the unit-ball complement is pinched
    between the smoothness curve at eps/4 and twice the upper supporting
    modulus at 2 eps (tolerance 5e-3); Euclidean defect equals eps^2
    within 1e-3. Under sixty seconds total."""
    t0 = time.time()
    tol = 5e-3
    bad = []
    quad_err = 0.0
    for nid in SMOOTH_UC:
        n = norms[nid]
        A = bl.make_ball_complement([0.0, 0.0], 1.0,
                                    gauge=None if nid == "euclid" else n)
        rho = curve_bank[nid]["rho"]
        lam = curve_bank[nid]["lam_hi"]
        for eps in (0.05, 0.1, 0.2, 0.4):
            g = bl.gamma_estimate(A, n, eps, budget=4096, seed=0)
            if not (rho.eval(eps / 4.0) - tol <= g
                    <= 2.0 * lam.eval(2.0 * eps) + tol):
                bad.append((nid, eps, g))
            if nid == "euclid":
                quad_err = max(quad_err, abs(g - eps * eps))
    elapsed = time.time() - t0
    ok = not bad and quad_err <= 1e-3 and elapsed < 60.0
    _line(capsys, 4, "defect-functional-sandwich", ok,
          f"euclid quadratic err {quad_err:.2e}, {elapsed:.1f}s")
    assert not bad, bad
    assert quad_err <= 1e-3
    assert elapsed < 60.0


def test_05_seventeenth_smoothness_certificate(capsys, curve_bank, norms):
    """One seventeenth of the smoothness curve as a pairing certificate for
    the unit-ball complement at radius one, every norm, worst margin above
    -1e-6. Kept faithful; expected red (see module docstring)."""
    worst = {}
    for nid in ALL_NORMS:
        n = norms[nid]
        A = bl.make_ball_complement([0.0, 0.0], 1.0,
                                    gauge=None if nid == "euclid" else n)
        psi = bl.psi_from_curve(curve_bank[nid]["rho"], scale=1.0 / 17.0)
        rep = bl.hypo_check(A, n, psi, 1.0, eps_max=0.4,
                            pair_budget=2048, seed=0)
        worst[nid] = rep.worst_margin
    ok = all(m >= -1e-6 for m in worst.values())
    detail = ", ".join(f"{k} {v:.3g}" for k, v in worst.items())
    _line(capsys, 5, "seventeenth-smoothness-certificate", ok, detail)
    assert ok, f"worst margins: {worst}"


def test_06_membership_check_coherence(capsys, membership):
    """The sampling certificate and both outward-ball checks agree on
    every zoo entry; the wide two-point entry fails all three with a
    bisector witness."""
    bad = []
    for name, (entry, cert, omp, omn) in membership.items():
        verdicts = {cert.verdict, omp.verdict, omn.verdict}
        if len(verdicts) != 1:
            bad.append((name, cert.verdict, omp.verdict, omn.verdict))
        elif (cert.verdict == "pass") != entry.expect_smooth:
            bad.append((name, "unexpected", cert.verdict))
    wide = membership["two_points@1.5"]
    wide_ok = all(rep.verdict == "fail" for rep in wide[1:])
    ridge = np.asarray(wide[1].witness[0], dtype=float)
    bisector_ok = abs(ridge[0]) < 0.5
    ok = not bad and wide_ok and bisector_ok
    _line(capsys, 6, "membership-check-coherence", ok,
          f"{len(membership)} entries, ridge witness x={ridge[0]:.2e}")
    assert not bad, bad
    assert wide_ok and bisector_ok


def test_07_boundary_section_bound(capsys, membership, norms, curve_bank):
    """Pairing bound on boundary sections holds on a thousand sampled
    points for every entry passing the outward-ball check."""
    bad = []
    checked = 0
    for name, (entry, cert, omp, omn) in membership.items():
        if omn.verdict != "pass":
            continue
        n = bl.ambient_norm(norms, entry.ambient)
        if entry.ambient in curve_bank:
            rho = curve_bank[entry.ambient]["rho"]
        else:
            args = np.asarray(curve_bank["euclid"]["rho"].args)
            rho = bl.ModulusCurve(args, bl.hilbert_rho(args), "under", "exact")
        a0 = bl.boundary_sample(entry.spec, n, 1, seed=32)[0]
        rep = bl.section_bound_check(entry.spec, n, entry.R, rho, a0,
                                     delta=entry.R / 2.0,
                                     sample_count=1000, seed=3)
        checked += 1
        if rep.verdict != "pass":
            bad.append((name, rep.worst_margin, rep.reason))
    _line(capsys, 7, "boundary-section-bound", not bad,
          f"{checked} entries x 1000 samples")
    assert checked >= 7
    assert not bad, bad


def test_08_touching_point_construction(capsys, norms, zoo_entries):
    """One hundred random near-touch instances across the zoo: the search
    always returns a triple satisfying both defining inequalities."""
    rng = np.random.default_rng(91)
    failures = []
    done = 0
    k = 0
    while done < 100 and k < 2000:
        entry = zoo_entries[k % len(zoo_entries)]
        k += 1
        n = bl.ambient_norm(norms, entry.ambient)
        try:
            z0 = bl.shell_sample(entry.spec, n, entry.R, 1,
                                 seed=int(rng.integers(1 << 30)))[0]
        except bl.EmptyShell:
            continue
        z1 = bl.sample_inside(entry.spec, rng)
        eps = float(rng.uniform(0.05, 0.5))
        done += 1
        try:
            lam, y, p = bl.touching_point_search(entry.spec, n, z0, z1, eps)
        except bl.ConstructionFailed:
            failures.append((entry.name, "construction"))
            continue
        gap = eps * bl.norm_eval(n, np.asarray(z1) - np.asarray(z0))
        zlam = (1 - lam) * np.asarray(z0) + lam * np.asarray(z1)
        if not (bl.norm_eval(n, zlam - y) < gap
                and bl.pairing(p, np.asarray(z1) - np.asarray(z0)) < gap):
            failures.append((entry.name, "inequality"))
    _line(capsys, 8, "touching-point-construction", not failures,
          f"{done} instances")
    assert done == 100
    assert not failures, failures[:5]


def test_09_certificate_regularization(capsys):
    """Geometric-mean regularization maps t to t^1.5 and t^1.5 to t^1.75
    exactly on the grid, and both gap ratios decay by the decade."""
    grid = np.concatenate([[0.0], np.geomspace(1e-5, 1.0, 121)])
    ok = True
    details = []
    for name, power in (("linear", 1.5), ("power:1.5", 1.75)):
        psi = bl.builtin_psi(name, grid)
        out = bl.regularize_psi(psi)
        err = float(np.max(np.abs(out.values - out.knots ** power)))
        details.append(f"{name}->t^{power} err {err:.1e}")
        if err > 1e-9:
            ok = False
        t, v1, v0 = out.knots[1:], out.values[1:], psi.values[1:]
        for num, den in ((v1, v0), (t * t, v1)):
            ratio = num / den
            small = float(np.max(ratio[t <= 10 * t[0]]))
            large = float(np.max(ratio[t >= t[-1] / 10]))
            if small > 0.2 * large:
                ok = False
                details.append("decay violated")
    _line(capsys, 9, "certificate-regularization", ok, "; ".join(details))
    assert ok, details


def test_10_inscribed_ellipse(capsys):
    """Largest inscribed ellipse: the square gives the identity within
    1e-6, and twenty random symmetric polygons satisfy both inclusions
    within 1e-6."""
    from scipy.spatial import ConvexHull

    Q = bl.john_ellipse_2d([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    sq_err = float(np.max(np.abs(Q - np.eye(2))))
    bad = []
    rng = np.random.default_rng(2026)
    for k in range(20):
        raw = rng.normal(size=(5, 2)) * rng.uniform(0.5, 1.5, size=2) + 0.1
        pts = np.vstack([raw, -raw])
        verts = pts[ConvexHull(pts).vertices]
        try:
            Qk = bl.john_ellipse_2d(verts)
        except bl.DegenerateBody as e:
            bad.append((k, str(e)))
            continue
        S = np.linalg.inv(Qk)
        gauge = bl.polygon_norm(verts)
        ordered = np.asarray(gauge.vertices)
        m = len(ordered)
        for i in range(m):
            e = np.linalg.solve(np.stack([ordered[i], ordered[(i + 1) % m]]),
                                np.ones(2))
            if float(e @ S @ e) > 1.0 + 1e-6:   # ellipse escapes the body
                bad.append((k, "edge", i))
        for v in ordered:
            if float(v @ Qk @ v) > 2.0 + 1e-6:  # body escapes sqrt(2)-ellipse
                bad.append((k, "vertex"))
    ok = sq_err <= 1e-6 and not bad
    _line(capsys, 10, "inscribed-ellipse", ok,
          f"square err {sq_err:.1e}, 20 polygons")
    assert sq_err <= 1e-6
    assert not bad, bad[:4]


def test_11_suite_determinism(capsys, tmp_path):
    """The full command-line suite writes byte-identical artifacts when
    rerun with the same seed and budget."""
    outs = []
    codes = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "banachlab.cli", "all",
             "--out", str(out), "--seed", "11", "--budget", "low"],
            capture_output=True, text=True, timeout=1200)
        codes.append(proc.returncode)
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    same_names = outs[0].keys() == outs[1].keys()
    diff = [n for n in outs[0] if same_names and outs[0][n] != outs[1][n]]
    ok = same_names and not diff and codes[0] == codes[1]
    _line(capsys, 11, "suite-determinism", ok,
          f"{len(outs[0])} artifacts, exit codes {codes}")
    assert same_names
    assert not diff, diff
    assert codes[0] == codes[1]
