"""Hypomonotonicity defect, certificate checks and touching construction."""

import json

import numpy as np
import pytest

import banachlab as bl
from banachlab import hypo as H
from banachlab import moduli as M
from banachlab import sets as S
from banachlab.hypo import NoFeasiblePairs
from banachlab.norms import ZeroVector, j1_batch
from conftest import LOW, _image, _rotation


E2 = bl.lp_norm(2)


@pytest.fixture(scope="module")
def zoo():
    return bl.norm_zoo()


@pytest.fixture(scope="module")
def registry(zoo):
    return bl.set_registry(zoo)


def unit_complement(n=None):
    return bl.make_ball_complement([0.0, 0.0], 1.0, gauge=n)


# ---------------------------------------------------------------------------
# the defect functional Gamma


# lp with 1 < p <= 2 and its linear images, by id, with their exponents
LP_UP_TO_2 = {"euclid": 2.0, "ellipse": 2.0, "l15": 1.5, "weighted l15": 1.5}


def _lp_up_to_2(zoo, nid):
    """The norm of an id of LP_UP_TO_2, and the complement of its unit ball
    of radius r (the default gauge for euclid)."""
    n = bl.weighted_lp_norm(1.5, [1.0, 5.0]) if nid == "weighted l15" else zoo[nid]
    return n, lambda r=1.0: bl.make_ball_complement([0.0, 0.0], r, gauge=None if nid == "euclid" else n)


@pytest.mark.parametrize("nid", list(LP_UP_TO_2))
def test_gamma_euclid_is_quadratic(zoo, nid):
    """Inner-product norms, the ellipse a linear image of the Euclidean
    plane: gamma(eps) = eps^2; on l15 and weighted l15, its linear image,
    the lp form 2^(2-p) eps^p = sqrt(2) eps^1.5."""
    n, complement = _lp_up_to_2(zoo, nid)
    for eps in (0.1, 0.3, 0.5):
        g = bl.gamma_estimate(complement(), n, eps, budget=1024, seed=0)
        assert g == pytest.approx(eps * eps if LP_UP_TO_2[nid] == 2.0 else np.sqrt(2.0) * eps ** 1.5,
                                  abs=1e-12)


@pytest.mark.parametrize("nid", list(LP_UP_TO_2))
def test_gamma_has_no_pair_beyond_the_diameter(zoo, nid):
    """On an lp complement of radius r, 1 < p <= 2, no two boundary points
    lie more than 2r apart: gamma raises NoFeasiblePairs there, as the
    engine does, and takes its closed form 4r at 2r."""
    n, complement = _lp_up_to_2(zoo, nid)
    for r in (0.5, 1.0):
        A = complement(r)
        assert bl.gamma_estimate(A, n, 2.0 * r, budget=1024) == pytest.approx(4.0 * r, rel=1e-15)
        for eps in (2.0 * r * (1 + 1e-12), 2.0 * r + 0.1):
            with pytest.raises(NoFeasiblePairs):
                bl.gamma_estimate(A, n, eps, budget=1024)


def test_gamma_on_lp_up_to_2_takes_the_closed_form(monkeypatch):
    """gamma on the unit complement of lp with 1 < p <= 2, of weighted lp
    (weights up to 1e5) and of rotated and sheared images of l15 never
    reaches the root search of the pair engine, and has the bits of the
    closed form 2^(2-p) eps^p on lp itself."""
    def refuse(*args, **kwargs):
        raise AssertionError("gamma on lp with p <= 2 ran the pair engine")

    monkeypatch.setattr(M, "_bracket_roots", refuse)
    a, t = np.random.default_rng(3).uniform(0.0, np.pi, (2, 2))
    specs = [(p, bl.lp_norm(p)) for p in (1.1, 1.5, 1.9, 2.0)]
    specs += [(p, bl.weighted_lp_norm(p, [1.0, w])) for p in (1.5, 2.0) for w in (5.0, 1e3, 1e5)]
    specs += [(1.5, _image(bl.lp_norm(1.5), _rotation(a[0]), "rotated l15")),
              (1.5, _image(bl.lp_norm(1.5), _rotation(a[1]) @ [[1.0, t[0]], [0.0, 1.0]], "sheared l15"))]
    for p, n in specs:
        A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=n)
        for eps in (0.02, 0.3, 1.0, 1.7, 2.0):
            want = eps * eps if p == 2.0 else 2.0 ** (2.0 - p) * eps ** p
            assert bl.gamma_estimate(A, n, eps, budget=1024) == want, (n.name, eps)


def _diagonal_mirror_pair(n, c):
    """The pairing <j1(u1) - j1(u2), u1 - u2> of the unit pair u1 = (a, b),
    u2 = (b, a) whose chord is c, bisected in the angle of u1 on
    [-pi/4, pi/4], where the chord falls from 2 to 0, to adjacent floats on
    the side of chord at least c."""
    lo, hi = -np.pi / 4, np.pi / 4
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        u = bl.sphere_points(n, np.array([mid]))[0]
        lo, hi = (mid, hi) if bl.norm_eval(n, u - u[::-1]) >= c else (lo, mid)
    U = bl.sphere_points(n, np.array([lo, lo]))
    U[1] = U[1, ::-1]
    J = j1_batch(n, U)
    return float((J[0] - J[1]) @ (U[0] - U[1]))


@pytest.mark.parametrize("budget", [1024, 8192])
def test_gamma_engine_meets_the_lp_oracles(budget):
    """The chord-crossing engine, which gamma no longer runs on lp with
    p <= 2, finds the closed form 2^(2-p) eps^p there within 2e-14
    relative.  For p > 2 the lp form is no bound; the engine's value is at
    least that of the attained diagonal-mirror pair, less 1e-12 relative."""
    eps = np.linspace(0.02, 1.98, 9)
    for p in (1.1, 1.5, 1.9):
        n = bl.lp_norm(p)
        got = H._gamma_engine(n, 1.0, eps, budget)
        want = 2.0 ** (2.0 - p) * eps ** p
        assert np.all(np.abs(got - want) <= 2e-14 * want), (p, np.max(np.abs(got - want) / want))
    for p in (2.5, 3.0, 5.0):
        n = bl.lp_norm(p)
        for e, g in zip(eps, H._gamma_engine(n, 1.0, eps, budget)):
            assert g >= _diagonal_mirror_pair(n, e) * (1.0 - 1e-12), (p, e)


@pytest.mark.parametrize("nid", ["l1", "linf"])
def test_gamma_polyhedral_is_twice_eps(zoo, nid):
    """On the l1 and max-norm unit spheres take u1 and u2 on the two edges
    at a corner, each eps from it along its edge: |u1 - u2| = eps and
    <j1(u1) - j1(u2), u1 - u2> = 2 eps, the bound of the next test.  So
    gamma(eps) = 2 eps for eps <= 1."""
    n = zoo[nid]
    for eps in (0.05, 0.2, 0.5, 1.0):
        g = bl.gamma_estimate(unit_complement(n), n, eps, budget=1024, seed=0)
        assert g == pytest.approx(2.0 * eps, abs=1e-12), eps


def test_gamma_is_at_most_twice_eps(zoo):
    """|j1(u1) - j1(u2)|_* <= 2 bounds gamma(eps) by 2 eps in every norm."""
    for nid, n in zoo.items():
        A = unit_complement(None if nid == "euclid" else n)
        for eps in (0.05, 0.2, 0.5, 1.0):
            assert bl.gamma_estimate(A, n, eps, budget=1024, seed=0) <= 2.0 * eps + 1e-12, (nid, eps)


def test_gamma_vanishes_at_small_separation():
    A = unit_complement()
    g = bl.gamma_estimate(A, E2, 0.02, budget=1024, seed=0)
    assert 0.0 <= g < 1e-3


def test_gamma_sandwich_l3(curve_bank, zoo):
    n = zoo["l3"]
    A = unit_complement(n)
    rho = curve_bank["l3"]["rho"]
    lam = curve_bank["l3"]["lam_hi"]
    for eps in (0.05, 0.1, 0.2, 0.4):
        g = bl.gamma_estimate(A, n, eps, budget=1024, seed=0)
        assert g >= rho.eval(eps / 4.0) - 5e-3, eps
        assert g <= 2.0 * lam.eval(2.0 * eps) + 5e-3, eps


def test_gamma_zero_for_convex_sets():
    half = bl.make_halfspace([0.0, 1.0], 0.0)
    g = bl.gamma_estimate(half, E2, 0.3, budget=512, seed=1)
    assert g == pytest.approx(0.0, abs=1e-9)


def test_gamma_rejects_bad_eps():
    A = unit_complement()
    with pytest.raises(ValueError):
        bl.gamma_estimate(A, E2, 0.0)


def _grid_cases(zoo, registry):
    """(label, set, norm, eps grid, an eps with no pair) for each path of
    gamma: the chord-crossing engine on ball complements of radius 1.3
    under l3, l1, the max norm, the polygon, weighted l3 at w = (1, 1e5) and
    a rotated l1 image; the closed forms of euclid, the ellipse and l15;
    the separation band of the pair sweep on the halfplane and the two
    points."""
    eps = np.array([0.05, 0.1, 0.2, 0.4, 0.77, 1.3, 2.59])
    norms = [zoo[k] for k in ("l3", "l1", "linf", "poly", "euclid", "ellipse", "l15")]
    norms += [bl.weighted_lp_norm(3.0, [1.0, 1e5]), _image(bl.lp_norm(1), _rotation(0.7), "rotated l1")]
    cases = [(m.name, bl.make_ball_complement([0.0, 0.0], 1.3, gauge=m), m, eps, 2.61) for m in norms]
    cases.append(("halfplane", registry["halfplane"][0], E2, np.array([0.2, 0.3, 0.5, 1.0]), None))
    cases.append(("two_points", registry["two_points"][0], E2, np.array([2.0, 1.98, 2.05]), 0.5))
    return cases


def test_gamma_grid_is_the_per_eps_calls(zoo, registry):
    """gamma on an eps grid gives the bits of one scalar call per point, on
    every path (_grid_cases): the engine runs once for the grid, the closed
    forms take the grid at once, and the band path filters one pair sweep
    per eps.  A bad eps anywhere in the grid raises ValueError, and one
    with no pair NoFeasiblePairs, as its scalar call does."""
    for label, A, n, eps, far in _grid_cases(zoo, registry):
        got = bl.gamma_estimate(A, n, eps, budget=1024, seed=2)
        want = [bl.gamma_estimate(A, n, float(e), budget=1024, seed=2) for e in eps]
        assert isinstance(want[0], float) and got.shape == eps.shape, label
        assert [repr(float(g)) for g in got] == [repr(w) for w in want], label
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                bl.gamma_estimate(A, n, [eps[0], bad], budget=1024, seed=2)
        if far is not None:
            for grid in (far, [eps[0], far]):
                with pytest.raises(NoFeasiblePairs):
                    bl.gamma_estimate(A, n, grid, budget=1024, seed=2)


def _one_point_cone(ops, n, x):
    """The outward unit normals at one boundary point x of the set kind ops,
    by the one-point rule of each kind, written apart from its cone table:
    a ball's are sign e / |sign e|_* for the extreme functionals e of the
    gauge's subdifferential at x - c, none on a complement where there are
    several; a halfplane's its normal; the two points' 16 fixed directions;
    a polytope complement's the inward normal of its one active facet, none
    where there are several; a cylinder's its base's, lifted."""
    kind = type(ops).__name__
    if kind in ("_Ball", "_BallComplement"):
        ext = bl.subdifferential_extremes(S._gauge(ops.spec, n), x - ops.c)
        if ops.sign < 0 and len(ext) > 1:
            return []
        return [q / bl.dual_norm_eval(n, q) for q in (ops.sign * e for e in ext)]
    if kind == "_Halfspace":
        return [ops.a / bl.dual_norm_eval(n, ops.a)]
    if kind == "_FinitePoints":
        th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        raw = np.stack([np.cos(th), np.sin(th)], axis=1)
        if n.dim != 2:
            raw = np.random.default_rng(5).standard_normal((16, n.dim))
        return [p / bl.dual_norm_eval(n, p) for p in raw]
    if kind == "_PolytopeComplement":
        scale = np.maximum(np.maximum(1.0, np.abs(ops.b)), np.max(np.abs(ops.A), axis=1))
        active = ops.A[np.abs(ops._gaps(x[None])[:, 0]) <= 10 * S._CONE_TOL * scale]
        return [-active[0] / bl.dual_norm_eval(n, active[0])] if len(active) == 1 else []
    if kind == "_Cylinder":
        out = []
        for p in _one_point_cone(ops.base.ops, n.ops.restrict(ops.coords), x[ops.coords]):
            q = np.zeros(ops.dim)
            q[ops.coords] = p
            out.append(q / bl.dual_norm_eval(n, q))
        return out
    raise AssertionError(kind)


def _loop_sweep(A, n, budget, seed, lo, hi):
    """_pair_sweep as a loop over the sampled boundary points, each point's
    directions from _one_point_cone, a point that raises or has none left
    out, padded to the most of any point by repeating its first."""
    rng = np.random.default_rng(seed)
    m = max(48, min(512, int(np.sqrt(2.0 * budget)) + 1))
    X, P = [], []
    for x in bl.boundary_sample(A, n, m, seed=seed):
        try:
            dirs = _one_point_cone(A.ops, n, x)
        except ValueError:
            continue
        if dirs:
            X.append(x)
            P.append(list(dirs))
    c = max(map(len, P), default=1)
    X = np.reshape(X, (-1, A.dim))
    P = np.reshape([q + q[:1] * (c - len(q)) for q in P], (-1, c, A.dim))
    I, J = np.triu_indices(len(X), 1)
    if I.size > budget:
        k = np.sort(rng.choice(I.size, size=budget, replace=False))
        I, J = I[k], J[k]
    d = bl.norm_batch(n, X[J] - X[I])
    band = (lo <= d) & (d <= hi)
    I, J, d = I[band], J[band], d[band]
    G = np.sum((P[J][:, None] - P[I][:, :, None]) * (X[J] - X[I])[:, None, None], axis=-1)
    return X, P, I, J, d, G


def test_pair_sweep_is_the_per_point_loop(zoo, registry):
    """_pair_sweep reads the cone table of every sampled point in one call
    and gives the X, P, I, J, d and G of a loop over the points that takes
    each point's cone by its kind's one-point rule (_one_point_cone), bit
    for bit: on every registry set under its ambient norm, the l3-gauge
    complement under euclid and the max-norm box complement under euclid,
    at two budgets, one drawing pairs."""
    cases = [(sid, A, bl.ambient_norm(zoo, amb)) for sid, (A, amb) in registry.items()]
    cases += [("l3 complement under euclid", registry["l3_ball_complement"][0], E2),
              ("box complement under euclid", registry["box_complement"][0], E2)]
    kinds = set()
    for sid, A, n in cases:
        kinds.add(type(A.ops).__name__)
        for budget, seed, hi in ((256, 3, 2.5), (4096, 1, 0.5)):
            got = H._pair_sweep(A, n, budget, seed, 1e-9, hi)
            want = _loop_sweep(A, n, budget, seed, 1e-9, hi)
            for name, g, w in zip("XPIJdG", got, want):
                assert g.shape == w.shape and np.array_equal(g, w), (sid, budget, name)
    assert kinds >= {"_Ball", "_BallComplement", "_Halfspace", "_FinitePoints", "_PolytopeComplement", "_Cylinder"}


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_set_checks_reject_a_scale_outside_zero_to_inf(bad):
    """R, delta and eps outside (0, inf) raise, where the checks passed on
    an empty shell, failed with a NaN margin or found no pairs."""
    A, rho = unit_complement(), M.rho_estimate(E2, np.linspace(0.05, 2.0, 40), LOW)
    psi = bl.builtin_psi("square", np.linspace(0.0, 4.0, 9))
    checks = (lambda: bl.prox_smooth_certificate(A, E2, bad, sample_count=8),
              lambda: bl.rolling_ball_check_projection(A, E2, bad, sample_count=8),
              lambda: bl.rolling_ball_check_normal(A, E2, bad, sample_count=8),
              lambda: bl.hypo_check(A, E2, psi, bad, pair_budget=64),
              lambda: bl.section_bound_check(A, E2, bad, rho, [1.0, 0.0], 0.1, sample_count=8),
              lambda: bl.section_bound_check(A, E2, 1.0, rho, [1.0, 0.0], bad, sample_count=8),
              lambda: bl.gamma_estimate(A, E2, bad))
    for check in checks:
        with pytest.raises(ValueError):
            check()


# ---------------------------------------------------------------------------
# pairing lower-bound check


def _zero_psi():
    t = np.linspace(0.0, 4.0, 9)
    return bl.validate_psi(t, np.zeros_like(t), name="zero")


def test_halfspace_is_monotone():
    """Convex set: normals never open outward, the zero certificate passes."""
    half = bl.make_halfspace([0.0, 1.0], 0.0)
    rep = bl.hypo_check(half, E2, _zero_psi(), 2.0, eps_max=1.0,
                        pair_budget=256, seed=0)
    assert rep.verdict == "pass"
    assert rep.worst_margin >= -1e-9


def test_disc_complement_square_certificate_is_tight():
    """Unit-circle normals pair to -|x1-x2|^2 exactly, so psi = t^2 at
    R = 1 sits on the boundary of feasibility."""
    A = unit_complement()
    psi = bl.builtin_psi("square", np.linspace(0.0, 1.0, 41))
    rep = bl.hypo_check(A, E2, psi, 1.0, eps_max=0.9, pair_budget=512, seed=0)
    assert rep.verdict == "pass"
    # knot interpolation sits slightly above t^2 between grid points
    assert -1e-6 <= rep.worst_margin <= 2e-4


def test_two_points_fail_square_certificate():
    A = bl.make_finite_points([[-0.5, 0.0], [0.5, 0.0]])
    psi = bl.builtin_psi("square", np.linspace(0.0, 1.5, 31))
    rep = bl.hypo_check(A, E2, psi, 1.0, eps_max=1.2, pair_budget=512, seed=0)
    assert rep.verdict == "fail"
    assert rep.worst_margin == pytest.approx(-1.0, abs=1e-6)
    x1, p1, x2, p2 = (np.asarray(v) for v in rep.worst_pair)
    assert np.linalg.norm(x1 - x2) == pytest.approx(1.0, abs=1e-9)
    # worst normals open against each other along the displacement
    assert (p2 - p1) @ (x2 - x1) == pytest.approx(-2.0, abs=1e-9)


def test_no_feasible_pairs():
    A = bl.make_finite_points([[-0.5, 0.0], [0.5, 0.0]])
    psi = bl.builtin_psi("square", np.linspace(0.0, 1.5, 31))
    with pytest.raises(NoFeasiblePairs):
        bl.hypo_check(A, E2, psi, 1.0, eps_max=0.5, pair_budget=512, seed=0)


def test_hypo_report_flags_extended_psi():
    """Certificate grid shorter than the pair separations in play: the
    report must record that the last slope was extrapolated."""
    A = unit_complement()
    psi = bl.builtin_psi("square", np.linspace(0.0, 0.2, 11))
    rep = bl.hypo_check(A, E2, psi, 1.0, eps_max=0.9, pair_budget=256, seed=0)
    assert rep.psi_extended


def test_smooth_sets_carry_smoothness_certificate(curve_bank, registry, zoo):
    """Sets passing the outward-ball check also pass the pairing bound
    with four times the ambient smoothness curve."""
    for sid, R in (("disc_complement", 1.0), ("l3_ball_complement", 1.0),
                   ("disc", 1.5)):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        omn = bl.rolling_ball_check_normal(A, n, R, sample_count=16, seed=2)
        assert omn.verdict == "pass", sid
        psi = bl.psi_from_curve(curve_bank[amb]["rho"], scale=4.0)
        rep = bl.hypo_check(A, n, psi, R, eps_max=2.0, pair_budget=512, seed=2)
        assert rep.verdict == "pass", (sid, rep.worst_margin)


def test_nonsmooth_set_fails_convexity_certificate(curve_bank):
    """The split two-point set refuses even the doubled convexity-modulus
    certificate, keeping the converse implication vacuous there."""
    A = bl.make_finite_points([[-1.0, 0.0], [1.0, 0.0]])
    psi = bl.psi_from_curve(curve_bank["euclid"]["delta"], scale=2.0)
    rep = bl.hypo_check(A, E2, psi, 1.5, eps_max=2.0, pair_budget=512, seed=2)
    assert rep.verdict == "fail"


def test_hypo_report_round_trip():
    A = unit_complement()
    psi = bl.builtin_psi("square", np.linspace(0.0, 1.0, 21))
    rep = bl.hypo_check(A, E2, psi, 1.0, eps_max=0.5, pair_budget=128, seed=3)
    d = json.loads(rep.to_json())
    assert set(d) >= {"verdict", "worst_margin", "epsilon_band", "pairs_used"}


# ---------------------------------------------------------------------------
# transfer of certificates between equivalent norms


def test_renorm_transfer_box_complement(zoo):
    """A linear certificate for the box complement under the max norm
    moves to the euclid norm with scaled argument, value and radius."""
    box = bl.linf_box_complement(zoo)
    t = np.linspace(0.0, 1.2, 13)
    psi = bl.PsiSpec(knots=t, values=2.0 * t, lipschitz=2.0, name="two-linear")
    rep_inf = bl.hypo_check(box, zoo["linf"], psi, 1.0, eps_max=0.5,
                            pair_budget=512, seed=0)
    assert rep_inf.verdict == "pass", rep_inf.worst_margin
    moved = bl.rescale_psi(psi, arg_scale=np.sqrt(2.0), value_scale=2.0)
    rep_e = bl.hypo_check(box, zoo["euclid"], moved, 1.0 / np.sqrt(2.0),
                          eps_max=0.35, pair_budget=512, seed=0)
    assert rep_e.verdict == "pass", rep_e.worst_margin


# ---------------------------------------------------------------------------
# boundary section bound


def test_section_bound_disc_complement(curve_bank):
    A = unit_complement()
    rho = curve_bank["euclid"]["rho"]
    rep = bl.section_bound_check(A, E2, 1.0, rho, [1.0, 0.0], delta=0.5,
                                 sample_count=300, seed=0)
    assert rep.verdict == "pass"
    assert rep.samples_used > 0


def test_section_bound_raises_at_the_center_of_a_tiny_ball(curve_bank):
    """The center of a ball of radius 1e-5 passes the 1e-4 boundary test,
    but its normal cone is undefined: the check raises ZeroVector there,
    where a degenerate cone would pass with nothing to bound."""
    rho = curve_bank["euclid"]["rho"]
    for make in (bl.make_ball, bl.make_ball_complement):
        with pytest.raises(ZeroVector):
            bl.section_bound_check(make([0.0, 0.0], 1e-5), E2, 1.0, rho, [0.0, 0.0], delta=0.5)


def test_section_bound_needs_safe_side_curve(curve_bank):
    A = unit_complement()
    d = curve_bank["euclid"]["delta"]  # direction "over": wrong side
    with pytest.raises(ValueError):
        bl.section_bound_check(A, E2, 1.0, d, [1.0, 0.0], delta=0.5)


def test_section_bound_convex_members(curve_bank, registry, zoo):
    for sid, R in (("halfplane", 2.0), ("disc", 1.5)):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        a0 = bl.boundary_sample(A, n, 1, seed=12)[0]
        rep = bl.section_bound_check(A, n, R, curve_bank[amb]["rho"], a0,
                                     delta=R / 2.0, sample_count=300, seed=1)
        assert rep.verdict == "pass", (sid, rep.reason)


# ---------------------------------------------------------------------------
# constructive touching points


def test_touching_disc_complement_axis():
    A = unit_complement()
    lam, y, p = bl.touching_point_search(A, E2, [0.2, 0.0], [1.5, 0.0], 0.3)
    assert np.allclose(y, [1.0, 0.0], atol=1e-6)
    assert np.allclose(p, [-1.0, 0.0], atol=1e-6)
    assert 0.0 < lam < 1.0


def test_touching_halfplane():
    half = bl.make_halfspace([0.0, 1.0], 0.0)
    lam, y, p = bl.touching_point_search(half, E2, [0.0, 1.0], [0.0, -2.0], 0.2)
    assert abs(y[1]) < 1e-9
    assert np.allclose(p, [0.0, 1.0], atol=1e-9)


def _touching_inequalities_hold(A, n, z0, z1, eps, lam, y, p):
    z0, z1 = np.asarray(z0, float), np.asarray(z1, float)
    zl = (1 - lam) * z0 + lam * z1
    gap = eps * bl.norm_eval(n, z1 - z0)
    assert bl.norm_eval(n, zl - y) < gap
    assert bl.pairing(p, z1 - z0) < gap
    assert bl.contains(A, n, y, tol=1e-6)
    assert bl.dual_norm_eval(n, p) == pytest.approx(1.0, abs=1e-6)


def test_touching_outputs_satisfy_definition(registry, zoo):
    rng = np.random.default_rng(31)
    done = 0
    for sid, R in (("disc_complement", 1.0), ("halfplane", 2.0),
                   ("square_complement", 0.5), ("two_points", 0.5)):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        z0 = bl.shell_sample(A, n, R, 1, seed=int(rng.integers(1 << 30)))[0]
        z1 = bl.sample_inside(A, rng)
        eps = float(rng.uniform(0.1, 0.5))
        lam, y, p = bl.touching_point_search(A, n, z0, z1, eps)
        _touching_inequalities_hold(A, n, z0, z1, eps, lam, y, p)
        done += 1
    assert done == 4


def test_touching_requires_outside_start():
    A = unit_complement()
    with pytest.raises(ValueError):
        bl.touching_point_search(A, E2, [1.5, 0.0], [2.0, 0.0], 0.3)


def test_touching_deterministic():
    A = unit_complement()
    a = bl.touching_point_search(A, E2, [0.3, 0.1], [1.4, -0.2], 0.25)
    b = bl.touching_point_search(A, E2, [0.3, 0.1], [1.4, -0.2], 0.25)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


# ---------------------------------------------------------------------------
# the sampled checks on row batches


_FROZEN = {
    "two_points": {
        "hypo": (
            '{"epsilon_band": [0.0, 2.5], "pairs_used": 123, "psi_extended": false, '
            '"verdict": "pass", "worst_margin": 0.0, "worst_pair": [[-1.0, 0.0], [1.0, 0.0], '
            '[1.0, 0.0], [-1.0, 1.2246467991473532e-16]]}'),
        "gamma": (
            '4.0'),
        "section": (
            '{"reason": "no set points in the section", "samples_used": 0, '
            '"verdict": "pass", "witness": null, "worst_margin": 0.0}'),
        "shell": (
            '[[1.2954953312037905, -0.3700230337209935], [-1.2044573142357948, '
            '-0.16300178374603352], [0.567723657432671, -0.049633449697647006], '
            '[-0.6910699591287598, 0.020990754679106067]]'),
        "projection": (
            '{"samples_used": 6, "verdict": "pass", "witness": null, "worst_margin": 0.002}'),
        "cone": (
            '[0.0, 0.0, true]'),
    },
    "square_complement": {
        "hypo": (
            '{"epsilon_band": [0.0, 0.5], "pairs_used": 34, "psi_extended": false, '
            '"verdict": "fail", "worst_margin": -0.41492782462221506, '
            '"worst_pair": [[-0.6145454403274273, 1.0], [-0.0, -1.0], [-1.0, '
            '0.7635457499096172], [1.0, -0.0]]}'),
        "gamma": (
            '0.4080436489869821'),
        "section": (
            '{"reason": "eps=0.473051 worst_ratio=0", "samples_used": 40, "verdict": "pass", '
            '"witness": null, "worst_margin": 0.03819789593157072}'),
        "shell": (
            '[[-0.7045046687962095, 0.43477180039945035], [0.03268844375984192, '
            '0.8369982162539664], [-0.6910699591287598, -0.06337673478681048], '
            '[0.7571586328427358, 0.8542556515742934]]'),
        "projection": (
            '{"samples_used": 6, "verdict": "pass", "witness": null, "worst_margin": 0.002}'),
        "cone": (
            '[0.0, 0.0, true]'),
    },
    "tube": {
        "hypo": (
            '{"epsilon_band": [0.0, 0.5], "pairs_used": 10, "psi_extended": false, "verdict": '
            '"pass", "worst_margin": 0.0006658942411485042, "worst_pair": [[0.1457329237121422, '
            '-0.9893239686504673, -0.5228547756223203], [-0.1457329237121422, 0.9893239686504673, '
            '0.0], [0.42620989789246017, -0.9046242993301135, -0.5268726594436757], '
            '[-0.42620989789246017, 0.9046242993301135, 0.0]]}'),
        "gamma": (
            '0.08584136702832405'),
        "section": (
            '{"reason": "eps=0.473051 worst_ratio=0.0886271", "samples_used": 40, "verdict": '
            '"pass", "witness": null, "worst_margin": 0.010149939036128776}'),
        "shell": (
            '[[-0.7824794326017043, -0.3403248029263187, 0.372105409402304], [0.9662599582614928, '
            '-0.15948577807074285, -1.029613066149352], [-0.6344354370536259, 0.6612465146950798, '
            '0.8606854236002959], [0.3232096822303993, -0.7654383206289311, -0.03171509138550076]]'),
        "projection": (
            '{"samples_used": 6, "verdict": "pass", "witness": null, "worst_margin": 0.002}'),
        "cone": (
            '[0.0, 0.0, true]'),
    },
    "box_complement": {
        "hypo": (
            '{"epsilon_band": [0.0, 0.5], "pairs_used": 31, "psi_extended": false, '
            '"verdict": "fail", "worst_margin": -0.586762593507248, '
            '"worst_pair": [[0.6369228220579988, 1.0], [-0.0, -1.0], [1.0, '
            '0.6421605598753524], [-1.0, -0.0]]}'),
        "gamma": (
            '0.5999999999999839'),
        "section": (
            '{"reason": "eps=0.473051 worst_ratio=0.869988", "samples_used": 40, '
            '"verdict": "fail", "witness": [[1.027316357658885, 0.6564981576437061], [-0.0, '
            '-1.0]], "worst_margin": -0.15672450251390002}'),
        "shell": (
            '[[-0.6218421541692853, -0.54482762784052], [0.7385188824237912, '
            '-0.35884722255576806], [0.5648835607882925, 0.5066554563086191], '
            '[-0.6903576548100945, -0.7786257575939263]]'),
        "projection": (
            '{"samples_used": 6, "verdict": "fail", "witness": [[-0.6903576548100945, '
            '-0.7786257575939263], [-0.46898341240402075, -1.0], [-1.0, 0.0]], '
            '"worst_margin": -0.998}'),
        "cone": (
            '[0.0, 0.0, true]'),
    },
}


@pytest.mark.parametrize("sid", list(_FROZEN))
def test_sampled_check_reports_are_those_of_the_one_try_loops(registry, zoo, sid):
    """Reports frozen from the per-pair, per-try and per-direction loops
    that the pair sweep, the block sampler and the cone-ratio kernel
    replace: hypo_check, gamma's separation band (the max-norm box
    complement under its own norm takes the exact engine), the section
    bound, shell_sample, projection_normal_check and the vetting quality of
    normal_cone_sample.  two_points pairs 16 directions at each point and
    has no set point in its section; square_complement runs the plane feet
    of a polytope complement.  The tube, which is 3-d, is frozen from the
    kernels instead: its entry pins the mended cylinder sampler, which draws
    the base points and then the free coordinates from one generator.  The
    projection witness of box_complement was re-frozen when the plane feet
    came to end at the exact corners, listed in table order: its foot is the
    other end of the same flat face of feet, at the same max-norm distance
    from u, and its functional (-1, 0) pairs with u - x to |u - x|.  The
    input rho curve is the cancelling form sqrt(1 + t^2) - 1 the reports
    were frozen with, not hilbert_rho, which no longer cancels."""
    A, amb = registry[sid]
    n = bl.ambient_norm(zoo, amb)
    args = np.linspace(0.0125, 2.0, 40)
    rho = bl.ModulusCurve(args, np.sqrt(1.0 + args * args) - 1.0, "under")
    psi = bl.builtin_psi("square", np.linspace(0.0, 2.0, 21))
    a0 = np.asarray(bl.boundary_sample(A, n, 1, seed=32)[0])
    got = {
        "hypo": bl.hypo_check(A, n, psi, 1.0, eps_max=2.5 if sid == "two_points" else 0.5,
                              pair_budget=256, seed=3).to_json(),
        "gamma": repr(bl.gamma_estimate(A, n, 2.0 if sid == "two_points" else 0.3,
                                        budget=512, seed=3)),
        "section": bl.section_bound_check(A, n, 0.8, rho, a0, 0.4, sample_count=40,
                                          seed=3).to_json(),
        "shell": json.dumps([list(map(float, u)) for u in bl.shell_sample(A, n, 0.6, 4, seed=3)]),
        "projection": bl.projection_normal_check(A, n, 0.6, sample_count=6, seed=3).to_json(),
        "cone": json.dumps(list(bl.normal_cone_sample(A, n, a0, count=30, seed=3).quality)),
    }
    assert got == _FROZEN[sid]


def test_section_bound_at_a_square_complement_vertex_has_nothing_to_bound(registry):
    """At a vertex of the square the complement's normal cone degenerates,
    so the section bound has no direction to test."""
    A, _ = registry["square_complement"]
    args = np.linspace(0.0125, 2.0, 40)
    rho = bl.ModulusCurve(args, bl.hilbert_rho(args), "under")
    rep = bl.section_bound_check(A, E2, 0.8, rho, [1.0, 1.0], 0.4, sample_count=40, seed=3)
    assert (rep.verdict, rep.reason) == ("pass", "degenerate cone, nothing to bound")
