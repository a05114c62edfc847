"""Convexity / smoothness moduli, supporting moduli and curve calculus."""

import decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import banachlab as bl
from banachlab import hypo as H
from banachlab import moduli as M
from banachlab.moduli import SearchBudget
from conftest import LOW, R_GRID, _image, _rotation

ZOO = ["euclid", "l15", "l3", "l1", "linf", "poly", "ellipse"]


def _side_tol(v):
    """Rounding allowance on the label side: 1e-11 relative, with a floor
    for values near 0."""
    return 1e-11 * np.abs(v) + 1e-15


def _hanner_delta(eps, p):
    """delta of l_p (Hanner): closed form for p >= 2; for 1 < p < 2 the root
    d of (1 - d + e/2)^p + |1 - d - e/2|^p = 2, bisected to rounding level."""
    eps = np.asarray(eps, dtype=float)
    if p >= 2:
        return 1 - (1 - (eps / 2) ** p) ** (1 / p)
    lo, hi = np.zeros_like(eps), np.ones_like(eps)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        out = (1 - mid + eps / 2) ** p + np.abs(1 - mid - eps / 2) ** p > 2
        lo, hi = np.where(out, mid, lo), np.where(out, hi, mid)
    return np.where(eps >= 2, 1.0, 0.5 * (lo + hi))


def _hanner_rho(tau, p):
    tau = np.asarray(tau, dtype=float)
    if p >= 2:
        return (((1 + tau) ** p + np.abs(1 - tau) ** p) / 2) ** (1 / p) - 1
    return (1 + tau ** p) ** (1 / p) - 1


def _polygon_gauge(V, v):
    """Gauge of v for the polygon with vertices V in order: 1/s for the
    s > 0 where the ray through v meets an edge."""
    for a, b in zip(V, np.roll(V, -1, axis=0)):
        M = np.column_stack([v, a - b])
        if abs(np.linalg.det(M)) < 1e-12:  # the ray runs parallel to the edge
            continue
        s, u = np.linalg.solve(M, a)
        if s > 0 and -1e-12 <= u <= 1 + 1e-12:
            return 1.0 / s
    raise AssertionError("the ray misses the polygon")


def _assert_on_side(curve, exact, side, accuracy=1e-9):
    """Every value on its label side of exact beyond 1e-11 relative, and
    within accuracy of it."""
    v = np.asarray(curve.values)
    assert curve.direction == side
    if side == "over":
        bad = v < exact - _side_tol(v)
    else:
        bad = v > exact + _side_tol(v)
    assert not bad.any(), (curve.label, curve.args[bad], v[bad] - exact[bad])
    assert np.all(np.abs(v - exact) <= accuracy), (curve.label, np.max(np.abs(v - exact)))


# ---------------------------------------------------------------------------
# closed-form anchors


def test_hilbert_forms():
    assert bl.hilbert_delta(1.0) == pytest.approx(1 - np.sqrt(0.75), abs=1e-15)
    assert bl.hilbert_rho(1.0) == pytest.approx(np.sqrt(2) - 1, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
def test_hilbert_form_bounds(t):
    d = bl.hilbert_delta(2 * t)
    r = bl.hilbert_rho(t)
    assert 0.0 <= d <= 1.0
    assert 0.0 <= r <= t
    assert r >= t * t / 4.0  # sqrt(1+t^2)-1 >= t^2/4 on [0,1]


def test_euclid_delta_matches_closed_form():
    n = bl.lp_norm(2)
    eps = np.linspace(0.1, 1.9, 10)
    curve = bl.delta_estimate(n, eps, LOW)
    assert np.allclose(curve.values, bl.hilbert_delta(eps), atol=1e-4)
    assert curve.direction == "over"


def test_euclid_rho_matches_closed_form():
    n = bl.lp_norm(2)
    tau = np.linspace(0.05, 1.0, 10)
    curve = bl.rho_estimate(n, tau, LOW)
    assert np.allclose(curve.values, bl.hilbert_rho(tau), atol=1e-4)
    assert curve.direction == "under"


def test_delta_oracles_at_every_grid_point(curve_bank):
    """Hilbert for euclid and ellipse (an isometric image of the Euclidean
    plane), Hanner for l3, 0 for l1 and linf, at every grid point, eps = 2
    included."""
    oracles = {"euclid": bl.hilbert_delta, "ellipse": bl.hilbert_delta,
               "l3": lambda e: _hanner_delta(e, 3.0),
               "l1": np.zeros_like, "linf": np.zeros_like}
    for nid, exact in oracles.items():
        d = curve_bank[nid]["delta"]
        assert d.args[-1] == 2.0
        _assert_on_side(d, exact(np.asarray(d.args)), "over")


def test_rho_oracles_at_every_grid_point(curve_bank):
    """Hilbert for euclid and ellipse, Hanner for l15 and l3, rho(t) = t for
    l1 and linf."""
    oracles = {"euclid": bl.hilbert_rho, "ellipse": bl.hilbert_rho,
               "l15": lambda t: _hanner_rho(t, 1.5), "l3": lambda t: _hanner_rho(t, 3.0),
               "l1": np.asarray, "linf": np.asarray}
    for nid, exact in oracles.items():
        r = curve_bank[nid]["rho"]
        _assert_on_side(r, exact(np.asarray(r.args)), "under")


def test_polygon_delta_at_two_is_the_longest_edge(norms, curve_bank):
    """delta(2) = 1 - L/2, with L the longest segment in the unit sphere:
    for a polygon the longest edge, measured in the norm."""
    V = np.array(norms["poly"].vertices)
    L = max(_polygon_gauge(V, b - a) for a, b in zip(V, np.roll(V, -1, axis=0)))
    d = curve_bank["poly"]["delta"]
    assert d.args[-1] == 2.0
    assert d.values[-1] == pytest.approx(1 - L / 2, rel=1e-11, abs=1e-15)
    assert d.values[-1] >= 1 - L / 2 - _side_tol(d.values[-1])


@pytest.mark.parametrize("nid", ["euclid", "l3", "ellipse"])
def test_oracles_at_the_default_budget(norms, nid):
    n = norms[nid]
    default = SearchBudget.preset("default")
    p = 3.0 if nid == "l3" else 2.0
    eps = np.array([0.3, 1.0, 1.7, 2.0])
    tau = np.array([0.05, 0.5, 2.0])
    _assert_on_side(bl.delta_estimate(n, eps, default), _hanner_delta(eps, p), "over")
    _assert_on_side(bl.rho_estimate(n, tau, default), _hanner_rho(tau, p), "under")
    if nid != "l3":
        r = np.array([0.25, 0.5, 1.0])
        exact = 1 - np.sqrt(1 - r * r)
        for which, side in (("lower", "over"), ("upper", "under")):
            c = bl.supporting_modulus_estimate(n, r, which, default)
            _assert_on_side(c, exact, side, accuracy=1e-6)


@settings(max_examples=8, deadline=None)
@given(p=st.floats(min_value=1.05, max_value=8.0, allow_nan=False),
       w=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=2))
@example(p=2.00001, w=[1.0, 2.0])
@example(p=2.00001, w=[1.0, 5.0])
@example(p=2.0001, w=[1.0, 5.0])
def test_lp_moduli_match_hanner(p, w):
    """l_p for random p, with unit and with random weights: weighted l_p is
    isometric to l_p, so delta and rho sit on their label side of Hanner's
    forms, and within 1e-9 of them.  The examples are near-Hilbert weighted
    norms, where the rho objective is nearly flat along a ridge of pairs,
    so a sampled rho would fall short (by up to 1.8e-6 on a 256-angle
    scan)."""
    eps = np.array([0.2, 1.0, 1.9, 2.0])
    tau = np.array([0.1, 0.6, 1.5])
    for n in (bl.lp_norm(p), bl.weighted_lp_norm(p, w)):
        _assert_on_side(bl.delta_estimate(n, eps, LOW), _hanner_delta(eps, p), "over")
        _assert_on_side(bl.rho_estimate(n, tau, LOW), _hanner_rho(tau, p), "under")


def test_linf_is_not_uniformly_convex(curve_bank):
    """The max norm has flat sphere faces: delta vanishes below chord
    length 2."""
    d = curve_bank["linf"]["delta"]
    assert d.eval(1.0) == pytest.approx(0.0, abs=5e-4)


def test_l1_rho_is_linear(curve_bank):
    r = curve_bank["l1"]["rho"]
    assert r.eval(0.5) == pytest.approx(0.5, abs=5e-4)
    assert r.eval(0.25) == pytest.approx(0.25, abs=5e-4)


def test_curves_nondecreasing(curve_bank):
    for nid, curves in curve_bank.items():
        for key in ("delta", "rho"):
            v = np.asarray(curves[key].values)
            assert np.all(np.diff(v) >= -1e-9), (nid, key)


def test_delta_rejects_out_of_range_grid():
    n = bl.lp_norm(2)
    with pytest.raises(ValueError):
        bl.delta_estimate(n, [0.5, 2.5], LOW)
    with pytest.raises(ValueError):
        bl.rho_estimate(n, [0.0, 0.5], LOW)


def test_a_nan_grid_point_raises():
    """A NaN argument fails every range check, as one outside the range does,
    instead of taking a value: rho on l3 gave it 0.0, delta, the supporting
    moduli and ModulusCurve.eval gave NaN."""
    l3 = bl.lp_norm(3)
    estimates = (lambda g: bl.rho_estimate(l3, g, LOW), lambda g: bl.delta_estimate(bl.lp_norm(2), g, LOW),
                 lambda g: bl.supporting_modulus_estimate(l3, g, "upper", LOW))
    for estimate in estimates:
        with pytest.raises(ValueError):
            estimate([0.5, np.nan])
    with pytest.raises(ValueError):
        bl.rho_estimate(l3, [0.5, 1.0], LOW).eval(np.nan)


def test_moduli_estimators_are_planar():
    """The supporting moduli search the planar unit sphere, so l_p^3 is
    refused there; delta and rho accept it and give Hanner's values.  The
    vertex paths of delta and rho are planar too, so l1^3 and linf^3 are
    refused by both (a 1-d norm is refused by every estimator: see
    test_one_dimensional_norms_are_refused)."""
    l3_3d = bl.lp_norm(3, 3)
    grid = np.array([0.1, 0.5, 1.0, 2.0])
    _assert_on_side(bl.delta_estimate(l3_3d, grid, LOW), _hanner_delta(grid, 3.0), "over")
    _assert_on_side(bl.rho_estimate(l3_3d, grid, LOW), _hanner_rho(grid, 3.0), "under")
    for which in ("lower", "upper"):
        with pytest.raises(bl.DimensionMismatch):
            bl.supporting_modulus_estimate(l3_3d, [0.5], which, LOW)
    for n in (bl.lp_norm(1, 3), bl.lp_norm(np.inf, 3)):
        for estimate in (bl.delta_estimate, bl.rho_estimate):
            with pytest.raises(bl.DimensionMismatch):
                estimate(n, [0.5], LOW)


@pytest.mark.parametrize("n", [bl.lp_norm(2, 1), bl.lp_norm(3, 1), bl.lp_norm(1.5, 1),
                               bl.weighted_lp_norm(2, [5.0])], ids=["l2", "l3", "l15", "weighted l2"])
def test_one_dimensional_norms_are_refused(n):
    """On a line the only unit pair at chord eps > 0 is y = -x, so delta = 1,
    rho(t) = max(0, t - 1), and no unit pair is quasiorthogonal: neither the
    Hilbert nor Hanner's forms hold, and every estimator refuses the norm."""
    runs = [lambda: bl.delta_estimate(n, [1.0], LOW), lambda: bl.rho_estimate(n, [0.5], LOW),
            lambda: bl.supporting_modulus_estimate(n, [0.5], "lower", LOW),
            lambda: bl.supporting_modulus_estimate(n, [0.5], "upper", LOW)]
    for run in runs:
        with pytest.raises(bl.DimensionMismatch):
            run()


# ---------------------------------------------------------------------------
# inner-product norms: the closed forms, and the pair engine under them

INNER_PRODUCT = {"euclid": bl.lp_norm(2), "ellipse": bl.norm_zoo()["ellipse"],
                 "weighted l2": bl.weighted_lp_norm(2, [1, 5]),
                 "euclid3": bl.ambient_norm(bl.norm_zoo(), "euclid3")}


def test_inner_product_attribute_of_the_norm_kinds(norms):
    """lp with p = 2 and its linear images are inner-product; no other kind
    is.  lp_exponent is p on lp with 1 < p < inf and on its linear images,
    and None on every other kind."""
    assert [nid for nid, n in norms.items() if n.ops.inner_product] == ["euclid", "ellipse"]
    assert all(n.ops.inner_product for n in INNER_PRODUCT.values())
    assert not bl.weighted_lp_norm(2.001, [1, 5]).ops.inner_product
    assert not bl.lp_norm(3, 3).ops.inner_product
    assert {nid: n.ops.lp_exponent for nid, n in norms.items()} == {
        "euclid": 2.0, "l15": 1.5, "l3": 3.0, "l1": None, "linf": None, "poly": None, "ellipse": 2.0}
    assert bl.weighted_lp_norm(2.001, [1, 5]).ops.lp_exponent == 2.001
    assert bl.weighted_lp_norm(1, [1, 5]).ops.lp_exponent is None
    assert bl.weighted_lp_norm(np.inf, [1, 5]).ops.lp_exponent is None


def test_inner_product_norms_take_the_closed_forms(monkeypatch):
    """delta, rho and both supporting moduli of euclid, the ellipse,
    weighted l2 and euclid3, and gamma on the euclid and ellipse unit
    complements, never reach the root search of the pair engine; the values
    are those of planar euclid, bit for bit."""
    def refuse(*args, **kwargs):
        raise AssertionError("an inner-product norm ran the pair engine")

    monkeypatch.setattr(M, "_bracket_roots", refuse)
    grid = np.array([0.1, 0.5, 1.0])
    runs = [lambda n: bl.delta_estimate(n, np.append(grid, 2.0), LOW),
            lambda n: bl.rho_estimate(n, np.append(grid, 2.0), LOW),
            lambda n: bl.supporting_modulus_estimate(n, grid, "lower", LOW),
            lambda n: bl.supporting_modulus_estimate(n, grid, "upper", LOW)]
    for run in runs:
        want = run(INNER_PRODUCT["euclid"])
        for nid, n in INNER_PRODUCT.items():
            got = run(n)
            assert got.direction == want.direction and np.array_equal(got.values, want.values), nid
    for nid in ("euclid", "ellipse"):
        n = INNER_PRODUCT[nid]
        A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=n)
        assert bl.gamma_estimate(A, n, 0.3, budget=1024) == 0.3 * 0.3, nid


def _decimal_oracle(kind, t):
    """The Hilbert delta, rho or support shift at the float t, to 60 digits,
    from the plain forms 1 - sqrt(1 - e^2/4), sqrt(1 + t^2) - 1 and
    1 - sqrt(1 - r^2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t = decimal.Decimal(float(t))
        if kind == "delta":
            return 1 - (1 - t * t / 4).sqrt()
        if kind == "rho":
            return (1 + t * t).sqrt() - 1
        return 1 - (1 - t * t).sqrt()


@pytest.mark.parametrize("kind", ["delta", "rho", "lower", "upper"])
def test_closed_forms_sit_on_their_label_side_of_60_digit_values(kind):
    """Every closed-form value lies on its label side of the 60-digit
    value, and within 8 ulps relative of it, from 1e-6 to the end of the
    range (eps = 2, tau = 2, r = 1) and within 1e-12 below that end.
    delta(2) and the lower shift at r = 1 are exactly 1.  The unrounded
    hilbert_delta and hilbert_rho are within 2 ulps relative, which the
    cancelling forms 1 - sqrt(1 - eps^2/4) and sqrt(1 + tau^2) - 1 miss by
    far at small arguments (6.6e-4 relative at 1e-6)."""
    end = 1.0 if kind in ("lower", "upper") else 2.0
    t = np.unique(np.concatenate([np.geomspace(1e-6, end, 1500), end - np.geomspace(1e-16, 1e-12, 40),
                                  [np.nextafter(end, 0.0), end]]))
    n = bl.lp_norm(2)
    if kind == "delta":
        c = bl.delta_estimate(n, t, LOW)
    elif kind == "rho":
        c = bl.rho_estimate(n, t, LOW)
    else:
        c = bl.supporting_modulus_estimate(n, t, kind, LOW)
    side = 1 if c.direction == "over" else -1
    raw = {"delta": bl.hilbert_delta, "rho": bl.hilbert_rho}.get(kind)
    for a, v in zip(t, c.values):
        exact = _decimal_oracle(kind, a)
        err = (decimal.Decimal(float(v)) - exact) / exact
        assert side * err >= 0, (kind, a, float(err))
        assert abs(err) <= 8 * np.finfo(float).eps, (kind, a, float(err))
        if raw is not None:
            assert abs((decimal.Decimal(float(raw(a))) - exact) / exact) <= 2 * np.finfo(float).eps, (kind, a)
    if kind in ("delta", "lower"):
        assert c.values[-1] == 1.0
    if kind == "lower":
        assert np.all(c.values <= t)


@pytest.mark.parametrize("budget", ["low", "default"])
@pytest.mark.parametrize("nid", ["euclid", "ellipse"])
def test_pair_engine_meets_the_hilbert_oracle(norms, nid, budget):
    """The pair engine, which inner-product norms no longer reach through
    the estimators, still finds the Hilbert values on euclid and the
    ellipse: both supporting moduli on their side within 1e-6, and the
    gamma pairing, which runs the chord crossings, within 1e-12 of eps^2."""
    n, count = norms[nid], SearchBudget.preset(budget).angles
    r = np.array([0.25, 0.5, 1.0])
    for which, side in (("lower", "over"), ("upper", "under")):
        c = bl.ModulusCurve(r, M._support_engine(n, r, np.full(r.size, which == "lower"), count), side)
        _assert_on_side(c, 1 - np.sqrt(1 - r * r), side, accuracy=1e-6)
    eps = np.array([0.1, 0.3, 0.5])
    assert H._gamma_engine(n, 1.0, eps, count) == pytest.approx(eps * eps, abs=1e-12)


def _random_images(seed):
    """lp, the l1 and max norms and the zoo polygon under random rotations
    and shears."""
    rng, out = np.random.default_rng(seed), []
    for base in (bl.lp_norm(1.5), bl.lp_norm(3), bl.lp_norm(1), bl.lp_norm(np.inf), bl.norm_zoo()["poly"]):
        a, t = rng.uniform(0.0, np.pi, 2)
        out.append(_image(base, _rotation(a), f"{base.name} rotated {a:.3f}"))
        out.append(_image(base, np.array([[1.0, t], [0.0, 1.0]]) @ _rotation(a), f"{base.name} sheared {t:.3f}"))
    return out


def test_turn_is_an_isometry_of_every_norm_kind(norms):
    """turn is pi/2 on lp (the signed permutations are its isometries) and
    pi on every other kind, linear images included; rows rotated by turn
    keep their norm within 4 ulps on every zoo norm and on random rotated
    and sheared linear images."""
    assert {nid: n.ops.turn for nid, n in norms.items()} == {
        "euclid": np.pi / 2, "l15": np.pi / 2, "l3": np.pi / 2, "l1": np.pi / 2, "linf": np.pi / 2,
        "poly": np.pi, "ellipse": np.pi}
    assert bl.weighted_lp_norm(3, [1, 5]).ops.turn == np.pi
    rng = np.random.default_rng(7)
    X = rng.standard_normal((500, 2)) * rng.uniform(0.1, 10.0, (500, 1))
    for n in list(norms.values()) + _random_images(8):
        turn = np.rint(_rotation(n.ops.turn))  # exact: turn is a quarter or a half
        before, after = bl.norm_batch(n, X), bl.norm_batch(n, X @ turn.T)
        assert np.all(np.abs(after - before) <= 4 * np.finfo(float).eps * before), n.name


def _full_circle(n, count):
    """The whole count-point sphere table, which the engines scanned before
    they took only the arc that the turn leaves distinct."""
    return np.linspace(0.0, 2.0 * np.pi, count, endpoint=False), n.ops.sphere(count)


ARC_CASES = {"l15": bl.lp_norm(1.5), "l3": bl.lp_norm(3), "weighted l3": bl.weighted_lp_norm(3, [1, 5]),
             "rotated l3": _image(bl.lp_norm(3), _rotation(0.7), "rotated l3"),
             "sheared l3": _image(bl.lp_norm(3), np.linalg.inv(_rotation(2.1) @ [[1.0, 3.0], [0.0, 1.0]]),
                                  "sheared l3")}


@pytest.mark.parametrize("budget", ["low", "default"])
@pytest.mark.parametrize("cid", list(ARC_CASES))
def test_the_arc_finds_the_values_of_the_full_circle(cid, budget, monkeypatch):
    """Both supporting moduli and the gamma pairing scanned on the arc agree
    with the same engines on the whole sphere table within 1e-12 relative,
    or 1e-15 absolute for the smallest shifts, whose roots round by about
    an ulp of 1: the turn maps every pair of the table to an equal pair on
    the arc.  The sheared l3 maps the extreme directions of l3 (the axes
    and diagonals) into (pi/2, pi), so a quarter turn taken for its half
    turn would miss them."""
    n, count = ARC_CASES[cid], SearchBudget.preset(budget).angles
    r = np.linspace(0.02, 1.0, 25)
    eps = np.array([0.1, 0.5, 1.0, 1.6])
    arc = [M._support_engine(n, r, np.full(r.size, lower), count) for lower in (True, False)]
    arc_gamma = H._gamma_engine(n, 1.0, eps, count)
    monkeypatch.setattr(M, "_arc", _full_circle)
    full = [M._support_engine(n, r, np.full(r.size, lower), count) for lower in (True, False)]
    full_gamma = H._gamma_engine(n, 1.0, eps, count)
    for a, f in zip(arc + [arc_gamma], full + [full_gamma]):
        assert np.all(np.abs(a - f) <= 1e-12 * np.abs(f) + 1e-15), (cid, np.max(np.abs(a - f) / np.abs(f)))


def test_linear_images_take_the_moduli_and_gamma_of_their_base():
    """x -> |Tx| is isometric to its base through T, so delta, rho, both
    supporting moduli and gamma on the unit complement of weighted l15 and
    l3 (weights up to 1e5), and of random rotated and sheared images of
    l15, l3, l1, the max norm and poly, have the bits of their base's; each
    curve keeps the image's name."""
    weighted = [(bl.lp_norm(p), bl.weighted_lp_norm(p, [1.0, w], name=f"w{p:g} {w:g}"))
                for p in (1.5, 3.0) for w in (5.0, 1e4, 1e5)]
    images = [(n.ops.base.spec, n) for n in _random_images(11)]
    grid, r, eps = np.array([0.1, 0.5, 1.0, 1.9]), np.array([0.02, 0.3, 0.7, 1.0]), (0.1, 0.5, 1.0, 1.6)

    def values(n):
        A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=n)
        curves = [bl.delta_estimate(n, grid, LOW), bl.rho_estimate(n, grid, LOW),
                  bl.supporting_modulus_estimate(n, r, "lower", LOW),
                  bl.supporting_modulus_estimate(n, r, "upper", LOW)]
        assert all(c.label.startswith(f"{n.name}:") for c in curves)
        return [c.values for c in curves] + [np.array([bl.gamma_estimate(A, n, e, budget=1024) for e in eps])]

    want = {}
    for base, n in weighted + images:
        if base.name not in want:
            want[base.name] = values(base)
        for got, ref in zip(values(n), want[base.name]):
            assert np.array_equal(got, ref), n.name


def test_an_angle_count_off_the_quarters_still_covers_the_arc(norms):
    """A count that is no multiple of 4 takes ceil(count / 4) rows on lp and
    ceil(count / 2) on the other kinds, whose last angle lies below the
    turn; the estimators run at SearchBudget(angles=1001) and keep the
    values of the default budget within 1e-6."""
    for nid, rows in (("l3", 251), ("poly", 501)):
        A, X = M._arc(norms[nid], 1001)
        assert len(A) == len(X) == rows and A[-1] < norms[nid].ops.turn <= A[-1] + 2 * np.pi / 1001
    r, odd = np.array([0.25, 0.5, 1.0]), SearchBudget(angles=1001)
    for which in ("lower", "upper"):
        got = bl.supporting_modulus_estimate(norms["l3"], r, which, odd).values
        ref = bl.supporting_modulus_estimate(norms["l3"], r, which).values
        assert np.allclose(got, ref, rtol=0.0, atol=1e-6), which


def test_polyhedral_delta_is_zero_up_to_the_longest_edge(norms, monkeypatch):
    """delta of l1 and the max norm (longest edge 2) is 0 on the whole grid
    below 2 with no chord crossing; poly is 0 up to its longest edge, with
    no crossing there, and searches the crossings above it."""
    calls, crossing = [], M._chord_crossing

    def refuse(*args, **kwargs):
        raise AssertionError("delta searched a chord crossing below the longest edge")

    def counted(*args, **kwargs):
        calls.append(args)
        return crossing(*args, **kwargs)

    monkeypatch.setattr(M, "_chord_crossing", refuse)
    eps = np.linspace(0.05, 2.0, 40)
    for nid in ("l1", "linf"):
        assert np.array_equal(bl.delta_estimate(norms[nid], eps, LOW).values, np.zeros(eps.size)), nid
    poly = norms["poly"]
    edge = poly.ops.longest_segment()
    below = eps[eps <= edge]
    assert np.array_equal(bl.delta_estimate(poly, below, LOW).values, np.zeros(below.size))
    monkeypatch.setattr(M, "_chord_crossing", counted)
    above = bl.delta_estimate(poly, eps[(eps > edge) & (eps < 2.0)], LOW).values
    assert calls and np.all(above > 0.0)


# ---------------------------------------------------------------------------
# lp norms: Hanner's forms

def test_lp_norms_take_hanners_forms(monkeypatch):
    """delta and rho of l15, l3, weighted lp and l_p^3 never reach the chord
    crossings of the pair engine or the vertex path, and the values depend
    on p alone: weighted l3 and l_p^3 have the bits of planar l3."""
    def refuse(*args, **kwargs):
        raise AssertionError("an lp norm ran a search")

    monkeypatch.setattr(M, "_crossing_max", refuse)
    monkeypatch.setattr(M, "_chord_crossing", refuse)
    monkeypatch.setattr(M, "_rho_objective", refuse)
    monkeypatch.setattr(M, "_vertex_pairs", refuse)
    grid = np.array([0.01, 0.1, 0.5, 1.0, 1.9, 2.0])
    specs = [bl.lp_norm(1.5), bl.lp_norm(3), bl.weighted_lp_norm(3, [1, 5]),
             bl.weighted_lp_norm(2.0001, [1, 5]), bl.lp_norm(3, 3)]
    for n in specs:
        p = n.ops.lp_exponent
        _assert_on_side(bl.delta_estimate(n, grid, LOW), _hanner_delta(grid, p), "over")
        _assert_on_side(bl.rho_estimate(n, grid, LOW), _hanner_rho(grid, p), "under")
    for estimate in (bl.delta_estimate, bl.rho_estimate):
        want = estimate(bl.lp_norm(3), grid, LOW).values
        for n in (bl.weighted_lp_norm(3, [1, 5]), bl.lp_norm(3, 3)):
            assert np.array_equal(estimate(n, grid, LOW).values, want)


def _decimal_hanner(kind, t, p, v):
    """The relative error of the float v as delta or rho of l_p at the float
    t, and whether v lies on its label side, from `decimal` values of the
    plain forms at 150 digits plus 8 per decade of t below 1: the forms
    cancel to first order in t^p (p <= 8) or in t^2, and 1 - h^p must still
    keep 100 digits of h^p ~ 1e-50 at p = 8, eps = 1e-6, and of h^p ~ 1e-482
    at eps = 1e-60.  For delta with p < 2, v is over the root exactly
    when the left side of Hanner's equation, which falls in delta, is at
    most 2 at v, and three Newton steps from v give the root."""
    def pw(x, y):
        return (x.ln() * y).exp() if x > 0 else decimal.Decimal(0)

    with decimal.localcontext() as ctx:
        t, p, v = (decimal.Decimal(float(a)) for a in (t, p, v))
        ctx.prec = 150 + 8 * max(0, -t.adjusted())
        if kind == "rho":
            exact = (pw((pw(1 + t, p) + pw(abs(1 - t), p)) / 2, 1 / p) if p > 2 else pw(1 + pw(t, p), 1 / p)) - 1
            return (v - exact) / exact, v <= exact
        h = t / 2
        if p > 2:
            exact = 1 - pw(1 - pw(h, p), 1 / p)
            return (v - exact) / exact, v >= exact

        def left(d):
            return pw(1 - d + h, p) + pw(abs(1 - d - h), p) - 2

        def slope(d):
            u = 1 - d - h
            return -p * (pw(1 - d + h, p - 1) + (1 if u > 0 else -1) * pw(abs(u), p - 1))

        exact = v
        for _ in range(3):
            exact -= left(exact) / slope(exact)
        return (v - exact) / exact, left(v) <= 0


@pytest.mark.parametrize("p", [1.05, 1.5, 1.999, 2.0001, 3.0, 8.0])
def test_hanner_forms_sit_on_their_label_side_of_150_digit_values(p):
    """Every Hanner value lies on its label side of the 150-digit value,
    from 1e-6 to 2 and within 1e-12 below 2; from 1e-2 on it is within 1e-10
    relative of it (the root of delta for p < 2 is the loosest, 2.8e-11 at
    p = 1.05), and within 1e-6 below that, where the first-order cancellation
    of Hanner's equation at small eps sets the rounding bound.  delta(2) is
    exactly 1.  At 1e-17 and 1e-60 the values keep only their side: there
    rho for p > 2 cancels entirely and is 0, and h^p of delta for p > 2
    underflows at p = 8, eps = 1e-60."""
    t = np.unique(np.concatenate([np.geomspace(1e-6, 2.0, 100), 2.0 - np.geomspace(1e-16, 1e-12, 30),
                                  [np.nextafter(2.0, 0.0), 1e-17, 1e-60]]))
    n = bl.lp_norm(p)
    for kind, c in (("delta", bl.delta_estimate(n, t, LOW)), ("rho", bl.rho_estimate(n, t, LOW))):
        for a, v in zip(t, c.values):
            if kind == "delta" and a == 2.0:
                assert v == 1.0
                continue
            err, on_side = _decimal_hanner(kind, a, p, v)
            assert on_side, (kind, p, a, float(err))
            if a >= 1e-6:
                assert abs(err) <= (1e-10 if a >= 1e-2 else 1e-6), (kind, p, a, float(err))


# ---------------------------------------------------------------------------
# polyhedral norms: exact vertex values against plain-numpy oracles

POLYHEDRAL = {"l1": [[1, 0], [0, 1], [-1, 0], [0, -1]],
              "linf": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
WEIGHTS = [0.6, 2.2]


def _zoo_vertices(norms, nid):
    """The vertices, in order, of the unit ball of the zoo norm nid."""
    return np.array(POLYHEDRAL[nid] if nid in POLYHEDRAL else norms[nid].vertices, dtype=float)


def _random_polygons(count, seed):
    """Vertex tables of random centrally symmetric polygons with 4 to 20
    vertices: the convex hull of 2 to 10 random points and their negatives."""
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        ang = np.sort(rng.uniform(0.0, np.pi, rng.integers(2, 11)))
        raw = rng.uniform(0.5, 1.5, ang.size)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = np.vstack([raw, -raw])
        V = pts[ConvexHull(pts).vertices]
        if len(V) >= 4:
            out.append(V)
    return out


def _edge_functionals(V):
    """The functional e_i with <e_i, v> = 1 on the edge from V[i] to V[i+1]."""
    return np.array([np.linalg.solve(np.stack([a, b]), np.ones(2)) for a, b in zip(V, np.roll(V, -1, axis=0))])


def _crossing_values(V, X, eps):
    """The largest ||x + y|| over the y of the polygon sphere with
    ||x - y|| >= eps, for each row x of X: the crossings of every edge, where
    <e_k, x - y> = eps for a functional e_k that attains the norm, and the
    vertices that reach eps."""
    E = _edge_functionals(V)
    norm = lambda Z: np.max(Z @ E.T, axis=-1)
    A, D = V, np.roll(V, -1, axis=0) - V  # edge i is A[i] + s D[i], s in [0, 1]
    gx = X @ E.T  # (x, k)
    ga, gd = A @ E.T, D @ E.T  # (edge, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (gx[:, None, :] - ga[None] - eps) / gd[None]  # (x, edge, k)
    ok = np.isfinite(s) & (s >= 0.0) & (s <= 1.0)
    Y = A[None, :, None, :] + np.where(ok, s, 0.0)[..., None] * D[None, :, None, :]
    ok &= norm(X[:, None, None, :] - Y) <= eps + 1e-12  # e_k attains the norm there
    best = np.max(np.where(ok, norm(X[:, None, None, :] + Y), -np.inf), axis=(1, 2))
    W = norm(X[:, None, :] - V[None]) >= eps
    return np.maximum(best, np.max(np.where(W, norm(X[:, None, :] + V[None]), -np.inf), axis=1))


def _polygon_delta(V, eps):
    """delta of the polygon norm at each eps: some best pair has x at a
    vertex, and the sphere points y that reach eps from it are the edge
    crossings or vertices of _crossing_values."""
    return np.array([1.0 - np.max(_crossing_values(V, V, e)) / 2.0 for e in eps])


def _edge_points(V, count):
    """About count points spread over the edges of the polygon V, vertices
    left out."""
    s = (np.arange(count // len(V)) + 0.5) / (count // len(V))
    return (V[:, None, :] + s[None, :, None] * (np.roll(V, -1, axis=0) - V)[:, None, :]).reshape(-1, 2)


def _polyhedral_cases(norms):
    """(label, norm, vertex table): the three polyhedral zoo norms, a
    weighted l1 and a weighted max norm, and eight random symmetric
    polygons."""
    cases = [(nid, norms[nid], _zoo_vertices(norms, nid)) for nid in ("l1", "linf", "poly")]
    s = 1.0 / np.array(WEIGHTS)  # the vertices of the weighted balls sit at 1/w_k
    cases += [("wl1", bl.weighted_lp_norm(1, WEIGHTS), np.array(POLYHEDRAL["l1"]) * s),
              ("wlinf", bl.weighted_lp_norm(np.inf, WEIGHTS), np.array(POLYHEDRAL["linf"]) * s)]
    return cases + [(f"random{k}", bl.polygon_norm(V), V) for k, V in enumerate(_random_polygons(8, 7))]


def test_polygon_delta_matches_the_vertex_oracle(norms):
    """delta of l1, linf, poly, a weighted l1 and a weighted max norm and
    random symmetric polygons, at the low budget: on the "over" side of the
    exact value from vertex crossings, and within 1e-12 of it; and no pair
    of a dense cross-check (about 2,000 boundary points x, each with its
    exact crossings y) lies below the estimate by more than 1e-12."""
    eps = np.concatenate([np.linspace(0.05, 1.95, 20), [2.0]])
    for label, n, V in _polyhedral_cases(norms):
        est = np.asarray(bl.delta_estimate(n, eps, LOW).values)
        exact = _polygon_delta(V, eps)
        assert np.all(est >= exact - _side_tol(est)), (label, np.min(est - exact))
        assert np.all(est - exact <= 1e-12), (label, np.max(est - exact))
        X = _edge_points(V, 2000)
        for e, v in zip(eps[::4], est[::4]):
            dense = 1.0 - np.max(_crossing_values(V, X, e)) / 2.0
            assert dense >= v - 1e-12, (label, e, dense - v)


def test_polyhedral_rho_is_under_its_exact_value():
    """rho of l1 and the max norm, and of their weighted images, is tau
    exactly (the triangle inequality bounds it, and a pair of vertices
    attains it): the "under" estimate is at most tau at every point of a
    linear and a geometric grid down to 1e-8, and within its rounding
    bound, a few ulps of 1 + tau, of it."""
    tau = np.union1d(np.linspace(0.01, 2.0, 200), np.geomspace(1e-8, 2.0, 300))
    for n in (bl.lp_norm(1), bl.lp_norm(np.inf), bl.weighted_lp_norm(1, [1.0, 5.0]),
              bl.weighted_lp_norm(np.inf, [3.0, 1.0])):
        v = np.asarray(bl.rho_estimate(n, tau, LOW).values)
        assert np.all(v <= tau), (n.name, np.count_nonzero(v > tau), np.max(v - tau))
        assert np.all(tau - v <= 32 * np.finfo(float).eps * (1.0 + tau)), (n.name, np.max(tau - v))


def _shift_oracle(E, X, Y, r):
    """The least lam in [0, 1] with ||x + r y - lam x|| <= 1 for the norm
    max_j <e_j, .>, rows x and y, and a column r: the largest of 0 and
    1 - (1 - r <e_j, y>) / <e_j, x> over the j with <e_j, x> > 0."""
    gx, gy = X @ E.T, Y @ E.T
    with np.errstate(divide="ignore"):
        b = np.where(gx > 0, 1.0 - (1.0 - r[..., None] * gy) / gx, -np.inf)
    return np.maximum(0.0, b.max(axis=-1))


def test_polygon_supporting_moduli_match_the_vertex_oracle(norms):
    """Both supporting moduli of l1, linf, poly, a weighted l1 and a weighted
    max norm and random symmetric polygons: on their label side of the exact
    shift over the vertex pairs (x a vertex, y either sign of the direction
    of an edge at x) and within 1e-12 of it; and no pair inside an edge
    (about 2,000 points x, y along their edge) beats the estimate by more
    than 1e-12 on its label side."""
    r = np.linspace(0.05, 1.0, 12)
    for label, n, V in _polyhedral_cases(norms):
        E = _edge_functionals(V)
        norm = lambda Z: np.max(Z @ E.T, axis=-1)
        D = np.roll(V, -1, axis=0) - V
        D = D / norm(D)[:, None]
        Xv = np.repeat(V, 4, axis=0)  # vertex i with the edges i and i - 1
        Yv = np.stack([D, -D, np.roll(D, 1, axis=0), -np.roll(D, 1, axis=0)], axis=1).reshape(-1, 2)
        Xd = _edge_points(V, 2000)
        Yd = np.repeat(D, len(Xd) // len(V), axis=0)
        Xd, Yd = np.concatenate([Xd, Xd]), np.concatenate([Yd, -Yd])
        vertex = _shift_oracle(E, Xv, Yv, r[:, None])
        dense = _shift_oracle(E, Xd, Yd, r[:, None])
        up = np.asarray(bl.supporting_modulus_estimate(n, r, "upper", LOW).values)
        lo = np.asarray(bl.supporting_modulus_estimate(n, r, "lower", LOW).values)
        hi_exact, lo_exact = vertex.max(axis=1), vertex.min(axis=1)
        assert np.all(up <= hi_exact + _side_tol(up)) and np.all(hi_exact - up <= 1e-12), label
        assert np.all(lo >= lo_exact - _side_tol(lo)) and np.all(lo - lo_exact <= 1e-12), label
        assert np.all(dense.max(axis=1) <= up + 1e-12), (label, np.max(dense.max(axis=1) - up))
        assert np.all(dense.min(axis=1) >= lo - 1e-12), (label, np.min(dense.min(axis=1) - lo))


@pytest.mark.parametrize("nid", ["l1", "linf", "poly"])
def test_polyhedral_moduli_run_no_scan_and_no_zoom(norms, nid, monkeypatch):
    """delta, rho and both supporting moduli of a polyhedral norm read its
    vertices only: the arc table and the zoom never run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a polyhedral modulus scanned the arc or zoomed")

    monkeypatch.setattr(M, "_arc", refuse)
    monkeypatch.setattr(M, "_zoom_max", refuse)
    n = norms[nid]
    grid = np.array([0.1, 0.5, 1.0])
    bl.delta_estimate(n, np.append(grid, 2.0), LOW)
    bl.rho_estimate(n, grid, LOW)
    for which in ("lower", "upper"):
        bl.supporting_modulus_estimate(n, grid, which, LOW)


# ---------------------------------------------------------------------------
# support shift and supporting moduli


def test_support_shift_euclid_closed_form():
    """For orthonormal x, y the shift solves (1-s)^2 + r^2 = 1."""
    n = bl.lp_norm(2)
    for r in (0.1, 0.3, 0.7):
        got = M._lambda_rows(n, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), r, True)[0][0]
        assert got == pytest.approx(1 - np.sqrt(1 - r * r), abs=1e-9)


def test_supporting_moduli_exact_for_polyhedral_norms(curve_bank):
    """Flat spheres: the lower supporting modulus vanishes and the upper
    one is attained by the corner direction, value r; each curve on its
    label side and within 1e-9."""
    for nid in ("l1", "linf"):
        hi = np.asarray(curve_bank[nid]["lam_hi"].values)
        lo = np.asarray(curve_bank[nid]["lam_lo"].values)
        assert np.all(lo >= 0.0) and np.all(lo <= 1e-9), nid
        assert np.all(hi <= R_GRID + _side_tol(hi)) and np.all(R_GRID - hi <= 1e-9), nid


def test_supporting_moduli_order(curve_bank):
    for nid, curves in curve_bank.items():
        hi = np.asarray(curves["lam_hi"].values)
        lo = np.asarray(curves["lam_lo"].values)
        assert np.all(lo >= -5e-3), nid
        assert np.all(lo <= hi + 5e-3), nid
        assert np.all(hi <= R_GRID + 5e-3), nid


def test_supporting_moduli_sandwich_euclid_and_l3(curve_bank):
    for nid in ("euclid", "l3"):
        c = curve_bank[nid]
        rho, d = c["rho"], c["delta"]
        hi = np.asarray(c["lam_hi"].values)
        lo = np.asarray(c["lam_lo"].values)
        for i, r in enumerate(R_GRID):
            assert rho.eval(r / 2) - 5e-3 <= hi[i] <= rho.eval(2 * r) + 5e-3, (nid, r)
            assert lo[i] <= d.eval(2 * r) + 5e-3, (nid, r)
            assert d.eval(2 * r) <= 1 - np.sqrt(max(0.0, 1 - r * r)) + 5e-3, (nid, r)


def test_supporting_moduli_labels_hold_on_inner_product_norms(curve_bank):
    """On euclid and ellipse both supporting moduli equal 1 - sqrt(1 - r^2):
    the upper ("under") curve may not exceed it and the lower ("over") curve
    may not fall below it, beyond rounding, at every r, r = 1 included."""
    exact = 1 - np.sqrt(1 - R_GRID ** 2)
    assert R_GRID[-1] == 1.0
    for nid in ("euclid", "ellipse"):
        hi = np.asarray(curve_bank[nid]["lam_hi"].values)
        lo = np.asarray(curve_bank[nid]["lam_lo"].values)
        assert np.all(hi <= exact + _side_tol(hi)), (nid, np.max(hi / exact - 1))
        assert np.all(lo >= exact - _side_tol(lo)), (nid, np.min(lo / exact - 1))
        assert np.all(np.abs(np.concatenate([hi, lo]) - np.tile(exact, 2)) <= 1e-6), nid


def test_support_shift_is_exact_at_the_end_of_the_range():
    """At r = 1 the shift has infinite slope: a residual that rounds to 0
    must not stop the bisection short of 1."""
    n = bl.lp_norm(2)
    assert M._lambda_rows(n, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0, True)[0][0] == 1.0
    for nid in ("euclid", "ellipse"):
        m = bl.norm_zoo()[nid]
        assert bl.supporting_modulus_estimate(m, [1.0], "lower", LOW).values[0] == 1.0, nid


def test_supporting_modulus_which_flag():
    n = bl.lp_norm(2)
    for which in ("sideways", (), ("lower", "sideways")):
        with pytest.raises(ValueError):
            bl.supporting_modulus_estimate(n, [0.3], which, LOW)


@pytest.mark.parametrize("budget", ["low", "default"])
@pytest.mark.parametrize("nid", ["l15", "l3", "weighted l3", "l1", "poly", "ellipse"])
def test_both_labels_in_one_search_are_the_one_label_calls(norms, nid, budget):
    """which = ("lower", "upper") runs both labels as the rows of one
    search, on the union of the grids each label is wanted on; sliced back,
    every value, direction and label has the bits of the one-label call on
    that label's own grid, on overlapping and on disjoint grids, and in
    either label order."""
    n = bl.weighted_lp_norm(3, [1.0, 2.5]) if nid == "weighted l3" else norms[nid]
    B = SearchBudget.preset(budget)
    for g_lo, g_hi in (([0.1, 0.3, 0.5, 0.75, 1.0], [0.2, 0.4, 0.8, 1.0]), ([0.05, 0.6], [0.2, 0.9])):
        union = np.union1d(g_lo, g_hi)
        lo, hi = bl.supporting_modulus_estimate(n, union, ("lower", "upper"), B)
        hi2, lo2 = bl.supporting_modulus_estimate(n, union, ("upper", "lower"), B)
        for c, g, which in ((lo, g_lo, "lower"), (hi, g_hi, "upper"), (lo2, g_lo, "lower"), (hi2, g_hi, "upper")):
            ref = bl.supporting_modulus_estimate(n, g, which, B)
            assert np.array_equal(c.values[np.searchsorted(union, g)], ref.values), (nid, which, g)
            assert (c.direction, c.label) == (ref.direction, ref.label)
            assert np.array_equal(c.args, union)


# ---------------------------------------------------------------------------
# doubling ratio


def test_doubling_ratio_euclid(curve_bank):
    lo, hi = bl.doubling_ratio(curve_bank["euclid"]["rho"])
    assert 3.9 <= lo <= hi <= 4.05


def test_doubling_ratio_l15(curve_bank):
    """rho behaves like t^1.5 near zero, so the ratio sits near 2^1.5."""
    lo, hi = bl.doubling_ratio(curve_bank["l15"]["rho"])
    assert 2.6 <= lo <= hi <= 3.1


def test_doubling_ratio_l1(curve_bank):
    lo, hi = bl.doubling_ratio(curve_bank["l1"]["rho"])
    assert 1.9 <= lo <= hi <= 2.1


def test_doubling_window_for_smooth_norms(curve_bank):
    for nid in ("euclid", "l15", "l3", "ellipse"):
        lo, hi = bl.doubling_ratio(curve_bank[nid]["rho"])
        assert 1.85 <= lo <= hi <= 4.15, nid


# ---------------------------------------------------------------------------
# dominance anchors shared by every norm


def test_roundest_space_bounds(curve_bank):
    """Convexity modulus is maximal, smoothness modulus minimal, for the
    inner-product norm."""
    for nid, curves in curve_bank.items():
        d, r = curves["delta"], curves["rho"]
        for e in (0.3, 0.8, 1.4):
            assert d.eval(e) <= bl.hilbert_delta(e) + 5e-3, nid
        for t in (0.1, 0.4, 0.9):
            assert r.eval(t) >= bl.hilbert_rho(t) - 5e-3, nid


def test_determinism_same_budget_same_values():
    n = bl.lp_norm(3)
    grid = [0.2, 0.7]
    a = bl.delta_estimate(n, grid, LOW)
    b = bl.delta_estimate(n, grid, LOW)
    assert np.array_equal(np.asarray(a.values), np.asarray(b.values))


@pytest.mark.parametrize("nid", ZOO)
def test_estimates_are_pointwise_in_the_grid(norms, nid):
    """Each grid point is an independent search: estimating on a larger grid
    and reading off a subgrid gives the subgrid's own estimate, bit for bit.
    The CLI's per-run curve cache relies on this."""
    n = norms[nid]
    g1 = np.array([0.1, 0.5, 1.0])
    union = np.array([0.1, 0.3, 0.5, 0.8, 1.0])
    on_g1 = np.isin(union, g1)
    runs = [
        lambda g: bl.delta_estimate(n, 1.8 * g, LOW),
        lambda g: bl.rho_estimate(n, g, LOW),
        lambda g: bl.supporting_modulus_estimate(n, g, "lower", LOW),
        lambda g: bl.supporting_modulus_estimate(n, g, "upper", LOW),
    ]
    for run in runs:
        small, big = run(g1), run(union)
        assert np.array_equal(np.asarray(big.values)[on_g1], np.asarray(small.values))
        assert np.array_equal(np.asarray(big.args)[on_g1], np.asarray(small.args))


# ---------------------------------------------------------------------------
# the root searches of the pair engine

CHORDS = np.array([[0.1], [0.5], [1.0], [1.8]])
SHIFTS = np.array([0.05, 0.3, 0.75, 1.0])[:, None, None]
TOL = M._RESIDUAL_ULPS * np.finfo(float).eps


def _warm_guesses(lo, hi):
    """Warm brackets that hold the root, lie above it and lie below it."""
    w = np.maximum(hi - lo, 1e-9)
    return [(lo - w, hi + w), (hi + 0.01, hi + 0.02), (lo - 0.02, lo - 0.01)]


@pytest.mark.parametrize("nid", ZOO)
def test_root_searches_keep_the_label_contract(norms, nid):
    """Every kept chord end has a computed chord of at least eps, and the
    lower end of its bracket is short of eps: on the counterclockwise arcs
    from the arc table, and on both arcs from the corners of a polyhedral
    sphere, at the angles arctan2 gives them, as delta runs them.  Every
    support shift of "lower" has a residual below -tol at its returned
    (upper) end, and every one of "upper" a residual above tol at its
    returned (lower) end, unless that end is the a priori bound, 1 or 0.
    Checked on the full and the rank passes, cold and from warm brackets
    that hold the root or miss it on either side."""
    n = norms[nid]
    A, X = M._arc(n, LOW.angles)
    arcs = [(X, A, 1.0)]
    V = n.ops.corners
    if V is not None:
        vang = np.arctan2(V[:, 1], V[:, 0])
        arcs += [(V, vang, 1.0), (V, vang, -1.0)]
    for X, A, sense in arcs:
        for steps in (M._ROOT_STEPS, M._RANK_STEPS):
            Y, feasible, lo, hi = M._chord_crossing(n, X, A, CHORDS, sense, steps)
            for warm in [None] + _warm_guesses(lo, hi):
                Y, f, lo, hi = M._chord_crossing(n, X, A, CHORDS, sense, steps, warm)
                assert np.array_equal(f, feasible)
                chord = bl.norm_batch(n, X - Y)
                assert (chord >= CHORDS)[f].all(), (nid, sense, steps, warm is None)
                short = bl.norm_batch(n, X - bl.sphere_points(n, sense * lo))
                assert not (short >= CHORDS)[f].any(), (nid, sense, steps, warm is None)
    X, Y, _ = M._quasiorth_table(n, LOW.angles)
    B = X + SHIFTS * Y
    for which in ("lower", "upper"):
        for steps in (M._SHIFT_STEPS, M._RANK_STEPS):
            lam, (lo, hi) = M._lambda_rows(n, X, Y, SHIFTS, which == "lower", steps)
            for warm in [None] + _warm_guesses(lo, hi):
                lam, (lo, hi) = M._lambda_rows(n, X, Y, SHIFTS, which == "lower", steps, warm)
                g_lo, g_hi = (bl.norm_batch(n, B - X * t[..., None]) - 1.0 for t in (lo, hi))
                if which == "lower":
                    assert np.array_equal(lam, hi)
                    assert np.all((g_hi < -TOL) | (hi == 1.0)), (nid, steps, warm is None)
                    assert np.all((g_lo >= -TOL) | (lo == 0.0)), (nid, steps, warm is None)
                else:
                    assert np.array_equal(lam, lo)
                    assert np.all((g_lo > TOL) | (lo == 0.0)), (nid, steps, warm is None)
                    assert np.all((g_hi <= TOL) | (hi == 1.0)), (nid, steps, warm is None)


def _counting(monkeypatch):
    """Patch the shared root search to count the evaluations of each row."""
    counts, search = [], M._bracket_roots

    def counted(s, shape, *args, **kwargs):
        c = np.zeros(shape, dtype=int).ravel()
        counts.append(c)

        def s_counted(i, t):
            np.add.at(c, i, 1)
            return s(i, t)

        return search(s_counted, shape, *args, **kwargs)

    monkeypatch.setattr(M, "_bracket_roots", counted)
    return counts


def test_root_search_spends_at_most_bisection_and_spare(monkeypatch):
    """No row of the shared root search evaluates its residual more often
    than bisection's count of halvings plus _ITP_SPARE, plus its probes: not
    on the tangent support shift at r = 1 (the "lower" shift of euclid's
    orthonormal pair and its "upper" twin, whose residual vanishes to second
    order), nor on a triple root or a jump.  A simple chord root takes far
    fewer."""
    counts = _counting(monkeypatch)
    euclid = bl.lp_norm(2)
    x, y = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    lam, _ = M._lambda_rows(euclid, x, y, 1.0, True)
    assert lam[0] == 1.0
    assert counts[-1][0] <= M._SHIFT_STEPS + M._ITP_SPARE + 1
    lam, _ = M._lambda_rows(euclid, x, y, 1.0, False)
    assert 1.0 - 1e-7 < lam[0] < 1.0
    assert counts[-1][0] <= M._SHIFT_STEPS + M._ITP_SPARE + 1
    roots = np.linspace(0.1, 0.9, 7)
    width = 2.0 ** -M._RANK_STEPS
    for f in (lambda t, i: (t - roots[i]) ** 3, lambda t, i: np.sign(t - roots[i])):
        lo, hi = M._bracket_roots(lambda i, t: f(t, i), (7,), 0.0, 1.0,
                                  f(0.0, np.arange(7)), f(1.0, np.arange(7)), width)
        assert np.all((lo <= roots) & (roots <= hi) & (hi - lo <= width))
        assert counts[-1].max() <= M._RANK_STEPS + M._ITP_SPARE
    for eps in (0.1, 0.5, 1.0, 1.9):
        M._chord_crossing(euclid, x, np.zeros(1), np.array([[eps]]))
        assert counts[-1][0] <= M._ROOT_STEPS // 4, eps
