"""Closed sets: distance, projection, normal cones, smoothness checks."""

import math

import numpy as np
import pytest

import banachlab as bl
from banachlab.norms import ZeroVector
from banachlab.sets import EmptyShell, InteriorPoint, _first, _plane_dirs, _sample_tries


@pytest.fixture(scope="module")
def zoo():
    return bl.norm_zoo()


@pytest.fixture(scope="module")
def registry(zoo):
    return bl.set_registry(zoo)


E2 = bl.lp_norm(2)
SQUARE_FACETS = [([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0),
                 ([0.0, 1.0], 1.0), ([0.0, -1.0], 1.0)]


# ---------------------------------------------------------------------------
# distance and projection


def test_distance_ball_complement():
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    assert bl.distance(A, E2, [0.3, 0.0]) == pytest.approx(0.7, abs=1e-12)
    assert bl.distance(A, E2, [2.0, 0.0]) == 0.0
    y, = bl.project(A, E2, [0.3, 0.0])
    assert np.allclose(y, [1.0, 0.0], atol=1e-9)


def test_distance_ball_and_halfspace():
    ball = bl.make_ball([1.0, 0.0], 0.5)
    assert bl.distance(ball, E2, [3.0, 0.0]) == pytest.approx(1.5, abs=1e-12)
    half = bl.make_halfspace([0.0, 1.0], 0.0)
    assert bl.distance(half, E2, [7.0, 2.0]) == pytest.approx(2.0, abs=1e-12)
    y, = bl.project(half, E2, [7.0, 2.0])
    assert np.allclose(y, [7.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("nid", ["l15", "l3", "ellipse"])
def test_halfspace_foot_under_smooth_planar_norms(zoo, nid):
    """Under a strictly convex norm the foot is unique and exact: it lies on
    the boundary line, realizes the distance, and the duality map of v - foot
    is the unit normal of the halfspace: its one extreme functional."""
    n = zoo[nid]
    a, v = np.array([0.3, 1.0]), np.array([0.4, 2.0])
    half = bl.make_halfspace(a, 0.0)
    y, = bl.project(half, n, v)
    assert abs(float(a @ y)) <= 1e-12
    assert bl.norm_eval(n, v - y) == pytest.approx(bl.distance(half, n, v), rel=1e-12)
    j, = bl.subdifferential_extremes(n, v - y)
    assert np.allclose(j, a / bl.dual_norm_batch(n, a), atol=1e-9)


def test_distance_finite_points():
    A = bl.make_finite_points([[-1.0, 0.0], [1.0, 0.0]])
    assert bl.distance(A, E2, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    ys = bl.project(A, E2, [0.0, 0.1])
    assert len(ys) == 2  # bisector point keeps both representatives


def test_distance_polytope_complement_inside():
    A = bl.make_polytope_complement(SQUARE_FACETS)
    assert bl.distance(A, E2, [0.2, 0.0]) == pytest.approx(0.8, abs=1e-12)
    y, = bl.project(A, E2, [0.2, 0.0])
    assert np.allclose(y, [1.0, 0.0], atol=1e-9)


def test_distance_under_own_gauge(zoo):
    """Complement of the unit ball of the ambient norm: radial distance."""
    for nid in ("l15", "l3"):
        n = zoo[nid]
        A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=n)
        rng = np.random.default_rng(2)
        for _ in range(12):
            x = rng.normal(size=2) * 0.4
            nx = bl.norm_eval(n, x)
            if not 1e-3 < nx < 0.95:
                continue
            assert bl.distance(A, n, x) == pytest.approx(1 - nx, abs=1e-9)
            y, = bl.project(A, n, x)
            assert np.allclose(y, x / nx, atol=1e-8)


def test_distance_mixed_gauge():
    """Euclidean distance to the complement of the max-norm box: facet
    formula."""
    ninf = bl.lp_norm(np.inf)
    A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=ninf)
    assert bl.distance(A, E2, [0.25, 0.1]) == pytest.approx(0.75, abs=1e-10)


SQUARE = bl.polygon_norm([[1, 1], [-1, 1], [-1, -1], [1, -1]])


def test_box_complement_under_its_own_flat_gauge(registry, zoo):
    """Same gauge, not strictly convex: every projection representative lies
    on the nearest edge, at the distance.  The representatives span the face
    of feet x + d F, where F is the face of the max-norm ball that the
    nearest edge's normal exposes, and end, in table order, at x + d c for
    its exact corners c.  The second point is the last shell sample of
    box_complement in test_hypo's frozen reports."""
    A, amb = registry["box_complement"]
    n = zoo[amb]
    for x, dist, ends in (
            ([0.3, 0.1], 0.7, [[1.0, 0.7999999999999999], [1.0, -0.6]]),
            ([-0.6903576548100945, -0.7786257575939263], 0.22137424240607373,
             [[-0.46898341240402075, -1.0], [-0.9117318972161682, -1.0]])):
        x = np.array(x)
        d = bl.distance(A, n, x)
        assert d == pytest.approx(dist, abs=1e-12)
        reps = bl.project(A, n, x)
        assert len(reps) == 16
        for y in reps:
            assert np.max(np.abs(y)) == 1.0
            assert bl.norm_eval(n, y - x) == pytest.approx(d, abs=1e-12)
        assert np.array_equal([reps[0], reps[-1]], ends)


@pytest.mark.parametrize("gauge, kind, x, dist, foot", [
    (SQUARE, "ball", [2.0, 0.0], 1.0, [1.0, 0.0]),
    (bl.ellipse_norm([[0.25, 0.0], [0.0, 1.0]]), "ball", [3.0, 0.0], 1.0, [2.0, 0.0]),
    (bl.lp_norm(1), "ball", [1.0, 1.0], np.sqrt(0.5), [0.5, 0.5]),
    (SQUARE, "ball_complement", [0.2, 0.0], 0.8, None),
    (bl.lp_norm(1), "ball_complement", [0.2, 0.0], 0.8 / np.sqrt(2), None),
    (SQUARE, "ball", [2.0, 0.5], 1.0, [1.0, 0.5]),
])
def test_distance_and_projection_under_another_gauge(gauge, kind, x, dist, foot):
    """Euclidean distance to gauge balls and complements whose gauge is not
    the ambient norm: the least distance over the refined ring feet that
    project returns, and facet planes for the complement of a polyhedral
    gauge.  A foot between ring points is refined onto the sphere."""
    make = bl.make_ball if kind == "ball" else bl.make_ball_complement
    A = make([0.0, 0.0], 1.0, gauge=gauge)
    assert bl.distance(A, E2, x) == pytest.approx(dist, abs=1e-9)
    if foot is not None:
        reps = bl.project(A, E2, x)
        assert len(reps) == 1 and np.allclose(reps[0], foot, atol=1e-12)


def _spread(n, feet):
    return max(bl.norm_eval(n, f - g) for f in feet for g in feet)


@pytest.mark.parametrize("make", [
    lambda: bl.make_halfspace([-1.0, 0.0], -1.0),
    lambda: bl.make_polytope_complement(SQUARE_FACETS),
], ids=["halfspace", "polytope-complement"])
def test_plane_feet_span_the_whole_flat_face(zoo, make):
    """From (0.2, 0) the nearest points of the plane x1 = 1 under the max
    norm are {1} x [-0.8, 0.8]: the representatives span it end to end.
    Under the Euclidean norm the foot is the one point (1, 0)."""
    A, v = make(), np.array([0.2, 0.0])
    feet = bl.project(A, zoo["linf"], v)
    for y in feet:
        assert y[0] == pytest.approx(1.0, abs=1e-12)
        assert bl.norm_eval(zoo["linf"], y - v) == pytest.approx(0.8, abs=1e-12)
    assert _spread(zoo["linf"], feet) == pytest.approx(1.6, abs=1e-12)
    y, = bl.project(A, E2, v)
    assert np.array_equal(y, [1.0, 0.0])


def test_plane_feet_end_at_the_exact_corners(zoo, registry):
    """The plane directions of every dual corner of l1, the max norm and poly
    are a 16-point segment whose ends are rows of the corner table, bit for
    bit; so every foot of the halfplane x2 <= 0 under the max norm lies on
    x2 = 0 exactly."""
    for nid in ("l1", "linf", "poly"):
        n = zoo[nid]
        C = n.ops.corners
        for a in n.ops.dual_corners:
            U = _plane_dirs(n, a)
            assert len(U) == 16, (nid, a)
            for end in (U[0], U[-1]):
                assert (C == end).all(axis=1).any(), (nid, a, end)
    A = registry["halfplane"][0]
    for v in np.random.default_rng(5).uniform([-2.0, 0.01], [2.0, 2.0], size=(50, 2)):
        feet = bl.project(A, zoo["linf"], v)
        assert [y[1] for y in feet] == [0.0] * len(feet), v


@pytest.mark.parametrize("kind", ["ball", "ball_complement"])
def test_distance_reads_the_projection_feet_under_another_gauge(zoo, kind):
    """For every ordered pair of distinct zoo norms, as gauge and as ambient
    norm, the distance is the least ambient distance to the feet that
    project returns."""
    make = bl.make_ball if kind == "ball" else bl.make_ball_complement
    rng = np.random.default_rng(31)
    checked = 0
    for gid, g in zoo.items():
        A = make([0.0, 0.0], 1.0, gauge=g)
        for nid, n in zoo.items():
            if nid == gid:
                continue
            for x in rng.uniform(-1.6, 1.6, size=(3, 2)):
                d = bl.distance(A, n, x)
                if d == 0.0:
                    continue
                feet = bl.project(A, n, x)
                assert d == pytest.approx(min(bl.norm_eval(n, y - x) for y in feet),
                                          rel=1e-12), (gid, nid, tuple(x))
                checked += 1
    assert checked >= 40


def test_unique_nearest_point_gives_one_representative(zoo):
    """The l3 distance from (-0.143, 0.417) to the edge x2 = 1 of the max-norm
    box has the one minimizer (-0.143, 1), though it is flat to third order
    there."""
    A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo["linf"])
    y, = bl.project(A, zoo["l3"], [-0.143, 0.417])
    assert np.allclose(y, [-0.143, 1.0], atol=1e-9)


def test_flat_piece_of_nearest_points_keeps_its_representatives(zoo):
    """Under the max norm every point (1, t) with -0.5 <= t <= 1 of the square
    gauge sphere is at distance 1 from (2, 0.5)."""
    A = bl.make_ball([0.0, 0.0], 1.0, gauge=SQUARE)
    feet = bl.project(A, zoo["linf"], [2.0, 0.5])
    assert len(feet) > 1 and _spread(zoo["linf"], feet) > 0.5
    for y in feet:
        assert bl.norm_eval(zoo["linf"], y - np.array([2.0, 0.5])) == pytest.approx(1.0, abs=1e-12)


def test_projection_from_the_center_of_a_ball_complement():
    """At the centre the whole sphere is nearest: 16 representatives."""
    A = bl.make_ball_complement([0.5, -0.5], 1.0)
    reps = bl.project(A, E2, [0.5, -0.5])
    assert len(reps) == 16
    for y in reps:
        assert bl.norm_eval(E2, y - np.array([0.5, -0.5])) == pytest.approx(1.0, abs=1e-12)


def test_distance_to_another_gauge_sphere_is_planar_only():
    A = bl.make_ball([0.0, 0.0, 0.0], 1.0, gauge=bl.lp_norm(3, 3))
    with pytest.raises(bl.DimensionMismatch):
        bl.distance(A, bl.lp_norm(2, 3), [2.0, 0.0, 0.0])
    with pytest.raises(bl.DimensionMismatch):
        bl.project(A, bl.lp_norm(2, 3), [2.0, 0.5, 0.0])


def _polyhedral_complement_cases(zoo):
    """Complements of polyhedral gauge balls: the l1, max-norm, poly and
    square gauges under every zoo norm, and the 3-d l1 and max-norm gauges
    under the 3-d Euclidean norm."""
    for gid, g in (("l1", zoo["l1"]), ("linf", zoo["linf"]), ("poly", zoo["poly"]),
                   ("square", SQUARE)):
        for nid, n in zoo.items():
            yield f"{gid} under {nid}", g, n, np.array([0.2, -0.1])
    for p in (1, np.inf):
        yield f"3-d l{p:g} under euclid3", bl.lp_norm(p, 3), bl.lp_norm(2, 3), np.array([0.2, -0.1, 0.3])


def test_polyhedral_ball_complement_is_its_polytope_complement(zoo):
    """A ball complement under a polyhedral gauge gives the nearest-point
    table, distance and projection of the polytope complement of the gauge's
    facets, bit for bit, at seeded points inside and outside the ball and at
    its center."""
    rng = np.random.default_rng(37)
    for cid, g, n, c in _polyhedral_complement_cases(zoo):
        A = bl.make_ball_complement(c, 1.2, gauge=g)
        P = bl.make_polytope_complement(g.ops.facets(c, 1.2))
        V = np.concatenate([c + rng.uniform(-1.8, 1.8, size=(12, c.size)), c[None]])
        for got, want in zip(A.ops.nearest_rows(n, V), P.ops.nearest_rows(n, V)):
            assert np.array_equal(got, want), cid
        for v in V:
            assert bl.distance(A, n, v) == bl.distance(P, n, v), (cid, tuple(v))
            got, want = bl.project(A, n, v), bl.project(P, n, v)
            assert len(got) == len(want) and np.array_equal(got, want), (cid, tuple(v))


@pytest.mark.parametrize("p", [1, np.inf], ids=["l1", "linf"])
def test_three_dimensional_polyhedral_ball_complement_under_its_own_norm_is_radial(p):
    """Off the plane, the complement of an l1 or max-norm ball under its own
    norm keeps the radial foot and the residual distance: the polytope of
    its facets would give other nearest points (a plane foot) and read 2^d
    facets for l1."""
    g = bl.lp_norm(p, 3)
    c = np.array([0.2, -0.1, 0.3])
    A = bl.make_ball_complement(c, 1.2)
    for v in c + np.random.default_rng(41).uniform(-1.8, 1.8, size=(12, 3)):
        r = bl.norm_eval(g, v - c)
        foot, = bl.project(A, g, v)
        if r < 1.2:
            assert bl.distance(A, g, v) == 1.2 - r
            assert np.array_equal(foot, c + 1.2 * (v - c) / r)
        else:
            assert bl.distance(A, g, v) == 0.0 and np.array_equal(foot, v)
    if p == np.inf:
        foot, = bl.project(bl.make_ball_complement([0.0, 0.0, 0.0], 1.0), g, [0.5, 0.1, 0.0])
        assert np.array_equal(foot, [1.0, 0.2, 0.0])


@pytest.mark.parametrize("build", [
    lambda: bl.make_ball([0.0, 0.0], np.nan),
    lambda: bl.make_ball([np.inf, 0.0], 1.0),
    lambda: bl.make_ball_complement([0.0, 0.0], np.inf),
    lambda: bl.make_ball_complement([0.0, np.nan], 1.0),
    lambda: bl.make_halfspace([0.0, np.nan], 0.0),
    lambda: bl.make_halfspace([0.0, 1.0], np.inf),
    lambda: bl.make_finite_points([[0.0, 0.0], [np.nan, 1.0]]),
    lambda: bl.make_polytope_complement([([1.0, 0.0], np.nan)]),
    lambda: bl.make_polytope_complement([([np.inf, 0.0], 1.0)]),
], ids=["ball-radius", "ball-center", "complement-radius", "complement-center",
        "halfspace-normal", "halfspace-offset", "finite-points",
        "polytope-offset", "polytope-normal"])
def test_constructors_reject_non_finite_input(build):
    with pytest.raises(ValueError):
        build()


def test_three_dimensional_balls_halfspaces_and_points():
    """The kinds' paths off the plane: the centre of a ball complement,
    boundary samples of a ball, the foot on a halfspace, and the cone
    directions at a point of a finite set."""
    E3 = bl.lp_norm(2, 3)
    A = bl.make_ball_complement([0.0, 0.0, 1.0], 2.0)
    reps = bl.project(A, E3, [0.0, 0.0, 1.0])
    assert len(reps) == 16
    for y in list(reps) + bl.boundary_sample(A, E3, 5, seed=1):
        assert bl.norm_eval(E3, y - np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, abs=1e-12)
    y, = bl.project(bl.make_halfspace([0.0, 0.0, 1.0], 0.0), E3, [0.3, 0.2, 2.0])
    assert np.allclose(y, [0.3, 0.2, 0.0], atol=1e-4)
    pts = bl.make_finite_points([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    dirs = bl.normal_directions(pts, E3, [0.0, 0.0, 0.0])
    assert len(dirs) == 16
    for p in dirs:
        assert bl.dual_norm_batch(E3, p) == pytest.approx(1.0, abs=1e-12)


def test_halfspace_feet_span_the_exposed_face_off_the_plane():
    """Under the 3-d max norm the nearest points of (0.3, 0.2, 2) on
    {x3 <= 0} fill the square [-1.7, 2.3] x [-1.8, 2.2] x {0}: its four
    corners stand for it, and the certificate refuses the halfspace at its
    first sample.  Under the 3-d l1 norm {x1 + x2 <= 0} has the segment
    between the feet along e1 and e2."""
    m3 = bl.lp_norm(np.inf, 3)
    half = bl.make_halfspace([0.0, 0.0, 1.0], 0.0)
    feet = bl.project(half, m3, [0.3, 0.2, 2.0])
    assert np.allclose(feet, [[-1.7, -1.8, 0.0], [-1.7, 2.2, 0.0], [2.3, -1.8, 0.0], [2.3, 2.2, 0.0]])
    rep = bl.prox_smooth_certificate(half, m3, 1.0, sample_count=8, seed=0)
    assert (rep.verdict, rep.reason) == ("fail", "nonunique projection at a sampled point")
    feet = bl.project(bl.make_halfspace([1.0, 1.0, 0.0], 0.0), bl.lp_norm(1, 3), [1.0, 2.0, 0.5])
    assert np.allclose(feet, [[-2.0, 2.0, 0.5], [1.0, -1.0, 0.5]])


def test_cylinder_distance_and_projection(registry, zoo):
    tube, amb = registry["tube"]
    n3 = bl.ambient_norm(zoo, amb)
    assert bl.distance(tube, n3, [0.0, 0.0, 7.0]) == pytest.approx(1.0, abs=1e-9)
    y, = bl.project(tube, n3, [0.2, 0.0, 3.0])
    assert np.allclose(y, [1.0, 0.0, 3.0], atol=1e-8)


def test_projection_points_realize_distance(registry, zoo):
    rng = np.random.default_rng(8)
    for sid in ("disc_complement", "halfplane", "disc", "two_points",
                "square_complement"):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        for _ in range(8):
            x = rng.normal(size=2) * 1.5
            d = bl.distance(A, n, x)
            if d <= 1e-9:
                continue
            for y in bl.project(A, n, x):
                assert bl.contains(A, n, y, tol=1e-6), sid
                assert bl.norm_eval(n, np.asarray(y) - x) == pytest.approx(
                    d, rel=1e-6, abs=1e-8), sid


def test_contains_matches_zero_distance(registry, zoo):
    rng = np.random.default_rng(21)
    for sid, (A, amb) in registry.items():
        n = bl.ambient_norm(zoo, amb)
        for _ in range(6):
            x = rng.normal(size=A.dim)
            inside = bl.contains(A, n, x, tol=1e-9)
            assert inside == (bl.distance(A, n, x) <= 1e-9), sid


# ---------------------------------------------------------------------------
# shells and boundary samples


def test_shell_sample_respects_band(registry, zoo):
    for sid, R in (("disc_complement", 1.0), ("halfplane", 2.0), ("disc", 1.5)):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        pts = bl.shell_sample(A, n, R, 12, seed=3)
        assert len(pts) == 12
        for x in pts:
            d = bl.distance(A, n, x)
            assert 0.0 < d < R, sid


def test_shell_sample_empty():
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    with pytest.raises(EmptyShell):
        bl.shell_sample(A, E2, 1e-8, 4, seed=0)


def test_boundary_sample_sits_on_boundary(registry, zoo):
    for sid in ("disc_complement", "halfplane", "two_points",
                "square_complement", "tube"):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        pts = bl.boundary_sample(A, n, 10, seed=5)
        for x in pts:
            assert bl.distance(A, n, x) <= 1e-7, sid
            nudged = np.asarray(x, float)
            assert bl.contains(A, n, nudged, tol=1e-6), sid


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_tube_boundary_samples_cover_the_cylinder(registry, zoo, seed):
    """A tube sample draws its base point and its free height from one
    generator, so the samples lie on no curve such as the helix
    z = 2 (theta / pi - 1): each half-turn holds heights of both signs."""
    A, amb = registry["tube"]
    X = np.array(bl.boundary_sample(A, bl.ambient_norm(zoo, amb), 64, seed=seed))
    theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2 * np.pi)
    for half in (theta < np.pi, theta >= np.pi):
        assert (X[half, 2] > 0).any() and (X[half, 2] < 0).any()


# ---------------------------------------------------------------------------
# normal cone sampling


def test_cone_halfplane_axis():
    half = bl.make_halfspace([0.0, 1.0], 0.0)
    s = bl.normal_cone_sample(half, E2, [0.0, 0.0])
    assert len(s.directions) == 1
    assert np.allclose(s.directions[0], [0.0, 1.0], atol=1e-12)
    assert s.quality[-1] is True


def test_cone_ball_complement_radial():
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    s = bl.normal_cone_sample(A, E2, [1.0, 0.0])
    assert np.allclose(s.directions[0], [-1.0, 0.0], atol=1e-12)


def test_cone_two_points_full_dual_sphere():
    A = bl.make_finite_points([[-1.0, 0.0], [1.0, 0.0]])
    s = bl.normal_cone_sample(A, E2, [1.0, 0.0])
    assert len(s.directions) == 16
    for p in s.directions:
        assert bl.dual_norm_batch(E2, p) == pytest.approx(1.0, abs=1e-9)


def test_cone_polytope_complement_facet_and_corner():
    A = bl.make_polytope_complement(SQUARE_FACETS)
    s = bl.normal_cone_sample(A, E2, [1.0, 0.3])
    assert np.allclose(s.directions[0], [-1.0, 0.0], atol=1e-12)
    corner = bl.normal_cone_sample(A, E2, [1.0, 1.0])
    assert len(corner.directions) == 0


def test_cone_rejects_interior_point():
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    with pytest.raises(InteriorPoint):
        bl.normal_cone_sample(A, E2, [0.5, 0.0])


def test_cone_directions_pass_sampled_test(registry, zoo):
    """Every returned direction satisfies the sublinear pairing bound on
    nearby set points at two scales."""
    for sid in ("disc_complement", "halfplane", "tube"):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        x = bl.boundary_sample(A, n, 1, seed=9)[0]
        s = bl.normal_cone_sample(A, n, x)
        assert s.quality[-1] is True, sid


def test_normal_directions_pass_the_sampled_vetting(registry, zoo):
    """The certificates read the unvetted directions of normal_directions.
    That is sound only if they pass the two-scale sampled vetting of
    normal_cone_sample, at every sampled point of every zoo set."""
    for sid, (A, amb) in registry.items():
        n = bl.ambient_norm(zoo, amb)
        for x in bl.boundary_sample(A, n, 3, seed=11):
            sample = bl.normal_cone_sample(A, n, x)
            assert sample.directions, sid
            assert sample.quality[2] is True, (sid, sample.quality)


def _one_try_samples(A, n, x, mesh, count, rng):
    """The one-try loop that the block sampler replaced, kept as its
    reference: set points within mesh of x, one try at a time."""
    out = []
    tries = 0
    while len(out) < count and tries < 40 * count:
        tries += 1
        u = rng.standard_normal(A.dim)
        nu = bl.norm_eval(n, u)
        if nu < 1e-12:
            continue
        y = x + mesh * float(rng.uniform(0.05, 1.0)) * u / nu
        if bl.contains(A, n, y, tol=0.0):
            out.append(y)
    return out


def test_block_sampler_is_the_one_try_loop(registry, zoo):
    """_sample_tries returns the bits of the one-try loop's samples.  Small
    meshes hit about half the tries, a wide one splits the count-th hit's
    block, and the two points, which no try hits, spend the budget."""
    for sid, (A, amb) in registry.items():
        n = bl.ambient_norm(zoo, amb)
        for seed, x in enumerate(bl.boundary_sample(A, n, 2, seed=4)):
            x = np.asarray(x, dtype=float)
            for mesh, count in ((1e-3, 20), (0.5, 7), (1e-4, 3)):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _one_try_samples(A, n, x, mesh, count, a)
                got = _sample_tries(b, n, count, 40 * count, (0.05, 1.0), mesh, lambda t: x,
                                    lambda Y: A.ops.residual(n, Y) <= 0)
                assert len(got) == len(want), (sid, mesh)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (sid, mesh)


def test_l1_ball_has_one_normal_at_a_smooth_point_next_to_a_vertex():
    """At x = (1, 1e-7) / |x| the l1 sphere is smooth: the l1 unit ball has
    the one outward normal (1, 1), and its complement the one normal
    -(1, 1), so the complement keeps x, which is not a vertex."""
    n = bl.lp_norm(1)
    x = np.array([1.0, 1e-7]) / (1.0 + 1e-7)
    for make, sign in ((bl.make_ball, 1.0), (bl.make_ball_complement, -1.0)):
        d, = bl.normal_directions(make([0.0, 0.0], 1.0, gauge=n), n, x)
        assert np.array_equal(d, [sign, sign])


def test_ball_cone_rows_are_the_gauge_subdifferential(zoo):
    """A gauge ball's cone table holds at each row x the extreme functionals
    e of the gauge's subdifferential at x - c, from the one-point
    subdifferential_extremes, as sign e / |sign e|_* under the ambient
    norm, bit for bit: all of them on a ball, none on a complement where
    there are several (its vertices).  At the center, where the one-point
    function raises, the count is -1, and normal_directions raises
    ZeroVector there (the center of a ball of radius 1e-5 lies within the
    1e-4 of the boundary that it accepts)."""
    gauges = [zoo[k] for k in ("euclid", "l3", "l15", "l1", "linf", "poly", "ellipse")]
    gauges += [bl.weighted_lp_norm(3.0, [1.0, 1e5]), bl.weighted_lp_norm(1.0, [1.0, 3.0])]
    c = np.array([0.3, -0.2])
    for g in gauges:
        U = [bl.sphere_points(g, 12)] + ([] if g.ops.corners is None else [g.ops.corners])
        X = c + 1.3 * np.concatenate(U + [np.zeros((1, 2))])
        for make, sign in ((bl.make_ball, 1.0), (bl.make_ball_complement, -1.0)):
            for n in (g, E2):
                P, k = make(c, 1.3, gauge=g).ops.cone_rows(n, X)
                assert k[-1] == -1, (g.name, sign)
                for x, p, m in zip(X[:-1], P, k):
                    ext = bl.subdifferential_extremes(g, x - c)
                    ext = [] if sign < 0 and len(ext) > 1 else ext
                    want = sign * np.reshape(ext, (-1, 2))
                    want = want / bl.dual_norm_batch(n, want)[:, None]
                    assert m == len(want) and np.array_equal(p[:m], want), (g.name, sign, x)
        for make in (bl.make_ball, bl.make_ball_complement):
            with pytest.raises(ZeroVector):
                bl.normal_directions(make(c, 1e-5, gauge=g), E2, c)


def test_normal_directions_reject_interior_point():
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    with pytest.raises(InteriorPoint):
        bl.normal_directions(A, E2, [0.5, 0.0])
    with pytest.raises(InteriorPoint):
        bl.normal_directions(bl.make_halfspace([0.0, 1.0], 0.0), E2, [0.0, 0.3])


# ---------------------------------------------------------------------------
# smoothness certificates and rolling-ball checks


def test_certificate_passes_on_smooth_sets(registry, zoo):
    for sid, R in (("disc_complement", 1.0), ("halfplane", 2.0),
                   ("disc", 1.5), ("two_points", 0.5)):
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        rep = bl.prox_smooth_certificate(A, n, R, sample_count=16, seed=6)
        assert rep.verdict == "pass", (sid, rep.reason)


def test_certificate_fails_past_the_reach():
    """Two points at mutual distance 2: shell radius 1.5 reaches the
    bisector where the projection splits."""
    A = bl.make_finite_points([[-1.0, 0.0], [1.0, 0.0]])
    rep = bl.prox_smooth_certificate(A, E2, 1.5, sample_count=16, seed=6)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    ridge = np.asarray(rep.witness[0], dtype=float)
    assert abs(ridge[0]) < 0.5  # near the bisector between the two points


# The closed-form reach of each registry set (Federer 1959): the largest R
# with a C^1 distance on the open R-shell.  The square and the max-norm box
# complements have corners, so theirs is 0.
_REACH = {"disc_complement": 1.0, "l15_ball_complement": 1.0, "l3_ball_complement": 1.0,
          "tube": 1.0, "two_points": 1.0, "halfplane": math.inf, "disc": math.inf,
          "square_complement": 0.0, "box_complement": 0.0}


def test_certificate_fails_only_above_the_reach(registry, zoo):
    """A reach sweep: the certificate on every registry set at five scales
    and two seeds.  Every fail lies above the set's reach, so the convex
    sets pass at every R, and every set of reach 1 fails at R = 1.5, the
    disc complements and the tube by the projection-ray test (their only
    ridge is the centre, which no sampled segment crosses)."""
    assert set(_REACH) == set(registry)
    for sid, (A, amb) in registry.items():
        n = bl.ambient_norm(zoo, amb)
        for R in (1 / 64, 0.25, 0.9, 1.5, 4.0):
            for seed in (0, 11):
                rep = bl.prox_smooth_certificate(A, n, R, sample_count=20, seed=seed)
                assert rep.verdict == "pass" or R > _REACH[sid], (sid, R, seed, rep.reason)
                if _REACH[sid] == 1.0 and R == 1.5:
                    assert rep.verdict == "fail" and rep.witness is not None, (sid, seed)
                    if sid != "two_points":
                        assert rep.reason.endswith("along a projection ray"), (sid, seed)


def test_certificate_fails_on_square_complement():
    A = bl.make_polytope_complement(SQUARE_FACETS)
    rep = bl.prox_smooth_certificate(A, E2, 0.5, sample_count=16, seed=6)
    assert rep.verdict == "fail"


def _row_cases(registry, zoo):
    """Every registry set under its ambient norm; every branch of the gauge
    ball: a planar polyhedral ball under its own norm, a ball under a foreign
    gauge, and complements under a foreign polyhedral and a foreign smooth
    gauge; and planes with normals whose pairings round."""
    cases = [(sid, A, bl.ambient_norm(zoo, amb)) for sid, (A, amb) in registry.items()]
    cases.append(("linf ball", bl.make_ball([0.1, 0.3], 1.0), zoo["linf"]))
    cases.append(("l3-gauge ball", bl.make_ball([0.2, -0.1], 1.0, gauge=zoo["l3"]), E2))
    cases.append(("linf-gauge complement",
                  bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo["linf"]), zoo["l3"]))
    cases.append(("l15-gauge complement",
                  bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo["l15"]), zoo["l3"]))
    cases.append(("skew halfspace", bl.make_halfspace([0.3, -1.1], 0.2), zoo["l15"]))
    cases.append(("skew polytope complement", bl.make_polytope_complement(
        [([1.0, 0.3], 1.0), ([-0.4, 1.0], 0.8), ([-1.0, -0.7], 1.2), ([0.2, -1.0], 0.9)]),
        zoo["ellipse"]))
    return cases


def test_row_methods_equal_the_one_point_functions(registry, zoo):
    """The nearest-point table gives the bits of distance and of project:
    each row's distance, and its kept representatives in order, the first of
    them the foot, at seeded shell points, at midpoints of shell pairs (as
    the certificate's ridge hunt bisects them) and at points inside the
    set.  The row residual gives contains at every row, and at boundary
    points and rows off the boundary it decides where normal_directions
    answers and where it raises InteriorPoint.  A table of no rows is empty,
    with at least one representative column for the feet to index."""
    rng = np.random.default_rng(19)
    for sid, A, n in _row_cases(registry, zoo):
        shell = np.array(bl.shell_sample(A, n, 1.2, 10, seed=3))
        mids = 0.5 * (shell + shell[::-1])
        inside = np.array([bl.sample_inside(A, rng) for _ in range(4)])
        V = np.concatenate([shell, mids, inside])
        res = A.ops.residual(n, V)
        for tol in (0.0, 1e-3):
            assert (res <= tol).tolist() == [bl.contains(A, n, v, tol=tol) for v in V], sid
        B = np.concatenate([np.array(bl.boundary_sample(A, n, 4, seed=5)), V])
        for v, r in zip(B, A.ops.residual(n, B)):
            try:
                bl.normal_directions(A, n, v)
            except InteriorPoint:
                assert abs(r) > 1e-4, sid
            else:
                assert abs(r) <= 1e-4, sid
        d, K, keep = A.ops.nearest_rows(n, V)
        assert d.tolist() == [bl.distance(A, n, v) for v in V], sid
        for v, k, m in zip(V, K, keep):
            want = bl.project(A, n, v)
            assert len(want) == np.count_nonzero(m) and np.array_equal(k[m], want), sid
        _, K, keep = A.ops.nearest_rows(n, inside)
        assert np.array_equal(K[:, 0], inside) and keep.sum(axis=1).tolist() == [1] * 4, sid
        assert keep[:, 0].all(), sid
        d, K, keep = A.ops.nearest_rows(n, np.zeros((0, A.dim)))
        assert d.shape == (0,) and keep.shape == K.shape[:2] and K.shape[2] == A.dim, sid
        assert K.shape[1] >= 1 and _first(K, keep).shape == (0, A.dim), sid


@pytest.mark.parametrize("sid, R, want", [
    ("two_points", 1.5,
     '{"reason": "two projection branches meet inside the shell", "samples_used": 20, '
     '"verdict": "fail", "witness": [[5.439190763956236e-09, 0.4282427116682618], '
     '[1.0, 0.0], [-1.0, 0.0]], "worst_margin": -2.0}'),
    ("square_complement", 0.5,
     '{"reason": "two projection branches meet inside the shell", "samples_used": 20, '
     '"verdict": "fail", "witness": [[0.7742291427846375, 0.7742291527846374], '
     '[0.7742291427846375, 1.0], [1.0, 0.7742291527846374]], "worst_margin": -0.3192882011914975}'),
    ("l3_ball_complement", 1.0,
     '{"samples_used": 20, "verdict": "pass", "witness": null, "worst_margin": 0.0}'),
    ("l3_gauge_ball", 0.5,
     '{"samples_used": 20, "verdict": "pass", "witness": null, "worst_margin": 0.0}'),
    ("linf_gauge_complement", 1.0,
     '{"reason": "two projection branches meet inside the shell", "samples_used": 20, '
     '"verdict": "fail", "witness": [[0.05195277815647864, -0.05195278815647872], '
     '[0.05195277815647864, -1.0], [1.0, -0.05195278815647872]], "worst_margin": -1.194464644795402}'),
    ("halfplane_linf", 1.0,
     '{"reason": "nonunique projection at a sampled point", "samples_used": 1, '
     '"verdict": "fail", "witness": [[-1.2276950311297072, 0.5974384233184231], '
     '[-1.8251334544481304, 0.0], [-1.7454749980056739, 0.0]], '
     '"worst_margin": -1.1948768466368462}'),
    ("l15_gauge_complement", 0.5,
     '{"reason": "two projection branches meet inside the shell", "samples_used": 8, '
     '"verdict": "fail", "witness": [[7.989320891223203e-16, -0.46991015042185513], '
     '[0.3159321018590204, -0.8778013960946826], [-0.31593210185901854, -0.8778013960946839]], '
     '"worst_margin": -0.6318642037180389}'),
])
def test_certificate_report_is_that_of_the_one_point_loop(registry, zoo, sid, R, want):
    """Reports frozen from the one-point loops, which returned at the first
    sample with spread-out feet and at the first failing pair in shuffled
    order: the batched stages find the same sample or pair, witness and
    margin.  Besides registry sets under their ambient norms: the l3-gauge
    ball under the Euclidean norm and the l15-gauge complement under l3 run
    the ring scan of the gauge sphere; the max-norm-gauge complement under l3
    reads the plane feet of its polytope complement; the halfplane under the
    max norm has a flat face of feet at every sample.  Its witness feet were
    re-frozen when the plane feet came to end at the exact corners: they lie
    on x2 = 0.0, no longer at 1.1e-16 from a corner rebuilt from its angle,
    and the same max-norm distance 0.5974384233184231 from the sample."""
    foreign = {
        "l3_gauge_ball": (bl.make_ball([0.0, 0.0], 1.0, gauge=zoo["l3"]), zoo["euclid"]),
        "linf_gauge_complement": (bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo["linf"]),
                                  zoo["l3"]),
        "halfplane_linf": (registry["halfplane"][0], zoo["linf"]),
        "l15_gauge_complement": (bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo["l15"]),
                                 zoo["l3"]),
    }
    if sid in foreign:
        A, n = foreign[sid]
    else:
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
    count = 8 if sid == "l15_gauge_complement" else 20  # its shell sampling scans the ring per try
    rep = bl.prox_smooth_certificate(A, n, R, sample_count=count, seed=11)
    assert rep.to_json() == want


def test_rolling_ball_checks_agree_with_certificate(registry, zoo):
    cases = (("disc_complement", 1.0, True), ("two_points", 1.5, False),
             ("square_complement", 0.5, False), ("disc", 1.5, True))
    for sid, R, expect in cases:
        A, amb = registry[sid]
        n = bl.ambient_norm(zoo, amb)
        p = bl.rolling_ball_check_projection(A, n, R, sample_count=16, seed=7)
        q = bl.rolling_ball_check_normal(A, n, R, sample_count=16, seed=7)
        assert (p.verdict == "pass") == expect, (sid, p.reason)
        assert (q.verdict == "pass") == expect, (sid, q.reason)


def _one_point_rolling_normal(A, n, R, sample_count, seed):
    """The rolling-ball normal check as a loop over the boundary samples:
    one normal_directions call per sample, one support_point call per
    direction and one distance call per pushed point."""
    rows = []
    for x in bl.boundary_sample(A, n, sample_count, seed=seed):
        try:
            dirs = bl.normal_directions(A, n, x)
        except InteriorPoint:
            continue
        rows += [(np.asarray(x), p, bl.support_point(n, p)) for p in dirs]
    if not rows:
        return bl.CheckReport("pass", 0.0, None, 0, reason="no normal directions found")
    m = np.array([bl.distance(A, n, x + R * u) for x, _, u in rows]) - R
    k = int(np.argmin(m))
    verdict = "pass" if m[k] >= -1e-6 else "fail"
    witness = tuple(tuple(t) for t in rows[k])
    return bl.CheckReport(verdict, float(m[k]), witness if verdict == "fail" else None, len(rows))


@pytest.mark.parametrize("seed", [3, 11])
def test_rolling_normal_report_is_that_of_the_one_point_loop(registry, zoo, seed):
    """The batched rolling-ball normal check (one cone_rows call on all
    samples, one support call on all directions) gives the report of the
    one-point loop, witness and margin bit for bit, on every registry set
    at its default scales and at scales where it fails, and on the
    polyhedral and l3 gauge complements under their own gauge and under
    euclid; it raises ZeroVector where the loop does, at the center of a
    ball too small to leave it."""
    cases = [(registry[sid][0], bl.ambient_norm(zoo, registry[sid][1]), R)
             for sid, R in list(bl.DEFAULT_SET_SCALES) + [("disc_complement", 1.3), ("tube", 1.2),
                                                          ("l3_ball_complement", 1.5), ("halfplane", 0.5)]]
    for nid in ("l1", "linf", "poly", "l3"):
        A = bl.make_ball_complement([0.0, 0.0], 1.0, gauge=zoo[nid])
        cases += [(A, zoo[nid], 0.5), (A, zoo["euclid"], 0.5), (bl.make_ball([0.5, 0.0], 1.0, gauge=zoo[nid]), zoo[nid], 2.0)]
    for A, n, R in cases:
        got = bl.rolling_ball_check_normal(A, n, R, sample_count=24, seed=seed)
        assert got == _one_point_rolling_normal(A, n, R, 24, seed), (A.name, n.name, R)
    tiny = bl.make_ball([1.0, 1.0], 1e-17)
    for check in (bl.rolling_ball_check_normal, _one_point_rolling_normal):
        with pytest.raises(ZeroVector):
            check(tiny, E2, 0.5, 4, seed)


def test_ball_complement_beyond_unit_radius_fails_rolling_checks():
    """The unit-ball complement supports a rolling ball only up to radius
    one; at radius 1.3 both outward-ball checks and the certificate refuse
    it.

    The distance function loses smoothness only at the single center point,
    which random shell samples never hit and no sampled segment crosses, so
    the certificate's ridge hunt finds nothing.  Its projection-ray stage
    sees the defect as the rolling-projection check does: pushed to 1.3
    along its ray, a shell point passes the center and comes within 0.7 of
    the set.
    """
    A = bl.make_ball_complement([0.0, 0.0], 1.0)
    assert bl.rolling_ball_check_normal(A, E2, 1.3, sample_count=16, seed=8).verdict == "fail"
    assert bl.rolling_ball_check_projection(A, E2, 1.3, sample_count=16, seed=8).verdict == "fail"
    cert = bl.prox_smooth_certificate(A, E2, 1.3, sample_count=16, seed=8)
    assert cert.verdict == "fail" and cert.worst_margin == pytest.approx(-0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# largest inscribed ellipse


def test_john_square_gives_identity():
    Q = bl.john_ellipse_2d([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    assert np.allclose(Q, np.eye(2), atol=1e-8)


def test_john_hexagon():
    ang = np.arange(6) * np.pi / 3
    hexv = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    Q = bl.john_ellipse_2d(hexv)
    assert np.allclose(Q, (4.0 / 3.0) * np.eye(2), atol=1e-6)


def test_john_recovers_ellipse_from_fine_polygon():
    M = np.array([[2.0, 0.4], [0.4, 0.8]])
    Qtrue = np.linalg.inv(M @ M.T)
    ang = np.linspace(0, 2 * np.pi, 65)[:-1]
    verts = (M @ np.stack([np.cos(ang), np.sin(ang)])).T
    Q = bl.john_ellipse_2d(verts)
    assert np.allclose(Q, Qtrue, atol=1e-2)


def test_john_inclusions_random_polygons():
    rng = np.random.default_rng(42)
    for _ in range(6):
        raw = rng.normal(size=(5, 2)) * [1.5, 0.7] + 0.1
        pts = np.vstack([raw, -raw])
        from scipy.spatial import ConvexHull
        verts = pts[ConvexHull(pts).vertices]
        Q = bl.john_ellipse_2d(verts)
        gauge = bl.polygon_norm(verts)
        # polygon inside sqrt(2) ellipse
        for v in verts:
            assert v @ Q @ v <= 2.0 + 1e-6
        # ellipse inside polygon: boundary scan
        L = np.linalg.cholesky(np.linalg.inv(Q))
        for a in np.linspace(0, 2 * np.pi, 80):
            x = L @ np.array([np.cos(a), np.sin(a)])
            assert bl.norm_eval(gauge, x) <= 1.0 + 1e-6

