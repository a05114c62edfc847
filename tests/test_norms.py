"""Norm evaluation, duality maps and support points."""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

import banachlab as bl
from banachlab import moduli as M
from banachlab.norms import (
    DimensionMismatch,
    NotSymmetric,
    ZeroVector,
    j1_batch,
)
from conftest import _image, _rotation


def vec2(lo=-5.0, hi=5.0):
    coord = st.floats(min_value=lo, max_value=hi, allow_nan=False, width=32)
    return st.tuples(coord, coord).map(lambda t: np.array(t, dtype=float))


NORM_IDS = ["euclid", "l15", "l3", "l1", "linf", "poly", "ellipse"]


@pytest.fixture(scope="module")
def zoo():
    return bl.norm_zoo()


# ---------------------------------------------------------------------------
# evaluation


def test_lp_values():
    n2 = bl.lp_norm(2)
    assert bl.norm_eval(n2, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)
    n1 = bl.lp_norm(1)
    assert bl.norm_eval(n1, [1.0, -2.0]) == pytest.approx(3.0, abs=1e-12)
    ninf = bl.lp_norm(np.inf)
    assert bl.norm_eval(ninf, [1.0, -2.0]) == pytest.approx(2.0, abs=1e-12)
    n15 = bl.lp_norm(1.5)
    assert bl.norm_eval(n15, [1.0, 1.0]) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)


def test_weighted_lp_values():
    # (sum_i w_i |x_i|^p)^(1/p)
    n = bl.weighted_lp_norm(2, [4.0, 0.25])
    assert bl.norm_eval(n, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
    assert bl.norm_eval(n, [0.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


def _plain_lp(X, p):
    """The formulas of the former separate lp kind, kept as the reference:
    NumPy reductions over the last axis."""
    a = X * X if p == 2.0 else np.abs(X)
    if p == 2.0:
        return np.sqrt(np.sum(a, axis=-1))
    if p == 1.0:
        return np.sum(a, axis=-1)
    if math.isinf(p):
        return np.max(a, axis=-1)
    m = np.max(a, axis=-1)
    scaled = a / np.expand_dims(np.where(m > 0, m, 1.0), -1)
    return m * np.sum(scaled ** p, axis=-1) ** (1.0 / p)


def _conjugate(p):
    return {1.0: np.inf, 2.0: 2.0, np.inf: 1.0}.get(p) or p / (p - 1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_lp_is_unit_weight_weighted_lp_bit_for_bit(p, dim):
    """lp_norm builds a unit-weight weighted lp spec whose norm and dual norm
    equal the plain lp formulas exactly, for single rows and stacks of rows."""
    n = bl.lp_norm(p, dim)
    assert n.kind == "weighted_lp" and n.weights == (1.0,) * dim
    q = _conjugate(p)
    rng = np.random.default_rng(31)
    for shape in [(dim,), (7, dim), (4, 5, dim)]:
        X = rng.normal(size=shape) * 3.0
        assert np.array_equal(bl.norm_batch(n, X), _plain_lp(X, p))
        assert np.array_equal(bl.dual_norm_batch(n, X), _plain_lp(X, q))


@pytest.mark.parametrize("weights", [[1.0, np.nan], [np.inf, 1.0], [1.0, 0.0], []])
def test_weighted_lp_rejects_bad_weights(weights):
    with pytest.raises(ValueError):
        bl.weighted_lp_norm(2, weights)


def test_polygon_square_matches_linf():
    square = bl.polygon_norm([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    ninf = bl.lp_norm(np.inf)
    rng = np.random.default_rng(5)
    for x in rng.normal(size=(40, 2)):
        assert bl.norm_eval(square, x) == pytest.approx(
            bl.norm_eval(ninf, x), rel=1e-9, abs=1e-12)


def _edge_functionals(verts):
    """Dual functionals of the polygon edges: e with <e, v_i> = <e, v_j> = 1."""
    out = []
    m = len(verts)
    for i in range(m):
        a, b = np.asarray(verts[i], float), np.asarray(verts[(i + 1) % m], float)
        out.append(np.linalg.solve(np.stack([a, b]), np.ones(2)))
    return out


def test_polygon_gauge_agrees_with_edge_maximum(zoo):
    """Independent oracle: the gauge of a convex symmetric polygon equals
    the maximum of its edge functionals."""
    poly = zoo["poly"]
    edges = _edge_functionals(poly.vertices)
    rng = np.random.default_rng(11)
    for x in rng.normal(size=(60, 2)):
        oracle = max(float(e @ x) for e in edges)
        assert bl.norm_eval(poly, x) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_ellipse_matches_quadratic_form(zoo):
    n = zoo["ellipse"]
    Q = np.asarray(n.matrix)
    rng = np.random.default_rng(7)
    for x in rng.normal(size=(30, 2)):
        assert bl.norm_eval(n, x) == pytest.approx(np.sqrt(x @ Q @ x), rel=1e-10)


def test_norm_batch_matches_single(zoo):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 2))
    for nid in NORM_IDS:
        n = zoo[nid]
        batch = bl.norm_batch(n, X)
        single = [bl.norm_eval(n, x) for x in X]
        assert np.allclose(batch, single, atol=1e-12)


def _exact_pairing_max(x, F, absolute):
    """max over the rows f of F of <f, x> (or |<f, x>|) in exact rational
    arithmetic, rounded once to a float."""
    vals = [sum(Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, f)) for f in F]
    return float(max(abs(v) for v in vals) if absolute else max(vals))


def _exact_image_norm(x, T):
    """The Euclidean norm |Tx| in 60-digit decimal arithmetic, rounded once to
    a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = [decimal.Decimal(float(v)) for v in x]
        y = [sum(decimal.Decimal(float(t)) * v for t, v in zip(row, d)) for row in T]
        return float(sum(v * v for v in y).sqrt())


@pytest.mark.parametrize("nid", NORM_IDS + [f"wlp{p:g}/{d}" for d in (1, 3)
                                            for p in (1.0, 1.5, 2.0, 3.0, np.inf)])
def test_norm_kernels_equal_the_reductions_over_the_last_axis(zoo, nid):
    """The column kernels give the bits of the NumPy reductions they replace
    (np.sum and np.max), on one vector and on stacks of rows.  A weighted lp
    norm is lp of the rows scaled by t = w^(1/p) (t = w for the max norm),
    and its dual norm lq of the rows scaled by 1/t, bit for bit; unit weights
    scale by 1.  An ellipse value is the Euclidean |Rx| with Q = R^T R (the
    dual |R^-T p|) up to its rounding: the sums of Rx err by at most
    u |R| |x| + u |Rx| componentwise (u = 2^-53), which moves |Rx| by at most
    (c + 1) u |Rx| with c = | |R| |x| | / |Rx|; squaring, summing and the
    root add 2u, and the reference rounds once more, so the two differ by at
    most c + 3.5 ulps to first order in u (the test allows c + 4).  A polygon
    value is the largest pairing <f, x> with an edge functional f (|<v, p>|
    with a vertex v for the dual norm) up to its rounding: two products and
    a sum move a pairing by at most 2u (|x1 f1| + |x2 f2|), and the reference
    rounds once more.  (The matmul X @ E.T that the polygon kernel replaces
    rounds by the shape of its operands.)"""
    if nid in zoo:
        n = zoo[nid]
    else:
        p, d = nid[3:].split("/")
        n = bl.weighted_lp_norm(float(p), np.linspace(0.5, 2.5, int(d)))
    rng = np.random.default_rng(41)
    for shape in [(), (9,), (3, 4)]:
        X = rng.normal(size=shape + (n.dim,)) * 10.0 ** rng.integers(-3, 4, size=shape + (n.dim,))
        if n.kind == "ellipse":
            for T, got in ((n.ops.T, bl.norm_batch(n, X)), (n.ops.Ti.T, bl.dual_norm_batch(n, X))):
                rows, got = X.reshape(-1, 2), np.reshape(got, -1)
                ref = np.array([_exact_image_norm(x, T) for x in rows])
                c = np.sqrt(np.sum((np.abs(rows) @ np.abs(T).T) ** 2, axis=-1)) / ref
                assert np.all(np.abs(got - ref) <= (c + 4) * np.spacing(ref))
            continue
        if n.kind == "polygon":
            for F, absolute, got in ((n.ops.edges, False, bl.norm_batch(n, X)),
                                     (n.ops.vertices, True, bl.dual_norm_batch(n, X))):
                rows, got = X.reshape(-1, 2), np.reshape(got, -1)
                ref = np.array([_exact_pairing_max(x, F, absolute) for x in rows])
                kappa = np.max(np.abs(rows) @ np.abs(F).T, axis=-1) / ref
                assert np.all(np.abs(got - ref) <= (2 * kappa + 1) * np.spacing(ref))
            continue
        w = np.array(n.weights)
        t = w if math.isinf(n.p) else w ** (1.0 / n.p)
        assert np.array_equal(bl.norm_batch(n, X), _plain_lp(X * t, n.p))
        assert np.array_equal(bl.dual_norm_batch(n, X), _plain_lp(X * (1.0 / t), _conjugate(n.p)))


def test_ellipse_row_has_the_same_bits_in_any_batch(zoo):
    """A row of the ellipse, l15, l3, the polygon, a weighted l3 and a
    weighted max norm has one value alone (norm_eval, or a one-row batch),
    in a (1, 2, 2) batch and in an (E, 2, 2) batch, for the norm, the dual
    norm, j1 and the support point; an ellipse or polygon row also as a bare
    vector, whose l15 and l3 sums end as 0-d scalars."""
    X = np.random.default_rng(17).normal(size=(150, 2, 2))
    norms = {nid: zoo[nid] for nid in ("ellipse", "l15", "l3", "poly")}
    norms["wl3"] = bl.weighted_lp_norm(3, [0.7, 2.5])
    norms["wlinf"] = bl.weighted_lp_norm(np.inf, [0.7, 2.5])
    support = lambda n, P: n.ops.support(P)
    for nid, n in norms.items():
        for f, one in ((bl.norm_batch, bl.norm_eval),
                       (bl.dual_norm_batch, lambda n, x: bl.dual_norm_batch(n, x[None])[0]),
                       (j1_batch, lambda n, x: j1_batch(n, x[None])[0]),
                       (support, lambda n, x: support(n, x[None])[0])):
            whole = f(n, X)
            for e in range(X.shape[0]):
                assert np.array_equal(f(n, X[e:e + 1])[0], whole[e]), nid
                if nid in ("ellipse", "poly"):
                    assert np.array_equal([f(n, x) for x in X[e]], whole[e]), nid
                assert np.array_equal([one(n, x) for x in X[e]], whole[e]), nid


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bl.norm_eval(bl.lp_norm(2, dim=2), [1.0, 2.0, 3.0])


def test_an_unknown_norm_kind_is_refused():
    with pytest.raises(ValueError):
        bl.NormSpec(kind="hexagon", dim=2).ops


def test_polygon_rejects_asymmetric_vertices():
    """Also an antipode 1e-6 off, which would give |(1, 0)| = 1 but
    |(-1, 0)| = 0.999999, and a vertex 1e-6 off another, which is not a
    duplicate: five vertices are refused, not cut to the four of a square."""
    for V in ([[1, 0], [0, 1], [-1, 0], [0, -0.5]], [[1, 0], [0, 1], [-1.000001, 0], [0, -1]],
              [[1, 0], [1.000001, 0], [0, 1], [-1, 0], [0, -1]]):
        with pytest.raises(NotSymmetric):
            bl.polygon_norm(V)


def test_ellipse_rejects_a_non_finite_matrix():
    for bad in (np.inf, np.nan):
        with pytest.raises(bl.DegenerateBody):
            bl.ellipse_norm([[1.0, 0.0], [0.0, bad]])


def test_ellipse_rejects_a_near_symmetric_matrix():
    """A matrix 4e-6 off its transpose is refused: its squared norm at
    (1, 1) would be 3.000008, where x^T Q x is 3.000004."""
    with pytest.raises(NotSymmetric):
        bl.ellipse_norm([[1, 0.5], [0.500004, 1]])


@settings(max_examples=60, deadline=None)
@given(x=vec2(), scale=st.floats(min_value=-8, max_value=8,
                                 allow_nan=False, width=32))
def test_homogeneity(x, scale):
    n = bl.lp_norm(3)
    lhs = bl.norm_eval(n, scale * x)
    rhs = abs(scale) * bl.norm_eval(n, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(x=vec2(), y=vec2())
def test_triangle_inequality(x, y):
    for n in (bl.lp_norm(1.5), bl.lp_norm(3),
              bl.polygon_norm([[1, 1], [-1, 1], [-1, -1], [1, -1]])):
        assert (bl.norm_eval(n, x + y)
                <= bl.norm_eval(n, x) + bl.norm_eval(n, y) + 1e-9)


def test_sphere_points_have_unit_norm(zoo):
    for nid in NORM_IDS:
        n = zoo[nid]
        pts = bl.sphere_points(n, 64)
        assert np.allclose(bl.norm_batch(n, pts), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# dual norm and duality map


@settings(max_examples=60, deadline=None)
@given(x=vec2(), p=vec2())
def test_pairing_bounded_by_dual_norm(x, p):
    for n in (bl.lp_norm(2), bl.lp_norm(1.5), bl.lp_norm(3)):
        lhs = abs(bl.pairing(p, x))
        rhs = bl.dual_norm_batch(n, p) * bl.norm_eval(n, x)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_dual_norm_lp_conjugate():
    n3 = bl.lp_norm(3)
    p = np.array([1.0, 1.0])
    # conjugate exponent 1.5
    assert bl.dual_norm_batch(n3, p) == pytest.approx(2.0 ** (1.0 / 1.5), rel=1e-9)
    n1 = bl.lp_norm(1)
    assert bl.dual_norm_batch(n1, [2.0, -3.0]) == pytest.approx(3.0, abs=1e-12)


def test_duality_map_euclid():
    n = bl.lp_norm(2)
    j, = bl.subdifferential_extremes(n, [3.0, 4.0])
    assert np.allclose(j, [0.6, 0.8], atol=1e-9)


def test_duality_map_l3_diagonal():
    n = bl.lp_norm(3)
    j, = bl.subdifferential_extremes(n, [1.0, 1.0])
    assert np.allclose(j, [2.0 ** (-2.0 / 3.0)] * 2, atol=1e-9)


def test_duality_map_multivalued_at_linf_corner():
    ext = bl.subdifferential_extremes(bl.lp_norm(np.inf), [1.0, 1.0])
    assert sorted(map(tuple, np.round(ext, 9))) == [(0.0, 1.0), (1.0, 0.0)]


def test_duality_map_multivalued_on_l1_axis():
    n = bl.lp_norm(1)
    ext = bl.subdifferential_extremes(n, [1.0, 0.0])
    assert len(ext) == 2
    for p in ext:
        assert bl.dual_norm_batch(n, p) == pytest.approx(1.0, abs=1e-8)
        assert bl.pairing(p, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(x=vec2(lo=-3, hi=3))
def test_duality_map_constraints(x):
    """J(x) has unit dual norm and attains the norm of x."""
    if np.linalg.norm(x) < 1e-3:
        return
    for n in (bl.lp_norm(2), bl.lp_norm(3), bl.lp_norm(1.5)):
        p, = bl.subdifferential_extremes(n, x)
        assert bl.dual_norm_batch(n, p) == pytest.approx(1.0, abs=1e-6)
        assert bl.pairing(p, x) == pytest.approx(bl.norm_eval(n, x), abs=1e-6)


def _polyhedral_norms(zoo):
    return (zoo["l1"], zoo["linf"], zoo["poly"], bl.weighted_lp_norm(1, [1.0, 5.0]),
            bl.weighted_lp_norm(np.inf, [3.0, 1.0]))


def _vertex_probes(n):
    """Two sets of points of a planar polyhedral norm: each vertex and three
    times it, where two edges meet; and the smooth points 1e-7 from each
    vertex, either way along the vertex turned a quarter turn, and
    +-(1, 1e-7)."""
    V = n.ops.corners
    ccw = np.stack([-V[:, 1], V[:, 0]], axis=-1)
    x = np.array([[1.0, 1e-7]])
    return np.concatenate([V, 3.0 * V]), np.concatenate([V + 1e-7 * ccw, V - 1e-7 * ccw, x, -x])


def _assert_in_the_subdifferential(n, z, P):
    """Each functional p of P has dual norm 1 and pairs with z to |z|."""
    for p in P:
        assert bl.dual_norm_batch(n, p) == pytest.approx(1.0, rel=0.0, abs=1e-12), (n.name, z)
        assert bl.pairing(p, z) == pytest.approx(bl.norm_eval(n, z), rel=1e-12), (n.name, z)


def test_j1_lies_in_the_subdifferential_next_to_a_face_edge(zoo):
    """Where a polyhedral norm is smooth but within 1e-6 of a vertex, or at
    the vertex, j1 gives a functional of dual norm 1 that pairs with x to
    |x|, within rounding, on l1, the max norm, poly and their linear
    images.  At x = (1, 1e-7) on l1 the one such functional is (1, 1)."""
    assert np.array_equal(j1_batch(zoo["l1"], [1.0, 1e-7]), [1.0, 1.0])
    for n in _polyhedral_norms(zoo):
        for z in np.concatenate(_vertex_probes(n)):
            _assert_in_the_subdifferential(n, z, [j1_batch(n, z)])


def test_subdifferential_extremes_are_the_face_of_the_dual_ball(zoo):
    """On l1, the max norm, poly and their linear images every listed
    functional has dual norm 1 and pairs with z to |z|, within rounding: two
    at a planar vertex and its multiples, one within 1e-7 of a vertex, where
    the norm is smooth.  At (1, 1e-7) on l1 that one is (1, 1); (1, -1)
    pairs with it to 0.9999999.  In 3-d the corners of l1 list the four
    sign vectors that agree on their one nonzero coordinate, and those of
    the max norm the three signed axes."""
    ext = bl.subdifferential_extremes(zoo["l1"], [1.0, 1e-7])
    assert np.array_equal(ext, [[1.0, 1.0]])
    for n in _polyhedral_norms(zoo):
        vertices, smooth = _vertex_probes(n)
        for count, Z in ((2, vertices), (1, smooth)):
            for z in Z:
                ext = bl.subdifferential_extremes(n, z)
                assert len(ext) == count, (n.name, z)
                _assert_in_the_subdifferential(n, z, ext)
    for p, count in ((1, 4), (np.inf, 3)):
        n = bl.lp_norm(p, 3)
        for z in np.concatenate([n.ops.corners, 3.0 * n.ops.corners]):
            ext = bl.subdifferential_extremes(n, z)
            assert len(ext) == count, (n.name, z)
            _assert_in_the_subdifferential(n, z, ext)


def _thin_polygon(a, aspect):
    """The rhombus (+-1, 0), (0, +-aspect) turned by a."""
    V = np.array([[1.0, 0.0], [0.0, aspect], [-1.0, 0.0], [0.0, -aspect]]) @ _rotation(a).T
    return bl.polygon_norm(V.tolist(), name=f"thin {a} {aspect}")


def _ill_conditioned_norms():
    """Two thin rhombi, and l1 and the max norm turned, sheared and squeezed
    by a map of condition number 1e3."""
    T = _rotation(0.4) @ [[1.0, 3.0], [0.0, 1.0]] @ np.diag([1.0, 1e-3]) @ _rotation(1.1)
    assert 999.0 < np.linalg.cond(T) < 1001.0
    return [_thin_polygon(0.3, 0.01), _thin_polygon(0.7, 1e-3),
            _image(bl.lp_norm(1), T, "l1 sheared"), _image(bl.lp_norm(np.inf), T, "linf sheared")]


@pytest.mark.parametrize("n", _ill_conditioned_norms(), ids=lambda n: n.name)
def test_subdifferential_extremes_tie_on_ill_conditioned_norms(n):
    """Where the functionals are large, or the norm is a linear image of
    condition number 1e3, the ties are still read to the rounding of the
    pairing: each corner (ops.corners, a linear image's the base's moved by
    T^-1) and three times it lists both functionals of its two edges, and a
    point 1e-7 from the corner along either edge line lists one."""
    for c in n.ops.corners:
        ext = bl.subdifferential_extremes(n, c)
        assert len(ext) == 2, (n.name, c)
        assert len(bl.subdifferential_extremes(n, 3.0 * c)) == 2, (n.name, c)
        _assert_in_the_subdifferential(n, c, ext)
        for e in ext:
            t = np.array([-e[1], e[0]]) / np.hypot(*e)
            for z in (c + 1e-7 * t, c - 1e-7 * t):
                one = bl.subdifferential_extremes(n, z)
                assert len(one) == 1, (n.name, z)
                _assert_in_the_subdifferential(n, z, one)


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 1.3])
@pytest.mark.parametrize("aspect", [0.01, 1e-3])
def test_vertex_pairs_of_a_thin_polygon_keep_both_functionals(a, aspect):
    """The supporting moduli of a polygon run on the pairs of its vertices:
    two functionals at each of the four vertices, and both signs of y, so 16
    pairs, read at the exact corners of a thin rhombus."""
    n = _thin_polygon(a, aspect)
    X, Y = M._vertex_pairs(n)
    assert len(X) == len(Y) == 16


def test_sign_vector_tables_stop_at_dim_16():
    """l1 lists its 2 d corners in any dimension, but the 2^d sign vectors,
    l1's dual corners and the max norm's corners, are listed up to dim 16:
    above it face, subdifferential and facets that read them raise."""
    assert len(bl.lp_norm(1, 16).ops.dual_corners) == 2 ** 16
    n1, ninf = bl.lp_norm(1, 17), bl.lp_norm(np.inf, 17)
    x = np.arange(1.0, 18.0)
    assert np.array_equal(n1.ops.face(x), [np.eye(17)[16]])
    assert np.array_equal(bl.subdifferential_extremes(ninf, x), [np.eye(17)[16]])
    with pytest.raises(DimensionMismatch):
        bl.subdifferential_extremes(n1, x)
    with pytest.raises(DimensionMismatch):
        ninf.ops.face(x)
    with pytest.raises(DimensionMismatch):
        n1.ops.facets(np.zeros(17), 1.0)


@pytest.mark.parametrize("p, dim, corners, dual_corners", [
    (1, 2, 4, 4), (np.inf, 2, 4, 4), (1, 3, 6, 8), (np.inf, 3, 8, 6),
], ids=["l1", "linf", "l1-3d", "linf-3d"])
def test_lp_vertex_tables_are_the_vertices_of_the_ball_and_its_dual(p, dim, corners, dual_corners):
    """l1 has the 2 d rows +-e_k and the 2^d sign vectors, the max norm the
    two swapped; a smooth lp has neither table."""
    n = bl.lp_norm(p, dim)
    C, D = n.ops.corners, n.ops.dual_corners
    assert (len(C), len(D)) == (corners, dual_corners)
    E = {tuple(r) for r in np.concatenate([np.eye(dim), -np.eye(dim)])}
    S = set(itertools.product((1.0, -1.0), repeat=dim))
    assert ({tuple(r) for r in C}, {tuple(r) for r in D}) == ((E, S) if p == 1 else (S, E))
    assert np.array_equal(bl.norm_batch(n, C), np.ones(len(C)))
    assert np.array_equal(bl.dual_norm_batch(n, D), np.ones(len(D)))
    assert np.array_equal(np.max(D @ C.T, axis=1), np.ones(len(D)))
    assert bl.lp_norm(3, dim).ops.corners is None and bl.lp_norm(3, dim).ops.dual_corners is None


def test_polygon_vertex_tables_and_the_faces_of_its_edges(zoo):
    """poly's corners are its vertices at norm 1 and its dual corners its
    edge functionals, each of dual norm 1 and pairing to 1 with the two
    ends of its edge, which face returns, in vertex order."""
    ops = zoo["poly"].ops
    C, D = ops.corners, ops.dual_corners
    assert np.allclose(bl.norm_batch(zoo["poly"], C), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(bl.dual_norm_batch(zoo["poly"], D), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(np.max(D @ C.T, axis=1), 1.0, rtol=0.0, atol=1e-12)
    for i, e in enumerate(D):
        ends = C[[i, (i + 1) % len(C)]]
        assert np.array_equal(ops.face(e), ends if i + 1 < len(C) else ends[::-1]), i


@pytest.mark.parametrize("p, rows", [
    (1, [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
         [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1]]),
    (np.inf, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
], ids=["l1", "linf"])
def test_facets_of_the_3d_polyhedral_balls_keep_their_row_order(p, rows):
    """facets(c, R) lists (a, R + <a, c>) over the dual corners in table
    order, with +0 zeros: the plane feet of the polytope complement follow
    that order, and their sums the signs of those zeros."""
    c = np.array([0.2, -0.1, 0.3])
    F = bl.lp_norm(p, 3).ops.facets(c, 1.2)
    A = np.array([a for a, _ in F])
    assert np.array_equal(A, rows) and not np.signbit(A[A == 0]).any()
    assert [b for _, b in F] == [1.2 + float(np.dot(a, c)) for a in np.array(rows, dtype=float)]


def test_duality_map_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        bl.subdifferential_extremes(bl.lp_norm(2), [0.0, 0.0])


# closed-form duality map and support point on random norms

def weighted_lp(dim):
    exponent = st.floats(min_value=1.0, max_value=8.0, exclude_min=True, exclude_max=True)
    weights = st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=dim, max_size=dim)
    return st.builds(bl.weighted_lp_norm, exponent, weights)


def _random_ellipse(seed):
    a = np.random.default_rng(seed).normal(size=(2, 2))
    q = a @ a.T + 0.05 * np.eye(2)
    return bl.ellipse_norm((q + q.T) / 2)


def _random_polygon(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(int(rng.integers(2, 7)), 2))
    sym = np.vstack([raw, -raw])
    try:
        return bl.polygon_norm(sym[ConvexHull(sym).vertices])
    except ValueError:  # too few hull vertices, or nearly collinear ones
        return None


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
ELLIPSES = SEEDS.map(_random_ellipse)
STRICTLY_CONVEX = st.one_of(weighted_lp(2), weighted_lp(3), ELLIPSES)
ANY_NORM = st.one_of(STRICTLY_CONVEX, SEEDS.map(_random_polygon).filter(lambda n: n is not None),
                     st.sampled_from([bl.lp_norm(1), bl.lp_norm(np.inf), bl.lp_norm(1, 3)]))


def draw_vector(data, dim):
    coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=32)
    x = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
    assume(np.linalg.norm(x) > 1e-3)
    return x


@settings(max_examples=150, deadline=None)
@given(n=ANY_NORM, data=st.data())
def test_j1_attains_the_norm_with_dual_norm_one(n, data):
    x = draw_vector(data, n.dim)
    j = j1_batch(n, x)
    assert bl.dual_norm_batch(n, j) == pytest.approx(1.0, rel=1e-12)
    assert bl.pairing(j, x) == pytest.approx(bl.norm_eval(n, x), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(n=ANY_NORM, data=st.data())
def test_support_point_attains_the_dual_norm_with_norm_one(n, data):
    p = draw_vector(data, n.dim)
    u = bl.support_point(n, p)
    assert bl.norm_eval(n, u) == pytest.approx(1.0, rel=1e-12)
    assert bl.pairing(p, u) == pytest.approx(bl.dual_norm_batch(n, p), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(n=STRICTLY_CONVEX, data=st.data())
def test_support_point_inverts_j1_on_strictly_convex_norms(n, data):
    x = draw_vector(data, n.dim)
    # for lp the round trip raises to the power q - 1, which scales rounding by about q
    q = 2.0 if n.kind == "ellipse" else n.p / (n.p - 1.0)
    u = bl.support_point(n, j1_batch(n, x))
    assert np.allclose(u, x / bl.norm_eval(n, x), rtol=0.0, atol=1e-12 * q)


def test_support_point_rejects_the_zero_functional():
    with pytest.raises(ZeroVector):
        bl.support_point(bl.lp_norm(3), [0.0, 0.0])

