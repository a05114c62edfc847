"""Norm evaluation, duality maps and support points."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

import banachlab as bl
from banachlab.norms import (
    DimensionMismatch,
    NotSymmetric,
    ZeroVector,
    j1_batch,
    sphere_vertex_angles,
)


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
    if dim == 2 and p == 1.0:
        assert np.array_equal(sphere_vertex_angles(n), [0.0, np.pi / 2, np.pi, -np.pi / 2])
    if dim == 2 and p == np.inf:
        assert np.array_equal(sphere_vertex_angles(n),
                              [np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, -np.pi / 4])


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
        for f, one in ((bl.norm_batch, bl.norm_eval), (bl.dual_norm_batch, bl.dual_norm_eval),
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


def test_polygon_rejects_asymmetric_vertices():
    with pytest.raises(NotSymmetric):
        bl.polygon_norm([[1, 0], [0, 1], [-1, 0], [0, -0.5]])


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


def test_unit_vector_zero_input():
    with pytest.raises(ZeroVector):
        bl.unit_vector(bl.lp_norm(2), [0.0, 0.0])


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
        rhs = bl.dual_norm_eval(n, p) * bl.norm_eval(n, x)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_dual_norm_lp_conjugate():
    n3 = bl.lp_norm(3)
    p = np.array([1.0, 1.0])
    # conjugate exponent 1.5
    assert bl.dual_norm_eval(n3, p) == pytest.approx(2.0 ** (1.0 / 1.5), rel=1e-9)
    n1 = bl.lp_norm(1)
    assert bl.dual_norm_eval(n1, [2.0, -3.0]) == pytest.approx(3.0, abs=1e-12)


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
        assert bl.dual_norm_eval(n, p) == pytest.approx(1.0, abs=1e-8)
        assert bl.pairing(p, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(x=vec2(lo=-3, hi=3))
def test_duality_map_constraints(x):
    """J(x) has unit dual norm and attains the norm of x."""
    if np.linalg.norm(x) < 1e-3:
        return
    for n in (bl.lp_norm(2), bl.lp_norm(3), bl.lp_norm(1.5)):
        p, = bl.subdifferential_extremes(n, x)
        assert bl.dual_norm_eval(n, p) == pytest.approx(1.0, abs=1e-6)
        assert bl.pairing(p, x) == pytest.approx(bl.norm_eval(n, x), abs=1e-6)


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
    assert bl.dual_norm_eval(n, j) == pytest.approx(1.0, rel=1e-12)
    assert bl.pairing(j, x) == pytest.approx(bl.norm_eval(n, x), rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(n=ANY_NORM, data=st.data())
def test_support_point_attains_the_dual_norm_with_norm_one(n, data):
    p = draw_vector(data, n.dim)
    u = bl.support_point(n, p)
    assert bl.norm_eval(n, u) == pytest.approx(1.0, rel=1e-12)
    assert bl.pairing(p, u) == pytest.approx(bl.dual_norm_eval(n, p), rel=1e-12)


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


# ---------------------------------------------------------------------------
# serialization


def test_norm_serialization_round_trip(zoo):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 2))
    for nid in NORM_IDS:
        n = zoo[nid]
        n2 = bl.norm_from_json(bl.norm_to_json(n))
        assert n2.kind == n.kind and n2.dim == n.dim
        assert np.allclose(bl.norm_batch(n2, X), bl.norm_batch(n, X), atol=1e-12)


def test_norm_from_json_reads_the_lp_kind():
    """Specs written with "kind": "lp" read back as unit-weight weighted lp."""
    for p in (3, "inf"):
        n = bl.norm_from_json({"kind": "lp", "dim": 3, "p": p, "name": "x"})
        assert n == bl.lp_norm(np.inf if p == "inf" else p, 3, name="x")
    with pytest.raises(ValueError):
        bl.norm_from_json({"kind": "hexagon", "dim": 2})
