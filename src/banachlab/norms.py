"""Norms on R^d given by finite data: weighted lp (lp is the unit-weight
case), symmetric polygons, ellipses.

Evaluation, dual norms, the normalized duality mapping (the gradient
j1_batch and the extreme functionals of subdifferential_extremes) and
support points.  Specs are frozen dataclasses; each spec's `ops` is the
object of its kind, built once, which holds the kind's code and its tables:
the map of a linear image, and the vertex tables of a polyhedral ball and
its dual, read by the one tie rule of _ties, with no tolerance argument.
Only lp and polygons have formulas of their own: the ellipse and weighted
lp are linear images of euclid and lp.  Every kind sums on the coordinate
columns, so a row has the same bits alone and in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np


class ZeroVector(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


class DegenerateBody(ValueError):
    pass


@dataclass(frozen=True)
class NormSpec:
    """Immutable description of a norm. Use the constructor helpers below."""

    kind: str
    dim: int
    p: float | None = None
    weights: tuple[float, ...] | None = None
    vertices: tuple[tuple[float, float], ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    name: str = ""

    @cached_property
    def ops(self):
        """The operations of this spec's kind, with its tables built once."""
        return _norm_kind(self.kind)(self)


def lp_norm(p, dim=2, name=""):
    """The p-norm on R^dim: the weighted lp norm with unit weights."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return weighted_lp_norm(p, [1.0] * int(dim), name=name or f"lp{float(p):g}")


def weighted_lp_norm(p, weights, name=""):
    """x -> (sum_i w_i |x_i|^p)^(1/p), and max_i w_i |x_i| for p = inf."""
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"lp exponent must be >= 1, got {p}")
    w = tuple(float(v) for v in weights)
    if not w:
        raise ValueError("need at least one weight")
    if not all(0.0 < v < math.inf for v in w):
        raise ValueError("weights must be positive and finite")
    return NormSpec(kind="weighted_lp", dim=len(w), p=p, weights=w,
                    name=name or f"wlp{p:g}")


def polygon_norm(vertices, name=""):
    """Norm whose unit ball is a centrally symmetric convex polygon.

    Vertices may come in any order; they are deduplicated and sorted by angle.
    Raises NotSymmetric / DegenerateBody when the input is not an admissible
    symmetric body with the origin strictly inside.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 4:
        raise DegenerateBody("need at least 4 planar vertices")
    # dedupe
    keep = []
    for v in V:
        if not any(np.allclose(v, u, rtol=0.0, atol=1e-12) for u in keep):
            keep.append(v)
    V = np.array(keep)
    if V.shape[0] % 2 != 0:
        raise NotSymmetric("odd vertex count cannot be centrally symmetric")
    for v in V:
        if not any(np.allclose(-v, u, rtol=0.0, atol=1e-9) for u in V):
            raise NotSymmetric(f"missing antipode of {v}")
    ang = np.arctan2(V[:, 1], V[:, 0])
    order = np.argsort(ang)
    V = V[order]
    m = V.shape[0]
    for i in range(m):
        a, b = V[i], V[(i + 1) % m]
        if a[0] * b[1] - a[1] * b[0] <= 1e-12:
            raise DegenerateBody("origin not strictly inside, or angular ties")
    for i in range(m):
        a, b, c = V[i], V[(i + 1) % m], V[(i + 2) % m]
        u, w = b - a, c - b
        if u[0] * w[1] - u[1] * w[0] <= 1e-12:
            raise DegenerateBody("vertices not in strictly convex position")
    verts = tuple((float(v[0]), float(v[1])) for v in V)
    return NormSpec(kind="polygon", dim=2, vertices=verts, name=name or "polygon")


def ellipse_norm(matrix, name=""):
    """Norm x -> sqrt(x^T Q x) for a symmetric positive definite 2x2 Q."""
    Q = np.asarray(matrix, dtype=float)
    if Q.shape != (2, 2):
        raise DimensionMismatch("ellipse matrix must be 2x2")
    if not np.all(np.isfinite(Q)):
        raise DegenerateBody("ellipse matrix must be finite")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12):
        raise NotSymmetric("ellipse matrix must be symmetric")
    evals = np.linalg.eigvalsh(Q)
    if evals[0] <= 1e-14:
        raise DegenerateBody("ellipse matrix must be positive definite")
    mat = tuple(tuple(float(v) for v in row) for row in Q)
    return NormSpec(kind="ellipse", dim=2, matrix=mat, name=name or "ellipse")


# ---------------------------------------------------------------------------
# norm kinds: one class per kind, one instance per spec (NormSpec.ops)


class _NormKind:
    """What every kind provides: norm(X) and dual(P) over rows; gradient(X),
    the norm's gradient at rows where the norm is smooth and one functional
    of the subdifferential elsewhere; support(P), a maximizer of <p, u> over
    the unit ball (not scaled to norm one); and the defaults below.  lp and
    polygons also give longest_segment(), which the modulus of convexity
    reads.  lp_exponent is the p of a kind isometric to lp with 1 < p < inf,
    whose delta and rho are Hanner's, and whose gamma on a ball complement
    has a closed form for p <= 2, and None on every other kind;
    inner_product, p = 2, marks a norm that an inner product induces, whose
    moduli are the Hilbert ones.  turn is the least rotation of the first two
    coordinates known to map the unit ball onto itself: pi by default,
    since every norm is even.  corners and dual_corners are the vertex
    tables of the unit ball and its dual, which face and subdifferential
    read by the tie rule of _ties, and facets in full: +-e_k and the sign
    vectors on l1, swapped on the max norm, vertices and edge functionals
    on a polygon, the base's moved by T on its linear images, None if smooth."""

    strictly_convex = False
    lp_exponent = None
    turn = math.pi
    corners = dual_corners = None

    @property
    def inner_product(self):
        return self.lp_exponent == 2.0

    def __init__(self, n):
        self.spec = n
        self._spheres = {}

    def sphere(self, count):
        """sphere_points(spec, count), built once per count and read-only."""
        S = self._spheres.get(count)
        if S is None:
            S = sphere_points(self.spec, count)
            S.flags.writeable = False
            self._spheres[count] = S
        return S

    def face(self, a):
        """The vertices of the face of the unit ball that a exposes, rows of
        norm one: the corners that tie (_ties), else the support point."""
        if self.corners is None:
            u = self.support(a)[None]
            return u / self.norm(u)[:, None]
        return self.corners[_ties(self.corners, a)]

    def subdifferential(self, X):
        """Extreme functionals of the subdifferential at each row x of X, of
        dual norm one: the face of the dual ball that x exposes, the dual
        corners that tie (_ties) in table order, or the one functional j1
        where there are none.  Padded to (rows, c, dim) by repeating the
        row's first, with the count k of each row's, 0 at x = 0."""
        F = self.dual_corners
        nonzero = self.norm(X) > 0
        if F is None:
            with np.errstate(invalid="ignore", divide="ignore"):  # j1 is 0/0 at 0, which counts 0
                return j1_batch(self.spec, X)[:, None], nonzero.astype(int)
        tie = _ties(F, X)
        k = np.sum(tie, axis=1) * nonzero
        idx = np.argsort(~tie, axis=1, kind="stable")[:, :max(1, k.max(initial=0))]
        return F[np.where(np.arange(idx.shape[1]) < k[:, None], idx, idx[:, :1])], k

    def facets(self, center, radius):
        """Facets (a, radius + <a, center>) of the ball center + radius * B,
        one per dual corner a, in table order; None where there are none."""
        F = self.dual_corners
        return None if F is None else [(a, radius + float(a @ center)) for a in F]

    def restrict(self, coords):
        """The norm on the coordinate subspace of the axes in coords."""
        if tuple(coords) == tuple(range(self.spec.dim)):
            return self.spec
        raise ValueError(f"norm kind {self.spec.kind!r} does not restrict to a coordinate subspace")


class _Lp(_NormKind):
    """The lp norm, p in [1, inf].  A weighted spec whose weights are not all
    1 is the image of lp under diag(w^(1/p)), diag(w) for the max norm:
    __new__ builds that _LinearImage instead.  The quarter turn
    (x1, x2) -> (-x2, x1) is a signed permutation, an isometry of lp."""

    turn = math.pi / 2.0

    def __new__(cls, n):
        w = np.array(n.weights)
        if np.all(w == 1.0):
            return super().__new__(cls)
        return _LinearImage(n, lp_norm(n.p, n.dim), np.diag(w if math.isinf(n.p) else w ** (1.0 / n.p)))

    def __init__(self, n):
        super().__init__(n)
        self.p = p = n.p
        self.q = math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)
        self.strictly_convex = 1.0 < p < math.inf
        self.lp_exponent = p if self.strictly_convex else None
        self._restricted = {}

    # lq's corners are the dual corners; built on first read, as l1 has 2^d of them
    corners = cached_property(lambda self: _lp_corners(self.p, self.spec.dim))
    dual_corners = cached_property(lambda self: _lp_corners(self.q, self.spec.dim))

    def norm(self, X):
        return _lp_reduce(X, self.p)

    def dual(self, P):
        return _lp_reduce(P, self.q)

    def gradient(self, X):
        """sign(y) |y|^(p-1) with y = x/|x|, which is y for p = 2; l1: sign(x),
        which is 0 on a zero coordinate; linf: sign(x_k) e_k at the first
        arg-max k of |x|."""
        if self.p == 1.0:
            return np.sign(X)
        if math.isinf(self.p):
            return np.where(_first_argmax(np.abs(X)), np.sign(X), 0.0)
        Y = X / self.norm(X)[..., None]
        return Y if self.p == 2.0 else np.sign(Y) * np.abs(Y) ** (self.p - 1.0)

    def support(self, P):
        """sign(p) |p|^(q-1), scaled by the largest |p| to keep the power in
        range; l1: the vertex sign(p_k) e_k at the first arg-max k of |p|;
        linf: sign(p), the centre of the face when some p_k is 0."""
        if math.isinf(self.p):
            return np.sign(P)
        R = np.abs(P)
        if self.p == 1.0:
            return np.where(_first_argmax(R), np.sign(P), 0.0)
        return np.sign(P) * (R / _fold(np.maximum, R)[..., None]) ** (self.q - 1.0)

    def longest_segment(self):
        """Length in the norm of the longest segment in the unit sphere: 0
        when it is strictly convex, and 2, an edge, on l1 and the max
        norm."""
        return 0.0 if self.strictly_convex else 2.0

    def restrict(self, coords):
        cs = tuple(coords)
        if cs != tuple(range(self.spec.dim)) and cs not in self._restricted:
            self._restricted[cs] = weighted_lp_norm(self.p, [1.0] * len(cs))
        return self._restricted.get(cs, self.spec)

    @staticmethod
    def from_json(d):
        p = math.inf if d["p"] == "inf" else float(d["p"])
        name = d.get("name", "")
        if "weights" in d:
            return weighted_lp_norm(p, d["weights"], name=name)
        return lp_norm(p, dim=d.get("dim", 2), name=name)


class _Polygon(_NormKind):
    def __init__(self, n):
        super().__init__(n)
        self.vertices = V = np.array(n.vertices, dtype=float)
        # row i supports the edge from vertex i to i+1 at level 1
        self.edges = np.array([np.linalg.solve(e, np.ones(2)) for e in zip(V, np.roll(V, -1, axis=0))])
        self.corners, self.dual_corners = V / self.norm(V)[:, None], self.edges

    def norm(self, X):
        return np.max(_pairings(X, self.edges), axis=0)

    def dual(self, P):
        return np.max(np.abs(_pairings(P, self.vertices)), axis=0)

    def gradient(self, X):
        """The edge functional with the largest value at x (the first in
        vertex order at a vertex)."""
        return self.edges[np.argmax(_pairings(X, self.edges), axis=0)]

    def support(self, P):
        """The vertex with the largest pairing (the first in vertex order when
        p is normal to an edge)."""
        return self.vertices[np.argmax(_pairings(P, self.vertices), axis=0)]

    def longest_segment(self):
        V = self.vertices
        return float(np.max(self.norm(np.roll(V, -1, axis=0) - V)))

    @staticmethod
    def from_json(d):
        return polygon_norm(d["vertices"], name=d.get("name", ""))


class _LinearImage(_NormKind):
    """x -> |Tx| for an invertible T and a base norm: each operation is the
    base's moved by T, and so are the vertex tables, whose ties are read
    here, as a tie read at Tx carries the rounding of x times the condition
    number of T.  T is an isometry onto the base, so strict convexity
    and the lp exponent are the base's (the ellipse, euclid under T, is an
    inner-product norm), and so are the moduli, which the estimators
    compute on the base itself (moduli._isometric_base).  A rotation of the
    base's ball need not map this ball onto itself, so turn stays pi."""

    def __init__(self, n, base, T):
        super().__init__(n)
        self.base = base.ops
        self.T, self.Ti = T, np.linalg.inv(T)
        self.strictly_convex, self.lp_exponent = self.base.strictly_convex, self.base.lp_exponent

    @cached_property
    def corners(self):
        """T^-1 c over the base's corners c, at norm one."""
        C = self.base.corners
        return None if C is None else _apply(self.Ti, C) / self.norm(_apply(self.Ti, C))[:, None]

    @cached_property
    def dual_corners(self):
        """T^T f over the base's dual corners f."""
        F = self.base.dual_corners
        return None if F is None else _apply(self.T.T, F)

    def norm(self, X):
        return self.base.norm(_apply(self.T, X))

    def dual(self, P):
        """|T^-T p|_*."""
        return self.base.dual(_apply(self.Ti.T, P))

    def gradient(self, X):
        """T^T grad(Tx)."""
        return _apply(self.T.T, self.base.gradient(_apply(self.T, X)))

    def support(self, P):
        """T^-1 support(T^-T p)."""
        return _apply(self.Ti, self.base.support(_apply(self.Ti.T, P)))


class _Ellipse(_LinearImage):
    """x -> sqrt(x^T Q x): euclid under R = cholesky(Q)^T, as Q = R^T R."""

    def __init__(self, n):
        super().__init__(n, lp_norm(2, 2), np.linalg.cholesky(np.array(n.matrix)).T)

    @staticmethod
    def from_json(d):
        return ellipse_norm(d["matrix"], name=d.get("name", ""))


_KINDS = {"weighted_lp": _Lp, "polygon": _Polygon, "ellipse": _Ellipse}


def _fold(ufunc, A):
    """Row sums (np.add) or maxima (np.maximum) of A, by ufunc over its columns in
    order: many times faster than a reduction over a short last axis.  The sums
    have the bits of np.sum up to 7 columns; from 8 on np.sum adds pairwise."""
    return reduce(ufunc, [A[..., i] for i in range(A.shape[-1])])


def _lp_corners(p, d):
    """The vertices of the lp ball on R^d: e_0, -e_0, e_1, ... for p = 1, the
    sign vectors in lexicographic order, + first, for p = inf (up to d = 16,
    8 MB), else None."""
    if p == 1.0:
        return np.array([np.where(np.arange(d) == k, s, 0.0) for k in range(d) for s in (1.0, -1.0)])
    if math.isinf(p):
        if d > 16:
            raise DimensionMismatch(f"the 2^{d} vertices of the max-norm ball are listed up to dim 16")
        return 1.0 - 2.0 * (np.arange(2 ** d)[:, None] >> np.arange(d - 1, -1, -1) & 1)
    return None


def _ties(F, V):
    """For each row v of V (..., dim), the mask (..., len(F)) of the rows of a
    symmetric table F whose pairing with v ties the largest within 8 ulps of
    the largest rounding bound sum |f_k v_k|: the face of conv(F) that v
    exposes.  The one tie rule: a corner of F's polar ties within 2 ulps of
    that bound."""
    s = _pairings(V, F)
    top = np.max(s, axis=0) - 8.0 * np.finfo(float).eps * np.max(_pairings(np.abs(V), np.abs(F)), axis=0)
    return np.moveaxis(s >= top, 0, -1)


def _pairings(X, F):
    """<f, x> for each row f of F (first axis) and each row x of X, summed on
    the coordinate columns in order: a row has the same bits in any batch,
    where a matmul rounds by the shape of its operands."""
    P = np.multiply.outer(F[:, 0], X[..., 0])
    for k in range(1, F.shape[1]):
        P += np.multiply.outer(F[:, k], X[..., k])
    return P


def _apply(T, X):
    """Tx for each row x of X: the transposed view of _pairings(X, T), whose
    columns are its contiguous rows."""
    P = _pairings(X, T)
    return P.transpose(*range(1, P.ndim), 0)


def _first_argmax(A):
    """Mask of the first largest entry of each row of A."""
    return np.arange(A.shape[-1]) == np.argmax(A, axis=-1)[..., None]


def _norm_kind(kind):
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown norm kind {kind!r}")
    return cls


# ---------------------------------------------------------------------------
# evaluation

def as_vec(x, dim):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {v.shape[0]}")
    return v


def _lp_reduce(X, p):
    """lp norm of each row of X; see _fold."""
    a = X * X if p == 2.0 else np.abs(X)
    if p == 2.0:
        return np.sqrt(_fold(np.add, a))
    if p == 1.0:
        return _fold(np.add, a)
    m = _fold(np.maximum, a)
    if math.isinf(p):
        return m
    # scale by the max to keep powers in range for large p
    scaled = a / np.where(m > 0, m, 1.0)[..., None]
    return m * _fold(np.add, scaled ** p) ** (1.0 / p)


def norm_batch(n, X):
    """Norm of every row of X, shape (..., dim)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != n.dim:
        raise DimensionMismatch(f"expected dim {n.dim}, got {X.shape[-1]}")
    return n.ops.norm(X)


def norm_eval(n, x):
    """The norm of one vector, evaluated as a one-row batch: a row has the same
    bits alone and in any batch."""
    return float(norm_batch(n, as_vec(x, n.dim)[None])[0])


def pairing(p, x):
    """Duality pairing <p, x> in coordinates."""
    return float(np.dot(np.asarray(p, float).reshape(-1),
                        np.asarray(x, float).reshape(-1)))


def dual_norm_batch(n, P):
    P = np.asarray(P, dtype=float)
    if P.shape[-1] != n.dim:
        raise DimensionMismatch(f"expected dim {n.dim}, got {P.shape[-1]}")
    return n.ops.dual(P)


def dual_norm_eval(n, p):
    """The dual norm of one functional, as a one-row batch (see norm_eval)."""
    return float(dual_norm_batch(n, as_vec(p, n.dim)[None])[0])


def unit_vector(n, d):
    d = as_vec(d, n.dim)
    nd = norm_eval(n, d)
    if nd <= 0:
        raise ZeroVector("cannot normalize the zero vector")
    return d / nd


def sphere_points(n, count_or_angles):
    """Points on the unit sphere of a planar norm.

    Accepts either a point count (uniform angle grid) or an array of angles
    of any shape, which gives one point per angle, along a last axis.
    """
    if n.dim != 2:
        raise DimensionMismatch("sphere_points is for planar norms")
    if np.isscalar(count_or_angles):
        ang = np.linspace(0.0, 2.0 * np.pi, int(count_or_angles), endpoint=False)
    else:
        ang = np.asarray(count_or_angles, dtype=float)
    D = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return D / norm_batch(n, D)[..., None]


# ---------------------------------------------------------------------------
# duality mapping

def j1_batch(n, X):
    """Normalized duality mapping of each row of X: the norm's gradient in
    closed form, scaled to dual norm one.

    Single valued: where the norm is not smooth it gives the one functional
    of the subdifferential that the kind's gradient picks (see _NormKind),
    which has dual norm one and pairs with x to |x|; use
    subdifferential_extremes for the extreme ones.
    """
    G = n.ops.gradient(np.asarray(X, dtype=float))
    return G / dual_norm_batch(n, G)[..., None]


def subdifferential_extremes(n, x):
    """Extreme functionals of the norm's subdifferential at x (dual norm one):
    the vertices of the face of the dual ball that x exposes.  A smooth kind
    gives the one functional j1; a polyhedral kind lists the rows of its
    dual_corners table that pair with x to |x| within 8 ulps of the
    pairing's rounding bound (_ties), with no tolerance argument.  The
    one-row case of the kind's row-wise subdifferential.
    """
    P, k = n.ops.subdifferential(as_vec(x, n.dim)[None])
    if not k[0]:
        raise ZeroVector("duality mapping undefined at 0")
    return list(P[0, :k[0]])


# ---------------------------------------------------------------------------
# support

def support_point(n, p):
    """A unit vector u maximizing <p, u>, i.e. where p supports the ball.

    Closed form per norm kind (see each kind's support).  Where the maximizer
    is not unique, a flat face of a polyhedral ball, it is the face point the
    kind documents: a vertex for l1 and polygons, the face centre for linf.
    """
    p = as_vec(p, n.dim)
    if not np.any(p):
        raise ZeroVector("the zero functional supports the ball everywhere")
    u = n.ops.support(p)
    return u / norm_eval(n, u)


# ---------------------------------------------------------------------------
# serialization

def norm_to_json(n):
    d = {"kind": n.kind, "dim": n.dim}
    if n.name:
        d["name"] = n.name
    if n.p is not None:
        d["p"] = "inf" if math.isinf(n.p) else n.p
    if n.weights is not None:
        d["weights"] = list(n.weights)
    if n.vertices is not None:
        d["vertices"] = [list(v) for v in n.vertices]
    if n.matrix is not None:
        d["matrix"] = [list(r) for r in n.matrix]
    return d


def norm_from_json(d):
    """Inverse of norm_to_json; also reads "kind": "lp" (unit weights)."""
    kind = "weighted_lp" if d["kind"] == "lp" else d["kind"]
    return _norm_kind(kind).from_json(d)
