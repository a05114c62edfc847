"""Closed test sets: membership, distance, metric projection, normal cones,
rolling-ball checks, and proximal-smoothness certificates.

Every operation takes the ambient norm explicitly.  A gauge ball or its
complement may carry its own gauge (the norm whose ball defines it); when it
is omitted it defaults to the ambient norm at query time.  Each set kind is
one class below, whose row methods (see _SetKind) give the nearest-point
table and the boundary residual of every row of an array; the one-point
distance, projection and membership, and the certificates, read them.  The
sampled checks draw their points from one block sampler, which tests a block
of tries with one call, and pair all their sample rows with the normal
directions at once.  The certificate and the rolling-projection check share
one projection-ray kernel.  Every row pairing is a column sum of norms
(_fold, or _pairings for a table of functionals), so a row has the same bits
alone and in any batch.

On a gauge sphere that differs from the ambient norm, or is planar and not
strictly convex (polygon, l1, max norm), the nearest points are those of a
4096-angle ring, tabled in fixed blocks of rows and refined onto the sphere
under a foreign gauge; elsewhere the nearest point is radial.  Where it is
not radial, the complement of a polyhedral gauge ball is that of the
polytope of the gauge's facets.  Halfspaces and polytope complements hold
one facet table, whose gaps <a, v> - b come from one pairing and whose
nearest points on a plane come from one helper.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .moduli import _bracket_roots
from .norms import (
    DegenerateBody,
    DimensionMismatch,
    NormSpec,
    ZeroVector,
    _fold,
    _pairings,
    as_vec,
    dual_norm_batch,
    j1_batch,
    norm_batch,
    norm_eval,
    norm_from_json,
    norm_to_json,
    polygon_norm,
    sphere_points,
    support_point,
)


class InteriorPoint(ValueError):
    """Normal cone requested at a point not on the boundary."""


class EmptyShell(RuntimeError):
    """Shell sampling exhausted its retry budget without a hit."""


class NoIntersection(RuntimeError):
    """A chord construction found no sphere crossing."""


@dataclasses.dataclass(frozen=True)
class ClosedSetSpec:
    kind: str
    dim: int
    center: Optional[Tuple[float, ...]] = None
    radius: Optional[float] = None
    gauge: Optional[NormSpec] = None
    normal: Optional[Tuple[float, ...]] = None
    offset: Optional[float] = None
    points: Optional[Tuple[Tuple[float, ...], ...]] = None
    facets: Optional[Tuple[Tuple[Tuple[float, ...], float], ...]] = None
    base: Optional["ClosedSetSpec"] = None
    coords: Optional[Tuple[int, ...]] = None
    name: str = ""

    @cached_property
    def ops(self):
        """The operations of this spec's kind, with its arrays built once."""
        return _set_kind(self.kind)(self)


@dataclasses.dataclass(frozen=True)
class NormalConeSample:
    base_point: np.ndarray
    directions: tuple
    quality: tuple  # (coarse residual, fine residual, ok)


def _clean(v):
    """v with numpy arrays and scalars replaced by JSON lists and floats."""
    if isinstance(v, np.ndarray):
        return [float(t) for t in v]
    if isinstance(v, (tuple, list)):
        return [_clean(t) for t in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


@dataclasses.dataclass(frozen=True)
class CheckReport:
    verdict: str
    worst_margin: float
    witness: Optional[tuple]
    samples_used: int
    reason: str = ""

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "worst_margin": float(self.worst_margin),
            "witness": _clean(self.witness),
            "samples_used": int(self.samples_used),
        }
        if self.reason:
            payload["reason"] = self.reason
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# constructors


def _finite(x, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    return a


def _scale(x, what: str) -> None:
    """ValueError unless the scale x lies in (0, inf): NaN does not."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite")


def _make_gauge_ball(kind: str, center, radius: float, gauge: Optional[NormSpec],
                     name: str) -> ClosedSetSpec:
    c = _finite(center, "center").reshape(-1)
    _scale(radius, "radius")
    return ClosedSetSpec(kind=kind, dim=c.shape[0], center=tuple(c), radius=float(radius),
                         gauge=gauge, name=name or kind)


def make_ball(center, radius: float, gauge: Optional[NormSpec] = None, name: str = "") -> ClosedSetSpec:
    return _make_gauge_ball("ball", center, radius, gauge, name)


def make_ball_complement(center, radius: float, gauge: Optional[NormSpec] = None, name: str = "") -> ClosedSetSpec:
    """Closure of the complement of the gauge ball."""
    return _make_gauge_ball("ball_complement", center, radius, gauge, name)


def make_halfspace(normal, offset: float, name: str = "") -> ClosedSetSpec:
    a = _finite(normal, "halfspace normal").reshape(-1)
    if not np.any(a):
        raise ValueError("halfspace normal must be nonzero")
    return ClosedSetSpec(kind="halfspace", dim=a.shape[0], normal=tuple(a),
                         offset=float(_finite(offset, "halfspace offset")), name=name or "halfspace")


def make_finite_points(points, name: str = "") -> ClosedSetSpec:
    arr = _finite(points, "points")
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("need a nonempty list of points")
    return ClosedSetSpec(kind="finite_points", dim=arr.shape[1],
                         points=tuple(tuple(float(t) for t in row) for row in arr),
                         name=name or "finite_points")


def make_polytope_complement(facets, name: str = "") -> ClosedSetSpec:
    """Closure of the complement of {x : <a_i, x> <= b_i for all i}."""
    packed = []
    dim = None
    for a, b in facets:
        av = _finite(a, "facet normal").reshape(-1)
        if dim is None:
            dim = av.shape[0]
        elif av.shape[0] != dim:
            raise DimensionMismatch("facet normals disagree on dimension")
        if not np.any(av):
            raise ValueError("facet normal must be nonzero")
        packed.append((tuple(float(t) for t in av), float(_finite(b, "facet offset"))))
    if dim is None:
        raise ValueError("need at least one facet")
    return ClosedSetSpec(kind="convex_polytope_complement", dim=dim, facets=tuple(packed),
                         name=name or "polytope_complement")


def cylinder_extend(base: ClosedSetSpec, full_dim: int, coords, name: str = "") -> ClosedSetSpec:
    cs = tuple(int(c) for c in coords)
    if len(cs) != base.dim:
        raise DimensionMismatch("coords must list one ambient axis per base axis")
    if len(set(cs)) != len(cs) or any(c < 0 or c >= full_dim for c in cs):
        raise ValueError("coords must be distinct ambient axes")
    return ClosedSetSpec(kind="cylinder_extension", dim=int(full_dim), base=base, coords=cs,
                         name=name or f"cylinder({base.name})")


def _gauge(A: ClosedSetSpec, n: NormSpec) -> NormSpec:
    return A.gauge if A.gauge is not None else n


# ---------------------------------------------------------------------------
# set kinds: one class per kind, one instance per spec (ClosedSetSpec.ops)


_PROJECT_TOL = 1e-8  # the tie tolerance of the nearest-point tables
_CLUSTER = 1e-5  # the radius, in the max norm of coordinates, of a kept point's cluster
_TIE_ULPS = 8  # feet within this many ulps of the least distance tie with it
_RING = 4096  # points of the gauge-sphere ring that the nearest-point scan reads
_SCAN_BLOCK = 128  # rows per block of the (rows, _RING) ring-distance table
_CONE_TOL = 1e-6  # a facet is active within 10 times this, a normal cone is taken within 100
_SLACK = 1e-6  # the slack of the chord-projection and support-gap inequalities
_SPAN = 2.0  # a boundary sample's free coordinates are uniform on [-_SPAN, _SPAN]


def _cluster_mask(K, keep, radius):
    """Which kept points of each row of K, shape (rows, k, dim), stand for a
    cluster: those farther than radius, in the max norm of coordinates, from
    every earlier one that does.  Only the columns with a kept point within
    radius of an earlier kept one in some row need the greedy pass."""
    near = _fold(np.maximum, np.abs(K[:, :, None] - K[:, None])) <= radius
    reps = keep.copy()
    clash = np.triu(near & keep[:, :, None] & keep[:, None], 1).any(axis=(0, 1))
    for j in np.flatnonzero(clash):
        reps[:, j] &= ~(near[:, j, :j] & reps[:, :j]).any(axis=-1)
    return reps


def _first(K, keep):
    """The first kept representative of each row of a nearest-point table:
    the row's projection foot."""
    return K[np.arange(K.shape[0]), np.argmax(keep, axis=1)]


def _table(V, d, K, keep, inside):
    """The nearest-point table (d, K, keep) of the rows V, each row inside the
    set written as distance 0 and the one representative itself."""
    d[inside] = 0.0
    K[inside, 0] = V[inside]
    keep[inside] = np.arange(keep.shape[1]) == 0
    return d, K, keep


def _sphere_nearest_rows(g: NormSpec, center: np.ndarray, radius: float,
                         n: NormSpec, V: np.ndarray):
    """Representatives of the nearest points to each row of V on a 2D gauge
    sphere (the sphere table raises DimensionMismatch for any other), as
    (rows, 16, 2) points and a mask of the representatives: the ring points
    within 10 _PROJECT_TOL of the row's least ring distance, at most 16
    spread across a flat piece, clustered within _CLUSTER.

    Under a gauge other than the ambient norm each moves to where the
    distance stops decreasing along the sphere, by a root search on the
    sign of its derivative within 1.5 table steps (moduli._bracket_roots,
    down to adjacent floats); a search on the distance values would stop
    about 1e-8 short, the distance being flat to second order there.  A
    point keeps its place where the sign does not change, as on a flat
    piece of nearest points.  Only the feet whose distance ties the row's
    least one to rounding stay, so a unique nearest point gives one.

    The ring distances are tabled _SCAN_BLOCK rows at a time, and the points
    kept in all rows are refined in one root search."""
    h = 2 * np.pi / _RING
    ring = center + radius * g.ops.sphere(_RING)
    idx = np.zeros((V.shape[0], 16), dtype=int)
    keep = np.zeros((V.shape[0], 16), dtype=bool)
    for s in range(0, V.shape[0], _SCAN_BLOCK):
        X = V[s:s + _SCAN_BLOCK]
        D = norm_batch(n, ring - X[:, None])
        near = D <= np.min(D, axis=1)[:, None] + 10 * _PROJECT_TOL
        count = np.sum(near, axis=1)
        rank = np.tile(np.arange(16), (X.shape[0], 1))
        big = count > 16  # spread representatives across the whole flat piece
        if np.any(big):
            rank[big] = np.linspace(0, count[big] - 1, 16, axis=-1).astype(int)
        ok = np.arange(16) < count[:, None]
        first = np.cumsum(count) - count  # of each row's points in the list of all
        idx[s:s + _SCAN_BLOCK] = np.nonzero(near)[1][np.where(ok, first[:, None] + rank, 0)]
        keep[s:s + _SCAN_BLOCK] = ok
    K = ring[idx]
    if g != n:

        def slope(t, X):  # the derivative's sign, along the counterclockwise tangent
            Q = center + radius * sphere_points(g, t)
            G, N = g.ops.gradient(Q - center), n.ops.gradient(Q - X)
            return N[:, 0] * -G[:, 1] + N[:, 1] * G[:, 0]

        row, col = np.nonzero(keep)
        X = V[row]
        lo, hi = (idx[row, col] - 1.5) * h, (idx[row, col] + 1.5) * h
        slo, shi = slope(lo, X), slope(hi, X)
        t = np.flatnonzero((slo < 0) & (shi > 0))  # the brackets where the distance turns
        X = X[t]
        # 60 halvings of the 3h bracket reach adjacent floats; a width of 0 breaks the cap
        hi = _bracket_roots(lambda i, a: slope(a, X[i]), t.shape, lo[t], hi[t], slo[t], shi[t],
                            3 * h * 2.0 ** -60, False)[1]
        K[row[t], col[t]] = center + radius * sphere_points(g, hi)
        dists = np.where(keep, norm_batch(n, K - V[:, None]), np.inf)
        dmin = np.min(dists, axis=1)[:, None]
        keep &= dists <= dmin + _TIE_ULPS * np.finfo(float).eps * dmin
    return K, _cluster_mask(K, keep, _CLUSTER)


def _plane_dirs(n: NormSpec, a: np.ndarray) -> np.ndarray:
    """The unit vectors u that a supports, as rows: the nearest points to v on
    the plane {<a, .> = <a, v> - d |a|_*} are v - d u: the face of the unit
    ball that a exposes (the norm kind's face, whose corners tie by the one
    rule of _ties).  Where it is a flat edge of a planar sphere they form a
    segment, represented by 16 points from corner to corner; elsewhere they
    are the face's vertices, one support point where the sphere is round."""
    face = n.ops.face(a)
    if n.dim == 2 and len(face) == 2:
        t = np.linspace(0.0, 1.0, 16)[:, None]
        return (1 - t) * face[0] + t * face[1]
    return face


class _SetKind:
    """Each kind provides, for an ambient norm n:
    - nearest_rows(n, V), the nearest-point table (d, K, keep) of the rows
      of V: the distance d of each row, representatives K of its nearest
      points, shape (rows, k, dim), and the mask keep of those that stand
      for a cluster of radius _CLUSTER.  The first kept one is the row's
      projection foot.  A row inside the set keeps 0 and the row itself.
      The public distance and project are its one-row cases, and the
      certificates run on it;
    - residual(n, V), the offset of each row of V from the boundary,
      positive outside: contains is its one-row case;
    - cone_rows(n, X), the outward unit normals at each boundary row of X,
      padded to (rows, c, dim) by repeating the row's first, and the count
      of each row's, 0 where the cone degenerates and -1 where it is
      undefined (a ball's center): normal_directions is its one-row case;
    - boundary_sample(n, count, rng), count boundary points drawn from the
      caller's generator alone (a cylinder draws its base points from it,
      then its free coordinates);
    - sample_inside(rng) and from_json(d).
    A row has the same bits alone and in any batch wherever the ambient norm
    gives it the same bits, as every norm kind does."""

    def __init__(self, A: ClosedSetSpec):
        self.spec = A


class _Ball(_SetKind):
    """The gauge ball center + radius * B_g (sign 1), or the closure of its
    complement (sign -1, the subclass below).  Under its own gauge, when the
    gauge is strictly convex or not planar, the nearest point is radial, and
    from the center the whole sphere is nearest: 16 representatives of it.
    Otherwise the feet come from the ring scan of the planar gauge sphere,
    and the distance is the residual under its own gauge and the least
    ambient distance to the feet under a foreign one.  Where the nearest
    point is not radial, the complement of a polyhedral gauge ball reads the
    table of the polytope complement of the gauge's facets instead."""

    sign = 1.0

    def __init__(self, A: ClosedSetSpec):
        super().__init__(A)
        self.c = np.asarray(A.center)
        self.r = A.radius

    def _radial(self, g, n):
        return (g is n or g == n) and (g.ops.strictly_convex or self.spec.dim != 2)

    def _center_feet(self, g):
        """Representatives of the whole gauge sphere, nearest to the center."""
        c, R, dim = self.c, self.r, self.spec.dim
        if dim == 2:
            return c + R * g.ops.sphere(16)
        dirs = np.random.default_rng(11).standard_normal((16, dim))
        return c + R * dirs / norm_batch(g, dirs)[:, None]

    def nearest_rows(self, n, V):
        g = _gauge(self.spec, n)
        c, R = self.c, self.r
        r = norm_batch(g, V - c)
        d = self.sign * (r - R)  # the residual: the distance from outside when g is n
        inside = d <= 0
        same = g is n or g == n
        if self._radial(g, n):
            with np.errstate(divide="ignore", invalid="ignore"):
                K = (c + R * (V - c) / r[:, None])[:, None]
            center = r < 1e-12
            if center.any():
                K = np.concatenate([K, np.zeros((V.shape[0], 15, V.shape[1]))], axis=1)
                K[center] = self._center_feet(g)
            keep = (np.arange(K.shape[1]) == 0) | center[:, None]
        else:
            K, keep = np.zeros((V.shape[0], 16, V.shape[1])), np.zeros((V.shape[0], 16), dtype=bool)
            K[~inside], keep[~inside] = _sphere_nearest_rows(g, c, R, n, V[~inside])
            if not same:
                d = np.min(np.where(keep, norm_batch(n, K - V[:, None]), np.inf), axis=1)
        return _table(V, d, K, keep, inside)

    def boundary_sample(self, n, count, rng):
        g = _gauge(self.spec, n)
        if self.spec.dim == 2:
            th = rng.uniform(0.0, 2 * np.pi, size=count)
            return [self.c + self.r * p for p in sphere_points(g, th)]
        dirs = rng.standard_normal((count, self.spec.dim))
        return [self.c + self.r * d / norm_eval(g, d) for d in dirs]

    def residual(self, n, V):
        return self.sign * (norm_batch(_gauge(self.spec, n), V - self.c) - self.r)

    def cone_rows(self, n, X):
        """The gauge's subdifferential at each x - c, signed and scaled to
        dual norm one under n."""
        P, k = _gauge(self.spec, n).ops.subdifferential(X - self.c)
        k[k == 0] = -1  # the center, where the duality mapping is undefined
        if self.sign < 0:
            k[k > 1] = 0  # gauge-ball vertex: the complement cone there degenerates
        Q = self.sign * P
        return Q / dual_norm_batch(n, Q)[..., None], k

    def sample_inside(self, rng):
        if self.sign > 0:
            return self.c.copy()
        u = rng.standard_normal(self.spec.dim)
        u /= np.linalg.norm(u)
        return self.c + (self.r * 1.5 + rng.uniform(0.0, 0.5)) * u

    @classmethod
    def from_json(cls, d):
        gauge = norm_from_json(d["gauge"]) if "gauge" in d else None
        make = make_ball if cls.sign > 0 else make_ball_complement
        return make(d["center"], d["radius"], gauge, d.get("name", ""))


class _BallComplement(_Ball):
    sign = -1.0

    def __init__(self, A: ClosedSetSpec):
        super().__init__(A)
        self._polytopes = {}  # gauge -> the polytope complement of its facets, or None

    def nearest_rows(self, n, V):
        g = _gauge(self.spec, n)
        if not self._radial(g, n):
            if g not in self._polytopes:
                facets = g.ops.facets(self.c, self.r)
                self._polytopes[g] = None if facets is None else make_polytope_complement(facets).ops
            if self._polytopes[g] is not None:
                return self._polytopes[g].nearest_rows(n, V)
        return super().nearest_rows(n, V)


class _Planes(_SetKind):
    """A kind whose nearest points lie on facet planes {<a, .> = b}, held as
    one table: the rows a of A (m, dim) and the offsets b (m,).  The feet on
    the plane of a from a row v are v - gap u, over the plane directions u
    of a (_plane_dirs), built once per ambient norm."""

    def __init__(self, S: ClosedSetSpec, A, b):
        super().__init__(S)
        self.dim = S.dim
        self.A, self.b = np.reshape(A, (-1, S.dim)), np.reshape(b, -1)
        self._dirs = {}  # ambient norm -> the stacked plane directions and the facet of each

    def _gaps(self, V):
        """<a, v> - b of each facet (a, b), as rows, and each row v of V, as
        columns: the pairings of norms._pairings, with the bits of any batch."""
        return _pairings(V, self.A) - self.b[:, None]

    def _plane_distances(self, n, V):
        """The gaps scaled by |a|_*, (rows, facets): the signed distances of the
        rows of V to the facet planes."""
        return (self._gaps(V) / dual_norm_batch(n, self.A)[:, None]).T

    def _plane_feet(self, n, V, G, kept):
        """The feet of the rows V on the facet planes at gaps G (rows, facets)
        that some row keeps, as (rows, k, dim) points, and the cluster mask of
        those on each row's kept facets."""
        if n not in self._dirs:
            U = [_plane_dirs(n, a) for a in self.A]
            self._dirs[n] = np.concatenate(U), np.repeat(np.arange(len(U)), [len(u) for u in U])
        U, f = self._dirs[n]
        if len(V):  # only the directions of kept facets; a table of no rows keeps them all
            on = kept[:, f].any(axis=0)
            U, f = U[on], f[on]
        K = V[:, None] - G[:, f, None] * U
        return K, _cluster_mask(K, kept[:, f], _CLUSTER)


class _Halfspace(_Planes):
    """{x : <a, x> <= offset}: the one-row facet table."""

    def __init__(self, S: ClosedSetSpec):
        super().__init__(S, S.normal, S.offset)
        self.a = self.A[0]
        self.foot = self.b[0] * self.a / float(self.a @ self.a)

    def residual(self, n, V):
        """<a, v> - offset of each row."""
        return self._gaps(V)[0]

    def nearest_rows(self, n, V):
        G = self._plane_distances(n, V)
        K, keep = self._plane_feet(n, V, G, np.ones(G.shape, dtype=bool))
        return _table(V, G[:, 0], K, keep, G[:, 0] <= 0)

    def boundary_sample(self, n, count, rng):
        a = self.a
        out = []
        for _ in range(count):
            w = rng.uniform(-_SPAN, _SPAN, size=self.dim)
            w -= (float(a @ w) / float(a @ a)) * a
            out.append(self.foot + w)
        return out

    def cone_rows(self, n, X):
        D = self.A / dual_norm_batch(n, self.A)[:, None]
        return np.repeat(D[None], len(X), axis=0), np.ones(len(X), dtype=int)

    def sample_inside(self, rng):
        return self.foot - (0.5 + rng.uniform(0.0, 1.0)) * self.a

    @staticmethod
    def from_json(d):
        return make_halfspace(d["normal"], d["offset"], d.get("name", ""))


class _FinitePoints(_SetKind):
    def __init__(self, A: ClosedSetSpec):
        super().__init__(A)
        self.pts = np.asarray(A.points)

    def residual(self, n, V):
        return self.nearest_rows(n, V)[0]

    def nearest_rows(self, n, V):
        D = norm_batch(n, self.pts - V[:, None])  # from each row to each point
        d = np.min(D, axis=-1)  # exactly 0 at a point of the set
        K = np.repeat(self.pts[None], V.shape[0], axis=0)
        return _table(V, d, K, D <= d[:, None] + _PROJECT_TOL, d <= 0)

    def boundary_sample(self, n, count, rng):
        return [self.pts[i % self.pts.shape[0]].copy() for i in range(count)]

    def cone_rows(self, n, X):
        if n.dim == 2:
            th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
            raw = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            raw = np.random.default_rng(5).standard_normal((16, n.dim))
        D = raw / dual_norm_batch(n, raw)[:, None]
        return np.repeat(D[None], len(X), axis=0), np.full(len(X), len(D))

    def sample_inside(self, rng):
        return self.pts[int(rng.integers(0, self.pts.shape[0]))].copy()

    @staticmethod
    def from_json(d):
        return make_finite_points(d["points"], d.get("name", ""))


class _PolytopeComplement(_Planes):
    """Closure of the complement of {x : <a_i, x> <= b_i for all i}."""

    def __init__(self, S: ClosedSetSpec):
        super().__init__(S, [a for a, _ in S.facets], [b for _, b in S.facets])

    def nearest_rows(self, n, V):
        # minus the distance to each facet plane where <a, v> <= b: from inside
        # the polytope the distance to the complement is that to the nearest one
        G = self._plane_distances(n, V)
        top = np.max(G, axis=-1)
        K, keep = self._plane_feet(n, V, G, G >= top[:, None] - _PROJECT_TOL)
        return _table(V, -top, K, keep, top >= 0)

    def _edges_2d(self):
        """Edges of the 2D polytope, between its vertices in CCW order: the
        feasible crossings of every two facet lines, clustered within 1e-9."""
        I, J = np.triu_indices(len(self.b), 1)
        M = np.stack([self.A[I], self.A[J]], axis=1)
        ok = np.abs(np.linalg.det(M)) >= 1e-12
        P = np.linalg.solve(M[ok], np.stack([self.b[I], self.b[J]], axis=1)[ok, :, None])[..., 0]
        P = P[np.all(self._gaps(P) <= 1e-9, axis=0)]
        if not len(P):
            raise DegenerateBody("polytope has no vertices")
        P = P[_cluster_mask(P[None], np.ones((1, len(P)), dtype=bool), 1e-9)[0]]
        C = P - np.mean(P, axis=0)
        P = P[np.argsort(np.arctan2(C[:, 1], C[:, 0]), kind="stable")]
        return list(zip(P, np.roll(P, -1, axis=0)))

    def boundary_sample(self, n, count, rng):
        if self.dim != 2:
            raise ValueError("polytope complement sampling implemented for dim 2 only")
        segs = self._edges_2d()
        lens = np.array([np.linalg.norm(b - a) for a, b in segs])
        probs = lens / np.sum(lens)
        out = []
        for _ in range(count):
            i = int(rng.choice(len(segs), p=probs))
            t = float(rng.uniform(0.02, 0.98))  # keep off the corners
            a, b = segs[i]
            out.append((1 - t) * a + t * b)
        return out

    def residual(self, n, V):
        return -np.max(self._gaps(V), axis=0)

    def cone_rows(self, n, X):
        """The one active facet's inward normal; none at a complement vertex
        (or numerical corner), where the cone degenerates."""
        scale = np.maximum(np.maximum(1.0, np.abs(self.b)), np.max(np.abs(self.A), axis=1))
        active = np.abs(self._gaps(X)) <= 10 * _CONE_TOL * scale[:, None]
        D = -self.A / dual_norm_batch(n, self.A)[:, None]
        return D[np.argmax(active, axis=0)][:, None], (np.sum(active, axis=0) == 1).astype(int)

    def sample_inside(self, rng):
        i = int(rng.integers(0, len(self.b)))
        a = self.A[i]
        return (self.b[i] / float(a @ a)) * a + (0.5 + rng.uniform(0.0, 0.5)) * a

    @staticmethod
    def from_json(d):
        return make_polytope_complement([(a, b) for a, b in d["facets"]], d.get("name", ""))


class _Cylinder(_SetKind):
    """base x R^k: the base set on the axes `coords`, free on the others.
    The ambient norm must restrict to those axes."""

    def __init__(self, A: ClosedSetSpec):
        super().__init__(A)
        self.dim = A.dim
        self.base = A.base
        self.coords = list(A.coords)

    def nearest_rows(self, n, V):
        d, B, keep = self.base.ops.nearest_rows(n.ops.restrict(self.coords), V[:, self.coords])
        K = np.repeat(V[:, None], B.shape[1], axis=1)
        K[:, :, self.coords] = B
        return d, K, keep

    def boundary_sample(self, n, count, rng):
        Y = np.zeros((count, self.dim))
        base = self.base.ops.boundary_sample(n.ops.restrict(self.coords), count, rng)
        Y[:, self.coords] = np.reshape(base, (count, len(self.coords)))
        free = [i for i in range(self.dim) if i not in self.coords]
        Y[:, free] = rng.uniform(-_SPAN, _SPAN, size=(count, len(free)))
        return list(Y)

    def residual(self, n, V):
        return self.base.ops.residual(n.ops.restrict(self.coords), V[:, self.coords])

    def cone_rows(self, n, X):
        B, k = self.base.ops.cone_rows(n.ops.restrict(self.coords), X[:, self.coords])
        Q = np.zeros(B.shape[:2] + (self.dim,))
        Q[..., self.coords] = B
        return Q / dual_norm_batch(n, Q)[..., None], k

    def sample_inside(self, rng):
        base = self.base.ops.sample_inside(rng)
        y = rng.uniform(-1.0, 1.0, size=self.dim)
        y[self.coords] = base
        return y

    @staticmethod
    def from_json(d):
        return cylinder_extend(_set_from_dict(d["base"]), d["dim"], d["coords"], d.get("name", ""))


_KINDS = {
    "ball": _Ball,
    "ball_complement": _BallComplement,
    "halfspace": _Halfspace,
    "finite_points": _FinitePoints,
    "convex_polytope_complement": _PolytopeComplement,
    "cylinder_extension": _Cylinder,
}


def _set_kind(kind: str):
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown set kind {kind!r}")
    return cls


# ---------------------------------------------------------------------------
# membership / distance / projection


def contains(A: ClosedSetSpec, n: NormSpec, x, tol: float = 1e-9) -> bool:
    """True when x is at most tol outside A, by its boundary residual."""
    return bool(A.ops.residual(n, as_vec(x, A.dim)[None])[0] <= tol)


def distance(A: ClosedSetSpec, n: NormSpec, x) -> float:
    """The distance from x to A: 0 inside."""
    return float(A.ops.nearest_rows(n, as_vec(x, A.dim)[None])[0][0])


def project(A: ClosedSetSpec, n: NormSpec, x):
    """Metric projection: representatives of the nearest-point set, x itself
    inside."""
    _, K, keep = A.ops.nearest_rows(n, as_vec(x, A.dim)[None])
    return list(K[0][keep[0]])


def boundary_sample(A: ClosedSetSpec, n: NormSpec, count: int, seed: int = 0):
    """Sample points on the boundary of A (deterministic under the seed)."""
    return A.ops.boundary_sample(n, count, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# normal cones


def _sample_tries(rng, n: NormSpec, count: int, budget: int, spread, scale: float, base, hit) -> list:
    """The first count hits among up to budget tries, in try order.  Try t
    (from 1) draws a standard normal u, then s uniform on spread, as a loop
    of single tries does, and proposes base(t) + scale s u / |u|; hit tests
    a block of count proposals, as rows, with one table call.  The hits are
    those of the one-try loop; rng is left after the last drawn block, which
    may hold tries past the count-th hit.  A try with |u| < 1e-12 misses
    (and, unlike in the one-try loop, draws its uniform: a chance of about
    1e-24)."""
    out, tries = [], 0
    while len(out) < count and tries < budget:
        size = min(count, budget - tries)
        U, s = map(np.array, zip(*[(rng.standard_normal(n.dim), rng.uniform(*spread)) for _ in range(size)]))
        nu = norm_batch(n, U)
        Y = base(np.arange(tries + 1, tries + size + 1)) + (scale * s)[:, None] * U / nu[:, None]
        ok = ~(nu < 1e-12)
        ok[ok] = hit(Y[ok])
        out += list(Y[np.flatnonzero(ok)[: count - len(out)]])
        tries += size
    return out


def _cone_pairings(n: NormSpec, Y: np.ndarray, x, P: np.ndarray):
    """The rows k of Y farther than 1e-12 from x (one point, or one per row),
    their pairings <p, y - x> with the directions P, (dirs, dim) or one such
    stack per row, shape (k, dirs), summed on the coordinate columns in order
    (norms._fold), and their norms |y - x|."""
    W = Y - x
    d = norm_batch(n, W)
    k = np.flatnonzero(~(d < 1e-12))
    return k, _fold(np.add, (P if P.ndim == 2 else P[k]) * W[k, None]), d[k]


def normal_directions(A: ClosedSetSpec, n: NormSpec, x) -> tuple:
    """Extreme unit rays of the outward normal cone at a boundary point.

    The analytic directions of the set kind, without sampled vetting: the
    one-row case of its cone_rows.  Raises InteriorPoint when x is more
    than 1e-4 off the boundary, and ZeroVector at the center of a ball
    (of radius at most 1e-4), where the cone is undefined.
    """
    v = as_vec(x, A.dim)
    res = float(A.ops.residual(n, v[None])[0])
    if abs(res) > 100 * _CONE_TOL:
        raise InteriorPoint(f"point is {res:.3g} away from the boundary")
    P, k = A.ops.cone_rows(n, v[None])
    if k[0] < 0:
        raise ZeroVector("the normal cone of a ball is undefined at its center")
    return tuple(P[0, :k[0]])


def _set_points_near(A: ClosedSetSpec, n: NormSpec, x: np.ndarray, mesh: float, count: int, rng):
    """Up to count points of A within mesh of x, as rows, from 40 count tries."""
    return np.reshape(_sample_tries(rng, n, count, 40 * count, (0.05, 1.0), mesh, lambda t: x,
                                    lambda Y: A.ops.residual(n, Y) <= 0), (-1, A.dim))


def normal_cone_sample(A: ClosedSetSpec, n: NormSpec, x, count: int = 200,
                       seed: int = 0) -> NormalConeSample:
    """Extreme rays of the outward normal cone at a boundary point, vetted.

    The directions are those of `normal_directions`.  The vetting is a
    diagnostic reported in `.quality`: a two-scale sampled cone test in which
    the worst ratio <p, a-x>/|a-x| over set points a within 1e-3 of x must
    not persist when that mesh shrinks tenfold.  It never changes the
    directions, so the certificates call `normal_directions` and skip it.
    """
    v = as_vec(x, A.dim)
    dirs = normal_directions(A, n, v)
    rng = np.random.default_rng(seed)
    if not dirs:
        return NormalConeSample(base_point=v, directions=(), quality=(0.0, 0.0, True))

    def worst_ratio(scale: float) -> float:
        _, val, d = _cone_pairings(n, _set_points_near(A, n, v, scale, count, rng), v, np.array(dirs))
        return max(0.0, float(np.max(val / d[:, None], initial=0.0)))

    r1 = worst_ratio(1e-3)
    r2 = worst_ratio(1e-4)
    ok = r2 <= max(0.5 * r1, 2e-3)
    return NormalConeSample(base_point=v, directions=dirs, quality=(r1, r2, ok))


def shell_sample(A: ClosedSetSpec, n: NormSpec, R: float, count: int, seed: int = 0):
    """Points u with 0 < dist(u, A) < R, spread near the boundary."""
    _scale(R, "R")
    rng = np.random.default_rng(seed)
    anchors = np.array(boundary_sample(A, n, max(count, 32), seed=seed + 1))

    def in_shell(Y):
        d = A.ops.nearest_rows(n, Y)[0]
        return (1e-7 < d) & (d < R * (1 - 1e-9))

    out = _sample_tries(rng, n, count, 80 * count, (0.02, 0.98), R,
                        lambda t: anchors[t % len(anchors)], in_shell)
    if not out:
        raise EmptyShell(f"no points with 0 < dist < {R} found")
    return out


def projection_normal_check(A: ClosedSetSpec, n: NormSpec, R: float,
                            sample_count: int = 64, seed: int = 0) -> CheckReport:
    """For external points u with projection x, the functional picked by the
    duality map at u - x must lie in the sampled normal cone at x."""
    try:
        us = shell_sample(A, n, R, sample_count, seed)
    except EmptyShell:
        return CheckReport("pass", 0.0, None, 0, reason="empty shell")
    rng = np.random.default_rng(seed + 7)
    rows, pts = [], []  # (u, x, p) of each used sample, and the set points sampled near x
    _, K, keep = A.ops.nearest_rows(n, np.array(us))
    for u, x in zip(us, _first(K, keep)):
        w = u - x
        if norm_eval(n, w) < 1e-9:
            continue
        rows.append((u, x, j1_batch(n, w)))
        pts.append(_set_points_near(A, n, x, 1e-3, 80, rng))
    if not rows:
        return CheckReport("pass", 0.0, None, 0, reason="no usable samples")
    owner = np.repeat(np.arange(len(rows)), [len(a) for a in pts])
    X, P = (np.array([r[i] for r in rows])[owner] for i in (1, 2))
    k, val, d = _cone_pairings(n, np.concatenate(pts), X, P[:, None])
    ratio = np.append(val[:, 0] / d, 0.0)  # the first largest ratio, or 0 when none is positive
    j = int(np.argmax(ratio))
    margin = 2e-3 - max(0.0, ratio[j])
    verdict = "pass" if margin >= 0 else "fail"
    witness = tuple(tuple(t) for t in rows[owner[k[j]]]) if verdict == "fail" else None
    return CheckReport(verdict, float(margin), witness, len(rows))


# ---------------------------------------------------------------------------
# proximal smoothness certificate


def prox_smooth_certificate(A: ClosedSetSpec, n: NormSpec, R: float,
                            sample_count: int = 48, seed: int = 0) -> CheckReport:
    """Certify single-valued projections and C^1 distance on the open R-shell.

    Three stages on the same shell samples: (a) projection uniqueness at
    each sample; (b) a bisection hunt for two-branch ridge points between
    samples whose projections disagree, which catches the measure-zero
    nonuniqueness sets that random sampling misses; (c) the projection-ray
    test (Federer; Clarke, Stern and Wolenski), d(x + R w/|w|) = R for the
    foot x of each sample u and w = u - x, on the kernel of
    rolling_ball_check_projection.  (c) catches sets above their reach whose
    ridge no sampled segment crosses, such as the centre of a disc
    complement.

    Every stage runs on row batches of the set kind's nearest_rows, and
    reports what a one-point loop would: the first failing sample, the
    first failing pair in the order of a seeded permutation of the pairs
    i < j, and the worst ray.
    """
    try:
        us = shell_sample(A, n, R, sample_count, seed)
    except EmptyShell:
        return CheckReport("pass", 0.0, None, 0, reason="empty shell")
    # (a) pointwise uniqueness
    U = np.array(us)
    _, K, keep = A.ops.nearest_rows(n, U)
    P = _first(K, keep)
    spread = _spread(n, K, keep, P)
    for k in np.flatnonzero(spread > 1e-4 * max(1.0, R))[:1]:
        reps = K[k][keep[k]]
        return CheckReport("fail", -float(spread[k]), (tuple(us[k]), tuple(reps[0]), tuple(reps[1])),
                           int(k) + 1, reason="nonunique projection at a sampled point")
    used = len(us)
    # (b) ridge hunt between samples with far-apart projections, all at once
    rng = np.random.default_rng(seed + 13)
    I, J = np.triu_indices(len(us), 1)
    k = rng.permutation(I.size)[: 4 * sample_count]
    I, J = I[k], J[k]
    far = ~(norm_batch(n, P[I] - P[J]) < 0.25 * np.maximum(norm_batch(n, U[I] - U[J]), 1e-9))
    I, J = I[far], J[far]
    hit = _ridge_hunt(A, n, R, U[I], U[J], P[I], P[J])
    if hit is not None:
        return CheckReport("fail", hit[0], hit[1], used,
                           reason="two projection branches meet inside the shell")
    # (c) the projection-ray test
    X, U, pushed, m = _ray_margins(A, n, R, U, K, keep)
    if np.min(m, initial=0.0) < -1e-6:
        k = int(np.argmin(m))
        return CheckReport("fail", float(m[k]), (tuple(X[k]), tuple(U[k]), tuple(pushed[k])), used,
                           reason="the distance falls short of R along a projection ray")
    return CheckReport("pass", 0.0, None, used)


def _spread(n, K, keep, P):
    """The largest distance from the foot P of each row of a nearest-point
    table to its other kept representatives: 0 for a unique nearest point."""
    return np.max(np.where(keep, norm_batch(n, K - P[:, None]), 0.0), axis=1)


def _ridge_hunt(A: ClosedSetSpec, n: NormSpec, R: float, lo, hi, plo, phi):
    """Bisect the segments between the rows of lo and hi, whose feet are plo
    and phi, for 60 steps at once, each toward the end whose foot the
    midpoint's foot is nearer.  A row that leaves the open R-shell is frozen
    there and dropped.  Returns the margin and witness of the first row that
    ends narrower than 1e-8 between feet more than 1e-3 max(1, R) apart, or
    None."""
    alive = np.ones(lo.shape[0], dtype=bool)
    for _ in range(60):
        k = np.flatnonzero(alive)
        if not k.size:
            return None
        mid = 0.5 * (lo[k] + hi[k])
        d, K, keep = A.ops.nearest_rows(n, mid)
        pm = _first(K, keep)
        inside = (1e-7 < d) & (d < R * (1 - 1e-9))
        alive[k[~inside]] = False
        k, mid, pm = k[inside], mid[inside], pm[inside]
        left = norm_batch(n, pm - plo[k]) <= norm_batch(n, pm - phi[k])
        lo[k[left]], plo[k[left]] = mid[left], pm[left]
        hi[k[~left]], phi[k[~left]] = mid[~left], pm[~left]
    gap_end = norm_batch(n, plo - phi)
    met = alive & (norm_batch(n, lo - hi) < 1e-8) & (gap_end > 1e-3 * max(1.0, R))
    for t in np.flatnonzero(met)[:1]:
        return -float(gap_end[t]), (tuple(0.5 * (lo[t] + hi[t])), tuple(plo[t]), tuple(phi[t]))
    return None


# ---------------------------------------------------------------------------
# rolling-ball (exterior sphere) checks


def _ray_margins(A: ClosedSetSpec, n: NormSpec, R: float, U, K, keep):
    """The rows u of U whose nearest point x, from their table (K, keep), is
    unique and not u itself, pushed along their projection ray to
    x + R w/|w|, w = u - x.  Returns x, u, the pushed points, and their
    distances minus R: negative where the ray loses its foot before R."""
    X = _first(K, keep)
    W = U - X
    nw = norm_batch(n, W)
    ok = ~(_spread(n, K, keep, X) > 1e-6) & ~(nw < 1e-9)
    X, U, W, nw = X[ok], U[ok], W[ok], nw[ok]
    pushed = X + (R / nw)[:, None] * W
    return X, U, pushed, A.ops.nearest_rows(n, pushed)[0] - R


def rolling_ball_check_projection(A: ClosedSetSpec, n: NormSpec, R: float,
                                  sample_count: int = 64, seed: int = 0) -> CheckReport:
    """Push each uniquely-projecting shell point to distance R along its ray;
    the pushed point must stay at distance >= R from the set."""
    try:
        us = shell_sample(A, n, R, sample_count, seed)
    except EmptyShell:
        return CheckReport("pass", 0.0, None, 0, reason="empty shell")
    U = np.array(us)
    X, U, pushed, m = _ray_margins(A, n, R, U, *A.ops.nearest_rows(n, U)[1:])
    if not len(m):
        return CheckReport("pass", 0.0, None, 0, reason="no unique-projection samples")
    k = int(np.argmin(m))
    verdict = "pass" if m[k] >= -1e-6 else "fail"
    witness = (tuple(X[k]), tuple(U[k]), tuple(pushed[k]))
    return CheckReport(verdict, float(m[k]), witness if verdict == "fail" else None, len(m))


def rolling_ball_check_normal(A: ClosedSetSpec, n: NormSpec, R: float,
                              sample_count: int = 64, seed: int = 0) -> CheckReport:
    """At boundary points with a normal direction p, recover the unit vector u
    supporting p and require dist(x + R u, A) >= R."""
    _scale(R, "R")
    xs = boundary_sample(A, n, sample_count, seed=seed)
    rows = []  # (x, p, u) for each normal direction p at each boundary point x
    for x in xs:
        try:
            dirs = normal_directions(A, n, x)
        except InteriorPoint:
            continue
        rows += [(np.asarray(x), p, support_point(n, p)) for p in dirs]
    if not rows:
        return CheckReport("pass", 0.0, None, 0, reason="no normal directions found")
    m = A.ops.nearest_rows(n, np.array([x + R * u for x, _, u in rows]))[0] - R
    k = int(np.argmin(m))
    verdict = "pass" if m[k] >= -1e-6 else "fail"
    witness = tuple(tuple(t) for t in rows[k])
    return CheckReport(verdict, float(m[k]), witness if verdict == "fail" else None, len(rows))


# ---------------------------------------------------------------------------
# supporting-chord and sphere-separation checks


def chord_projection_check(n: NormSpec, x, z):
    """For a unit vector x with support functional p and a point z on the
    supporting line {<p, .> = 1}, the sphere point y cut out by the line
    through z parallel to x satisfies 2|z - x| >= |x - y| - 1e-6.

    y = z - s x at the first root s of the convex g(s) = |z - s x| - 1 on
    [0, 4], before the minimum of g, where its nondecreasing slope
    -<grad|z - s x|, x> turns up; both by moduli._bracket_roots, down to
    adjacent floats.  Raises NoIntersection when min g exceeds 1e-10."""
    xv = as_vec(x, n.dim)
    zv = as_vec(z, n.dim)
    if abs(norm_eval(n, xv) - 1.0) > 1e-7:
        raise ValueError("x must be a unit vector")
    p = j1_batch(n, xv)
    if abs(float(p @ zv) - 1.0) > 1e-6:
        raise ValueError("z must lie on the supporting line of x")

    def g(i, s):
        return norm_batch(n, zv - s[:, None] * xv) - 1.0

    def slope(i, s):
        return -(n.ops.gradient(zv - s[:, None] * xv) @ xv)

    def first_up(f, lo, hi):  # where f, which rises through 0 at most once, turns up on [lo, hi]
        return _bracket_roots(f, (1,), lo, hi, f(0, np.array([lo]))[0], f(0, np.array([hi]))[0],
                              4.0 * 2.0 ** -60, False)[1][0]

    g0 = float(g(0, np.zeros(1))[0])
    if g0 <= _SLACK:
        y = zv.copy()
    else:
        s_min = first_up(slope, 0.0, 4.0)
        if g(0, np.array([s_min]))[0] > 1e-10:
            raise NoIntersection("line through z parallel to x misses the sphere")
        s_star = first_up(lambda i, s: -g(i, s), 0.0, s_min) if g0 > 0 else 0.0
        y = zv - s_star * xv
    lhs = 2 * norm_eval(n, zv - xv)
    rhs = norm_eval(n, xv - y)
    return lhs >= rhs - _SLACK, y, float(lhs - rhs)


def support_gap_check(n: NormSpec, R: float, x0, z, delta_curve):
    """Inner points of a sphere sit quantitatively on the far side of the
    supporting functional at -x0, with gap 2 R delta(|z - x0| / R), less
    1e-6."""
    x0v = as_vec(x0, n.dim)
    zv = as_vec(z, n.dim)
    if abs(norm_eval(n, x0v) - R) > 1e-6 * max(1.0, R):
        raise ValueError("x0 must lie on the sphere of radius R")
    if norm_eval(n, zv) >= R:
        raise ValueError("z must be an interior point of the R-ball")
    if getattr(delta_curve, "direction", "over") != "over":
        raise ValueError("need an upper convexity-modulus curve for a sound check")
    p0 = j1_batch(n, -x0v)
    lhs = float(p0 @ (zv - x0v))
    rhs = 2 * R * delta_curve.eval(norm_eval(n, zv - x0v) / R)
    margin = lhs - rhs
    return margin > -_SLACK, float(margin)


# ---------------------------------------------------------------------------
# largest inscribed ellipse (2D)


def john_ellipse_2d(vertices) -> np.ndarray:
    """Maximum-area ellipse {x : x^T Q x <= 1} inscribed in a symmetric polygon.

    Returns Q = S^-1, where S maximizes det S subject to the edge constraints
    e^T S e <= 1.  The optimal ellipse touches two or three of the pairs
    +-e of edge functionals, so every candidate is enumerated in closed form:
    for functionals e_i, e_j and B = [e_i e_j], S = B^-T M B^-1, where M, the
    Gram matrix of the contacts, is [[1, c], [c, 1]] with c = 0 for two
    contacts, and c = (1 - a^2 - b^2) / (2ab), |c| < 1, for a third contact
    e_k = a e_i + b e_j.  The feasible candidate (every e^T S e <= 1 + 1e-12)
    of largest det is kept, and both John inclusions are verified.
    """
    verts = np.asarray(vertices, dtype=float)
    gauge = polygon_norm(verts)  # validates symmetry and convex position
    F = gauge.ops.edges[: len(gauge.vertices) // 2]  # one functional of each pair
    verts = np.asarray(gauge.vertices)
    I, J = np.triu_indices(len(F), 1)
    Binv = np.linalg.inv(np.stack([F[I], F[J]], axis=2))  # B^-1, B = [e_i e_j]
    ab = np.einsum("pij,kj->pki", Binv, F)  # e_k = a e_i + b e_j
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (1.0 - ab[..., 0] ** 2 - ab[..., 1] ** 2) / (2.0 * ab[..., 0] * ab[..., 1])
    c = np.concatenate([np.zeros((len(I), 1)), c], axis=1)  # the two-contact candidate first
    live = np.abs(c) < 1.0  # k = i and k = j give nan
    M = np.stack([np.ones_like(c), np.where(live, c, 0.0)], axis=-1)
    M = np.stack([M, M[..., ::-1]], axis=-2)  # [[1, c], [c, 1]]
    S = Binv.transpose(0, 2, 1)[:, None] @ M @ Binv[:, None]
    top = np.einsum("fi,pkij,fj->pkf", F, S, F).max(axis=-1)
    det = (1.0 - c * c) * np.linalg.det(Binv)[:, None] ** 2
    ok = live & (top <= 1.0 + 1e-12)
    if not ok.any():
        raise DegenerateBody("inscribed ellipse search failed")
    S = S.reshape(-1, 2, 2)[np.argmax(np.where(ok, det, -np.inf))]
    Q = np.linalg.inv(S)
    # John inclusions: ellipse inside the body, body inside sqrt(2) * ellipse
    if max(float(e @ S @ e) for e in F) > 1.0 + 1e-9:
        raise DegenerateBody("inscribed ellipse violates an edge constraint")
    if max(float(v @ Q @ v) for v in verts) > 2.0 + 1e-6:
        raise DegenerateBody("polygon escapes the sqrt(2)-scaled ellipse")
    return Q


# ---------------------------------------------------------------------------
# serialization


def set_to_json(A: ClosedSetSpec) -> str:
    def pack(v):
        if isinstance(v, ClosedSetSpec):
            return {f.name: pack(getattr(v, f.name)) for f in dataclasses.fields(v)
                    if getattr(v, f.name) is not None}
        if isinstance(v, NormSpec):
            return norm_to_json(v)
        return [pack(t) for t in v] if isinstance(v, tuple) else v

    return json.dumps(pack(A), sort_keys=True)


def _set_from_dict(d: dict) -> ClosedSetSpec:
    return _set_kind(d["kind"]).from_json(d)


def set_from_json(text: str) -> ClosedSetSpec:
    return _set_from_dict(json.loads(text))
