"""Closed test sets: membership, distance, metric projection, normal cones,
rolling-ball checks, and proximal-smoothness certificates.

Every operation takes the ambient norm explicitly.  A set spec may carry its
own gauge (the norm whose ball defines it), which is independent of the
ambient norm used for distances; when the gauge is omitted it defaults to the
ambient norm at query time.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from .norms import (
    DegenerateBody,
    DimensionMismatch,
    NormSpec,
    dual_norm_eval,
    duality_map,
    lp_norm,
    norm_batch,
    norm_eval,
    polygon_edge_functionals,
    polygon_norm,
    sphere_points,
    subdifferential_extremes,
    support_point,
    weighted_lp_norm,
)


class InteriorPoint(ValueError):
    """Normal cone requested at a point not on the boundary."""


class EmptyShell(RuntimeError):
    """Shell sampling exhausted its retry budget without a hit."""


class NoIntersection(RuntimeError):
    """A chord construction found no sphere crossing."""


_SET_KINDS = (
    "ball",
    "ball_complement",
    "halfspace",
    "finite_points",
    "convex_polytope_complement",
    "cylinder_extension",
)


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


@dataclasses.dataclass(frozen=True)
class NormalConeSample:
    base_point: np.ndarray
    directions: tuple
    quality: tuple  # (coarse residual, fine residual, ok)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    verdict: str
    worst_margin: float
    witness: Optional[tuple]
    samples_used: int
    reason: str = ""

    def to_json(self) -> str:
        def _clean(v):
            if isinstance(v, np.ndarray):
                return [float(t) for t in v]
            if isinstance(v, (tuple, list)):
                return [_clean(t) for t in v]
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            return v

        payload = {
            "verdict": self.verdict,
            "worst_margin": float(self.worst_margin),
            "witness": _clean(self.witness),
            "samples_used": int(self.samples_used),
        }
        if self.reason:
            payload["reason"] = self.reason
        return json.dumps(payload, sort_keys=True)


def _vec(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {v.shape[0]}")
    return v


def make_ball(center, radius: float, gauge: Optional[NormSpec] = None, name: str = "") -> ClosedSetSpec:
    c = np.asarray(center, dtype=float).reshape(-1)
    if radius <= 0:
        raise ValueError("radius must be positive")
    return ClosedSetSpec(kind="ball", dim=c.shape[0], center=tuple(c), radius=float(radius),
                         gauge=gauge, name=name or "ball")


def make_ball_complement(center, radius: float, gauge: Optional[NormSpec] = None, name: str = "") -> ClosedSetSpec:
    c = np.asarray(center, dtype=float).reshape(-1)
    if radius <= 0:
        raise ValueError("radius must be positive")
    return ClosedSetSpec(kind="ball_complement", dim=c.shape[0], center=tuple(c), radius=float(radius),
                         gauge=gauge, name=name or "ball_complement")


def make_halfspace(normal, offset: float, name: str = "") -> ClosedSetSpec:
    a = np.asarray(normal, dtype=float).reshape(-1)
    if not np.any(a):
        raise ValueError("halfspace normal must be nonzero")
    return ClosedSetSpec(kind="halfspace", dim=a.shape[0], normal=tuple(a), offset=float(offset),
                         name=name or "halfspace")


def make_finite_points(points, name: str = "") -> ClosedSetSpec:
    arr = np.asarray(points, dtype=float)
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
        av = np.asarray(a, dtype=float).reshape(-1)
        if dim is None:
            dim = av.shape[0]
        elif av.shape[0] != dim:
            raise DimensionMismatch("facet normals disagree on dimension")
        if not np.any(av):
            raise ValueError("facet normal must be nonzero")
        packed.append((tuple(float(t) for t in av), float(b)))
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


def _restrict_norm(n: NormSpec, coords) -> NormSpec:
    """Restriction of a coordinate-decomposable norm to a subset of axes."""
    cs = tuple(coords)
    if len(cs) == n.dim and cs == tuple(range(n.dim)):
        return n
    if n.kind == "lp":
        return lp_norm(n.p, len(cs))
    if n.kind == "weighted_lp":
        w = np.asarray(n.weights, dtype=float)[list(cs)]
        return weighted_lp_norm(n.p, w)
    raise ValueError(f"norm kind {n.kind!r} does not restrict to a coordinate subspace")


def _facet_list(A: ClosedSetSpec):
    out = []
    for a, b in A.facets:
        out.append((np.asarray(a, dtype=float), float(b)))
    return out


def _gauge_facets(g: NormSpec, center: np.ndarray, radius: float):
    """Facet description (a_i, b_i) of a polyhedral gauge ball, or None."""
    d = center.shape[0]
    if g.kind == "polygon":
        out = []
        for nfun in polygon_edge_functionals(g):
            out.append((nfun, radius + float(nfun @ center)))
        return out
    if g.kind in ("lp", "weighted_lp") and g.p == np.inf:
        w = np.ones(d) if g.weights is None else np.asarray(g.weights, dtype=float)
        out = []
        for i in range(d):
            for s in (1.0, -1.0):
                a = np.zeros(d)
                a[i] = s * w[i]
                out.append((a, radius + float(a @ center)))
        return out
    if g.kind in ("lp", "weighted_lp") and g.p == 1:
        w = np.ones(d) if g.weights is None else np.asarray(g.weights, dtype=float)
        out = []
        for signs in np.ndindex(*([2] * d)):
            a = w * np.where(np.asarray(signs) == 0, 1.0, -1.0)
            out.append((a, radius + float(a @ center)))
        return out
    return None


# ---------------------------------------------------------------------------
# membership / distance / projection


def contains(A: ClosedSetSpec, n: NormSpec, x, tol: float = 1e-9) -> bool:
    v = _vec(x, A.dim)
    if A.kind == "ball":
        g = _gauge(A, n)
        return norm_eval(g, v - np.asarray(A.center)) <= A.radius + tol
    if A.kind == "ball_complement":
        g = _gauge(A, n)
        return norm_eval(g, v - np.asarray(A.center)) >= A.radius - tol
    if A.kind == "halfspace":
        return float(np.asarray(A.normal) @ v) <= A.offset + tol
    if A.kind == "finite_points":
        pts = np.asarray(A.points)
        return bool(np.min(norm_batch(n, pts - v)) <= tol)
    if A.kind == "convex_polytope_complement":
        return any(float(a @ v) >= b - tol for a, b in _facet_list(A))
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        return contains(A.base, sub, v[list(A.coords)], tol)
    raise ValueError(f"unknown set kind {A.kind!r}")


def _boundary_min_distance(g: NormSpec, center: np.ndarray, radius: float,
                           n: NormSpec, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """Minimize the ambient distance from x over the gauge sphere center + radius*S_g."""
    facets = _gauge_facets(g, center, radius)
    if facets is not None and g.kind == "polygon":
        # per-edge segment minimization; each edge is convex in its parameter
        verts = radius * np.asarray(g.vertices) + center
        m = verts.shape[0]
        best = (np.inf, None)
        for i in range(m):
            a, b = verts[i], verts[(i + 1) % m]

            def seg(t, a=a, b=b):
                return norm_eval(n, (1 - t) * a + t * b - x)

            res = minimize_scalar(seg, bounds=(0.0, 1.0), method="bounded",
                                  options={"xatol": 1e-12})
            if res.fun < best[0]:
                best = (float(res.fun), (1 - res.x) * a + res.x * b)
        return best
    if x.shape[0] == 2:
        th = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        ring = center + radius * sphere_points(g, th)
        dists = norm_batch(n, ring - x)
        order = np.argsort(dists)[:8]
        h = 2 * np.pi / 2048
        best = (np.inf, None)
        for k in order:
            t0 = th[k]

            def f(t):
                u = np.array([np.cos(t), np.sin(t)])
                y = center + radius * u / norm_eval(g, u)
                return norm_eval(n, y - x)

            res = minimize_scalar(f, bounds=(t0 - 1.5 * h, t0 + 1.5 * h), method="bounded",
                                  options={"xatol": 1e-13})
            if res.fun < best[0]:
                u = np.array([np.cos(res.x), np.sin(res.x)])
                best = (float(res.fun), center + radius * u / norm_eval(g, u))
        return best
    # nD fallback: multistart Nelder-Mead over directions
    rng = np.random.default_rng(97)
    seeds = rng.standard_normal((16, x.shape[0]))
    if norm_eval(g, x - center) > 1e-12:
        seeds[0] = x - center
    best = (np.inf, None)
    for s in seeds:
        def f(u):
            nu = norm_eval(g, u)
            if nu < 1e-9:
                return 1e9
            return norm_eval(n, center + radius * u / nu - x)

        res = minimize(f, s, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400})
        if res.fun < best[0]:
            u = res.x / norm_eval(g, res.x)
            best = (float(res.fun), center + radius * u)
    return best


def distance(A: ClosedSetSpec, n: NormSpec, x) -> float:
    v = _vec(x, A.dim)
    if contains(A, n, v, tol=0.0):
        return 0.0
    if A.kind == "ball":
        g = _gauge(A, n)
        c = np.asarray(A.center)
        if A.gauge is None or g is n or g == n:
            return norm_eval(n, v - c) - A.radius
        return _boundary_min_distance(g, c, A.radius, n, v)[0]
    if A.kind == "ball_complement":
        g = _gauge(A, n)
        c = np.asarray(A.center)
        if A.gauge is None or g is n or g == n:
            return A.radius - norm_eval(n, v - c)
        facets = _gauge_facets(g, c, A.radius)
        if facets is not None:
            # from inside a polyhedral ball the nearest complement point lies on
            # a facet plane, and every facet-plane point belongs to the closure
            return min((b - float(a @ v)) / dual_norm_eval(n, a) for a, b in facets)
        return _boundary_min_distance(g, c, A.radius, n, v)[0]
    if A.kind == "halfspace":
        a = np.asarray(A.normal)
        return max(0.0, (float(a @ v) - A.offset)) / dual_norm_eval(n, a)
    if A.kind == "finite_points":
        return float(np.min(norm_batch(n, np.asarray(A.points) - v)))
    if A.kind == "convex_polytope_complement":
        vals = []
        for a, b in _facet_list(A):
            vals.append((b - float(a @ v)) / dual_norm_eval(n, a))
        return min(vals)
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        return distance(A.base, sub, v[list(A.coords)])
    raise ValueError(f"unknown set kind {A.kind!r}")


def _cluster(points, radius: float, cap: int = 16):
    reps = []
    for p in points:
        if all(float(np.max(np.abs(p - r))) > radius for r in reps):
            reps.append(p)
            if len(reps) >= cap:
                break
    return reps


def _strictly_convex(g: NormSpec) -> bool:
    if g.kind == "ellipse":
        return True
    if g.kind in ("lp", "weighted_lp"):
        return 1.0 < g.p < np.inf
    return False


def _sphere_nearest_scan(g: NormSpec, center: np.ndarray, radius: float,
                         n: NormSpec, x: np.ndarray, tol: float):
    """All near-minimizers of the ambient distance over a 2D gauge sphere."""
    th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    ring = center + radius * sphere_points(g, th)
    dists = norm_batch(n, ring - x)
    dmin = float(np.min(dists))
    keep = ring[dists <= dmin + 10 * tol]
    if keep.shape[0] > 16:  # spread representatives across the whole flat piece
        keep = keep[np.linspace(0, keep.shape[0] - 1, 16).astype(int)]
    return _cluster(list(keep), radius=max(50 * tol, 1e-5))


def project(A: ClosedSetSpec, n: NormSpec, x, tol: float = 1e-8):
    """Metric projection: representatives of the nearest-point set."""
    v = _vec(x, A.dim)
    if contains(A, n, v, tol=0.0):
        return [v.copy()]
    if A.kind in ("ball", "ball_complement"):
        g = _gauge(A, n)
        c = np.asarray(A.center)
        same = A.gauge is None or g is n or g == n
        r = norm_eval(g, v - c)
        if same and (_strictly_convex(g) or r < 1e-12):
            if r < 1e-12:  # center of the gauge ball: the whole sphere is nearest
                th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False) if A.dim == 2 else None
                if th is not None:
                    return [c + A.radius * p for p in sphere_points(g, th)]
                rng = np.random.default_rng(11)
                dirs = rng.standard_normal((16, A.dim))
                return [c + A.radius * d / norm_eval(g, d) for d in dirs]
            return [c + A.radius * (v - c) / r]
        if same and A.dim == 2:
            return _sphere_nearest_scan(g, c, A.radius, n, v, tol)
        if same:
            y = c + A.radius * (v - c) / r
            return [y]
        if A.dim == 2:
            return _sphere_nearest_scan(g, c, A.radius, n, v, tol)
        return [_boundary_min_distance(g, c, A.radius, n, v)[1]]
    if A.kind == "halfspace":
        a = np.asarray(A.normal)
        d = (float(a @ v) - A.offset) / dual_norm_eval(n, a)
        if n.dim == 2:
            th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            ring = sphere_points(n, th)
            scores = ring @ a
            smax = float(np.max(scores))
            feet = [v - d * u for u in ring[scores >= smax - 1e-12 * max(1.0, abs(smax))]]
            return _cluster(feet, radius=max(50 * tol, 1e-5))
        u = support_point(n, a)
        return [v - d * u]
    if A.kind == "finite_points":
        pts = np.asarray(A.points)
        dists = norm_batch(n, pts - v)
        dmin = float(np.min(dists))
        return [pts[i].copy() for i in range(pts.shape[0]) if dists[i] <= dmin + tol]
    if A.kind == "convex_polytope_complement":
        vals, feet = [], []
        for a, b in _facet_list(A):
            da = dual_norm_eval(n, a)
            d = (b - float(a @ v)) / da
            u = support_point(n, a)
            vals.append(d)
            feet.append(v + d * u)
        dmin = min(vals)
        out = [feet[i] for i in range(len(vals)) if vals[i] <= dmin + tol]
        return _cluster(out, radius=max(50 * tol, 1e-5))
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        base_proj = project(A.base, sub, v[list(A.coords)], tol)
        out = []
        for bp in base_proj:
            y = v.copy()
            y[list(A.coords)] = bp
            out.append(y)
        return out
    raise ValueError(f"unknown set kind {A.kind!r}")


def boundary_sample(A: ClosedSetSpec, n: NormSpec, count: int, seed: int = 0,
                    scale: float = 2.0):
    """Sample points on the boundary of A (deterministic under the seed)."""
    rng = np.random.default_rng(seed)
    if A.kind in ("ball", "ball_complement"):
        g = _gauge(A, n)
        c = np.asarray(A.center)
        if A.dim == 2:
            th = rng.uniform(0.0, 2 * np.pi, size=count)
            return [c + A.radius * p for p in sphere_points(g, th)]
        dirs = rng.standard_normal((count, A.dim))
        return [c + A.radius * d / norm_eval(g, d) for d in dirs]
    if A.kind == "halfspace":
        a = np.asarray(A.normal)
        foot = A.offset * a / float(a @ a)
        out = []
        for _ in range(count):
            w = rng.uniform(-scale, scale, size=A.dim)
            w -= (float(a @ w) / float(a @ a)) * a
            out.append(foot + w)
        return out
    if A.kind == "finite_points":
        pts = np.asarray(A.points)
        return [pts[i % pts.shape[0]].copy() for i in range(count)]
    if A.kind == "convex_polytope_complement":
        if A.dim != 2:
            raise ValueError("polytope complement sampling implemented for dim 2 only")
        segs = _polytope_edge_segments_2d(A)
        lens = np.array([np.linalg.norm(b - a) for a, b in segs])
        probs = lens / np.sum(lens)
        out = []
        for _ in range(count):
            i = int(rng.choice(len(segs), p=probs))
            t = float(rng.uniform(0.02, 0.98))  # keep off the corners
            a, b = segs[i]
            out.append((1 - t) * a + t * b)
        return out
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        base_pts = boundary_sample(A.base, sub, count, seed, scale)
        free = [i for i in range(A.dim) if i not in A.coords]
        out = []
        for bp in base_pts:
            y = np.zeros(A.dim)
            y[list(A.coords)] = bp
            if free:
                y[free] = rng.uniform(-scale, scale, size=len(free))
            out.append(y)
        return out
    raise ValueError(f"unknown set kind {A.kind!r}")


def _polytope_vertices_2d(A: ClosedSetSpec):
    """Vertices of the 2D polytope whose complement A is, in CCW order."""
    fl = _facet_list(A)
    m = len(fl)
    verts = []
    for i in range(m):
        for j in range(i + 1, m):
            a1, b1 = fl[i]
            a2, b2 = fl[j]
            M = np.array([a1, a2])
            det = float(np.linalg.det(M))
            if abs(det) < 1e-12:
                continue
            p = np.linalg.solve(M, np.array([b1, b2]))
            if all(float(a @ p) <= b + 1e-9 for a, b in fl):
                verts.append(p)
    if not verts:
        raise DegenerateBody("polytope has no vertices")
    verts = _cluster(verts, radius=1e-9, cap=64)
    ctr = np.mean(verts, axis=0)
    verts.sort(key=lambda p: np.arctan2(p[1] - ctr[1], p[0] - ctr[0]))
    return verts


def _polytope_edge_segments_2d(A: ClosedSetSpec):
    verts = _polytope_vertices_2d(A)
    m = len(verts)
    return [(verts[i], verts[(i + 1) % m]) for i in range(m)]


# ---------------------------------------------------------------------------
# normal cones


def _boundary_residual(A: ClosedSetSpec, n: NormSpec, x: np.ndarray) -> float:
    if A.kind == "ball":
        g = _gauge(A, n)
        return norm_eval(g, x - np.asarray(A.center)) - A.radius
    if A.kind == "ball_complement":
        g = _gauge(A, n)
        return A.radius - norm_eval(g, x - np.asarray(A.center))
    if A.kind == "halfspace":
        return float(np.asarray(A.normal) @ x) - A.offset
    if A.kind == "finite_points":
        return float(np.min(norm_batch(n, np.asarray(A.points) - x)))
    if A.kind == "convex_polytope_complement":
        return min(b - float(a @ x) for a, b in _facet_list(A))
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        return _boundary_residual(A.base, sub, x[list(A.coords)])
    raise ValueError(f"unknown set kind {A.kind!r}")


def _local_set_samples(A: ClosedSetSpec, n: NormSpec, x: np.ndarray, mesh: float,
                       count: int, rng) -> list:
    out = []
    tries = 0
    while len(out) < count and tries < 40 * count:
        tries += 1
        u = rng.standard_normal(A.dim)
        nu = norm_eval(n, u)
        if nu < 1e-12:
            continue
        y = x + mesh * float(rng.uniform(0.05, 1.0)) * u / nu
        if contains(A, n, y, tol=0.0):
            out.append(y)
    return out


def _cone_directions(A: ClosedSetSpec, n: NormSpec, x: np.ndarray, tol: float):
    """Extreme unit functionals of the outward normal cone, analytically."""
    if A.kind == "ball":
        g = _gauge(A, n)
        ext = subdifferential_extremes(g, x - np.asarray(A.center))
        return [p / dual_norm_eval(n, p) for p in ext]
    if A.kind == "ball_complement":
        g = _gauge(A, n)
        ext = subdifferential_extremes(g, x - np.asarray(A.center))
        if len(ext) > 1:
            return []  # gauge-ball vertex: the complement cone there degenerates
        p = -ext[0]
        return [p / dual_norm_eval(n, p)]
    if A.kind == "halfspace":
        a = np.asarray(A.normal)
        return [a / dual_norm_eval(n, a)]
    if A.kind == "finite_points":
        if n.dim == 2:
            th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
            raw = np.stack([np.cos(th), np.sin(th)], axis=1)
        else:
            rng = np.random.default_rng(5)
            raw = rng.standard_normal((16, n.dim))
        return [p / dual_norm_eval(n, p) for p in raw]
    if A.kind == "convex_polytope_complement":
        active = []
        for a, b in _facet_list(A):
            if abs(float(a @ x) - b) <= 10 * tol * max(1.0, abs(b), float(np.max(np.abs(a)))):
                active.append(a)
        if len(active) != 1:
            return []  # complement vertex (or numerical corner): degenerate
        a = active[0]
        return [-a / dual_norm_eval(n, a)]
    if A.kind == "cylinder_extension":
        sub = _restrict_norm(n, A.coords)
        base_dirs = _cone_directions(A.base, sub, x[list(A.coords)], tol)
        out = []
        for p in base_dirs:
            q = np.zeros(A.dim)
            q[list(A.coords)] = p
            out.append(q / dual_norm_eval(n, q))
        return out
    raise ValueError(f"unknown set kind {A.kind!r}")


def normal_directions(A: ClosedSetSpec, n: NormSpec, x, tol: float = 1e-6) -> tuple:
    """Extreme unit rays of the outward normal cone at a boundary point.

    The analytic directions of the set kind, without sampled vetting.  Raises
    InteriorPoint when x is more than 100 tol off the boundary.
    """
    v = _vec(x, A.dim)
    res = _boundary_residual(A, n, v)
    if abs(res) > 100 * tol:
        raise InteriorPoint(f"point is {res:.3g} away from the boundary")
    return tuple(_cone_directions(A, n, v, tol))


def normal_cone_sample(A: ClosedSetSpec, n: NormSpec, x, mesh: float = 1e-3,
                       count: int = 200, seed: int = 0, tol: float = 1e-6) -> NormalConeSample:
    """Extreme rays of the outward normal cone at a boundary point, vetted.

    The directions are those of `normal_directions`.  The vetting is a
    diagnostic reported in `.quality`: a two-scale sampled cone test in which
    the worst ratio <p, a-x>/|a-x| over set points a within `mesh` of x must
    not persist when the mesh shrinks tenfold.  It never changes the
    directions, so the certificates call `normal_directions` and skip it.
    """
    v = _vec(x, A.dim)
    dirs = normal_directions(A, n, v, tol)
    rng = np.random.default_rng(seed)
    if not dirs:
        return NormalConeSample(base_point=v, directions=(), quality=(0.0, 0.0, True))

    def worst_ratio(scale: float) -> float:
        pts = _local_set_samples(A, n, v, scale, count, rng)
        if not pts:
            return 0.0
        w = 0.0
        for a in pts:
            da = norm_eval(n, a - v)
            if da < 1e-12:
                continue
            for p in dirs:
                w = max(w, float(p @ (a - v)) / da)
        return w

    r1 = worst_ratio(mesh)
    r2 = worst_ratio(mesh / 10.0)
    ok = r2 <= max(0.5 * r1, 2e-3)
    return NormalConeSample(base_point=v, directions=dirs, quality=(r1, r2, ok))


def shell_sample(A: ClosedSetSpec, n: NormSpec, R: float, count: int, seed: int = 0):
    """Points u with 0 < dist(u, A) < R, spread near the boundary."""
    rng = np.random.default_rng(seed)
    anchors = boundary_sample(A, n, max(count, 32), seed=seed + 1)
    out = []
    tries = 0
    budget = 80 * count
    while len(out) < count and tries < budget:
        tries += 1
        b = anchors[tries % len(anchors)]
        u = rng.standard_normal(A.dim)
        nu = norm_eval(n, u)
        if nu < 1e-12:
            continue
        y = b + float(rng.uniform(0.02, 0.98)) * R * u / nu
        d = distance(A, n, y)
        if 1e-7 < d < R * (1 - 1e-9):
            out.append(y)
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
    worst = -np.inf
    witness = None
    used = 0
    for u in us:
        reps = project(A, n, u)
        x = reps[0]
        w = u - x
        if norm_eval(n, w) < 1e-9:
            continue
        p = duality_map(n, w)
        if not isinstance(p, np.ndarray):
            p = p.extremes[0]
        used += 1
        pts = _local_set_samples(A, n, x, 1e-3, 80, rng)
        for a in pts:
            da = norm_eval(n, a - x)
            if da < 1e-12:
                continue
            ratio = float(p @ (a - x)) / da
            if ratio > worst:
                worst = ratio
                witness = (tuple(u), tuple(x), tuple(p))
    if used == 0:
        return CheckReport("pass", 0.0, None, 0, reason="no usable samples")
    margin = 2e-3 - max(0.0, worst if np.isfinite(worst) else 0.0)
    verdict = "pass" if margin >= 0 else "fail"
    return CheckReport(verdict, float(margin), witness if verdict == "fail" else None, used)


# ---------------------------------------------------------------------------
# proximal smoothness certificate


def _distance_gradient(A: ClosedSetSpec, n: NormSpec, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[i] = h
        g[i] = (distance(A, n, x + e) - distance(A, n, x - e)) / (2 * h)
    return g


def prox_smooth_certificate(A: ClosedSetSpec, n: NormSpec, R: float,
                            sample_count: int = 48, seed: int = 0) -> CheckReport:
    """Certify single-valued projections and C^1 distance on the open R-shell.

    Three stages: (a) projection uniqueness at sampled shell points,
    (b) stability of the central-difference distance gradient under step
    refinement (1e-4 vs 1e-5, within 5e-3 relative), and (c) a bisection hunt
    for two-branch ridge points between shell samples whose projections
    disagree, which catches the measure-zero nonuniqueness sets that random
    sampling misses.
    """
    try:
        us = shell_sample(A, n, R, sample_count, seed)
    except EmptyShell:
        return CheckReport("pass", 0.0, None, 0, reason="empty shell")
    used = 0
    # (a) pointwise uniqueness
    projs = []
    for u in us:
        reps = project(A, n, u)
        used += 1
        if len(reps) > 1:
            spread = max(norm_eval(n, reps[i] - reps[0]) for i in range(1, len(reps)))
            if spread > 1e-4 * max(1.0, R):
                return CheckReport("fail", -float(spread), (tuple(u), tuple(reps[0]), tuple(reps[1])),
                                   used, reason="nonunique projection at a sampled point")
        projs.append(reps[0])
    # (b) gradient step-stability
    for u in us:
        d = distance(A, n, u)
        if d < 2e-4 or d > R - 2e-4:
            continue
        g4 = _distance_gradient(A, n, u, 1e-4)
        g5 = _distance_gradient(A, n, u, 1e-5)
        ref = max(float(np.linalg.norm(g4)), float(np.linalg.norm(g5)), 1e-9)
        rel = float(np.linalg.norm(g4 - g5)) / ref
        if rel > 5e-3:
            return CheckReport("fail", -rel, (tuple(u),), used,
                               reason="distance gradient unstable under step refinement")
    # (c) ridge hunt between samples with far-apart projections
    rng = np.random.default_rng(seed + 13)
    idx = np.arange(len(us))
    pairs = [(int(i), int(j)) for i in idx for j in idx[i + 1:]]
    rng.shuffle(pairs)
    for i, j in pairs[: 4 * sample_count]:
        a, b = us[i], us[j]
        pa, pb = projs[i], projs[j]
        gap = norm_eval(n, pa - pb)
        if gap < 0.25 * max(norm_eval(n, a - b), 1e-9):
            continue
        lo, hi, plo, phi = a, b, pa, pb
        alive = True
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            d = distance(A, n, mid)
            if not (1e-7 < d < R * (1 - 1e-9)):
                alive = False
                break
            pm = project(A, n, mid)[0]
            if norm_eval(n, pm - plo) <= norm_eval(n, pm - phi):
                lo, plo = mid, pm
            else:
                hi, phi = mid, pm
        if not alive:
            continue
        gap_end = norm_eval(n, plo - phi)
        width = norm_eval(n, lo - hi)
        if width < 1e-8 and gap_end > 1e-3 * max(1.0, R):
            mid = 0.5 * (lo + hi)
            return CheckReport("fail", -float(gap_end), (tuple(mid), tuple(plo), tuple(phi)),
                               used, reason="two projection branches meet inside the shell")
    return CheckReport("pass", 0.0, None, used)


# ---------------------------------------------------------------------------
# rolling-ball (exterior sphere) checks


def rolling_ball_check_projection(A: ClosedSetSpec, n: NormSpec, R: float,
                                  sample_count: int = 64, seed: int = 0) -> CheckReport:
    """Push each uniquely-projecting shell point to distance R along its ray;
    the pushed point must stay at distance >= R from the set."""
    try:
        us = shell_sample(A, n, R, sample_count, seed)
    except EmptyShell:
        return CheckReport("pass", 0.0, None, 0, reason="empty shell")
    worst = np.inf
    witness = None
    used = 0
    for u in us:
        reps = project(A, n, u)
        if len(reps) > 1:
            spread = max(norm_eval(n, reps[k] - reps[0]) for k in range(1, len(reps)))
            if spread > 1e-6:
                continue
        x = reps[0]
        w = u - x
        nw = norm_eval(n, w)
        if nw < 1e-9:
            continue
        pushed = x + (R / nw) * w
        m = distance(A, n, pushed) - R
        used += 1
        if m < worst:
            worst = m
            witness = (tuple(x), tuple(u), tuple(pushed))
    if used == 0:
        return CheckReport("pass", 0.0, None, 0, reason="no unique-projection samples")
    verdict = "pass" if worst >= -1e-6 else "fail"
    return CheckReport(verdict, float(worst), witness if verdict == "fail" else None, used)


def rolling_ball_check_normal(A: ClosedSetSpec, n: NormSpec, R: float,
                              sample_count: int = 64, seed: int = 0) -> CheckReport:
    """At boundary points with a normal direction p, recover the unit vector u
    supporting p and require dist(x + R u, A) >= R."""
    xs = boundary_sample(A, n, sample_count, seed=seed)
    worst = np.inf
    witness = None
    used = 0
    for x in xs:
        try:
            dirs = normal_directions(A, n, x)
        except InteriorPoint:
            continue
        for p in dirs:
            u = support_point(n, p)
            pushed = np.asarray(x) + R * u
            m = distance(A, n, pushed) - R
            used += 1
            if m < worst:
                worst = m
                witness = (tuple(np.asarray(x)), tuple(p), tuple(u))
    if used == 0:
        return CheckReport("pass", 0.0, None, 0, reason="no normal directions found")
    verdict = "pass" if worst >= -1e-6 else "fail"
    return CheckReport(verdict, float(worst), witness if verdict == "fail" else None, used)


# ---------------------------------------------------------------------------
# supporting-chord and sphere-separation checks


def chord_projection_check(n: NormSpec, x, z, tol: float = 1e-6):
    """For a unit vector x with support functional p and a point z on the
    supporting line {<p, .> = 1}, the sphere point y cut out by the line
    through z parallel to x satisfies 2|z - x| >= |x - y| - tol."""
    xv = _vec(x, n.dim)
    zv = _vec(z, n.dim)
    if abs(norm_eval(n, xv) - 1.0) > 1e-7:
        raise ValueError("x must be a unit vector")
    p = duality_map(n, xv)
    if not isinstance(p, np.ndarray):
        p = p.extremes[0]
    if abs(float(p @ zv) - 1.0) > 1e-6:
        raise ValueError("z must lie on the supporting line of x")

    def g(s):
        return norm_eval(n, zv - s * xv) - 1.0

    if g(0.0) <= tol:
        y = zv.copy()
    else:
        res = minimize_scalar(g, bounds=(0.0, 4.0), method="bounded",
                              options={"xatol": 1e-13})
        if res.fun > 1e-10:
            raise NoIntersection("line through z parallel to x misses the sphere")
        s_star = brentq(g, 0.0, res.x, xtol=1e-14) if g(0.0) > 0 else 0.0
        y = zv - s_star * xv
    lhs = 2 * norm_eval(n, zv - xv)
    rhs = norm_eval(n, xv - y)
    return lhs >= rhs - tol, y, float(lhs - rhs)


def support_gap_check(n: NormSpec, R: float, x0, z, delta_curve, tol: float = 1e-6):
    """Inner points of a sphere sit quantitatively on the far side of the
    supporting functional at -x0, with gap 2 R delta(|z - x0| / R)."""
    x0v = _vec(x0, n.dim)
    zv = _vec(z, n.dim)
    if abs(norm_eval(n, x0v) - R) > 1e-6 * max(1.0, R):
        raise ValueError("x0 must lie on the sphere of radius R")
    if norm_eval(n, zv) >= R:
        raise ValueError("z must be an interior point of the R-ball")
    if getattr(delta_curve, "direction", "over") != "over":
        raise ValueError("need an upper convexity-modulus curve for a sound check")
    p0 = duality_map(n, -x0v)
    if not isinstance(p0, np.ndarray):
        p0 = p0.extremes[0]
    lhs = float(p0 @ (zv - x0v))
    rhs = 2 * R * delta_curve.eval(norm_eval(n, zv - x0v) / R)
    margin = lhs - rhs
    return margin > -tol, float(margin)


# ---------------------------------------------------------------------------
# largest inscribed ellipse (2D)


def john_ellipse_2d(vertices) -> np.ndarray:
    """Maximum-area ellipse {x : x^T Q x <= 1} inscribed in a symmetric polygon.

    Returns Q.  Maximizes log det S over S = Q^{-1} subject to the edge
    constraints n_i^T S n_i <= 1, then verifies both John inclusions.
    """
    verts = np.asarray(vertices, dtype=float)
    gauge = polygon_norm(verts)  # validates symmetry and convex position
    edges = polygon_edge_functionals(gauge)
    verts = np.asarray(gauge.vertices)

    def unpack(v):
        return np.array([[v[0], v[1]], [v[1], v[2]]])

    def neg_logdet(v):
        S = unpack(v)
        det = S[0, 0] * S[1, 1] - S[0, 1] ** 2
        if det <= 1e-14 or S[0, 0] <= 0:
            return 1e6
        return -np.log(det)

    cons = [{"type": "ineq", "fun": (lambda v, e=e: 1.0 - float(e @ unpack(v) @ e))}
            for e in edges]
    rin = 1.0 / max(float(np.linalg.norm(e)) for e in edges)
    # second-moment start adapts to anisotropic bodies
    M2 = verts.T @ verts / len(verts)
    M2 = M2 / max(float(e @ M2 @ e) for e in edges)
    starts = [np.array([M2[0, 0], M2[0, 1], M2[1, 1]])]
    rng = np.random.default_rng(23)
    for k in range(8):
        s0 = 0.25 * rin ** 2 * (1.0 + 0.3 * rng.uniform(-1, 1)) if k else 0.5 * rin ** 2
        starts.append(np.array([s0, 0.0 if k < 4 else 0.1 * s0 * rng.uniform(-1, 1), s0]))
    best = None
    for start in starts:
        res = minimize(neg_logdet, start, method="SLSQP", constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-14})
        # keep any positive-definite candidate: SLSQP can stall its
        # linesearch at the optimum and report failure, and the John
        # inclusions are verified below anyway
        S = unpack(res.x)
        if S[0, 0] <= 0 or np.linalg.det(S) <= 1e-14:
            continue
        top = max(float(e @ S @ e) for e in edges)
        if top > 1.0:
            S = S / top
        val = np.linalg.det(S)
        if best is None or val > best[0]:
            best = (val, S)
    if best is None:
        raise DegenerateBody("inscribed ellipse search failed")
    S = best[1]
    Q = np.linalg.inv(S)
    # John inclusions: ellipse inside the body, body inside sqrt(2) * ellipse
    if max(float(e @ S @ e) for e in edges) > 1.0 + 1e-9:
        raise DegenerateBody("inscribed ellipse violates an edge constraint")
    if max(float(v @ Q @ v) for v in verts) > 2.0 + 1e-6:
        raise DegenerateBody("polygon escapes the sqrt(2)-scaled ellipse")
    return Q


# ---------------------------------------------------------------------------
# serialization


def set_to_json(A: ClosedSetSpec) -> str:
    from .norms import norm_to_json

    def pack(spec: ClosedSetSpec) -> dict:
        d = {"kind": spec.kind, "dim": spec.dim, "name": spec.name}
        if spec.center is not None:
            d["center"] = list(spec.center)
        if spec.radius is not None:
            d["radius"] = spec.radius
        if spec.gauge is not None:
            d["gauge"] = norm_to_json(spec.gauge)
        if spec.normal is not None:
            d["normal"] = list(spec.normal)
        if spec.offset is not None:
            d["offset"] = spec.offset
        if spec.points is not None:
            d["points"] = [list(p) for p in spec.points]
        if spec.facets is not None:
            d["facets"] = [[list(a), b] for a, b in spec.facets]
        if spec.base is not None:
            d["base"] = pack(spec.base)
        if spec.coords is not None:
            d["coords"] = list(spec.coords)
        return d

    return json.dumps(pack(A), sort_keys=True)


def set_from_json(text: str) -> ClosedSetSpec:
    from .norms import norm_from_json

    def unpack(d: dict) -> ClosedSetSpec:
        kind = d["kind"]
        if kind not in _SET_KINDS:
            raise ValueError(f"unknown set kind {kind!r}")
        gauge = norm_from_json(d["gauge"]) if "gauge" in d else None
        if kind == "ball":
            return make_ball(d["center"], d["radius"], gauge, d.get("name", ""))
        if kind == "ball_complement":
            return make_ball_complement(d["center"], d["radius"], gauge, d.get("name", ""))
        if kind == "halfspace":
            return make_halfspace(d["normal"], d["offset"], d.get("name", ""))
        if kind == "finite_points":
            return make_finite_points(d["points"], d.get("name", ""))
        if kind == "convex_polytope_complement":
            return make_polytope_complement([(a, b) for a, b in d["facets"]], d.get("name", ""))
        if kind == "cylinder_extension":
            return cylinder_extend(unpack(d["base"]), d["dim"], d["coords"], d.get("name", ""))
        raise ValueError(kind)

    return unpack(json.loads(text))
