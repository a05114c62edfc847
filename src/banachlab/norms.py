"""Norms on R^d given by finite data: lp, weighted lp, symmetric polygons, ellipses.

Evaluation, dual norms, the normalized duality mapping, Birkhoff-James
orthogonality and support points. Specs are frozen dataclasses, so derived
tables (polygon edge functionals, ellipse factorizations) are cached per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar


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


def lp_norm(p, dim=2, name=""):
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"lp exponent must be >= 1, got {p}")
    if dim < 1:
        raise ValueError("dim must be positive")
    return NormSpec(kind="lp", dim=int(dim), p=p, name=name or f"lp{p:g}")


def weighted_lp_norm(p, weights, name=""):
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"lp exponent must be >= 1, got {p}")
    w = tuple(float(v) for v in weights)
    if any(v <= 0 for v in w):
        raise ValueError("weights must be positive")
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
        if not any(np.allclose(v, u, atol=1e-12) for u in keep):
            keep.append(v)
    V = np.array(keep)
    if V.shape[0] % 2 != 0:
        raise NotSymmetric("odd vertex count cannot be centrally symmetric")
    for v in V:
        if not any(np.allclose(-v, u, atol=1e-9) for u in V):
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
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise NotSymmetric("ellipse matrix must be symmetric")
    evals = np.linalg.eigvalsh(Q)
    if evals[0] <= 1e-14:
        raise DegenerateBody("ellipse matrix must be positive definite")
    mat = tuple(tuple(float(v) for v in row) for row in Q)
    return NormSpec(kind="ellipse", dim=2, matrix=mat, name=name or "ellipse")


# ---------------------------------------------------------------------------
# derived tables, cached per spec (NormSpec is hashable)

_POLY_CACHE: dict = {}
_ELLIPSE_CACHE: dict = {}


def polygon_vertices(n):
    return _poly_tables(n)[0]


def polygon_edge_functionals(n):
    """Row i supports the edge from vertex i to vertex i+1 at level 1."""
    return _poly_tables(n)[1]


def _poly_tables(n):
    tab = _POLY_CACHE.get(n)
    if tab is None:
        V = np.array(n.vertices, dtype=float)
        m = V.shape[0]
        E = np.empty((m, 2))
        for i in range(m):
            A = np.stack([V[i], V[(i + 1) % m]])
            E[i] = np.linalg.solve(A, np.ones(2))
        tab = (V, E)
        _POLY_CACHE[n] = tab
    return tab


def _ellipse_tables(n):
    tab = _ELLIPSE_CACHE.get(n)
    if tab is None:
        Q = np.array(n.matrix, dtype=float)
        tab = (Q, np.linalg.inv(Q))
        _ELLIPSE_CACHE[n] = tab
    return tab


# ---------------------------------------------------------------------------
# evaluation

def as_vec(x, dim):
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {v.shape[0]}")
    return v


def _lp_reduce(absx, p, axis):
    # scale by the max to keep powers in range for large p
    m = np.max(absx, axis=axis)
    scaled = absx / np.expand_dims(np.where(m > 0, m, 1.0), axis)
    s = np.sum(scaled ** p, axis=axis) ** (1.0 / p)
    return m * s


def norm_batch(n, X):
    """Norm of every row of X, shape (..., dim)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != n.dim:
        raise DimensionMismatch(f"expected dim {n.dim}, got {X.shape[-1]}")
    if n.kind == "lp":
        a = np.abs(X)
        if math.isinf(n.p):
            return np.max(a, axis=-1)
        if n.p == 1.0:
            return np.sum(a, axis=-1)
        if n.p == 2.0:
            return np.sqrt(np.sum(X * X, axis=-1))
        return _lp_reduce(a, n.p, -1)
    if n.kind == "weighted_lp":
        w = np.array(n.weights)
        if math.isinf(n.p):
            return np.max(w * np.abs(X), axis=-1)
        a = w ** (1.0 / n.p) * np.abs(X)
        if n.p == 1.0:
            return np.sum(w * np.abs(X), axis=-1)
        return _lp_reduce(a, n.p, -1)
    if n.kind == "polygon":
        E = polygon_edge_functionals(n)
        return np.max(X @ E.T, axis=-1)
    if n.kind == "ellipse":
        Q = _ellipse_tables(n)[0]
        return np.sqrt(np.einsum("...i,ij,...j->...", X, Q, X))
    raise ValueError(f"unknown norm kind {n.kind!r}")


def norm_eval(n, x):
    return float(norm_batch(n, as_vec(x, n.dim)))


def pairing(p, x):
    """Duality pairing <p, x> in coordinates."""
    return float(np.dot(np.asarray(p, float).reshape(-1),
                        np.asarray(x, float).reshape(-1)))


def dual_norm_batch(n, P):
    P = np.asarray(P, dtype=float)
    if P.shape[-1] != n.dim:
        raise DimensionMismatch(f"expected dim {n.dim}, got {P.shape[-1]}")
    if n.kind == "lp":
        if math.isinf(n.p):
            return np.sum(np.abs(P), axis=-1)
        if n.p == 1.0:
            return np.max(np.abs(P), axis=-1)
        q = n.p / (n.p - 1.0)
        if n.p == 2.0:
            return np.sqrt(np.sum(P * P, axis=-1))
        return _lp_reduce(np.abs(P), q, -1)
    if n.kind == "weighted_lp":
        w = np.array(n.weights)
        if math.isinf(n.p):
            return np.sum(np.abs(P) / w, axis=-1)
        if n.p == 1.0:
            return np.max(np.abs(P) / w, axis=-1)
        q = n.p / (n.p - 1.0)
        a = w ** (-1.0 / n.p) * np.abs(P)
        return _lp_reduce(a, q, -1)
    if n.kind == "polygon":
        V = polygon_vertices(n)
        return np.max(np.abs(P @ V.T), axis=-1)
    if n.kind == "ellipse":
        Qi = _ellipse_tables(n)[1]
        return np.sqrt(np.einsum("...i,ij,...j->...", P, Qi, P))
    raise ValueError(f"unknown norm kind {n.kind!r}")


def dual_norm_eval(n, p):
    return float(dual_norm_batch(n, as_vec(p, n.dim)))


def unit_vector(n, d):
    d = as_vec(d, n.dim)
    nd = norm_eval(n, d)
    if nd <= 0:
        raise ZeroVector("cannot normalize the zero vector")
    return d / nd


def sphere_points(n, count_or_angles):
    """Points on the unit sphere of a planar norm.

    Accepts either a point count (uniform angle grid) or an explicit array
    of angles.
    """
    if n.dim != 2:
        raise DimensionMismatch("sphere_points is for planar norms")
    if np.isscalar(count_or_angles):
        ang = np.linspace(0.0, 2.0 * np.pi, int(count_or_angles), endpoint=False)
    else:
        ang = np.asarray(count_or_angles, dtype=float).reshape(-1)
    D = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return D / norm_batch(n, D)[:, None]


def sphere_vertex_angles(n):
    """Angles of the unit sphere's vertices for polyhedral planar norms."""
    if n.dim != 2:
        return np.empty(0)
    if n.kind == "polygon":
        V = polygon_vertices(n)
        return np.arctan2(V[:, 1], V[:, 0])
    if n.kind == "lp" and n.p == 1.0:
        return np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])
    if n.kind == "lp" and math.isinf(n.p):
        return np.array([np.pi / 4, 3 * np.pi / 4, -3 * np.pi / 4, -np.pi / 4])
    if n.kind == "weighted_lp" and n.p == 1.0:
        return np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])
    if n.kind == "weighted_lp" and math.isinf(n.p):
        w = n.weights
        corners = np.array([[1 / w[0], 1 / w[1]], [-1 / w[0], 1 / w[1]],
                            [-1 / w[0], -1 / w[1]], [1 / w[0], -1 / w[1]]])
        return np.arctan2(corners[:, 1], corners[:, 0])
    return np.empty(0)


# ---------------------------------------------------------------------------
# duality mapping

@dataclass
class MultiValued:
    """Extreme points of a multivalued duality mapping image."""

    extremes: list


def _fd_gradient(n, x, h=1e-6):
    x = as_vec(x, n.dim)
    step = h * norm_eval(n, x)
    g = np.empty(n.dim)
    for i in range(n.dim):
        e = np.zeros(n.dim)
        e[i] = step
        g[i] = (norm_eval(n, x + e) - norm_eval(n, x - e)) / (2.0 * step)
    return g


def _fd_dual_unit(n, x):
    g = _fd_gradient(n, x)
    dn = dual_norm_eval(n, g)
    if dn <= 0:
        raise ZeroVector("degenerate gradient")
    return g / dn


def j1_batch(n, X, h=1e-6):
    """Duality mapping for rows of X by central differences, one row each.

    No multivaluedness handling: intended for scan tables over generic sphere
    points. Rows are normalized to exact dual norm one.
    """
    X = np.asarray(X, dtype=float)
    norms = norm_batch(n, X)
    G = np.empty_like(X)
    for i in range(X.shape[-1]):
        E = np.zeros(X.shape[-1])
        E[i] = 1.0
        step = (h * norms)[..., None] * E
        G[..., i] = (norm_batch(n, X + step) - norm_batch(n, X - step)) / (2.0 * h * norms)
    return G / dual_norm_batch(n, G)[..., None]


def subdifferential_extremes(n, x, tol=1e-6):
    """Extreme functionals of the norm's subdifferential at x (dual norm one).

    Smooth kinds give a single element. Polyhedral kinds (lp with p in {1, inf},
    their weighted variants, polygons) enumerate the active structure.
    """
    x = as_vec(x, n.dim)
    nx = norm_eval(n, x)
    if nx <= 0:
        raise ZeroVector("duality mapping undefined at 0")
    if n.kind == "ellipse":
        Q = _ellipse_tables(n)[0]
        return [Q @ x / nx]
    if n.kind in ("lp", "weighted_lp"):
        w = np.array(n.weights) if n.kind == "weighted_lp" else np.ones(n.dim)
        if n.p == 1.0:
            free = np.abs(x) <= tol * nx
            if not free.any():
                return [w * np.sign(x)]
            idx = np.where(free)[0]
            if len(idx) > 4:
                idx = idx[:4]
            out = []
            base = w * np.sign(x)
            for mask in range(2 ** len(idx)):
                p = base.copy()
                for k, i in enumerate(idx):
                    p[i] = w[i] if (mask >> k) & 1 else -w[i]
                out.append(p)
            return out
        if math.isinf(n.p):
            vals = w * np.abs(x)
            active = np.where(vals >= vals.max() * (1 - tol))[0]
            out = []
            for i in active:
                p = np.zeros(n.dim)
                p[i] = w[i] * np.sign(x[i])
                out.append(p)
            return out
        return [_fd_dual_unit(n, x)]
    if n.kind == "polygon":
        E = polygon_edge_functionals(n)
        vals = E @ x
        active = np.where(vals >= nx * (1 - tol))[0]
        return [E[i].copy() for i in active]
    raise ValueError(f"unknown norm kind {n.kind!r}")


def duality_map(n, x, tol=1e-6):
    """Normalized duality mapping. Returns a vector, or MultiValued with the
    extreme functionals when the norm is not differentiable at x."""
    ext = subdifferential_extremes(n, x, tol=tol)
    if len(ext) == 1:
        return ext[0]
    return MultiValued(extremes=ext)


_PROBE_CACHE: dict = {}


def smoothness_probe(n, x, step=1e-6, threshold=1e-4):
    """Heuristic flatness test: one-sided directional derivatives along eight
    fixed pseudo-random directions. True when they all agree within threshold.

    Kept as a diagnostic; duality_map decides multivaluedness from the active
    structure instead, since this probe also fires at smooth points of very
    high curvature (lp with p < 2 near the axes).
    """
    x = as_vec(x, n.dim)
    dirs = _PROBE_CACHE.get(n.dim)
    if dirs is None:
        rng = np.random.default_rng(2718281 + n.dim)
        dirs = rng.normal(size=(8, n.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        _PROBE_CACHE[n.dim] = dirs
    nx = norm_eval(n, x)
    t = step * nx
    for u in dirs:
        d_plus = (norm_eval(n, x + t * u) - nx) / t
        d_minus = (nx - norm_eval(n, x - t * u)) / t
        if abs(d_plus - d_minus) > threshold:
            return False
    return True


# ---------------------------------------------------------------------------
# orthogonality and support

def birkhoff_orthogonal(n, y, x, tol=1e-9):
    """True when x is Birkhoff-James orthogonal to y: no multiple of y
    shortens x.  tol is relative to |x|, so the answer does not change when
    x or y is scaled."""
    x = as_vec(x, n.dim)
    y = as_vec(y, n.dim)
    nx = norm_eval(n, x)
    ny = norm_eval(n, y)
    if nx == 0.0:
        return True
    if ny == 0.0:
        return True
    bound = 2.0 * nx / ny
    res = minimize_scalar(lambda t: norm_eval(n, x + t * y),
                          bounds=(-bound, bound), method="bounded",
                          options={"xatol": 1e-12})
    return res.fun >= nx * (1.0 - tol)


def support_point(n, p, angles=4096, starts=64, iters=200, seed=0):
    """A unit vector u maximizing <p, u>, i.e. where p supports the ball.

    Planar norms use an angle grid plus local refinement; higher dimensions
    run a deterministic multistart simplex search.
    """
    p = as_vec(p, n.dim)
    if n.dim == 2:
        S = sphere_points(n, angles)
        vals = S @ p
        k = int(np.argmax(vals))
        a0 = 2.0 * np.pi * k / angles
        h = 2.0 * np.pi / angles

        def neg(a):
            d = np.array([np.cos(a), np.sin(a)])
            u = d / norm_eval(n, d)
            return -float(u @ p)

        res = minimize_scalar(neg, bounds=(a0 - h, a0 + h), method="bounded",
                              options={"xatol": 1e-14})
        a = res.x if -res.fun >= vals[k] else a0
        d = np.array([np.cos(a), np.sin(a)])
        return d / norm_eval(n, d)
    rng = np.random.default_rng(seed)
    best, best_val = None, -np.inf
    for _ in range(starts):
        u0 = rng.normal(size=n.dim)
        u0 /= np.linalg.norm(u0)

        def neg(u):
            nu = norm_batch(n, u)
            if nu <= 0:
                return 0.0
            return -float(np.dot(p, u)) / float(nu)

        res = minimize(neg, u0, method="Nelder-Mead",
                       options={"maxiter": iters, "xatol": 1e-12, "fatol": 1e-14})
        if -res.fun > best_val:
            best_val, best = -res.fun, res.x
    return best / norm_eval(n, best)


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
    kind = d["kind"]
    name = d.get("name", "")
    if kind == "lp":
        p = math.inf if d["p"] == "inf" else float(d["p"])
        return lp_norm(p, dim=d.get("dim", 2), name=name)
    if kind == "weighted_lp":
        p = math.inf if d["p"] == "inf" else float(d["p"])
        return weighted_lp_norm(p, d["weights"], name=name)
    if kind == "polygon":
        return polygon_norm(d["vertices"], name=name)
    if kind == "ellipse":
        return ellipse_norm(d["matrix"], name=name)
    raise ValueError(f"unknown norm kind {kind!r}")
