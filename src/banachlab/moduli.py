"""Moduli of convexity and smoothness, supporting moduli, and curve calculus.

Each estimator works on all of its grid points at once and dispatches on
the norm kind, in this order:

1. An inner-product norm (euclid, the ellipse, weighted l2, in any dimension
   >= 2) takes every modulus from the Hilbert closed forms, rounded outward
   by the label (_outward).
2. Any other norm isometric to lp, 1 < p < inf (lp and its linear images,
   weighted lp among them, in any dimension >= 2) takes delta and rho from
   Hanner's forms (_hanner_delta, _hanner_rho).  Its supporting moduli have
   no known closed form and run the pair engine (_support_engine).
3. A norm whose unit sphere is a polygon (l1, the max norm, polygon norms)
   takes every modulus from its vertices alone, with no scan and no zoom:

   - delta: exactly 0 up to the longest edge, since a chord that fits on
     an edge has its midpoint on the sphere.  Above it, on a pair of sphere
     edges ||x + y|| is convex and the chords ||x - y|| >= eps cut out the
     complement of a convex set, so the best pair has x or y at a vertex,
     and the other point is the first chord crossing from that vertex
     along one of its two arcs.
   - rho: the objective is convex in each argument, so the supremum sits at
     vertex pairs.
   - supporting moduli: x at a vertex and y in the kernel of one of its
     extreme functionals.

Every norm kind meets one of the three, so delta and rho take no search
over a table.  The pair engine serves two planar quantities, and scans for
both the rows x of the count-point sphere table on the arc [0, turn) (_arc),
where turn is the least rotation known to map the unit ball onto itself: a
quarter turn on lp, a half turn on every other norm.  The rotation is an
isometry, so every pair of the whole circle has an equal pair over the arc.

- chord crossings (_crossing_max, the normal-cone defect gamma of hypo): for
  every row angle of the arc and every chord length, a bracketed root
  search finds where the chord crosses eps on the arc from x to -x (the
  chord does not decrease along it, by the monotonicity lemma of normed
  planes), and a zoom in the row angle polishes the best row of an objective
  at the crossings.
- supporting moduli (_support_engine): one root search of the support
  shift over every r and every quasiorthogonal pair (x, +-y) with x on the
  arc, then a zoom in the angle of x.

Both root searches, and Hanner's delta for p < 2, run on one routine,
_bracket_roots: ITP steps (regula falsi with a truncation and a projection
that keep it within bisection's count of evaluations plus a few) on the
active rows only, each row stopping where bisection would.  Each zoom
level starts its searches from brackets around the roots of the level
before.

Every value is on its label side: "over" for infima (delta, the lower
supporting modulus), "under" for suprema (rho, the upper one); off the
closed forms it comes from an evaluated pair.  Each grid point keeps its own
fixed array shapes, so its value does not depend on the rest of its grid.
A 1-d norm raises DimensionMismatch in every estimator, and so does a norm
of 3 or more dimensions that no closed form serves.  delta and rho take a
budget for the estimators' common signature, but no value of theirs
depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    DimensionMismatch,
    j1_batch,
    norm_batch,
    norm_eval,
    sphere_points,
    sphere_vertex_angles,
    subdifferential_extremes,
    unit_vector,
)


_PRESETS = {"low": 1024, "default": 4096, "high": 8192}


@dataclass(frozen=True)
class SearchBudget:
    """The angle count of the unit-sphere tables the estimators scan."""

    angles: int = 4096

    @staticmethod
    def preset(name):
        if name not in _PRESETS:
            raise ValueError(f"unknown budget preset {name!r}")
        return SearchBudget(angles=_PRESETS[name])


@dataclass
class ModulusCurve:
    """Sampled modulus curve. direction records the estimate side:
    "over" for infimum-type quantities, "under" for supremum-type."""

    args: np.ndarray
    values: np.ndarray
    direction: str
    label: str = ""

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.args[-1] + 1e-9):
            raise ValueError(f"argument outside curve grid [0, {self.args[-1]:g}]")
        xs = np.concatenate([[0.0], self.args])
        ys = np.concatenate([[0.0], self.values])
        out = np.interp(t, xs, ys)
        return float(out) if out.ndim == 0 else out

    @property
    def max_arg(self):
        return float(self.args[-1])


def hilbert_delta(eps):
    """1 - sqrt(1 - eps^2/4), taken without cancellation (_hilbert_shift)."""
    return _hilbert_shift(np.asarray(eps, dtype=float) / 2.0)


def hilbert_rho(tau):
    """sqrt(1 + tau^2) - 1 as tau^2 / (1 + sqrt(1 + tau^2)), which does not
    cancel."""
    tau = np.asarray(tau, dtype=float)
    return tau * tau / (1.0 + np.sqrt(1.0 + tau * tau))


# ---------------------------------------------------------------------------
# inner-product norms: the Hilbert moduli in closed form

_OUTWARD = 4.0 * np.finfo(float).eps  # the factored forms below err by under 2 eps relative


def _hilbert_shift(r):
    """1 - sqrt(1 - r^2) as r^2 / (1 + sqrt((1 - r)(1 + r))), which does not
    cancel: the support shift, and delta(2r).  r is clamped to the grids'
    end 1, which they may pass by rounding."""
    r = np.minimum(r, 1.0)
    return r * r / (1.0 + np.sqrt((1.0 - r) * (1.0 + r)))


def _refuse_a_line(n):
    """A 1-d norm has moduli of its own, which no branch here gives: the only
    pair at chord eps > 0 is y = -x, so delta = 1, rho(t) = max(0, t - 1),
    and no unit pair is quasiorthogonal."""
    if n.dim < 2:
        raise DimensionMismatch("the moduli are implemented for dimension 2 and up")


def _outward(v, side, top=np.inf):
    """v moved outward by _OUTWARD relative, up for "over" and down for
    "under", and clamped to the a priori bound top."""
    return np.minimum(v * (1.0 + _OUTWARD), top) if side == "over" else v * (1.0 - _OUTWARD)


# ---------------------------------------------------------------------------
# lp, 1 < p < inf: Hanner's delta (1956) and the rho that Lindenstrauss
# duality (1963) gives from it.  l_p^2 sits isometrically in l_p^n and in
# L_p, and delta and rho are monotone under subspaces, so these are the
# moduli of l_p^n in every dimension n >= 2.

_HANNER_ROUNDING = 16.0 * np.finfo(float).eps  # twice the error bounds argued below
_BRACKET_FLOOR = 1e-300  # a width no bracket reaches: the search stops at adjacent floats
_UNDERFLOW = 2.0 * np.finfo(float).smallest_subnormal


def _pow1p(x, p):
    """(1 + x)^p - 1 as expm1(p log1p(x)), which does not cancel at small x.
    log1p, the product and expm1 each err by an ulp or less relative, and
    expm1 magnifies the error of its argument z = p log1p(x) by at most
    1 + z, so the value errs by under 8 eps relative where z <= p log 2 and
    p < 2, and in general by under 3 eps (1 + |z|) relative."""
    with np.errstate(divide="ignore"):
        return np.expm1(p * np.log1p(x))


def _hanner_delta(h, p):
    """delta(2h) of lp, rounded up ("over"), for h in (0, 1].

    p > 2: 1 - (1 - h^p)^(1/p), as -expm1(L/p) with L = log(1 - h^p), taken
    as log1p(-h^p) where h^p < 1/2 and as log(-expm1(p log h)) above, so no
    step cancels; rounded up by _HANNER_ROUNDING, raised by the two
    subnormal ulps that h^p and L/p may lose to underflow (a no-op on
    normal values), and clamped to 1.

    p < 2: the root of (1 - delta + h)^p + |1 - delta - h|^p = 2, whose left
    side falls on [0, 1], solved for delta itself, since 1 - delta would
    cancel at small h.  The residual is the sum of two _pow1p terms A and B,
    and the kept end of each bracket has a sum below 0 by more than the
    rounding bound _HANNER_ROUNDING (|A| + |B|), so it lies over the root.
    The brackets run from 0 to the Hilbert value, which bounds delta from
    above (Nordlander); at h = 1 the kept end is 1.
    """
    h = np.minimum(h, 1.0)
    if p > 2.0:
        hp = h ** p
        with np.errstate(divide="ignore"):
            L = np.where(hp < 0.5, np.log1p(-hp), np.log(-np.expm1(p * np.log(h))))
        return np.minimum(-np.expm1(L / p) * (1.0 + _HANNER_ROUNDING) + _UNDERFLOW, 1.0)

    def residual(h, d):  # rises through 0 where d passes the root, by the rounding bound
        A = _pow1p(h - d, p)
        B = _pow1p(np.where(d + h <= 1.0, -(d + h), (d - 1.0) + (h - 1.0)), p)
        return -(A + B) - _HANNER_ROUNDING * (np.abs(A) + np.abs(B))

    top = _outward(_hilbert_shift(h), "over", 1.0)
    flat = h.ravel()
    return _bracket_roots(lambda i, d: residual(flat[i], d), h.shape, 0.0, top, residual(h, 0.0),
                          residual(h, top), _BRACKET_FLOOR, False)[1]


def _hanner_rho(tau, p):
    """rho(tau) of lp, rounded down ("under").

    p < 2: (1 + tau^p)^(1/p) - 1 as expm1(log1p(tau^p)/p), rounded down by
    _HANNER_ROUNDING.

    p > 2: (((1 + tau)^p + |1 - tau|^p) / 2)^(1/p) - 1 as expm1(log1p(m)/p),
    with m = (A + B)/2 from the _pow1p terms A = (1 + tau)^p - 1 and
    B = |1 - tau|^p - 1.  A and B cancel to first order in tau, so m errs by
    up to the terms' error times (|A| + |B|)/(A + B): the value is rounded
    down by _HANNER_ROUNDING (1 + (1 + p log1p(tau)) (|A| + |B|)/(A + B)).
    Where that bound reaches the value, A + B <= 0 among them (tau below
    about 1e-16), the value is 0, an "under" value since rho >= 0.
    """
    if p < 2.0:
        return np.expm1(np.log1p(tau ** p) / p) * (1.0 - _HANNER_ROUNDING)
    zA = p * np.log1p(tau)
    A = np.expm1(zA)
    B = _pow1p(np.where(tau <= 1.0, -tau, tau - 2.0), p)  # tau - 2 is exact on [1, 4]
    s = A + B
    spread = (1.0 + zA) * (np.abs(A) + np.abs(B)) / np.where(s > 0.0, s, 1.0)
    v = np.expm1(np.log1p(s / 2.0) / p) * (1.0 - _HANNER_ROUNDING * (1.0 + spread))
    return np.where(s > 0.0, np.maximum(v, 0.0), 0.0)


# ---------------------------------------------------------------------------
# the planar pair engine

# The steps set only the width at which a root search stops: where a
# bisection of that many halvings would, w0 2^-steps for a bracket w0 wide,
# or adjacent floats, whichever comes first.
_ROOT_STEPS = 60  # chord crossings on [a, a + pi]: adjacent floats
_SHIFT_STEPS = 80  # support shifts on [0, 1]: adjacent floats at lam ~ 1e-4
_RANK_STEPS = 50  # the pass that ranks the rows of a full scan; the zoom redoes the best
_ITP_SPARE = 4  # evaluations a row may spend beyond bisection's count (ITP's n0)
_ITP_TRUNCATION = 0.1  # a step leaves the regula falsi point by 0.1 w^2 toward the midpoint
_RESIDUAL_ULPS = 8  # rounding of a norm near 1, unit pairs included
_HALF_ULP = np.finfo(float).eps / 2.0  # rounding of a residual, a difference of norms near 1
_ZOOM = np.linspace(-1.0, 1.0, 33)  # zoom points across a window of half-width w
_ZOOM_LEVELS = 10  # each level shrinks the window 16-fold
_BLOCK = 4096  # the most rows a root search keeps active


def _arc(n, count):
    """The angles of the count-point sphere table that cover [0, turn), and
    their rows: the first ceil(count / m) of them, m = 2 pi / turn.  turn
    (n.ops.turn, pi or pi/2) is the least rotation known to map the unit
    ball onto itself.  It is an isometry, so it keeps the support shift,
    the chords and gamma's pairing, and the arc meets every pair of the
    whole circle up to that rotation."""
    rows = -(-count // round(2.0 * np.pi / n.ops.turn))
    return np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)[:rows], n.ops.sphere(count)[:rows]


def _columns(V):
    """The planar rows of V as a contiguous (2, rows) array, whose two
    coordinate columns gather and scale many times faster than the rows;
    norm_batch takes its transpose."""
    return np.ascontiguousarray(V.reshape(-1, 2).T)


def _bracket_roots(s, shape, lo, hi, slo, shi, width, strict, probes=()):
    """Close the brackets [lo, hi] of the rows of an array of the given shape
    on the roots of residuals that rise through 0, and return the final ends
    (lo, hi) of that shape.

    lo is "down" (s < 0, or s <= 0 when strict) and hi is "up", or an a
    priori end; slo and shi are their residuals, or estimates, which only
    steer the steps.  They and the probes broadcast to shape.  s(i, t) gives
    the residuals of the rows i (flat indices) at the points t.  probes,
    rising points per row, are evaluated first, and each row keeps the piece
    of its bracket between them that holds the root.

    The steps are those of ITP (Oliveira and Takahashi, ACM TOMS 2020): the
    regula falsi point, moved toward the midpoint by a truncation and
    projected into a ball around it that shrinks as bisection's bracket
    would.  So after the probes no row spends more than bisection's
    log2((hi - lo) / width) evaluations plus _ITP_SPARE, and a simple root
    closes superlinearly.  Each step lies at least width, and at least an
    ulp, inside both ends, and a residual of exactly 0 steers as half an ulp,
    so a root at an end closes the bracket at the next step.  A row leaves
    the active arrays once its bracket is width wide or its ends are
    adjacent floats, and the next rows fill its place: at most _BLOCK rows
    are active at once, which bounds the memory of a long scan.
    """
    up = np.greater if strict else np.greater_equal
    LO, HI = np.empty(shape), np.empty(shape)
    ends, size, taken = (lo, hi, slo, shi, *probes), LO.size, 0
    i, st = np.empty(0, dtype=int), np.empty((5, 0))
    while i.size or taken < size:
        if taken < size and i.size <= _BLOCK // 2:  # top the active rows up with the next ones
            rows = slice(taken, min(size, taken + _BLOCK - i.size))
            i = np.concatenate([i, np.arange(rows.start, rows.stop)])
            st = np.concatenate([st, _fresh_rows(s, shape, rows, ends, width, up)], axis=1)
            taken = rows.stop
        w = st[1] - st[0]
        mid = st[0] + 0.5 * w
        done = ~(w > width) | (mid <= st[0]) | (mid >= st[1])  # a nan bracket is done too
        if done.any():
            LO.reshape(-1)[i[done]], HI.reshape(-1)[i[done]] = st[0, done], st[1, done]
            keep = np.flatnonzero(~done)
            i, st, w, mid = i[keep], np.take(st, keep, axis=1), w[keep], mid[keep]
            if not i.size:
                continue
        _itp_step(s, i, st, _itp_point(st, w, mid, width), up)
    return LO, HI


def _fresh_rows(s, shape, rows, ends, width, up):
    """The state (lo, hi, slo, shi, cap) of _bracket_roots for the flat rows
    of shape in the slice rows; ends holds lo, hi, slo, shi and the probes.
    The probes of each row are evaluated, and the first of (lo, probes, hi)
    that is up closes the bracket; cap is ITP's eps 2^n_max."""
    lo, hi, slo, shi, *probes = (np.broadcast_to(v, shape).flat[rows] for v in ends)
    if probes:
        P = np.stack([lo, *(np.clip(p, lo, hi) for p in probes), hi])
        S = np.stack([slo, *s(np.tile(np.arange(rows.start, rows.stop), len(P) - 2),
                              P[1:-1].ravel()).reshape(-1, lo.size), shi])
        U = up(S, 0.0)
        U[0], U[-1] = False, True
        j, k = np.argmax(U, axis=0), np.arange(lo.size)
        lo, hi, slo, shi = P[j - 1, k], P[j, k], S[j - 1, k], S[j, k]
    cap = 0.5 * width * 2.0 ** (np.ceil(np.log2(np.maximum(hi - lo, width) / width)) + _ITP_SPARE)
    return np.stack([lo, hi, slo, shi, cap])


def _itp_step(s, i, st, x, up):
    """Evaluate the rows i at their points x and move the end of each
    bracket in st that x replaces."""
    sx = s(i, x)
    u = up(sx, 0.0)
    lo, hi, slo, shi, cap = st
    np.copyto(lo, x, where=~u)
    np.copyto(slo, sx, where=~u)
    np.copyto(hi, x, where=u)
    np.copyto(shi, sx, where=u)
    cap *= 0.5


def _itp_point(st, w, mid, width):
    """The next point of each row of the state st = (lo, hi, slo, shi, cap)
    of _bracket_roots, whose brackets are w wide around mid: the regula falsi
    point, where a residual of 0 counts as half an ulp, truncated toward mid
    by _ITP_TRUNCATION w^2, projected to within cap - w/2 of mid, and kept
    gap inside both ends."""
    lo, hi, slo, shi, cap = st
    s0, s1 = np.minimum(slo, -_HALF_ULP), np.maximum(shi, _HALF_ULP)
    d = mid - (lo + w * (s0 / (s0 - s1)))  # from the regula falsi point to mid
    gap = np.maximum(width, 2.0 * _HALF_ULP * hi)
    off = np.minimum(np.minimum(np.abs(d) - _ITP_TRUNCATION * w * w, cap - 0.5 * w), 0.5 * w - gap)
    return mid - np.copysign(np.maximum(off, 0.0), d)


def _warm(ends, k):
    """Brackets across each zoom window for the roots at its points, from
    the brackets ends (..., 2, rows, points) of the roots at the previous
    points k - 1, k and k + 1 of each row, whose angles are the new window's
    ends and centre: their hull, widened by half its width each way."""
    rows = np.arange(k.size)[:, None]
    near = ends[..., rows, np.clip(k[:, None] + np.arange(-1, 2), 0, ends.shape[-1] - 1)]
    lo, hi = near[..., 0, :, :].min(axis=-1), near[..., 1, :, :].max(axis=-1)
    pad = 0.5 * (hi - lo)
    return np.stack([lo - pad, hi + pad], axis=-2)[..., None]


def _zoom_max(f, best, centers, w, warm):
    """Raise best, one value per row, by zooming in an angle around centers,
    from half-width w.  f maps an array of angles (rows, Z) and warm brackets
    (see _warm) to values (rows, Z) and the brackets of the roots behind
    them, (..., 2, rows, Z); warm holds those of the first level."""
    rows = np.arange(best.size)
    for _ in range(_ZOOM_LEVELS):
        A = centers[:, None] + w * _ZOOM
        F, brackets = f(A, warm)
        k = np.argmax(F, axis=1)
        best, centers = np.maximum(best, F[rows, k]), A[rows, k]
        warm = _warm(brackets, k)
        w /= (_ZOOM.size - 1) / 2
    return best


# ---------------------------------------------------------------------------
# modulus of convexity


def _chord_crossing(n, X, A, eps, sense=1.0, steps=_ROOT_STEPS, warm=None):
    """The first y on the arc from x to -x, counterclockwise (sense 1) or
    clockwise (sense -1), where the chord ||x - y|| reaches eps, for unit
    rows X at angles A and a column of chord lengths eps; the mask of the
    rows where y = -x reaches it, outside which y is meaningless; and the
    bracket (lo, hi) of sense times the angle of y.

    By the monotonicity lemma of normed planes the chord does not decrease
    along either arc, so [a, a + pi] brackets the crossing in that
    coordinate, a = sense A, and _bracket_roots closes it, from the guess
    warm where one is given.  The kept end y, the unit vector at the angle
    sense hi (or -x), always has a computed chord of at least eps: a value
    at (x, y) is that of an evaluated feasible pair.
    """
    shape = np.broadcast_shapes(A.shape, eps.shape)
    rows, col = X.reshape(-1, 2), eps.ravel()  # X broadcasts along leading axes

    def s(i, t):
        return (norm_batch(n, np.take(rows, i % len(rows), axis=0) - sphere_points(n, sense * t))
                - np.take(col, i // shape[-1]))

    a = sense * A
    far = a + np.pi
    shi = norm_batch(n, X + X) - eps  # y = -x
    feasible = shi >= 0
    lo, hi = _bracket_roots(s, shape, np.where(feasible, a, far), far, -eps, shi,
                            np.pi * 2.0 ** -steps, False, () if warm is None else list(warm))
    Y = np.where((hi == far)[..., None], -X, sphere_points(n, sense * hi))
    return Y, feasible, lo, hi


def _crossing_max(n, f, eps, count):
    """Largest f(x, y) over the chord crossings (x, y) at each eps of a
    column, -inf where no pair reaches eps; f maps unit rows X and Y to
    values.

    The rows x are the arc of the count-point sphere table (_arc), each
    with its counterclockwise crossing.  Every row is ranked at once, and the
    best row of each eps is polished by a zoom in its angle, each level
    warm-started from the crossings of the last.
    """
    A, X = _arc(n, count)

    def best(X, A, warm=None, steps=_ROOT_STEPS):
        Y, feasible, lo, hi = _chord_crossing(n, X, A, eps, steps=steps, warm=warm)
        return np.where(feasible, f(X, Y), -np.inf), np.stack([lo, hi])

    F, ends = best(X, A, steps=_RANK_STEPS)
    k = np.argmax(F, axis=1)
    return _zoom_max(lambda Az, warm: best(sphere_points(n, Az), Az, warm), F[np.arange(F.shape[0]), k],
                     A[k], 2.0 * np.pi / count, _warm(ends, k))


def delta_estimate(n, eps_grid, budget=SearchBudget()):
    """Modulus of convexity on a grid of chord lengths in (0, 2].

    An inner-product norm takes the Hilbert closed form and any other lp
    norm Hanner's (see the module docstring).  On a polyhedral sphere with
    longest segment (edge) L, delta is exactly 0 for eps <= L, L rounded
    down by _RESIDUAL_ULPS ulps relative: a chord of that length fits on an
    edge, and its midpoint stays on the sphere.  Above L, for fixed x the
    best y under ||x - y|| >= eps is the chord crossing on either arc from x
    to -x, since ||x + y|| does not increase along it, so delta is
    1 - max ||x + y|| / 2 over the crossings of the vertices along both
    arcs, which is exact up to rounding.  Each such value comes from an
    evaluated pair with chord at least eps, so it is an "over" estimate.  At
    eps = 2 the value is the closed form 1 - L/2.  budget is unused (see the
    module docstring).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0) or np.any(eps_grid > 2 + 1e-12):
        raise ValueError("chord grid must lie in (0, 2]")
    _refuse_a_line(n)
    if n.ops.inner_product:
        return ModulusCurve(eps_grid.copy(), _outward(hilbert_delta(eps_grid), "over", 1.0), "over",
                            label=f"{n.name}:delta")
    if n.ops.lp_exponent is not None:
        return ModulusCurve(eps_grid.copy(), _hanner_delta(eps_grid / 2.0, n.ops.lp_exponent), "over",
                            label=f"{n.name}:delta")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of convexity is implemented for planar norms")
    vang = sphere_vertex_angles(n)
    segment = n.ops.longest_segment()
    top = 1.0 - segment / 2.0
    # a chord that fits on an edge has its midpoint on the sphere
    flat = eps_grid <= segment * (1.0 - _RESIDUAL_ULPS * np.finfo(float).eps)
    vals = np.where(flat, 0.0, top)
    inner = ~flat & (eps_grid < 2.0)
    eps = eps_grid[inner][:, None]
    if eps.size:
        V = sphere_points(n, vang)
        best = np.full(eps.shape[0], -np.inf)
        for sense in (1.0, -1.0):
            Y, feasible = _chord_crossing(n, V, vang, eps, sense)[:2]
            best = np.maximum(best, np.where(feasible, norm_batch(n, V + Y), -np.inf).max(axis=1))
        # delta is nondecreasing, so top = delta(2) bounds a chord no pair reached
        vals[inner] = np.where(np.isfinite(best), np.maximum(0.0, 1.0 - best / 2.0), top)
    return ModulusCurve(eps_grid.copy(), vals, "over", label=f"{n.name}:delta")


# ---------------------------------------------------------------------------
# modulus of smoothness


def _rho_objective(n, X, Y, tau):
    return (norm_batch(n, X + tau * Y) + norm_batch(n, X - tau * Y)) / 2.0 - 1.0


def rho_estimate(n, tau_grid, budget=SearchBudget()):
    """Modulus of smoothness on a grid of step sizes in (0, 2].

    An inner-product norm takes the Hilbert closed form and any other lp
    norm Hanner's (see the module docstring).  On a polyhedral sphere the
    objective is convex in each argument, so the supremum sits at vertex
    pairs, and the value is their largest: exact up to rounding, and taken
    at evaluated pairs, so it is an "under" estimate.  budget is unused
    (see the module docstring).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid <= 0) or np.any(tau_grid > 2 + 1e-12):
        raise ValueError("step grid must lie in (0, 2]")
    _refuse_a_line(n)
    if n.ops.inner_product:
        return ModulusCurve(tau_grid.copy(), _outward(hilbert_rho(tau_grid), "under"), "under",
                            label=f"{n.name}:rho")
    if n.ops.lp_exponent is not None:
        return ModulusCurve(tau_grid.copy(), _hanner_rho(tau_grid, n.ops.lp_exponent), "under",
                            label=f"{n.name}:rho")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of smoothness is implemented for planar norms")
    V = sphere_points(n, sphere_vertex_angles(n))
    vals = _rho_objective(n, V[:, None, :], V[None, :, :], tau_grid[:, None, None, None])
    return ModulusCurve(tau_grid.copy(), vals.max(axis=(1, 2)), "under", label=f"{n.name}:rho")


# ---------------------------------------------------------------------------
# supporting moduli

def _lambda_rows(n, X, Y, r, which, steps=_SHIFT_STEPS, warm=None):
    """Support shift of each pair of rows of X and Y at r (broadcast; X along
    leading axes only), rounded outward, and the brackets (2, ...) it closes.
    lam lies in [0, 1], where the residual ||x + r y - lam x|| - 1 falls from
    at least 0 to r - 1: _bracket_roots closes that bracket, from the residual
    at lam = 0, or from the warm brackets where they are given.  A residual
    within rounding of 0 counts as outside for "lower", which returns the
    upper end of the bracket, and as inside for "upper", which returns the
    lower end.  Near r = 1 the shift has infinite slope, so a residual that
    errs by an ulp would move it by about 1e-8."""
    shape = np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(r))[:-1]
    Xc, Bc = _columns(X), _columns(np.broadcast_to(X + r * Y, shape + (2,)))
    tol = _RESIDUAL_ULPS * np.finfo(float).eps
    lower = which == "lower"

    def s(i, t):  # rises through 0 where lam leaves the outside of the sphere
        D = np.take(Xc, i % Xc.shape[1], axis=1)
        D *= t
        g = norm_batch(n, np.subtract(np.take(Bc, i, axis=1), D, out=D).T) - 1.0
        return -g - tol if lower else tol - g

    # the residual is r - 1 at lam = 1; at 0 it is hilbert_rho(r) on the Euclidean plane
    r = np.reshape(r, np.shape(r)[:-1])
    bound = -tol if lower else tol
    lo, hi = _bracket_roots(s, shape, 0.0, 1.0, bound - hilbert_rho(r), bound + 1.0 - r,
                            2.0 ** -steps, lower, [0.0] if warm is None else list(warm))
    return (hi if lower else lo), np.stack([lo, hi])


def _quasiorth(n, X):
    """A unit y in the kernel of j1(x), for each row x of X."""
    P = j1_batch(n, X)
    K = np.stack([-P[..., 1], P[..., 0]], axis=-1)
    return K / norm_batch(n, K)[..., None]


def _quasiorth_table(n, angles):
    """Unit pairs (x, y) with y in the kernel of j1(x), for x on the arc
    (_arc) of the count-point sphere table and both signs of y, and the
    angles of x."""
    ang, S = _arc(n, angles)
    K = _quasiorth(n, S)
    return np.concatenate([S, S]), np.concatenate([K, -K]), np.concatenate([ang, ang])


def _vertex_pairs(n, angles):
    """Unit pairs (x, y) with x at each vertex angle of a polyhedral sphere
    and y either sign of the kernel of each extreme functional of x."""
    X, Y = [], []
    for a in angles:
        x = unit_vector(n, (math.cos(a), math.sin(a)))
        for e in subdifferential_extremes(n, x, tol=1e-9):
            k = np.array([-e[1], e[0]])
            k = k / norm_eval(n, k)
            X.extend([x, x])
            Y.extend([k, -k])
    return np.array(X), np.array(Y)


def _support_engine(n, r_grid, which, angles):
    """The supporting modulus of a planar norm from the pair engine: one
    root search (_lambda_rows) over every r and every pair of the
    quasiorthogonal table (_quasiorth_table), then a zoom of the best table
    pair of each r at once in the angle of x, with its partner rebuilt from
    j1, each level warm-started from the shifts of the last."""
    sign = 1.0 if which == "upper" else -1.0
    r = r_grid[:, None, None]
    X, Y, A = _quasiorth_table(n, angles)
    lam, ends = _lambda_rows(n, X, Y, r, which, _RANK_STEPS)
    lam *= sign
    k = np.argmax(lam, axis=1)
    branch = np.where(k < len(X) // 2, 1.0, -1.0)[:, None, None]

    def shifts(Az, warm):
        Xz = sphere_points(n, Az)
        lam, ends = _lambda_rows(n, Xz, branch * _quasiorth(n, Xz), r, which, warm=warm)
        return sign * lam, ends

    return sign * _zoom_max(shifts, lam[np.arange(r_grid.size), k], A[k], 2.0 * np.pi / angles, _warm(ends, k))


def supporting_modulus_estimate(n, r_grid, which, budget=SearchBudget()):
    """Envelope of support shifts over quasiorthogonal unit pairs.

    which = "lower" takes the infimum (direction "over"), "upper" the
    supremum (direction "under").  An inner-product norm takes the closed
    form 1 - sqrt(1 - r^2) (see the module docstring).  A polyhedral sphere
    takes one root search (_lambda_rows) over its vertex pairs
    (_vertex_pairs) at every r.  Any other planar norm runs the pair engine
    (_support_engine).  Each shift is rounded outward by the label.
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(r_grid > 1 + 1e-12):
        raise ValueError("r grid must lie in (0, 1]")
    direction = "under" if which == "upper" else "over"
    label = f"{n.name}:support_{which}"
    _refuse_a_line(n)
    if n.ops.inner_product:
        return ModulusCurve(r_grid.copy(), _outward(_hilbert_shift(r_grid), direction, np.minimum(r_grid, 1.0)), direction,
                            label=label)
    if n.dim != 2:
        raise DimensionMismatch("supporting moduli are implemented for planar norms")
    vang = sphere_vertex_angles(n)
    if vang.size:
        sign = 1.0 if which == "upper" else -1.0
        X, Y = _vertex_pairs(n, vang)
        vals = sign * (sign * _lambda_rows(n, X, Y, r_grid[:, None, None], which)[0]).max(axis=1)
    else:
        vals = _support_engine(n, r_grid, which, budget.angles)
    return ModulusCurve(r_grid.copy(), vals, direction, label=label)


# ---------------------------------------------------------------------------
# curve calculus

def doubling_ratio(rho_curve):
    """(min, max) of curve(2t)/curve(t) over the smallest covered decade.

    Prefers grid points whose doubles are also grid points: between knots
    the piecewise-linear chord overestimates a convex curve, which would
    bias the ratio upward.
    """
    t0 = float(rho_curve.args[0])
    t_hi = min(10.0 * t0, rho_curve.max_arg / 2.0)
    ts = rho_curve.args[(rho_curve.args >= t0) & (rho_curve.args <= t_hi)]
    if ts.size == 0:
        raise ValueError("curve grid too short for a doubling estimate")
    knots = np.asarray(rho_curve.args, dtype=float)
    exact = np.array([np.min(np.abs(knots - 2.0 * t)) <= 1e-9 * max(1.0, 2.0 * t)
                      for t in ts])
    if exact.any():
        ts = ts[exact]
    ratios = []
    for t in ts:
        a = rho_curve.eval(float(t))
        b = rho_curve.eval(2.0 * float(t))
        if a <= 0:
            ratios.append(np.inf if b > 0 else 1.0)
        else:
            ratios.append(b / a)
    return float(np.min(ratios)), float(np.max(ratios))
