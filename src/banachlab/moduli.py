"""Moduli of convexity and smoothness, supporting moduli, and curve calculus.

The estimators are planar, and each works on all of its grid points at once:

- chord crossings (delta, and the normal-cone defect gamma of hypo): for
  every row angle of the half circle and every chord length, bisection finds
  where the chord crosses eps on the arc from x to -x (the chord does not
  decrease along it, by the monotonicity lemma of normed planes), and a zoom
  in the row angle polishes the best row of an objective at the crossings.
  delta maximizes ||x + y||; at eps = 2 it is the closed form 1 - L/2, L the
  longest segment in the sphere.
- rho: a scan of the pairs of the half circle for each step size, then a
  zoom in both angles; polyhedral spheres take the exact vertex pairs.
- supporting moduli: one bisection of the support shift over every r and
  every quasiorthogonal pair of a table, then a zoom in the angle of x.

Every value comes from an evaluated pair on its label side: "over" for
infima (delta, the lower supporting modulus), "under" for suprema (rho, the
upper one).  Each grid point keeps its own fixed array shapes, so its value
does not depend on the rest of its grid.  Other dimensions raise
DimensionMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import (
    DimensionMismatch,
    as_vec,
    j1_batch,
    norm_batch,
    norm_eval,
    pairing_interval,
    sphere_vertex_angles,
    subdifferential_extremes,
    unit_vector,
)


class NotUnitVectors(ValueError):
    pass


class NotQuasiorthogonal(ValueError):
    pass


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
    eps = np.asarray(eps, dtype=float)
    return 1.0 - np.sqrt(1.0 - eps * eps / 4.0)


def hilbert_rho(tau):
    tau = np.asarray(tau, dtype=float)
    return np.sqrt(1.0 + tau * tau) - 1.0


# ---------------------------------------------------------------------------
# the planar pair engine

_ROOT_STEPS = 60  # halvings of a bracket of width <= pi: down to adjacent floats
_SHIFT_STEPS = 80  # halvings of [0, 1]: down to adjacent floats at lam ~ 1e-4
_RANK_STEPS = 50  # halvings that rank the rows of a full scan; the zoom redoes the best
_RESIDUAL_ULPS = 8  # rounding of a norm near 1, unit pairs included
_ZOOM = np.linspace(-1.0, 1.0, 33)  # zoom points across a window of half-width w
_ZOOM_LEVELS = 10  # each level shrinks the window 16-fold


def _ring(n, A):
    """Unit vectors at the angles A, of any shape."""
    D = np.stack([np.cos(A), np.sin(A)], axis=-1)
    return D / norm_batch(n, D)[..., None]


def _half_circle(n, count):
    """Angles in [0, pi) of the count-point sphere table and its rows."""
    half = count // 2
    return np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)[:half], n.ops.sphere(count)[:half]


def _zoom_max(f, best, centers, w):
    """Raise best, one value per row, by zooming in an angle around centers,
    from half-width w; f maps an array of angles (rows, Z) to values."""
    rows = np.arange(best.size)
    for _ in range(_ZOOM_LEVELS):
        A = centers[:, None] + w * _ZOOM
        F = f(A)
        k = np.argmax(F, axis=1)
        best, centers = np.maximum(best, F[rows, k]), A[rows, k]
        w /= (_ZOOM.size - 1) / 2
    return best


# ---------------------------------------------------------------------------
# modulus of convexity


def _chord_crossing(n, X, A, eps, strict, steps=_ROOT_STEPS):
    """The first y on the arc from x to -x (counterclockwise) where the chord
    ||x - y|| reaches eps, or passes it when strict, for unit rows X at angles
    A; and the mask of the rows where y = -x reaches it, outside which y is
    meaningless.

    By the monotonicity lemma of normed planes the chord does not decrease
    along that arc, so bisection brackets the crossing.  The kept end y always
    has a computed chord of at least eps: a value at (x, y) is that of an
    evaluated feasible pair.
    """
    lo, hi, Yhi = A, A + np.pi, -X
    feasible = norm_batch(n, X - Yhi) >= eps
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        Y = _ring(n, mid)
        c = norm_batch(n, X - Y)
        up = c > eps if strict else c >= eps
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        Yhi = np.where(up[..., None], Y, Yhi)
    return Yhi, feasible


def _crossing_max(n, f, eps, count):
    """Largest f(x, y) over the chord crossings (x, y) at each eps of a
    column, -inf where no pair reaches eps; f maps unit rows X and Y to
    values.

    The rows x are the half circle of the count-point sphere table, plus the
    vertices of a polyhedral sphere, whose flat chord pieces also give their
    far end.  Every row is ranked at once, and the best row of each eps is
    polished by a zoom in its angle.
    """
    A, X = _half_circle(n, count)
    vang = np.unique(np.mod(sphere_vertex_angles(n), np.pi))
    if vang.size:
        A, X = np.concatenate([A, vang]), np.concatenate([X, _ring(n, vang)])
    strictness = (False, True) if vang.size else (False,)

    def best(X, A, steps=_ROOT_STEPS):
        vals = []
        for s in strictness:
            Y, feasible = _chord_crossing(n, X, A, eps, s, steps)
            vals.append(np.where(feasible, f(X, Y), -np.inf))
        return np.max(vals, axis=0)

    F = best(X, A, _RANK_STEPS)
    k = np.argmax(F, axis=1)
    return _zoom_max(lambda Az: best(_ring(n, Az), Az), F[np.arange(F.shape[0]), k], A[k],
                     2.0 * np.pi / count)


def delta_estimate(n, eps_grid, budget=SearchBudget()):
    """Modulus of convexity on a grid of chord lengths in (0, 2].

    For fixed x the best y under ||x - y|| >= eps is the chord crossing on
    the arc from x to -x, since ||x + y|| does not increase along it, so
    delta is 1 - max ||x + y|| / 2 over the crossings (_crossing_max).  Each
    value comes from an evaluated pair with chord at least eps, so it is an
    "over" estimate.  At eps = 2 the value is the closed form 1 - L/2, with
    L the longest segment in the unit sphere.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0) or np.any(eps_grid > 2 + 1e-12):
        raise ValueError("chord grid must lie in (0, 2]")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of convexity is implemented for planar norms")
    top = 1.0 - n.ops.longest_segment() / 2.0
    vals = np.full(eps_grid.shape, top)
    inner = eps_grid < 2.0
    eps = eps_grid[inner][:, None]
    if eps.size:
        best = _crossing_max(n, lambda X, Y: norm_batch(n, X + Y), eps, budget.angles)
        # delta is nondecreasing, so top = delta(2) bounds a chord no pair reached
        vals[inner] = np.where(np.isfinite(best), np.maximum(0.0, 1.0 - best / 2.0), top)
    return ModulusCurve(eps_grid.copy(), vals, "over", label=f"{n.name}:delta")


# ---------------------------------------------------------------------------
# modulus of smoothness


def _rho_objective(n, X, Y, tau):
    return (norm_batch(n, X + tau * Y) + norm_batch(n, X - tau * Y)) / 2.0 - 1.0


def rho_estimate(n, tau_grid, budget=SearchBudget()):
    """Modulus of smoothness on a grid of step sizes in (0, 2].

    The value is a sampled supremum over evaluated unit pairs, so it is an
    "under" estimate.  Polyhedral spheres: the objective is convex in each
    argument, so the supremum sits at vertex pairs and is exact.  Otherwise
    each tau scans the pairs of the half circle (the objective is invariant
    under y -> -y and (x, y) -> (-x, -y)), and the best pair of every tau is
    polished at once by a zoom in both angles.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid <= 0) or np.any(tau_grid > 2 + 1e-12):
        raise ValueError("step grid must lie in (0, 2]")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of smoothness is implemented for planar norms")
    vang = sphere_vertex_angles(n)
    if vang.size:
        V = _ring(n, vang)
        vals = [float(_rho_objective(n, V[:, None, :], V[None, :, :], tau).max())
                for tau in tau_grid]
        return ModulusCurve(tau_grid.copy(), np.array(vals), "under", label=f"{n.name}:rho")
    N = min(budget.angles, 1024) // 4
    A, S = _half_circle(n, N)
    best, c1, c2 = [], [], []
    for tau in tau_grid:
        F = _rho_objective(n, S[:, None, :], S[None, :, :], tau)
        i, j = np.unravel_index(np.argmax(F), F.shape)
        best.append(F[i, j])
        c1.append(A[i])
        c2.append(A[j])
    best, c1, c2 = np.array(best), np.array(c1), np.array(c2)
    rows, Z, w = np.arange(tau_grid.size), _ZOOM.size, 2.0 * np.pi / N
    for _ in range(_ZOOM_LEVELS):
        a1, a2 = c1[:, None] + w * _ZOOM, c2[:, None] + w * _ZOOM
        F = _rho_objective(n, _ring(n, a1)[:, :, None, :], _ring(n, a2)[:, None, :, :],
                           tau_grid[:, None, None, None]).reshape(-1, Z * Z)
        k = np.argmax(F, axis=1)
        best, c1, c2 = np.maximum(best, F[rows, k]), a1[rows, k // Z], a2[rows, k % Z]
        w /= (Z - 1) / 2
    return ModulusCurve(tau_grid.copy(), best, "under", label=f"{n.name}:rho")


# ---------------------------------------------------------------------------
# supporting moduli

def support_shift(n, x, y, r):
    """Sphere crossing shift for a unit pair with y quasiorthogonal to x:
    the least lam with ||x + r y - lam x|| = 1, rounded up."""
    x = as_vec(x, n.dim)
    y = as_vec(y, n.dim)
    if abs(norm_eval(n, x) - 1.0) > 1e-8 or abs(norm_eval(n, y) - 1.0) > 1e-8:
        raise NotUnitVectors("x and y must lie on the unit sphere")
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    lo, hi = pairing_interval(n, x, y)
    if lo > 1e-8 or hi < -1e-8:
        raise NotQuasiorthogonal("no support functional of x annihilates y")
    return float(_lambda_rows(n, x[None], y[None], r, "lower")[0])


def _lambda_rows(n, X, Y, r, which, steps=_SHIFT_STEPS):
    """Support shift of each pair of rows of X and Y at r (broadcast), by
    bisection rounded outward.  A residual within rounding of 0 counts as
    outside for "lower", which returns the upper end of the bracket, and as
    inside for "upper", which returns the lower end.  Near r = 1 the shift
    has infinite slope, so a residual that errs by an ulp would move it by
    about 1e-8."""
    base = X + r * Y
    lo = np.zeros(base.shape[:-1])
    hi = np.ones(base.shape[:-1])
    tol = _RESIDUAL_ULPS * np.finfo(float).eps
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        g = norm_batch(n, base - mid[..., None] * X) - 1.0
        out = g >= -tol if which == "lower" else g > tol
        lo, hi = np.where(out, mid, lo), np.where(out, hi, mid)
    return hi if which == "lower" else lo


def _quasiorth(n, X):
    """A unit y in the kernel of j1(x), for each row x of X."""
    P = j1_batch(n, X)
    K = np.stack([-P[..., 1], P[..., 0]], axis=-1)
    return K / norm_batch(n, K)[..., None]


def _quasiorth_table(n, angles):
    """Unit pairs (x, y) with y in the kernel of a support functional of x."""
    S = n.ops.sphere(angles)
    K = _quasiorth(n, S)
    ang = 2 * np.pi * np.arange(angles) / angles
    X = np.concatenate([S, S])
    Y = np.concatenate([K, -K])
    A = np.concatenate([ang, ang])
    refinable = np.ones(X.shape[0], dtype=bool)
    extra_x, extra_y = [], []
    for a in sphere_vertex_angles(n):
        x = unit_vector(n, (math.cos(a), math.sin(a)))
        for e in subdifferential_extremes(n, x, tol=1e-9):
            k = np.array([-e[1], e[0]])
            k = k / norm_eval(n, k)
            extra_x.extend([x, x])
            extra_y.extend([k, -k])
    if extra_x:
        X = np.concatenate([X, np.array(extra_x)])
        Y = np.concatenate([Y, np.array(extra_y)])
        A = np.concatenate([A, np.full(len(extra_x), np.nan)])
        refinable = np.concatenate([refinable, np.zeros(len(extra_x), dtype=bool)])
    return X, Y, A, refinable


def supporting_modulus_estimate(n, r_grid, which, budget=SearchBudget()):
    """Envelope of support shifts over quasiorthogonal unit pairs.

    which = "lower" takes the infimum (direction "over"), "upper" the
    supremum (direction "under").  One bisection covers every r and every
    pair of the table; the best table pair of each r is then polished at
    once by a zoom in the angle of x, with its partner rebuilt from j1.
    Each shift is rounded outward by the label.
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    if n.dim != 2:
        raise DimensionMismatch("supporting moduli are implemented for planar norms")
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(r_grid > 1 + 1e-12):
        raise ValueError("r grid must lie in (0, 1]")
    X, Y, A, refinable = _quasiorth_table(n, budget.angles)
    sign = 1.0 if which == "upper" else -1.0
    r = r_grid[:, None, None]
    lam = sign * _lambda_rows(n, X, Y, r, which, _RANK_STEPS)
    if not refinable.all():  # no zoom redoes these rows
        lam[:, ~refinable] = sign * _lambda_rows(n, X[~refinable], Y[~refinable], r, which)
    k = np.argmax(lam, axis=1)
    best, polish = lam[np.arange(r_grid.size), k], refinable[k]
    branch = np.where(k < budget.angles, 1.0, -1.0)[:, None, None]

    def shifts(Az):
        Xz = _ring(n, Az)
        return sign * _lambda_rows(n, Xz, branch * _quasiorth(n, Xz), r, which)

    zoomed = _zoom_max(shifts, best, np.where(polish, A[k], 0.0), 2.0 * np.pi / budget.angles)
    best = np.where(polish, zoomed, best)
    direction = "under" if which == "upper" else "over"
    return ModulusCurve(r_grid.copy(), sign * best, direction,
                        label=f"{n.name}:support_{which}")


# ---------------------------------------------------------------------------
# curve calculus

def omega_inverse(rho_curve, s):
    """Leftmost t with curve(t) >= s. Clamps to 0 on the left, errors when s
    exceeds the sampled range."""
    s = float(s)
    if s <= 0:
        return 0.0
    top = rho_curve.eval(rho_curve.max_arg)
    if s > top + 1e-12:
        raise ValueError(f"value {s:g} beyond curve range (max {top:g})")
    lo, hi = 0.0, rho_curve.max_arg
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rho_curve.eval(mid) < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


@dataclass
class EquivalenceReport:
    consistent: bool
    lower_scale: float
    lower_ratio: float
    upper_scale: float
    upper_ratio: float


def equivalence_probe(f, g, scalings=(0.5, 1.0, 2.0)):
    """Rough two-sided comparison of sampled curves over the smallest shared
    decade: consistent when g stays within a factor 64 of f at some scaling."""
    t0 = max(float(f.args[0]), float(g.args[0]))
    lo_ratio, lo_scale = -np.inf, None
    hi_ratio, hi_scale = np.inf, None
    for b in scalings:
        te = min(10.0 * t0, g.max_arg, f.max_arg / b)
        if te <= t0:
            continue
        ts = np.geomspace(t0, te, 64)
        fv = np.array([f.eval(b * t) for t in ts])
        gv = np.array([g.eval(float(t)) for t in ts])
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(fv > 0, gv / np.where(fv > 0, fv, 1.0),
                         np.where(gv > 0, np.inf, 1.0))
        rinf, rsup = float(np.min(r)), float(np.max(r))
        if rinf > lo_ratio:
            lo_ratio, lo_scale = rinf, b
        if rsup < hi_ratio:
            hi_ratio, hi_scale = rsup, b
    if lo_scale is None:
        raise ValueError("no overlapping decade between the curves")
    ok = (lo_ratio >= 1.0 / 64.0) and (hi_ratio <= 64.0)
    return EquivalenceReport(bool(ok), lo_scale, lo_ratio, hi_scale, hi_ratio)


@dataclass
class FigielReport:
    passed: bool
    constant: float
    mode: str


def figiel_check(curve, K_max=64.0, mode="smoothness"):
    """Quadratic ratio regularity of a sampled curve.

    mode "smoothness": v(s)/s^2 <= K * v(t)/t^2 for t <= s (ratio quasi
    decreasing). mode "convexity": same control with the roles flipped,
    v(s)/s^2 <= L * v(t)/t^2 for s <= t. Returns the minimal grid constant.
    """
    if isinstance(curve, ModulusCurve):
        args, vals = curve.args, curve.values
    else:
        args, vals = (np.asarray(curve[0], float), np.asarray(curve[1], float))
    if np.any(vals < -1e-12):
        raise ValueError("curve must be nonnegative")
    q = vals / (args * args)
    if np.all(q <= 1e-15):
        return FigielReport(False, np.inf, mode)
    if mode == "smoothness":
        runmin = np.minimum.accumulate(q)
    elif mode == "convexity":
        runmin = np.minimum.accumulate(q[::-1])[::-1]
    else:
        raise ValueError("mode must be 'smoothness' or 'convexity'")
    with np.errstate(divide="ignore", invalid="ignore"):
        K = float(np.max(np.where(runmin > 0, q / np.where(runmin > 0, runmin, 1.0), np.inf)))
    return FigielReport(bool(K <= K_max), K, mode)
