"""Moduli of convexity and smoothness, supporting moduli, and curve calculus.

The estimators are planar: a dense angle scan over the unit sphere followed
by local refinement, accurate to far better than the test tolerances, with
honest estimate direction labels ("over" for infima, "under" for suprema).
Other dimensions raise DimensionMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar

from .norms import (
    DimensionMismatch,
    as_vec,
    j1_batch,
    norm_batch,
    norm_eval,
    sphere_vertex_angles,
    subdifferential_extremes,
    unit_vector,
)


class NotUnitVectors(ValueError):
    pass


class NotQuasiorthogonal(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    angles: int = 4096
    starts: int = 256
    iters: int = 200
    pairs: int = 2048
    refine: int = 60

    @staticmethod
    def preset(name):
        if name == "low":
            return SearchBudget(angles=1024, starts=32, iters=80, pairs=512, refine=40)
        if name == "default":
            return SearchBudget()
        if name == "high":
            return SearchBudget(angles=8192, starts=512, iters=400, pairs=8192, refine=90)
        raise ValueError(f"unknown budget preset {name!r}")


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
# planar pair search under the equality constraint ||x - y|| = eps

def constrained_pair_search(n, eps_list, obj_grid, obj_point, angles,
                            refine_iters=60, top_k=4):
    """Maximize a pair objective over unit-sphere pairs with ||x - y|| = eps.

    obj_grid(rows, S) must return the (len(rows), angles) objective matrix for
    sphere rows paired against the whole table S. obj_point(a1, a2) evaluates
    one pair by angles. Returns {eps: (value, a1, a2)}.

    The scan covers every eps in one pass over the pair grid; candidates at
    chord crossings are then polished by a 1-D search with the constraint
    resolved by root tracking.
    """
    N = angles
    S = n.ops.sphere(N)
    half = N // 2  # central symmetry: (x, y) and (-x, -y) give the same value
    eps_arr = np.asarray(list(eps_list), dtype=float)
    best = {float(e): (-np.inf, 0.0, 0.0, False) for e in eps_arr}
    block = max(1, (1 << 21) // N)
    dmax_pair = (-np.inf, 0, 0)
    for lo_i in range(0, half, block):
        rows = np.arange(lo_i, min(lo_i + block, half))
        D = norm_batch(n, S[rows][:, None, :] - S[None, :, :])
        O = obj_grid(rows, S)
        Droll = np.roll(D, -1, axis=1)
        Oroll = np.roll(O, -1, axis=1)
        bmax = D.max()
        if bmax > dmax_pair[0]:
            bi, bj = np.unravel_index(np.argmax(D), D.shape)
            dmax_pair = (bmax, rows[bi], bj)
        lo = np.minimum(D, Droll)
        hi = np.maximum(D, Droll)
        for e in eps_arr:
            mask = (lo - 1e-12 <= e) & (e <= hi + 1e-12)
            if not mask.any():
                continue
            ii, jj = np.where(mask)
            denom = Droll[ii, jj] - D[ii, jj]
            t = np.where(np.abs(denom) > 1e-15, (e - D[ii, jj]) / np.where(denom == 0, 1, denom), 0.0)
            t = np.clip(t, 0.0, 1.0)
            est = O[ii, jj] + t * (Oroll[ii, jj] - O[ii, jj])
            k = int(np.argmax(est))
            cur = best[float(e)]
            if est[k] > cur[0]:
                a1 = 2 * np.pi * rows[ii[k]] / N
                a2 = 2 * np.pi * (jj[k] + t[k]) / N
                best[float(e)] = (float(est[k]), a1, a2, True)
    h = 2 * np.pi / N

    def dist_point(a1, a2):
        x = unit_vector(n, (math.cos(a1), math.sin(a1)))
        y = unit_vector(n, (math.cos(a2), math.sin(a2)))
        return norm_eval(n, x - y)

    out = {}
    for e in eps_arr:
        val, a1, a2, found = best[float(e)]
        if not found:
            # eps at or beyond the attainable maximum: fall back to the
            # extreme pair on the grid
            _, i, j = dmax_pair
            a1, a2 = 2 * np.pi * i / N, 2 * np.pi * j / N
            val = obj_point(a1, a2)
            out[float(e)] = (float(val), a1, a2)
            continue
        ref = _refine_pair(float(e), a1, a2, obj_point, dist_point, h, refine_iters)
        exact = obj_point(a1, _solve_theta2(float(e), a1, a2, dist_point, h) or a2)
        cand = max(val, exact)
        if ref is not None and ref[0] > cand:
            out[float(e)] = ref
        else:
            out[float(e)] = (float(cand), a1, a2)
    return out


def _solve_theta2(eps, a1, guess, dist_point, h):
    ts = np.linspace(guess - 2 * h, guess + 2 * h, 33)
    gs = np.array([dist_point(a1, t) - eps for t in ts])
    hits = np.where(np.abs(gs) <= 1e-14)[0]
    if hits.size:
        return float(ts[hits[np.argmin(np.abs(ts[hits] - guess))]])
    best = None
    for k in range(len(ts) - 1):
        if gs[k] * gs[k + 1] < 0:
            mid = 0.5 * (ts[k] + ts[k + 1])
            if best is None or abs(mid - guess) < abs(best[0] - guess):
                best = (mid, ts[k], ts[k + 1])
    if best is None:
        return None
    return float(brentq(lambda t: dist_point(a1, t) - eps, best[1], best[2], xtol=1e-14))


def _refine_pair(eps, a1, a2, obj_point, dist_point, h, iters):
    state = {"a2": a2}

    def neg(a):
        t2 = _solve_theta2(eps, a, state["a2"], dist_point, h)
        if t2 is None:
            return 1e9
        state["a2"] = t2
        return -obj_point(a, t2)

    res = minimize_scalar(neg, bounds=(a1 - 1.5 * h, a1 + 1.5 * h), method="bounded",
                          options={"xatol": 1e-13, "maxiter": max(iters, 40)})
    if res.fun >= 1e9:
        return None
    return (-float(res.fun), float(res.x), state["a2"])


# ---------------------------------------------------------------------------
# modulus of convexity

def delta_estimate(n, eps_grid, budget=SearchBudget()):
    """Modulus of convexity on a grid of chord lengths in (0, 2].

    Planar norms: dense scan with the chord constraint active (pairs on the
    sphere with equality, which matches the infimum over the ball).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0) or np.any(eps_grid > 2 + 1e-12):
        raise ValueError("chord grid must lie in (0, 2]")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of convexity is implemented for planar norms")

    def obj_grid(rows, S):
        return norm_batch(n, S[rows][:, None, :] + S[None, :, :])

    def obj_point(a1, a2):
        x = unit_vector(n, (math.cos(a1), math.sin(a1)))
        y = unit_vector(n, (math.cos(a2), math.sin(a2)))
        return norm_eval(n, x + y)

    res = constrained_pair_search(n, eps_grid, obj_grid, obj_point,
                                  budget.angles, budget.refine)
    vals = np.array([max(0.0, 1.0 - res[float(e)][0] / 2.0) for e in eps_grid])
    return ModulusCurve(eps_grid.copy(), vals, "over", label=f"{n.name}:delta")


# ---------------------------------------------------------------------------
# modulus of smoothness

def rho_estimate(n, tau_grid, budget=SearchBudget()):
    """Modulus of smoothness on a grid of step sizes in (0, 2]."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid <= 0) or np.any(tau_grid > 2 + 1e-12):
        raise ValueError("step grid must lie in (0, 2]")
    if n.dim != 2:
        raise DimensionMismatch("the modulus of smoothness is implemented for planar norms")
    vang = sphere_vertex_angles(n)
    if vang.size:
        # polyhedral sphere: the objective is convex in each argument, so the
        # supremum over the ball sits at vertex pairs and is exact
        V = np.array([unit_vector(n, (math.cos(a), math.sin(a))) for a in vang])
        vals = []
        for tau in tau_grid:
            F = (norm_batch(n, V[:, None, :] + tau * V[None, :, :])
                 + norm_batch(n, V[:, None, :] - tau * V[None, :, :])) / 2.0 - 1.0
            vals.append(float(F.max()))
        return ModulusCurve(tau_grid.copy(), np.array(vals), "under",
                            label=f"{n.name}:rho")
    N = min(budget.angles, 1024)
    S = n.ops.sphere(N)
    half = N // 2
    vals = []
    for tau in tau_grid:
        best, bi, bj = -np.inf, 0, 0
        block = max(1, (1 << 21) // N)
        for lo_i in range(0, half, block):
            rows = np.arange(lo_i, min(lo_i + block, half))
            F = (norm_batch(n, S[rows][:, None, :] + tau * S[None, :, :])
                 + norm_batch(n, S[rows][:, None, :] - tau * S[None, :, :])) / 2.0 - 1.0
            k = int(np.argmax(F))
            i, j = np.unravel_index(k, F.shape)
            if F[i, j] > best:
                best, bi, bj = float(F[i, j]), rows[i], j

        def neg(a):
            x = unit_vector(n, (math.cos(a[0]), math.sin(a[0])))
            y = unit_vector(n, (math.cos(a[1]), math.sin(a[1])))
            return -((norm_eval(n, x + tau * y) + norm_eval(n, x - tau * y)) / 2.0 - 1.0)

        a0 = np.array([2 * np.pi * bi / N, 2 * np.pi * bj / N])
        r = minimize(neg, a0, method="Nelder-Mead",
                     options={"maxiter": budget.iters, "xatol": 1e-13, "fatol": 1e-15})
        vals.append(max(best, -float(r.fun)))
    return ModulusCurve(tau_grid.copy(), np.array(vals), "under", label=f"{n.name}:rho")


# ---------------------------------------------------------------------------
# supporting moduli

def _pairing_interval(n, x, y, tol):
    ext = subdifferential_extremes(n, x, tol=max(tol, 1e-9))
    vals = [float(np.dot(e, y)) for e in ext]
    return min(vals), max(vals)


def support_shift(n, x, y, r):
    """Sphere crossing shift for a unit pair with y quasiorthogonal to x:
    the least lam with ||x + r y - lam x|| = 1."""
    x = as_vec(x, n.dim)
    y = as_vec(y, n.dim)
    if abs(norm_eval(n, x) - 1.0) > 1e-8 or abs(norm_eval(n, y) - 1.0) > 1e-8:
        raise NotUnitVectors("x and y must lie on the unit sphere")
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    lo, hi = _pairing_interval(n, x, y, 1e-9)
    if lo > 1e-8 or hi < -1e-8:
        raise NotQuasiorthogonal("no support functional of x annihilates y")
    return _lambda_scalar(n, x, y, r)


def _lambda_scalar(n, x, y, r, iters=80):
    lo, hi = 0.0, 1.0
    base = x + r * y
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if norm_eval(n, base - mid * x) - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lambda_rows(n, X, Y, r, iters=80):
    lo = np.zeros(X.shape[0])
    hi = np.ones(X.shape[0])
    base = X + r * Y
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = norm_batch(n, base - mid[:, None] * X) - 1.0
        take = g > 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


_QO_CACHE: dict = {}


def _quasiorth_table(n, angles):
    """Unit pairs (x, y) with y in the kernel of a support functional of x."""
    key = (n, angles)
    tab = _QO_CACHE.get(key)
    if tab is not None:
        return tab
    S = n.ops.sphere(angles)
    P = j1_batch(n, S)
    K = np.stack([-P[:, 1], P[:, 0]], axis=1)
    K = K / norm_batch(n, K)[:, None]
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
    tab = (X, Y, A, refinable)
    _QO_CACHE[key] = tab
    return tab


def supporting_modulus_estimate(n, r_grid, which, budget=SearchBudget()):
    """Envelope of support shifts over quasiorthogonal unit pairs.

    which = "lower" takes the infimum (direction "over"), "upper" the
    supremum (direction "under").
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    if n.dim != 2:
        raise DimensionMismatch("supporting moduli are implemented for planar norms")
    r_grid = np.asarray(r_grid, dtype=float)
    if np.any(r_grid <= 0) or np.any(r_grid > 1 + 1e-12):
        raise ValueError("r grid must lie in (0, 1]")
    X, Y, A, refinable = _quasiorth_table(n, budget.angles)
    h = 2 * np.pi / budget.angles
    sign = 1.0 if which == "upper" else -1.0
    vals = []
    for r in r_grid:
        lam = _lambda_rows(n, X, Y, float(r))
        k = int(np.argmax(sign * lam))
        best_signed = sign * float(lam[k])
        if refinable[k]:
            branch = 1.0 if k < budget.angles else -1.0

            def neg(a):
                x = unit_vector(n, (math.cos(a), math.sin(a)))
                p = j1_batch(n, x[None, :])[0]
                kv = np.array([-p[1], p[0]])
                kv = branch * kv / norm_eval(n, kv)
                return -sign * _lambda_scalar(n, x, kv, float(r))

            a0 = float(A[k])
            res = minimize_scalar(neg, bounds=(a0 - h, a0 + h), method="bounded",
                                  options={"xatol": 1e-12})
            best_signed = max(best_signed, -float(res.fun))
        vals.append(sign * best_signed)
    direction = "under" if which == "upper" else "over"
    return ModulusCurve(r_grid.copy(), np.array(vals), direction,
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
