"""Pairing functional over normal directions, quantified hypomonotonicity
checks, the curvature section bound, and a constructive touching-point search.

The central quantity is the worst pairing <p2 - p1, x2 - x1> over boundary
points x_i with dual-unit outward normals p_i.  A set is psi-hypomonotone at
scale R when that pairing stays above -R psi(|x1 - x2|/R) for all close pairs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Tuple

import numpy as np

from .moduli import _crossing_max
from .norms import NormSpec, j1_batch, norm_eval
from .psifuncs import PsiSpec
from .sets import (
    CheckReport,
    ClosedSetSpec,
    _clean,
    _gauge,
    boundary_sample,
    contains,
    distance,
    duality_map,
    normal_directions,
    project,
)


class NoFeasiblePairs(RuntimeError):
    """No boundary pairs satisfied the distance constraint."""


class ConstructionFailed(RuntimeError):
    """The touching-point construction exhausted its tolerance budget."""


@dataclasses.dataclass(frozen=True)
class HypoReport:
    verdict: str
    worst_pair: Optional[tuple]
    worst_margin: float
    epsilon_band: Tuple[float, float]
    pairs_used: int
    psi_extended: bool

    def to_json(self) -> str:
        return json.dumps({
            "verdict": self.verdict,
            "worst_pair": _clean(self.worst_pair),
            "worst_margin": float(self.worst_margin),
            "epsilon_band": [float(self.epsilon_band[0]), float(self.epsilon_band[1])],
            "pairs_used": int(self.pairs_used),
            "psi_extended": bool(self.psi_extended),
        }, sort_keys=True)


def _boundary_with_cones(A: ClosedSetSpec, n: NormSpec, count: int, seed: int):
    """Boundary samples paired with their analytic extreme normal directions.

    Points whose cone degenerates (complement vertices) are dropped.
    """
    xs = boundary_sample(A, n, count, seed=seed)
    out = []
    for x in xs:
        x = np.asarray(x, dtype=float)
        try:
            dirs = A.ops.cone_directions(n, x, tol=1e-6)
        except ValueError:
            continue
        if dirs:
            out.append((x, dirs))
    return out


def _pair_indices(m: int, budget: int, rng) -> list:
    total = m * (m - 1) // 2
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if total > budget:
        idx = rng.choice(total, size=budget, replace=False)
        pairs = [pairs[int(k)] for k in np.sort(idx)]
    return pairs


def hypo_check(A: ClosedSetSpec, n: NormSpec, psi: PsiSpec, R: float,
               eps_max: float = 0.4, pair_budget: int = 2048, seed: int = 0) -> HypoReport:
    """Quantified hypomonotonicity of the normal cone at scale R.

    Samples boundary pairs x1, x2 with |x1 - x2| <= eps_max together with the
    extreme rays p_i of their normal cones and reports the worst value of
    <p2 - p1, x2 - x1> + R psi(|x2 - x1| / R).  Pass means the worst margin
    stays above -1e-6.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    rng = np.random.default_rng(seed)
    m = max(48, min(512, int(np.sqrt(2.0 * pair_budget)) + 1))
    pts = _boundary_with_cones(A, n, m, seed)
    if len(pts) < 2:
        raise NoFeasiblePairs("not enough boundary points with normal directions")
    worst = np.inf
    worst_pair = None
    used = 0
    extended = False
    for i, j in _pair_indices(len(pts), pair_budget, rng):
        x1, dirs1 = pts[i]
        x2, dirs2 = pts[j]
        d = norm_eval(n, x2 - x1)
        if d < 1e-9 or d > eps_max:
            continue
        val, flag = psi.eval_flagged(d / R)
        extended = extended or flag
        used += 1
        for p1 in dirs1:
            for p2 in dirs2:
                margin = float((p2 - p1) @ (x2 - x1)) + R * val
                if margin < worst:
                    worst = margin
                    worst_pair = (tuple(x1), tuple(p1), tuple(x2), tuple(p2))
    if used == 0:
        raise NoFeasiblePairs(f"no sampled boundary pairs within eps_max={eps_max}")
    verdict = "pass" if worst >= -1e-6 else "fail"
    return HypoReport(verdict=verdict, worst_pair=worst_pair, worst_margin=float(worst),
                      epsilon_band=(0.0, float(eps_max)), pairs_used=used,
                      psi_extended=extended)


def _gamma_pairing(x1, dirs1, x2, dirs2) -> float:
    best = -np.inf
    for p1 in dirs1:
        for p2 in dirs2:
            best = max(best, -float((p1 - p2) @ (x1 - x2)))
    return best


def gamma_estimate(A: ClosedSetSpec, n: NormSpec, eps: float, band: float = 0.05,
                   budget: int = 4096, seed: int = 0) -> float:
    """Worst antimonotonicity of the normal cone at pair separation eps.

    Maximizes -<p1 - p2, x1 - x2> over boundary pairs at distance eps.  The
    complement of a planar ball whose gauge is the ambient norm takes the
    chord-crossing engine of the moduli (_gamma_exact_2d), which pins the
    separation at eps.  Every other set, a ball with a foreign gauge included,
    relaxes the separation to the band [eps(1-band), eps(1+band)] and takes
    the best sampled pair.  budget sets the engine's rows (budget // 16,
    within [128, 512]) or the band's pair count.  Neither value has a
    certified side: the engine's pairs sit at a computed separation of at
    least eps, the band's anywhere in the band.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (0 < band <= 0.2):
        raise ValueError("band must lie in (0, 0.2]")
    if A.kind == "ball_complement" and A.dim == 2 and _gauge(A, n) == n:
        return _gamma_exact_2d(A, n, eps, budget)
    rng = np.random.default_rng(seed)
    m = max(48, min(512, int(np.sqrt(2.0 * budget)) + 1))
    pts = _boundary_with_cones(A, n, m, seed)
    best = -np.inf
    lo, hi = eps * (1 - band), eps * (1 + band)
    for i, j in _pair_indices(len(pts), budget, rng):
        x1, dirs1 = pts[i]
        x2, dirs2 = pts[j]
        d = norm_eval(n, x2 - x1)
        if lo <= d <= hi:
            best = max(best, _gamma_pairing(x1, dirs1, x2, dirs2))
    if not np.isfinite(best):
        raise NoFeasiblePairs(f"no boundary pairs at separation {eps} (band {band})")
    return float(best)


def _gamma_exact_2d(A: ClosedSetSpec, n: NormSpec, eps: float, budget: int) -> float:
    """gamma on the complement of the ball c + r B_n.  Its boundary point
    c + r u has the outward normal -j1(u), and two such points lie r|u1 - u2|
    apart, so gamma(eps) is r times the largest <j1(u1) - j1(u2), u1 - u2>
    over the unit pairs at chord eps/r."""
    r = A.radius
    rows = max(128, min(512, budget // 16))

    def pairing(X, Y):
        D, E = j1_batch(n, X) - j1_batch(n, Y), X - Y
        return r * (D[..., 0] * E[..., 0] + D[..., 1] * E[..., 1])

    best = float(_crossing_max(n, pairing, np.array([[eps / r]]), 2 * rows)[0])
    if not np.isfinite(best):
        raise NoFeasiblePairs(f"no boundary pairs at separation {eps}")
    return best


def section_bound_check(A: ClosedSetSpec, n: NormSpec, R: float, rho_curve,
                        a0, delta: float, sample_count: int = 200, seed: int = 0) -> CheckReport:
    """Supporting-functional bound on a boundary section.

    For set points a within delta of a0 and normal directions p at a0, the
    ratio <p, a - a0> / |a - a0| must stay below eps = (2R/delta) rho(delta/R).
    The rho curve must be a sampled underestimate so the test errs strict.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if getattr(rho_curve, "direction", "under") != "under":
        raise ValueError("need an underestimating smoothness-modulus curve")
    a0 = np.asarray(a0, dtype=float)
    dirs = normal_directions(A, n, a0)
    if not dirs:
        return CheckReport("pass", 0.0, None, 0, reason="degenerate cone, nothing to bound")
    eps = (2.0 * R / delta) * float(rho_curve.eval(delta / R))
    rng = np.random.default_rng(seed + 17)
    samples = []
    tries = 0
    while len(samples) < sample_count and tries < 60 * sample_count:
        tries += 1
        u = rng.standard_normal(A.dim)
        nu = norm_eval(n, u)
        if nu < 1e-12:
            continue
        y = a0 + delta * float(rng.uniform(0.02, 1.0)) * u / nu
        if contains(A, n, y, tol=0.0) and norm_eval(n, y - a0) <= delta:
            samples.append(y)
    worst = np.inf
    witness = None
    worst_ratio = 0.0
    for a in samples:
        d = norm_eval(n, a - a0)
        if d < 1e-12:
            continue
        for p in dirs:
            val = float(p @ (a - a0))
            m = eps * d - val
            worst_ratio = max(worst_ratio, val / d)
            if m < worst:
                worst = m
                witness = (tuple(a), tuple(p))
    if not samples:
        return CheckReport("pass", 0.0, None, 0, reason="no set points in the section")
    verdict = "pass" if worst >= -1e-6 else "fail"
    return CheckReport(verdict, float(worst), witness if verdict == "fail" else None,
                       len(samples), reason=f"eps={eps:.6g} worst_ratio={worst_ratio:.6g}")


def touching_point_search(A: ClosedSetSpec, n: NormSpec, z0, z1, eps: float,
                          seed: int = 0):
    """Construct a near-touch configuration along the segment from z0 to z1.

    Walks from z0 (outside A) toward z1 (inside A) to the first parameter
    where the segment point comes within dd of the set, with
    dd = min(eps |z1 - z0|, dist(z0, A)) / 2.  Projects that point onto A and
    reads the supporting functional off the duality map.  Returns
    (lambda, y, p) after verifying both separation inequalities; raises
    ConstructionFailed if they cannot be met within the shrink budget.
    """
    z0 = np.asarray(z0, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    d0 = distance(A, n, z0)
    if d0 <= 0:
        raise ValueError("z0 must lie outside the set")
    if not contains(A, n, z1, tol=1e-9):
        raise ValueError("z1 must lie in the set")
    gap = norm_eval(n, z1 - z0)
    dd = 0.5 * min(eps * gap, d0)
    ts = np.linspace(0.0, 1.0, 201)
    grid = A.ops.nearest_rows(n, z0 + ts[:, None] * (z1 - z0))[0]
    for _ in range(7):
        phi = lambda t: distance(A, n, z0 + t * (z1 - z0)) - dd
        vals = grid - dd
        if vals[0] <= 0:
            dd *= 0.5
            continue
        hit = np.nonzero(vals <= 0)[0]
        if hit.size == 0:
            dd *= 0.5
            continue
        k = int(hit[0])
        lo, hi = ts[k - 1], ts[k]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if phi(mid) > 0:
                lo = mid
            else:
                hi = mid
        lam = hi
        y0 = z0 + lam * (z1 - z0)
        y = project(A, n, y0)[0]
        w = y0 - y
        if norm_eval(n, w) < 1e-12:
            dd *= 0.5
            continue
        p = duality_map(n, w)
        if not isinstance(p, np.ndarray):
            p = p.extremes[0]
        ok1 = norm_eval(n, y0 - y) < eps * gap
        ok2 = float(p @ (z1 - z0)) < eps * gap
        if ok1 and ok2:
            return float(lam), y, p
        dd *= 0.5
    raise ConstructionFailed("separation inequalities not met within the shrink budget")
