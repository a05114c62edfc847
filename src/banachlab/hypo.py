"""Pairing functional over normal directions, quantified hypomonotonicity
checks, the curvature section bound, and a constructive touching-point search.

The central quantity is the worst pairing <p2 - p1, x2 - x1> over boundary
points x_i with dual-unit outward normals p_i.  A set is psi-hypomonotone at
scale R when that pairing stays above -R psi(|x1 - x2|/R) for all close pairs.

hypo_check and the separation band of gamma read one pair sweep, which pairs
every direction of every sampled pair in one array.  The section bound takes
its set points from the block sampler of the sets module, and its ratios
from the kernel of the sampled cone checks there.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional, Tuple

import numpy as np

from .moduli import _bracket_roots, _crossing_max, _isometric_base
from .norms import NormSpec, _fold, j1_batch, norm_batch, norm_eval
from .psifuncs import PsiSpec
from .sets import (
    CheckReport,
    ClosedSetSpec,
    _clean,
    _cone_pairings,
    _gauge,
    _sample_tries,
    _scale,
    boundary_sample,
    contains,
    distance,
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


def _pair_sweep(A: ClosedSetSpec, n: NormSpec, budget: int, seed: int, lo: float, hi: float):
    """The boundary points X of the seed with a nondegenerate normal cone
    (complement vertices drop out), their extreme normal directions P from
    one call of the set kind's cone table (cone_rows), padded to
    (points, c, dim) by repeating the first, which moves no extreme
    pairing nor the first pair attaining it; the pairs I < J (all in order,
    or budget of them drawn and sorted) whose separations d lie in [lo, hi];
    and their pairings G[k, a, b] = <P[J_k, b] - P[I_k, a], X[J_k] - X[I_k]>,
    summed on the coordinate columns in order (norms._fold), so a pair has
    the same bits in any batch."""
    rng = np.random.default_rng(seed)
    m = max(48, min(512, int(np.sqrt(2.0 * budget)) + 1))
    X = np.reshape(boundary_sample(A, n, m, seed=seed), (-1, A.dim))
    P, k = A.ops.cone_rows(n, X)
    X, P = X[k > 0], P[k > 0][:, :k.max(initial=1)]
    I, J = np.triu_indices(len(X), 1)
    if I.size > budget:
        k = np.sort(rng.choice(I.size, size=budget, replace=False))
        I, J = I[k], J[k]
    d = norm_batch(n, X[J] - X[I])
    band = (lo <= d) & (d <= hi)
    I, J, d = I[band], J[band], d[band]
    G = _fold(np.add, (P[J][:, None] - P[I][:, :, None]) * (X[J] - X[I])[:, None, None])
    return X, P, I, J, d, G


def hypo_check(A: ClosedSetSpec, n: NormSpec, psi: PsiSpec, R: float,
               eps_max: float = 0.4, pair_budget: int = 2048, seed: int = 0) -> HypoReport:
    """Quantified hypomonotonicity of the normal cone at scale R.

    Samples boundary pairs x1, x2 with |x1 - x2| <= eps_max together with the
    extreme rays p_i of their normal cones and reports the worst value of
    <p2 - p1, x2 - x1> + R psi(|x2 - x1| / R).  Pass means the worst margin
    stays above -1e-6.
    """
    _scale(R, "R")
    X, P, I, J, d, G = _pair_sweep(A, n, pair_budget, seed, 1e-9, eps_max)
    if len(X) < 2:
        raise NoFeasiblePairs("not enough boundary points with normal directions")
    if not I.size:
        raise NoFeasiblePairs(f"no sampled boundary pairs within eps_max={eps_max}")
    val, extended = psi.eval_flagged(d / R)
    margin = G + (R * val)[:, None, None]
    k, a, b = np.unravel_index(np.argmin(margin), margin.shape)  # the first worst, in loop order
    worst = float(margin[k, a, b])
    worst_pair = (tuple(X[I[k]]), tuple(P[I[k], a]), tuple(X[J[k]]), tuple(P[J[k], b]))
    verdict = "pass" if worst >= -1e-6 else "fail"
    return HypoReport(verdict=verdict, worst_pair=worst_pair, worst_margin=worst,
                      epsilon_band=(0.0, float(eps_max)), pairs_used=int(I.size),
                      psi_extended=extended)


_BAND = 0.05  # the relative half-width of gamma's separation band


def gamma_estimate(A: ClosedSetSpec, n: NormSpec, eps, budget: int = 4096, seed: int = 0):
    """Worst antimonotonicity of the normal cone at pair separation eps.

    Maximizes -<p1 - p2, x1 - x2> over boundary pairs at distance eps: a
    float for a scalar eps, and for an eps grid an array of its shape, each
    value with the bits of the scalar call at its point.  The complement of a
    planar ball whose gauge is the ambient norm takes _gamma_exact_2d,
    which pins the separation at eps: the closed form r 2^(2-p) (eps/r)^p
    on lp with 1 < p <= 2 and its linear images (eps^2/r on an
    inner-product norm), the chord-crossing engine of the moduli on any
    other norm, one run for the whole grid.  Every other set, a ball with a
    foreign gauge included, relaxes the separation to the band
    [eps(1-_BAND), eps(1+_BAND)] and takes the best sampled pair: one pair
    sweep over the hull of the bands, filtered per eps, whose pairs are
    drawn before the filter.  budget sets the band's pair count, or the
    engine's sphere table of 2 m points, m = budget // 16 within [128, 512],
    whose arc the engine scans: m rows on a half turn, and m / 2 on lp, whose
    unit ball a quarter turn keeps; the closed form ignores it.  An eps
    outside (0, inf) raises ValueError, and one with no pair
    NoFeasiblePairs, anywhere in the grid.  No value has a certified side:
    the closed form is exact up to rounding, the engine's pairs sit at a
    computed separation of at least eps, the band's anywhere in the band.
    """
    grid = np.asarray(eps, dtype=float)
    eps = grid.reshape(-1)
    for e in eps:
        _scale(e, "eps")
    if A.kind == "ball_complement" and A.dim == 2 and _gauge(A, n) == n:
        best = _gamma_exact_2d(A, n, eps, budget)
    else:
        lo, hi = eps * (1 - _BAND), eps * (1 + _BAND)
        d, G = _pair_sweep(A, n, budget, seed, lo.min(initial=np.inf), hi.max(initial=-np.inf))[-2:]
        bands = (G[(a <= d) & (d <= b)] for a, b in zip(lo, hi))
        # the first largest -<p1 - p2, x1 - x2> of each band, with the bits of its pair
        best = np.array([-g.flat[np.argmin(g)] if g.size else -np.inf for g in bands])
    for e in eps[~np.isfinite(best)][:1]:
        raise NoFeasiblePairs(f"no boundary pairs at separation {e}")
    return float(best[0]) if grid.ndim == 0 else best.reshape(grid.shape)


def _gamma_exact_2d(A: ClosedSetSpec, n: NormSpec, eps: np.ndarray, budget: int) -> np.ndarray:
    """gamma on the complement of the ball c + r B_n at each eps of a 1-d
    grid, -inf where no pair is that far apart.  Its boundary point
    c + r u has the outward normal -j1(u), and two such points lie r|u1 - u2|
    apart, so gamma(eps) is r times the largest <j1(u1) - j1(u2), u1 - u2>
    over the unit pairs at chord eps/r: an isometry invariant, computed on
    the base of a linear image (moduli._isometric_base).

    On lp with 1 < p <= 2, j1(u) = |u|^(p-1) sgn u coordinatewise, and
    t -> |t|^(p-1) sgn t is (p-1)-Hoelder with the sharp constant 2^(2-p),
    so the pairing is at most 2^(2-p) |u1 - u2|^p, with equality at
    u1 = (a, b), u2 = (a, -b), whose chord is 2b.  So gamma(eps) =
    r 2^(2-p) (eps/r)^p, eps^2/r on an inner-product norm, with no pair
    where eps > 2r.  The power is the C library's, as a float's: numpy's
    SIMD power of an array may round it to the other neighbour.  Any other
    norm runs the chord-crossing engine; on lp with p > 2 that pair is far
    from the largest, the form falling to 1/15 of gamma at p = 2.5,
    eps = 0.02."""
    r = A.radius
    n = _isometric_base(n)
    p = n.ops.lp_exponent
    if p is None or p > 2.0:
        return _gamma_engine(n, r, eps, budget)
    t = eps / r
    form = eps * eps / r if p == 2.0 else r * 2.0 ** (2.0 - p) * np.array([a ** p for a in t.tolist()])
    return np.where(t > 2.0, -np.inf, form)


def _gamma_engine(n: NormSpec, r: float, eps: np.ndarray, budget: int) -> np.ndarray:
    """The largest r <j1(u1) - j1(u2), u1 - u2> over the unit pairs at chord
    eps/r, for each eps of a 1-d grid, from one run of the chord-crossing
    engine of the moduli on the arc of a sphere table of 2 m points,
    m = budget // 16 within [128, 512]; -inf where no pair reaches that
    chord.  Each value is that of an evaluated pair whose computed chord is
    at least eps/r."""
    rows = max(128, min(512, budget // 16))

    def pairing(X, Y):
        return r * _fold(np.add, (j1_batch(n, X) - j1_batch(n, Y)) * (X - Y))

    return _crossing_max(n, pairing, (eps / r)[:, None], 2 * rows)


def section_bound_check(A: ClosedSetSpec, n: NormSpec, R: float, rho_curve,
                        a0, delta: float, sample_count: int = 200, seed: int = 0) -> CheckReport:
    """Supporting-functional bound on a boundary section.

    For set points a within delta of a0 and normal directions p at a0, the
    ratio <p, a - a0> / |a - a0| must stay below eps = (2R/delta) rho(delta/R).
    The rho curve must be a sampled underestimate so the test errs strict.
    """
    _scale(R, "R")
    _scale(delta, "delta")
    if getattr(rho_curve, "direction", "under") != "under":
        raise ValueError("need an underestimating smoothness-modulus curve")
    a0 = np.asarray(a0, dtype=float)
    dirs = normal_directions(A, n, a0)
    if not dirs:
        return CheckReport("pass", 0.0, None, 0, reason="degenerate cone, nothing to bound")
    eps = (2.0 * R / delta) * float(rho_curve.eval(delta / R))

    def in_section(Y):
        return (A.ops.residual(n, Y) <= 0.0) & (norm_batch(n, Y - a0) <= delta)

    samples = _sample_tries(np.random.default_rng(seed + 17), n, sample_count, 60 * sample_count,
                            (0.02, 1.0), delta, lambda t: a0, in_section)
    if not samples:
        return CheckReport("pass", 0.0, None, 0, reason="no set points in the section")
    P = np.array(dirs)
    k, val, d = _cone_pairings(n, np.array(samples), a0, P)
    m = eps * d[:, None] - val
    worst, witness = np.inf, None
    if m.size:  # the first worst, in loop order
        i, j = np.unravel_index(np.argmin(m), m.shape)
        worst, witness = m[i, j], (tuple(samples[k[i]]), tuple(P[j]))
    worst_ratio = max(0.0, float(np.max(val / d[:, None], initial=0.0)))
    verdict = "pass" if worst >= -1e-6 else "fail"
    return CheckReport(verdict, float(worst), witness if verdict == "fail" else None,
                       len(samples), reason=f"eps={eps:.6g} worst_ratio={worst_ratio:.6g}")


def touching_point_search(A: ClosedSetSpec, n: NormSpec, z0, z1, eps: float):
    """Construct a near-touch configuration along the segment from z0 to z1.

    Walks from z0 (outside A) toward z1 (inside A) to the first parameter
    where the segment point comes within dd of the set, with
    dd = min(eps |z1 - z0|, dist(z0, A)) / 2: the first hit of a 201-point
    grid, closed to adjacent floats by the bracketed root search of the
    moduli (_bracket_roots).  Projects that point onto A and
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
        vals = grid - dd
        hit = np.nonzero(vals <= 0)[0]
        if vals[0] <= 0 or hit.size == 0:
            dd *= 0.5
            continue
        k = int(hit[0])
        # dd minus the distance rises through 0 across [ts[k-1], ts[k]]
        lam = _bracket_roots(lambda i, t: dd - A.ops.nearest_rows(n, z0 + t[:, None] * (z1 - z0))[0],
                             (1,), ts[k - 1], ts[k], -vals[k - 1], -vals[k],
                             (ts[1] - ts[0]) * 2.0 ** -60)[1][0]
        y0 = z0 + lam * (z1 - z0)
        y = project(A, n, y0)[0]
        w = y0 - y
        if norm_eval(n, w) < 1e-12:
            dd *= 0.5
            continue
        p = j1_batch(n, w[None])[0]
        ok1 = norm_eval(n, y0 - y) < eps * gap
        ok2 = float(p @ (z1 - z0)) < eps * gap
        if ok1 and ok2:
            return float(lam), y, p
        dd *= 0.5
    raise ConstructionFailed("separation inequalities not met within the shrink budget")
