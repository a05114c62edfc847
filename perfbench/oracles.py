"""Independent reference values for the checks the benchmark applies.

Nothing here imports banachlab: every value is a closed form or a bisection
written from the classical formulas, so a fault in the program cannot hide
in its own oracle.

- Hilbert space: delta(e) = 1 - sqrt(1 - e^2/4), rho(t) = sqrt(1 + t^2) - 1,
  support shift lambda(r) = 1 - sqrt(1 - r^2).
- Hanner (1956) for l_p:
  p >= 2:      delta(e) = 1 - (1 - (e/2)^p)^(1/p),
               rho(t) = (((1 + t)^p + |1 - t|^p) / 2)^(1/p) - 1;
  1 < p <= 2:  delta solves (1 - delta + e/2)^p + |1 - delta - e/2|^p = 2,
               rho(t) = (1 + t^p)^(1/p) - 1.
- l1 and linf: delta = 0, rho(t) = t, lower support shift 0, upper r.
- Every norm: delta_X <= delta_H (Nordlander), rho_H <= rho_X <= t
  (Lindenstrauss and the triangle inequality), 0 <= lambda <= r.
"""

from __future__ import annotations

import math

# Exponent of each zoo norm whose moduli have a closed form.  The ellipse is
# the image of the Euclidean plane under Q^(1/2), an isometry, so its moduli
# are the Hilbert ones.
EXPONENT = {"euclid": 2.0, "ellipse": 2.0, "l15": 1.5, "l3": 3.0}
POLYHEDRAL = ("l1", "linf")


def hilbert_delta(eps: float) -> float:
    return 1.0 - math.sqrt(1.0 - eps * eps / 4.0)


def hilbert_rho(tau: float) -> float:
    return math.sqrt(1.0 + tau * tau) - 1.0


def hilbert_shift(r: float) -> float:
    return 1.0 - math.sqrt(1.0 - r * r)


def _hanner_delta_small_p(eps: float, p: float) -> float:
    """Root of (1 - d + e/2)^p + |1 - d - e/2|^p = 2 for 1 < p <= 2.

    The left side decreases in d on [0, 1], from at least 2 (by convexity)
    to 2 (e/2)^p < 2, so bisection brackets the root.  It runs until the
    bracket stops shrinking, which is rounding level: a coarser root would
    misjudge curves that agree with the closed form to about 1e-15.
    """
    def f(d):
        return (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p - 2.0

    if eps >= 2.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def lp_delta(eps: float, p: float) -> float:
    if p == 2.0:
        return hilbert_delta(eps)
    if p > 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    return _hanner_delta_small_p(eps, p)


def lp_rho(tau: float, p: float) -> float:
    if p == 2.0:
        return hilbert_rho(tau)
    if p > 2.0:
        return (((1.0 + tau) ** p + abs(1.0 - tau) ** p) / 2.0) ** (1.0 / p) - 1.0
    return (1.0 + tau ** p) ** (1.0 / p) - 1.0


def exact_delta(nid: str, eps: float):
    """delta of a zoo norm at eps when a closed form is known, else None."""
    if nid in EXPONENT:
        return lp_delta(eps, EXPONENT[nid])
    if nid in POLYHEDRAL:
        return 0.0
    return None


def exact_rho(nid: str, tau: float):
    if nid in EXPONENT:
        return lp_rho(tau, EXPONENT[nid])
    if nid in POLYHEDRAL:
        return tau
    return None


def exact_shift(nid: str, which: str, r: float):
    """Lower or upper supporting modulus at r when it is known, else None.

    In Hilbert space every quasiorthogonal unit pair is orthogonal, so both
    equal 1 - sqrt(1 - r^2).  A polyhedral sphere has a flat face (shift 0)
    and a vertex whose supporting line runs along the next face (shift r).
    """
    if nid in ("euclid", "ellipse"):
        return hilbert_shift(r)
    if nid in POLYHEDRAL:
        return 0.0 if which == "lower" else r
    return None


# ---------------------------------------------------------------------------
# curve checks


def side_tol(value: float) -> float:
    """Rounding allowance: a value the CLI writes with %.12g is off by up to
    5e-12 of itself; twice that, plus a floor for values near 0."""
    return 1e-11 * abs(value) + 1e-15


# Largest distance from the exact value a curve may have on its far side,
# the side its label allows.  The planar delta and rho searches agree with
# the closed forms to about 1e-15; the support shifts are looser.
ACCURACY = {"delta": 1e-9, "rho": 1e-9, "support_lower": 1e-6, "support_upper": 1e-6}
# gamma_estimate's root-tracked 2-d mode lands within 1e-10 of eps^2.
GAMMA_ACCURACY = 1e-6

_DIRECTION = {"delta": "over", "rho": "under",
              "support_lower": "over", "support_upper": "under"}


def curve_problems(nid: str, kind: str, args, values, direction: str) -> list:
    """Problems with one sampled curve of a zoo norm; empty when it is right.

    kind is "delta", "rho", "support_lower" or "support_upper".  The label
    of every curve is checked at rounding level against the exact value: an
    "over" curve may not sit below it, an "under" curve not above it.  Every
    curve must also lie within ACCURACY of the exact value and inside the
    bounds that hold for every norm.
    """
    want_dir = _DIRECTION[kind]
    accuracy = ACCURACY[kind]
    out = []
    if direction != want_dir:
        out.append(f"{nid} {kind}: labelled {direction!r}, expected {want_dir!r}")
    for a, v in zip(args, values):
        a, v = float(a), float(v)
        if not math.isfinite(v):
            out.append(f"{nid} {kind}({a:g}) = {v}")
            continue
        tol = side_tol(v)
        if kind == "delta":
            exact = exact_delta(nid, a)
            lo, hi = 0.0, hilbert_delta(a) + accuracy  # Nordlander
        elif kind == "rho":
            exact = exact_rho(nid, a)
            lo, hi = hilbert_rho(a) - accuracy, a  # Lindenstrauss, triangle
        else:
            exact = exact_shift(nid, kind.split("_")[1], a)
            lo, hi = 0.0, a
        if not (lo - tol <= v <= hi + tol):
            out.append(f"{nid} {kind}({a:g}) = {v!r} outside [{lo!r}, {hi!r}]")
        if exact is None:
            continue
        if want_dir == "over" and v < exact - tol:
            out.append(f"{nid} {kind}({a:g}) = {v!r} below exact {exact!r} on an 'over' curve")
        if want_dir == "under" and v > exact + tol:
            out.append(f"{nid} {kind}({a:g}) = {v!r} above exact {exact!r} on an 'under' curve")
        if abs(v - exact) > accuracy:
            out.append(f"{nid} {kind}({a:g}) = {v!r} off exact {exact!r} by more than {accuracy:g}")
    return out


def gamma_problems(nid: str, eps: float, gamma: float) -> list:
    """gamma(eps) = eps^2 for the Hilbert norms; gamma(eps) >= rho_p(eps/4)
    with the closed-form rho_p for the l_p norms."""
    if not math.isfinite(gamma):
        return [f"{nid} gamma({eps:g}) = {gamma}"]
    p = EXPONENT.get(nid)
    if p == 2.0:
        if abs(gamma - eps * eps) > GAMMA_ACCURACY:
            return [f"{nid} gamma({eps:g}) = {gamma!r}, expected eps^2 = {eps * eps!r}"]
    elif p is not None:
        lower = lp_rho(eps / 4.0, p)
        if gamma < lower - side_tol(gamma):
            return [f"{nid} gamma({eps:g}) = {gamma!r} below rho_p(eps/4) = {lower!r}"]
    return []


# ---------------------------------------------------------------------------
# verdicts that follow from the geometry of the zoo sets

def expected_smooth(sid: str, R: float) -> bool:
    """Is zoo set sid proximally smooth at rolling radius R?

    A gauge-ball complement of radius 1 (and the tube over the disc
    complement) has an exterior ball of every radius <= 1 under its own
    norm; a halfplane and a convex disc have exterior balls of every radius;
    two points at distance 2 admit R below half their gap; the square
    complement has inner corners at every scale.
    """
    if sid in ("disc_complement", "l15_ball_complement", "l3_ball_complement",
               "box_complement", "tube"):
        return R <= 1.0
    if sid in ("halfplane", "disc"):
        return True
    if sid == "two_points":
        return R < 1.0
    if sid == "square_complement":
        return False
    raise KeyError(sid)


def expected_verdict(check: str, smooth: dict):
    """The verdict, or the set of verdicts, a run_report record must carry.

    smooth maps a set tag "id@R" to its expected proximal smoothness.  None
    means the mathematics fixes no verdict for the record.
    """
    parts = check.split("/")
    stage, key, name = parts[0], parts[1], parts[-1]
    if stage == "moduli":
        if name == "doubling-window":
            return "pass" if key in EXPONENT else "skip"
        return "pass"
    if stage == "sets":
        if name == "coherence":
            return "pass"
        return "pass" if smooth[key] else "fail"
    if name == "seventeenth-smoothness":
        # gamma = eps^2 exceeds rho(eps)/17 < eps^2/34 on the Hilbert norms
        return "fail" if key in ("euclid", "ellipse") else None
    if name == "forward-smoothness":
        return "pass" if smooth[key] else "skip"
    if name == "forward-convexity":
        return {"pass", "skip"}
    return "pass"
