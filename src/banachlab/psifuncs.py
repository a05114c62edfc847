"""Calculus of modulus certificate functions.

A certificate function psi is a nonnegative convex piecewise linear function
with psi(0) = 0, held as a knot grid. The regularization below replaces an
admissible psi by its geometric-mean smoothing between t^2 and psi, which is
what the hypomonotonicity machinery upstream needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonzeroAtZero(ValueError):
    pass


class NegativeValue(ValueError):
    pass


class NotConvex(ValueError):
    pass


class PreconditionViolated(ValueError):
    pass


@dataclass
class PsiSpec:
    """Piecewise linear certificate function on a knot grid starting at 0."""

    knots: np.ndarray
    values: np.ndarray
    lipschitz: float
    name: str = ""

    def eval(self, t):
        return self.eval_flagged(t)[0]

    def eval_flagged(self, t):
        """Value and a flag telling whether t fell beyond the grid (the last
        slope is extended linearly there)."""
        t = np.asarray(t, dtype=float)
        extended = bool(np.any(t > self.knots[-1] + 1e-12))
        inside = np.interp(t, self.knots, self.values)
        slope = ((self.values[-1] - self.values[-2])
                 / (self.knots[-1] - self.knots[-2]))
        beyond = self.values[-1] + slope * (t - self.knots[-1])
        out = np.where(t > self.knots[-1], beyond, inside)
        return (float(out) if out.ndim == 0 else out), extended


def validate_psi(knots, values, atol=1e-9, name=""):
    """Check the certificate-function contract and build the PsiSpec.

    Raises NonzeroAtZero / NegativeValue / NotConvex. The Lipschitz constant
    on the grid is the largest slope (convexity makes it the last one).
    """
    k = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if k.ndim != 1 or k.shape != v.shape or k.size < 2:
        raise ValueError("need matching 1-d knot and value arrays, length >= 2")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))) or np.any(np.diff(k) <= 0):
        raise ValueError("knots must be finite and strictly increasing, values finite")
    if np.any(v < -atol):
        raise NegativeValue("certificate functions are nonnegative")
    if abs(k[0]) > 1e-15 or v[0] > atol:
        raise NonzeroAtZero("certificate functions vanish at 0")
    v = np.maximum(v, 0.0)
    slopes = np.diff(v) / np.diff(k)
    if np.any(np.diff(slopes) < -atol * max(1.0, np.abs(slopes).max())):
        raise NotConvex("slopes must be nondecreasing")
    return PsiSpec(k.copy(), v, float(slopes.max()), name=name)


def builtin_psi(name, knots):
    """Named reference functions on a grid: "square", "linear", "power:a"."""
    k = np.asarray(knots, dtype=float)
    if k[0] != 0.0:
        k = np.concatenate([[0.0], k])
    if name == "square":
        return validate_psi(k, k * k, name="square")
    if name == "linear":
        return validate_psi(k, k, name="linear")
    if name.startswith("power:"):
        a = float(name.split(":", 1)[1])
        if a < 1.0:
            raise NotConvex(f"power {a} is not convex")
        return validate_psi(k, k ** a, name=name)
    raise ValueError(f"unknown builtin {name!r}")


def _lipschitz(k, v):
    """The largest |slope| of the knots k and values v: ValueError unless k
    is finite and strictly increasing and v finite."""
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(v))) or np.any(np.diff(k) <= 0):
        raise ValueError("knots must be finite and strictly increasing, values finite")
    return float(np.abs(np.diff(v) / np.diff(k)).max())


def psi_from_curve(curve, scale=1.0, name=""):
    """Certificate function from a sampled modulus curve (a ModulusCurve),
    zero anchored.  A negative scale raises NegativeValue, a non-finite one
    ValueError (_lipschitz)."""
    if scale < 0:
        raise NegativeValue("a negative scale makes the certificate negative")
    k = np.concatenate([[0.0], curve.args])
    v = scale * np.concatenate([[0.0], np.maximum(curve.values, 0.0)])
    return PsiSpec(k, v, _lipschitz(k, v), name=name or "curve")


def rescale_psi(psi, arg_scale=1.0, value_scale=1.0, name=""):
    """PsiSpec for t -> value_scale * psi(arg_scale * t).  A negative
    value_scale raises NegativeValue, a non-finite one ValueError
    (_lipschitz)."""
    if value_scale < 0:
        raise NegativeValue("a negative value_scale makes the certificate negative")
    k = psi.knots / arg_scale
    v = value_scale * psi.values
    return PsiSpec(k, v, _lipschitz(k, v), name=name or f"rescaled:{psi.name}")


def _upper_concave_hull(x, y):
    """Upper concave hull of the path (x, y), x increasing. Returns knot
    subset indices; the hull is linear between them."""
    pts = list(range(len(x)))
    hull = []
    for i in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when it lies below segment a-i
            cross = ((x[b] - x[a]) * (y[i] - y[a])
                     - (y[b] - y[a]) * (x[i] - x[a]))
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def regularize_psi(psi):
    """Geometric-mean regularization psi -> t^2 / sqrt(hull(t^2 / psi)).

    Requires psi to dominate t^2 near 0 (t^2/psi decreasing to 0 as t drops);
    raises PreconditionViolated otherwise, e.g. for psi = t^2 itself. The
    result sits between t^2 and psi with a ratio vanishing at 0 on both
    sides, and inherits quadratic regularity from the concave hull.
    """
    t = psi.knots
    v = psi.values
    pos = v[1:] > 0
    if not pos.all():
        raise PreconditionViolated("psi must be positive away from 0")
    h = np.concatenate([[0.0], t[1:] * t[1:] / v[1:]])
    rel = 1e-9 * max(1.0, h.max())
    if np.any(np.diff(h) < -rel):
        raise PreconditionViolated("t^2/psi must be nondecreasing on the grid")
    if not (h[1] <= h[-1] / 5.0):
        raise PreconditionViolated("t^2/psi does not vanish toward 0")
    idx = _upper_concave_hull(t, h)
    gamma = np.interp(t, t[idx], h[idx])
    vals = np.concatenate([[0.0], t[1:] * t[1:] / np.sqrt(gamma[1:])])
    return PsiSpec(t.copy(), vals, _lipschitz(t, vals), name=f"regularized:{psi.name}")
