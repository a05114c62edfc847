"""Reference norms and closed sets used by the test suite and the CLI.

The seeded polygon and ellipse norms are deterministic: the registry builds
byte-identical specs on every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .norms import NormSpec, ellipse_norm, lp_norm, polygon_norm
from .sets import (
    ClosedSetSpec,
    cylinder_extend,
    make_ball,
    make_ball_complement,
    make_finite_points,
    make_halfspace,
    make_polytope_complement,
)

_POLY_SEED = 113
_ELLIPSE_SEED = 211


def _hull_vertices(P: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of planar points, by Andrew's monotone
    chain; points on an edge are left out."""
    pts = P[np.lexsort((P[:, 1], P[:, 0]))]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ux, uy), (wx, wy) = out[-1] - out[-2], p - out[-2]
                if ux * wy - uy * wx > 0:  # a left turn keeps out[-1]
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))


def norm_zoo() -> dict:
    """The seven planar test norms, keyed by id."""
    rng = np.random.default_rng(_POLY_SEED)
    raw = rng.standard_normal((5, 2)) * np.array([1.2, 0.8]) + 0.1
    poly = polygon_norm(_hull_vertices(np.vstack([raw, -raw])), name="poly")

    rng = np.random.default_rng(_ELLIPSE_SEED)
    a = rng.standard_normal((2, 2))
    q = a @ a.T + 0.5 * np.eye(2)
    ell = ellipse_norm(q, name="ellipse")

    return {
        "euclid": lp_norm(2, 2, name="euclid"),
        "l15": lp_norm(1.5, 2, name="l15"),
        "l3": lp_norm(3, 2, name="l3"),
        "l1": lp_norm(1, 2, name="l1"),
        "linf": lp_norm(np.inf, 2, name="linf"),
        "poly": poly,
        "ellipse": ell,
    }


@dataclasses.dataclass(frozen=True)
class ZooEntry:
    name: str
    spec: ClosedSetSpec
    ambient: str  # norm id the set is checked under
    R: float
    expect_smooth: bool  # expected verdict shared by certificate and both rolling-ball checks


def set_registry(norms: dict) -> dict:
    """Set specs by id, each with the ambient norm id it is checked under."""
    disc_c = make_ball_complement([0.0, 0.0], 1.0, name="disc_complement")
    l15_c = make_ball_complement([0.0, 0.0], 1.0, gauge=norms["l15"], name="l15_ball_complement")
    l3_c = make_ball_complement([0.0, 0.0], 1.0, gauge=norms["l3"], name="l3_ball_complement")
    halfplane = make_halfspace([0.0, 1.0], 0.0, name="halfplane")
    disc = make_ball([0.0, 0.0], 1.5, name="disc")
    two = make_finite_points([[-1.0, 0.0], [1.0, 0.0]], name="two_points")
    square_c = make_polytope_complement(
        [([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0), ([0.0, 1.0], 1.0), ([0.0, -1.0], 1.0)],
        name="square_complement")
    tube = cylinder_extend(disc_c, 3, (0, 1), name="tube")
    return {
        "disc_complement": (disc_c, "euclid"),
        "l15_ball_complement": (l15_c, "l15"),
        "l3_ball_complement": (l3_c, "l3"),
        "halfplane": (halfplane, "euclid"),
        "disc": (disc, "euclid"),
        "two_points": (two, "euclid"),
        "square_complement": (square_c, "euclid"),
        "tube": (tube, "euclid3"),
        "box_complement": (make_ball_complement([0.0, 0.0], 1.0, gauge=norms["linf"],
                                                name="box_complement"), "linf"),
    }


DEFAULT_SET_SCALES = (
    ("disc_complement", 0.7),
    ("disc_complement", 1.0),
    ("l15_ball_complement", 0.8),
    ("l3_ball_complement", 1.0),
    ("halfplane", 2.0),
    ("disc", 1.5),
    ("two_points", 0.5),
    ("two_points", 1.5),
    ("square_complement", 0.5),
    ("tube", 0.8),
)


def set_zoo(norms: dict) -> list:
    """Closed sets with scales and the expected certificate verdicts."""
    reg = set_registry(norms)
    expected = {
        ("disc_complement", 0.7): True,
        ("disc_complement", 1.0): True,
        ("l15_ball_complement", 0.8): True,
        ("l3_ball_complement", 1.0): True,
        ("halfplane", 2.0): True,
        ("disc", 1.5): True,
        ("two_points", 0.5): True,
        ("two_points", 1.5): False,
        ("square_complement", 0.5): False,
        ("tube", 0.8): True,
    }
    out = []
    for sid, R in DEFAULT_SET_SCALES:
        spec, ambient = reg[sid]
        out.append(ZooEntry(f"{sid}@{R:g}", spec, ambient, R, expected[(sid, R)]))
    return out


def linf_box_complement(norms: dict) -> ClosedSetSpec:
    """Complement of the unit max-norm box, used by the renorming check."""
    return make_ball_complement([0.0, 0.0], 1.0, gauge=norms["linf"], name="box_complement")


def sample_inside(A: ClosedSetSpec, rng) -> np.ndarray:
    """A strictly interior point of A, randomized but bounded."""
    return A.ops.sample_inside(rng)


def ambient_norm(norms: dict, ambient: str) -> NormSpec:
    if ambient == "euclid3":
        return lp_norm(2, 3, name="euclid3")
    return norms[ambient]
