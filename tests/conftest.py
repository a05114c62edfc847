"""Shared fixtures: the norm zoo and cached modulus curves.

Curve estimation is the expensive part of the suite, so the sampled
curves are computed once per session at the low search budget and reused
by every test that only needs qualitative accuracy.
"""

import numpy as np
import pytest

import banachlab as bl
from banachlab import norms as N
from banachlab.moduli import SearchBudget


LOW = SearchBudget.preset("low")

R_GRID = np.linspace(0.05, 1.0, 20)
EPS_GRID = np.arange(0.05, 1.901, 0.05)
TAU_GRID = np.array(sorted({min(1.0, 0.01 * 2.0 ** (k / 3.0)) for k in range(20)} | {1.0}))


def _image(base, T, name):
    """The norm x -> |Tx|_base, as a spec of its own."""
    n = bl.NormSpec(kind="image", dim=2, matrix=tuple(map(tuple, T)), name=name)
    n.__dict__["ops"] = N._LinearImage(n, base, np.asarray(T, dtype=float))
    return n


def _rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


@pytest.fixture(scope="session")
def norms():
    return bl.norm_zoo()


@pytest.fixture(scope="session")
def curve_bank(norms):
    """delta / rho / lambda curves per norm id, low budget, shared grids.

    delta args cover EPS_GRID plus the doubled r grid; rho args cover
    TAU_GRID plus r/2 and 2r so the sandwich inequalities can be read off
    without re-estimation.
    """
    bank = {}
    d_args = np.array(sorted(set(np.round(np.concatenate([EPS_GRID, 2 * R_GRID]), 10))))
    r_args = np.array(sorted(set(np.round(
        np.concatenate([TAU_GRID, R_GRID / 2, np.minimum(2 * R_GRID, 2.0)]), 10))))
    for nid, n in norms.items():
        bank[nid] = {
            "delta": bl.delta_estimate(n, d_args, LOW),
            "rho": bl.rho_estimate(n, r_args, LOW),
            "lam_hi": bl.supporting_modulus_estimate(n, R_GRID, "upper", LOW),
            "lam_lo": bl.supporting_modulus_estimate(n, R_GRID, "lower", LOW),
        }
    return bank
