"""Tests of the benchmark's own checker: the oracles match hand-computed
values, and a perturbed curve or a flipped verdict is rejected.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


# -- oracles against hand-computed values ------------------------------------

def test_hilbert_forms():
    assert O.hilbert_delta(1.0) == pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-16)
    assert O.hilbert_rho(1.0) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-16)
    assert O.hilbert_shift(0.6) == pytest.approx(0.2, abs=1e-16)  # 1 - sqrt(1 - 0.36)
    assert O.hilbert_delta(2.0) == 1.0


def test_delta_has_infinite_slope_at_two():
    # A chord 1e-14 short of 2 already lowers the Hilbert delta by about
    # 1e-7: a pair search that accepts such a chord for eps = 2 reports
    # about 0.9999999 where the exact value is 1.
    drop = O.hilbert_delta(2.0) - O.hilbert_delta(2.0 - 1e-14)
    assert 0.9e-7 < drop < 1.1e-7
    assert O.curve_problems("euclid", "delta", [2.0], [1.0 - drop], "over")


def test_hanner_closed_forms():
    # p = 3: delta(1) = 1 - (7/8)^(1/3), rho(1) = (2^3 / 2)^(1/3) - 1 = 4^(1/3) - 1
    assert O.lp_delta(1.0, 3.0) == pytest.approx(1.0 - 0.875 ** (1.0 / 3.0), abs=1e-16)
    assert O.lp_rho(1.0, 3.0) == pytest.approx(4.0 ** (1.0 / 3.0) - 1.0, abs=1e-16)
    # p = 1.5: rho(1) = 2^(2/3) - 1
    assert O.lp_rho(1.0, 1.5) == pytest.approx(2.0 ** (2.0 / 3.0) - 1.0, abs=1e-16)


def test_hanner_implicit_delta_is_solved_to_rounding():
    # at p = 2 the implicit equation has the Hilbert closed form
    for eps in (0.05, 0.5, 1.0, 1.7, 1.99):
        assert O._hanner_delta_small_p(eps, 2.0) == pytest.approx(O.hilbert_delta(eps), abs=1e-15)
    for eps in (0.1, 0.8, 1.6, 1.9):
        d = O.lp_delta(eps, 1.5)
        lhs = (1 - d + eps / 2) ** 1.5 + abs(1 - d - eps / 2) ** 1.5
        assert abs(lhs - 2.0) < 1e-14
    assert O.lp_delta(2.0, 1.5) == 1.0


def test_lindenstrauss_duality_links_l15_and_l3():
    # rho_X(t) = sup_e (t e / 2 - delta_X*(e)), and l15, l3 are dual
    grid = [2.0 * k / 20000 for k in range(1, 20001)]
    for tau in (0.05, 0.3, 1.0):
        for p, q in ((3.0, 1.5), (1.5, 3.0)):
            sup = max(tau * e / 2.0 - O.lp_delta(e, q) for e in grid)
            assert sup == pytest.approx(O.lp_rho(tau, p), abs=1e-6)


# -- curve checks --------------------------------------------------------------

def _exact_curve(nid, kind, args):
    f = {"delta": O.exact_delta, "rho": O.exact_rho}[kind]
    return [f(nid, a) for a in args]


@pytest.mark.parametrize("nid", ["euclid", "ellipse", "l15", "l3", "l1", "linf"])
def test_exact_curves_pass(nid):
    args = [0.05, 0.3, 1.0, 1.6, 2.0]
    for kind, direction in (("delta", "over"), ("rho", "under")):
        assert O.curve_problems(nid, kind, args, _exact_curve(nid, kind, args), direction) == []


def test_perturbed_curves_are_rejected():
    args = [0.1, 0.5, 1.2]
    delta = _exact_curve("l15", "delta", args)
    rho = _exact_curve("l3", "rho", args)
    low = list(delta)
    low[1] -= 1e-10  # an "over" curve below the exact value
    assert O.curve_problems("l15", "delta", args, low, "over")
    high = list(rho)
    high[2] += 1e-10  # an "under" curve above it
    assert O.curve_problems("l3", "rho", args, high, "under")
    far = list(delta)
    far[0] += 1e-7  # right side, but too far
    assert O.curve_problems("l15", "delta", args, far, "over")
    assert O.curve_problems("l15", "delta", args, delta, "under")  # wrong label
    # bounds that hold for every norm: rho_X <= tau, delta_X <= delta_H
    assert O.curve_problems("poly", "rho", args, [a + 1e-6 for a in args], "under")
    assert O.curve_problems("poly", "delta", args,
                            [O.hilbert_delta(a) + 1e-6 for a in args], "over")
    assert O.curve_problems("poly", "support_upper", args, [a * 1.01 for a in args], "under")


def test_support_shifts():
    r = [0.2, 0.6, 1.0]
    hil = [O.hilbert_shift(v) for v in r]
    assert O.curve_problems("euclid", "support_lower", r, hil, "over") == []
    assert O.curve_problems("linf", "support_upper", r, r, "under") == []
    assert O.curve_problems("l1", "support_lower", r, [0.0] * 3, "over") == []
    assert O.curve_problems("euclid", "support_upper", r, [v + 1e-5 for v in hil], "under")
    # labels at rounding level: an "over" curve 3e-8 below the exact value,
    # or an "under" curve 1e-10 above it, is rejected
    low = list(hil)
    low[2] -= 3e-8
    assert O.curve_problems("euclid", "support_lower", r, low, "over")
    high = list(hil)
    high[0] += 1e-10
    assert O.curve_problems("ellipse", "support_upper", r, high, "under")
    assert O.curve_problems("linf", "support_upper", r, [v + 1e-10 for v in r], "under")
    # on the side the label allows, up to ACCURACY is accepted
    assert O.curve_problems("euclid", "support_lower", r[:2], [v + 1e-7 for v in hil[:2]],
                            "over") == []


def test_gamma_checks():
    assert O.gamma_problems("euclid", 0.3, 0.09) == []
    assert O.gamma_problems("ellipse", 0.3, 0.09 + 1e-5)
    lower = O.lp_rho(0.1, 3.0)
    assert O.gamma_problems("l3", 0.4, lower) == []
    assert O.gamma_problems("l3", 0.4, lower * (1 - 1e-9))
    assert O.gamma_problems("l15", 0.4, float("nan"))


# -- verdicts ------------------------------------------------------------------

SMOOTH = {"two_points@0.5": True, "two_points@1.5": False,
          "square_complement@0.5": False, "disc_complement@1": True}


def test_expected_smoothness_follows_geometry():
    assert O.expected_smooth("two_points", 0.5) is True
    assert O.expected_smooth("two_points", 1.5) is False
    assert O.expected_smooth("square_complement", 0.1) is False
    assert O.expected_smooth("l3_ball_complement", 1.0) is True
    assert O.expected_smooth("disc_complement", 1.2) is False
    with pytest.raises(KeyError):
        O.expected_smooth("moebius_strip", 1.0)


@pytest.mark.parametrize("check,verdict,ok", [
    ("sets/two_points@1.5/certificate", "fail", True),
    ("sets/two_points@1.5/certificate", "pass", False),
    ("sets/two_points@0.5/rolling-normal", "fail", False),
    ("sets/square_complement@0.5/coherence", "pass", True),
    ("hypo/euclid/seventeenth-smoothness", "fail", True),
    ("hypo/euclid/seventeenth-smoothness", "pass", False),
    ("hypo/l3/seventeenth-smoothness", "pass", True),
    ("hypo/disc_complement@1/forward-smoothness", "skip", False),
    ("hypo/square_complement@0.5/forward-smoothness", "skip", True),
    ("hypo/disc_complement@1/forward-convexity", "fail", False),
    ("hypo/renorm-transfer", "fail", False),
    ("moduli/poly/doubling-window", "skip", True),
    ("moduli/l15/doubling-window", "skip", False),
])
def test_flipped_verdicts_are_rejected(check, verdict, ok):
    assert (W.verdict_problems(check, verdict, SMOOTH) == []) is ok


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert W.config(workload, 7) == W.config(workload, 7)
    cfg = W.config(workload, 8)
    assert all(0 < v <= 2 for v in cfg["grids"]["eps"])
    assert all(0 < v <= 1 for v in cfg["grids"]["tau"] + cfg["grids"]["r"])


def test_moduli_default_grids_double_exactly():
    for seed in range(20):
        g = W.config("moduli-default", seed)["grids"]
        for grid in (g["tau"], g["r"]):
            assert all(b == 2 * a for a, b in zip(grid, grid[1:]))
        assert g["r"] == [0.25, 0.5, 1.0]  # ends at 1, as the CLI's default r grid does


# -- tracing -------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(HERE.parent / "src"))
    import banachlab
    from banachlab import cli, hypo, norms, sets  # noqa: F401  (the tracer wraps cli too)
    from tracing import Tracer

    orig = norms.norm_eval
    tracer = Tracer()
    tracer.install()
    try:
        assert sets.norm_eval is hypo.norm_eval is banachlab.norm_eval is norms.norm_eval
        assert norms.norm_eval is not orig
        n = norms.lp_norm(3)
        sets.norm_eval(n, [1.0, 2.0])  # norm_eval calls norm_batch inside norms
        norms.norm_batch(n, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    finally:
        tracer.uninstall()
    assert sets.norm_eval is orig
    m = tracer.metrics()
    assert m["norms.norm_eval.calls"] == 1
    assert m["norms.norm_batch.calls"] == 2
    assert m["norms.norm_batch.rows"] == 4
