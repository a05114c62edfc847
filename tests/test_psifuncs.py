"""Certificate-function calculus: validation, regularization, rescaling."""

import numpy as np
import pytest

import banachlab as bl
from banachlab.psifuncs import (
    NegativeValue,
    NonzeroAtZero,
    NotConvex,
    PreconditionViolated,
)


GRID = np.concatenate([[0.0], np.geomspace(1e-5, 1.0, 121)])


def test_validate_accepts_square():
    psi = bl.validate_psi(GRID, GRID ** 2)
    assert psi.lipschitz == pytest.approx(GRID[-1] + GRID[-2], rel=1e-9)
    assert psi.eval(0.0) == 0.0


def test_validate_rejects_nonzero_origin():
    with pytest.raises(NonzeroAtZero):
        bl.validate_psi([0.0, 0.5, 1.0], [0.1, 0.5, 1.0])


def test_validate_rejects_negative_values():
    with pytest.raises(NegativeValue):
        bl.validate_psi([0.0, 0.5, 1.0], [0.0, -0.2, 1.0])


def test_validate_rejects_concave():
    with pytest.raises(NotConvex):
        bl.validate_psi([0.0, 0.5, 1.0], [0.0, 0.75, 1.0])


def test_validate_rejects_bad_grids():
    with pytest.raises(ValueError):
        bl.validate_psi([0.0, 0.5, 0.5], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        bl.validate_psi([0.0], [0.0])


def test_psi_builders_reject_non_finite_input():
    """NaN or inf in knots or values raises, instead of giving a PsiSpec
    that evaluates to NaN."""
    with pytest.raises(ValueError):
        bl.validate_psi([0.0, 1.0, 2.0], [0.0, np.nan, 4.0])
    with pytest.raises(ValueError):
        bl.builtin_psi("power:nan", GRID)
    psi = bl.builtin_psi("square", GRID)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError):
        bl.rescale_psi(psi, arg_scale=0.0)
    curve = bl.ModulusCurve(GRID[1:], GRID[1:] ** 2, "under", "quad")
    with pytest.raises(ValueError):
        bl.psi_from_curve(curve, scale=np.nan)


def test_psi_builders_refuse_a_negative_or_non_finite_value_scale():
    """A negative value scale would build a PsiSpec with negative values,
    which validate_psi refuses: both builders raise NegativeValue.  A
    non-finite one raises ValueError, as its values are not finite.  A zero scale gives the zero
    certificate."""
    psi = bl.builtin_psi("square", GRID)
    curve = bl.ModulusCurve(GRID[1:], GRID[1:] ** 2, "under", "quad")
    builders = (lambda s: bl.rescale_psi(psi, value_scale=s),
                lambda s: bl.psi_from_curve(curve, scale=s))
    for build in builders:
        for s in (-1.0, -1e-300):
            with pytest.raises(NegativeValue):
                build(s)
        for s in (np.inf, -np.inf, np.nan):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # inf * 0 at the anchor
                build(s)
        zero = build(0.0)
        assert not np.any(zero.values) and zero.lipschitz == 0.0


def test_builtin_names():
    lin = bl.builtin_psi("linear", GRID)
    assert np.allclose(lin.values, lin.knots, atol=1e-15)
    sq = bl.builtin_psi("square", GRID)
    assert np.allclose(sq.values, sq.knots ** 2, atol=1e-15)
    pw = bl.builtin_psi("power:1.5", GRID)
    assert np.allclose(pw.values, pw.knots ** 1.5, atol=1e-15)
    with pytest.raises(NotConvex):
        bl.builtin_psi("power:0.5", GRID)
    with pytest.raises(ValueError):
        bl.builtin_psi("cubic-spline", GRID)


def test_eval_extends_last_slope():
    psi = bl.builtin_psi("linear", np.linspace(0, 1, 11))
    val, extended = psi.eval_flagged(2.0)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert extended
    val, extended = psi.eval_flagged(0.5)
    assert not extended


def test_rescale_matches_definition():
    psi = bl.builtin_psi("square", GRID)
    scaled = bl.rescale_psi(psi, arg_scale=2.0, value_scale=3.0)
    for t in (0.1, 0.2, 0.4):
        assert scaled.eval(t) == pytest.approx(3.0 * psi.eval(2.0 * t), rel=1e-9)


def test_psi_from_curve_keeps_values():
    t = np.geomspace(1e-2, 1.0, 40)
    curve = bl.ModulusCurve(t, t ** 2, "under", "quad")
    psi = bl.psi_from_curve(curve, scale=0.5)
    assert psi.eval(0.0) == 0.0
    for x in t[::7]:
        assert psi.eval(float(x)) == pytest.approx(0.5 * x * x, rel=1e-12)


# ---------------------------------------------------------------------------
# geometric-mean regularization


def test_regularize_linear_gives_three_halves_power():
    psi = bl.builtin_psi("linear", GRID)
    out = bl.regularize_psi(psi)
    assert np.allclose(out.values, out.knots ** 1.5, atol=1e-9)


def test_regularize_three_halves_gives_seven_quarters_power():
    psi = bl.builtin_psi("power:1.5", GRID)
    out = bl.regularize_psi(psi)
    assert np.allclose(out.values, out.knots ** 1.75, atol=1e-9)


def test_regularize_rejects_square():
    """t^2 / psi is constant for psi = t^2: no decay toward zero, so the
    construction's hypothesis fails."""
    psi = bl.builtin_psi("square", GRID)
    with pytest.raises(PreconditionViolated):
        bl.regularize_psi(psi)


def test_regularize_rejects_vanishing_interior_values():
    knots = np.array([0.0, 0.25, 0.5, 1.0])
    psi = bl.PsiSpec(knots, np.array([0.0, 0.0, 0.0, 1.0]), 2.0, "flat")
    with pytest.raises(PreconditionViolated):
        bl.regularize_psi(psi)


def _decade_ratio_decay(t, num, den):
    """max(num/den) over the smallest decade vs over the largest decade."""
    r = num / den
    small = r[t <= 10.0 * t[0]]
    large = r[t >= t[-1] / 10.0]
    return float(np.max(small)), float(np.max(large))


def test_regularized_output_decays_on_both_sides():
    """The output is squeezed between t^2 and psi, with both gap ratios
    vanishing toward zero (decade rendition: factor 5 drop)."""
    for name in ("linear", "power:1.5"):
        psi = bl.builtin_psi(name, GRID)
        out = bl.regularize_psi(psi)
        t = out.knots[1:]
        v1 = out.values[1:]
        v0 = psi.values[1:]
        small, large = _decade_ratio_decay(t, v1, v0)  # psi1 / psi
        assert small <= 0.2 * large
        small, large = _decade_ratio_decay(t, t * t, v1)  # t^2 / psi1
        assert small <= 0.2 * large


def test_regularized_output_is_valid_certificate():
    for name in ("linear", "power:1.5"):
        out = bl.regularize_psi(bl.builtin_psi(name, GRID))
        again = bl.validate_psi(out.knots, out.values, atol=1e-7)
        assert again.lipschitz > 0

