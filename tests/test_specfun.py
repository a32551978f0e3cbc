import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from specprobe.errors import QuadratureError
from specprobe.fitting import fit_power_law
from specprobe.specfun import (
    bessel_j,
    integrate_sqrt_singular,
    langer_profile,
)

# Forty-digit arbitrary-precision references, frozen from an independent
# series evaluation.
BESSEL_REFERENCE = [
    (0.0, 1.0, 0.7651976865579665514497175),
    (1.0 / 3.0, 5.0, -0.3064204638002641662974738),
    (0.5, 3.5, -0.1496045696495265726921389),
    (2.5, 12.0, 0.07242267383180952185706703),
    (3.5, 80.0, -0.003177167559112905329452806),
    (4.5, 200.0, -0.04784112744145293612633701),
    (2.0, 0.25, 0.007771889285962676928908673),
]

LANGER_REFERENCE = [
    (0.5, 0.8888878251785079138510929),
    (2.0, 0.3757551679722029055893948),
    (50.0, 0.4955945102733059144354242),
    (200.0, -0.2733545047376048640822751),
]

SQRT_ONE_MINUS_U4 = 0.8740191847640399368216132
SQRT_ONE_MINUS_U6 = 0.9107439929578431044324781
BUMP_CONSTANT = 0.4439938161680794378230489


def test_bessel_frozen_references():
    for nu, x, ref in BESSEL_REFERENCE:
        assert bessel_j(nu, x) == pytest.approx(ref, rel=1e-10)


def test_bessel_against_library_sweep():
    xs = np.concatenate([np.linspace(1e-6, 30.0, 301), np.geomspace(30.0, 500.0, 80)])
    for nu in [0.0, 1.0 / 3.0, 0.5, 1.0, 2.5, 3.5, 4.5, 6.5]:
        mine = bessel_j(nu, xs)
        ref = special.jv(nu, xs)
        # relative against the oscillation envelope, so zeros do not blow
        # up the quotient
        envelope = np.maximum(np.abs(ref), 0.05 * np.max(np.abs(ref)))
        assert np.max(np.abs(mine - ref) / envelope) < 2e-10


def test_bessel_large_order_degrades_gracefully():
    xs = np.linspace(0.5, 60.0, 121)
    for nu in [8.0, 9.5, 12.0]:
        mine = bessel_j(nu, xs)
        ref = special.jv(nu, xs)
        envelope = np.maximum(np.abs(ref), 0.05 * np.max(np.abs(ref)))
        assert np.max(np.abs(mine - ref) / envelope) < 1e-8


def test_bessel_half_order_closed_form():
    xs = np.linspace(0.2, 120.0, 97)
    ref = np.sqrt(2.0 / (np.pi * xs)) * np.sin(xs)
    np.testing.assert_allclose(bessel_j(0.5, xs), ref, rtol=0, atol=2e-12)


def test_bessel_recurrence_consistency():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
    xs = np.linspace(0.5, 40.0, 160)
    for nu in [1.0 / 3.0 + 1.0, 0.5 + 1.0, 2.5]:
        lhs = bessel_j(nu - 1.0, xs) + bessel_j(nu + 1.0, xs)
        rhs = 2.0 * nu / xs * bessel_j(nu, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_bessel_branch_handoff_is_continuous():
    from specprobe.specfun import _bessel_hankel, _bessel_series, _series_crossover

    for nu in [0.0, 1.0 / 3.0, 0.5, 2.5, 4.5, 6.5]:
        xc = _series_crossover(nu)
        assert abs(_bessel_series(nu, xc) - _bessel_hankel(nu, xc)) < 1e-9


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)


def test_bessel_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.5, 0.0) == 0.0


def test_langer_frozen_references():
    for z, ref in LANGER_REFERENCE:
        assert langer_profile(z) == pytest.approx(ref, rel=1e-9)


def test_langer_oscillates_like_shifted_cosine():
    # |P(z) - cos(z - pi/4)| <= 2/z at z = 50, and the scaled gap stays
    # bounded on [10, 100] (measured bound 0.07, asserted with headroom)
    assert abs(langer_profile(50.0) - math.cos(50.0 - math.pi / 4)) < 2.0 / 50.0
    zs = np.linspace(10.0, 100.0, 4001)
    gap = np.abs(langer_profile(zs) - np.cos(zs - np.pi / 4))
    assert np.max(zs * gap) < 0.08
    # near the first crest past 2 pi the profile is close to 1
    assert abs(langer_profile(math.pi / 4 + 2 * math.pi) - 1.0) < 0.15
    # but at small argument the cosine limit has not set in
    assert abs(langer_profile(0.5) - math.cos(0.5 - math.pi / 4)) > 0.05


def test_langer_domain():
    with pytest.raises(ValueError):
        langer_profile(0.0)
    with pytest.raises(ValueError):
        langer_profile(-2.0)


def test_integrate_smooth():
    out = integrate_sqrt_singular(np.sin, 0.0, math.pi, "none")
    assert out == pytest.approx(2.0, rel=1e-12)


def test_integrate_sqrt_right_singular():
    out = integrate_sqrt_singular(lambda x: np.sqrt(1.0 - x), 0.0, 1.0, "right")
    assert out == pytest.approx(2.0 / 3.0, rel=1e-12)
    out = integrate_sqrt_singular(
        lambda x: np.sqrt(1.0 - x**4), 0.0, 1.0, "right"
    )
    assert out == pytest.approx(SQRT_ONE_MINUS_U4, rel=1e-9)
    out = integrate_sqrt_singular(
        lambda x: np.sqrt(1.0 - x**6), 0.0, 1.0, "right"
    )
    assert out == pytest.approx(SQRT_ONE_MINUS_U6, rel=1e-9)


def test_integrate_sqrt_left_singular():
    out = integrate_sqrt_singular(lambda x: np.sqrt(x), 0.0, 1.0, "left")
    assert out == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_integrate_bump_constant():
    out = integrate_sqrt_singular(
        lambda u: np.where(np.abs(u) < 1.0, np.exp(-1.0 / (1.0 - u**2)), 0.0),
        -1.0,
        1.0,
        "none",
    )
    assert out == pytest.approx(BUMP_CONSTANT, rel=1e-9)


def test_integrate_errors():
    with pytest.raises(ValueError):
        integrate_sqrt_singular(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_sqrt_singular(np.sin, 0.0, 1.0, "both")
    with pytest.raises(QuadratureError):
        integrate_sqrt_singular(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, "none")


def test_integrate_non_integrable_end_raises_without_warning():
    # splitting towards the pole at 0 reaches samples that overflow; the
    # result is a QuadratureError, not numpy's overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            integrate_sqrt_singular(lambda x: 1.0 / x, 0.0, 1.0)
        assert integrate_sqrt_singular(lambda x: x**-0.9, 0.0, 1.0) == pytest.approx(
            10.0, rel=1e-9
        )


@settings(max_examples=25, deadline=None)
@given(split=st.floats(min_value=0.05, max_value=0.95))
def test_integrate_additive_over_subintervals(split):
    f = lambda x: np.sqrt(np.maximum(1.0 - x, 0.0)) * (1.0 + x)
    whole = integrate_sqrt_singular(f, 0.0, 1.0, "right")
    left = integrate_sqrt_singular(f, 0.0, split, "none")
    right = integrate_sqrt_singular(f, split, 1.0, "right")
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_fit_power_law_exact():
    x = np.geomspace(1.0, 100.0, 12)
    fit = fit_power_law(list(zip(x, 3.0 * x**2.5)))
    assert fit.exponent == pytest.approx(2.5, abs=1e-12)
    assert fit.log_intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_constant_sequence():
    x = np.geomspace(1.0, 10.0, 8)
    fit = fit_power_law(list(zip(x, np.full(8, 7.0))))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_power_law_window():
    x = np.geomspace(1.0, 100.0, 20)
    y = 2.0 * x**1.5
    y[:5] = 1.0  # corrupt the head; window skips it
    fit = fit_power_law(list(zip(x, y)), window=(5, 20))
    assert fit.exponent == pytest.approx(1.5, abs=1e-12)


def test_fit_power_law_errors():
    x = np.geomspace(1.0, 10.0, 6)
    with pytest.raises(ValueError):
        fit_power_law(list(zip(x[:4], x[:4])))
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 1.0), (5.0, 1.0)])
    with pytest.raises(ValueError):
        fit_power_law(list(zip(x, x)), window=(0, 99))


@settings(max_examples=25, deadline=None)
@given(
    exponent=st.floats(min_value=-3.0, max_value=3.0),
    scale=st.floats(min_value=0.01, max_value=100.0),
)
def test_fit_power_law_recovers_parameters(exponent, scale):
    x = np.geomspace(0.5, 50.0, 9)
    fit = fit_power_law(list(zip(x, scale * x**exponent)))
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert math.exp(fit.log_intercept) == pytest.approx(scale, rel=1e-9)


def polyfit_power_law(points):
    """The numpy least-squares line the pure-Python fit replaced, kept as its reference.

    Both coordinates are centred before ``np.polyfit``: uncentred, a
    narrow cluster of log points far from the origin costs the reference
    itself up to 1e-12 in the slope, more than the fit under test is
    allowed (which meets the exact rational line on such data).
    """
    pts = np.asarray(points, dtype=float)
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    slope, _ = np.polyfit(lx - lx.mean(), ly - ly.mean(), 1)
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    if ss_tot <= 1e-30:
        return float(slope), float(intercept), 1.0 if ss_res <= 1e-24 else 0.0
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(min_value=1e-3, max_value=1e4),
    ratio=st.floats(min_value=1.01, max_value=3.0),
    exponent=st.floats(min_value=-3.0, max_value=3.0),
    noise=st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=5, max_size=40),
)
@example(x0=0.0078125, ratio=1.01, exponent=0.0, noise=[-0.0625, 0.125, 0.0, -0.25, 0.125])
@example(x0=867.8186461155559, ratio=1.0100000000000002, exponent=1.0, noise=[0.0] * 7)
def test_fit_power_law_matches_polyfit(x0, ratio, exponent, noise):
    points = [(x0 * ratio**i, x0**exponent * ratio ** (i * exponent) * math.exp(e))
              for i, e in enumerate(noise)]
    slope, intercept, r_squared = polyfit_power_law(points)
    fit = fit_power_law(points)
    scale = 1.0 + abs(math.log(x0)) + len(noise) * math.log(ratio)  # of the log abscissae
    assert fit.exponent == pytest.approx(slope, rel=1e-12, abs=1e-12 * abs(exponent) + 1e-13)
    assert fit.log_intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12 * scale)
    if max(noise) - min(noise) > 1e-3:  # without scatter r^2 is rounding noise over 0
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=1e-12)


def test_fit_power_law_needs_two_abscissae():
    with pytest.raises(ValueError):
        fit_power_law([(2.0, y) for y in (1.0, 2.0, 3.0, 4.0, 5.0)])
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0, 1.0)] * 5)
