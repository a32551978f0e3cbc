"""Semiclassical layer tests against closed forms and synthetic profiles.

Oracle values were frozen from independent high-precision quadrature
(40-digit arithmetic) before the module was written:

  quartic plateau     int_0^1 sqrt(1-u^4) du = 0.8740191847640399368216132
  sextic plateau      int_0^1 sqrt(1-u^6) du = 0.9107439929578431044324781
  harmonic phase      int_1^2 sqrt(4-r^2) dr = 2 pi/3 - sqrt(3)/2
                                             = 1.228369698608756845544706
"""

import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprobe import wkb
from specprobe.eigensolve import solve_spectrum
from specprobe.errors import ThresholdError
from specprobe.formats import RadialGrid
from specprobe.fitting import fit_power_law, gap_scaling
from specprobe.model import PowerTerm
from specprobe.potential import Channel, PotentialModel, effective_potential, eval_potential
from specprobe.specfun import integrate_sqrt_singular, langer_profile

QUARTIC_PLATEAU = 0.8740191847640399368216132
SEXTIC_PLATEAU = 0.9107439929578431044324781
HARMONIC_PHASE_1_TO_2 = 1.228369698608756845544706

QUARTIC = PotentialModel.pure(4, 1.0)
SEXTIC = PotentialModel.pure(6, 1.0)
MIXED = PotentialModel.from_spec("1*r^4+0.5*r^6")
HARMONIC = PotentialModel.pure(2, 1.0)
CH30 = Channel(3, 0)
CH31 = Channel(3, 1)


def bare_x(model, lam):
    """The root ``X`` of ``V = lam``."""
    return float(wkb._bare_edges(model, np.array([lam]))[0])


def fake_pair(lam, level=0, f_at_1=0.0, fprime_at_1=0.0, samples=None):
    return types.SimpleNamespace(
        lam=lam, level=level, f_at_1=f_at_1, fprime_at_1=fprime_at_1, samples=samples
    )


def fake_table(pairs):
    """The table ``summarize`` reads, of pairs at levels 0, 1, ...: their
    eigenvalues and, on a nine-point grid centred on ``r = 1``, samples
    linear in ``r`` that give back each pair's ``f(1)`` and ``f'(1)``."""
    h = 2.0**-6
    grid = RadialGrid(1.0 - 4.0 * h, h, 9)
    samples = np.array([[p.f_at_1 + p.fprime_at_1 * (r - 1.0) for r in grid.r] for p in pairs])
    return types.SimpleNamespace(eigenvalues=np.array([p.lam for p in pairs]), grid=grid,
                                 block=lambda columns: samples[:, columns])


class TestTurningPoints:
    def test_quartic_centrifugal_free(self):
        assert wkb.turning_points(CH30, QUARTIC, 16.0) == pytest.approx(2.0, rel=1e-12)
        assert bare_x(QUARTIC, 16.0) == pytest.approx(2.0, rel=1e-12)

    def test_centrifugal_pulls_t_in(self):
        # gamma/r^2 raises U, so the U = lam root sits inside the V = lam root
        big_t, big_x = wkb.turning_points(CH31, QUARTIC, 16.0), bare_x(QUARTIC, 16.0)
        assert big_x == pytest.approx(2.0, rel=1e-12)
        assert big_t < big_x
        u_t = effective_potential(CH31, QUARTIC, big_t)
        assert u_t == pytest.approx(16.0, rel=1e-10)

    def test_below_minimum_rejected(self):
        # U = 2/r^2 + r^4 has minimum 3 at r = 1
        with pytest.raises(ValueError):
            wkb.turning_points(CH31, QUARTIC, 2.5)

    def test_rejected_promptly_just_above_the_minimum(self):
        # the whole well is rounding noise of lam - U for the phase integral
        start = time.perf_counter()
        with pytest.raises(ValueError, match="potential minimum"):
            wkb.phase_and_zeta(CH31, QUARTIC, 3.0 * (1.0 + 1e-10), 1.0)
        assert time.perf_counter() - start < 2.0

    def test_lowest_gamma_level_summarised(self, quartic_n1):
        (summary,) = wkb.summarize(quartic_n1.truncated(1), CH31, QUARTIC)
        assert summary.level == 0
        assert 1.0 < summary.turning_t < summary.turning_x
        assert math.isfinite(summary.phase_to_turning) and summary.allowed is not None

    @pytest.mark.parametrize("channel", [CH30, CH31])
    @pytest.mark.parametrize("lam", [16.0, 150.0, 1234.5])
    def test_roots_on_the_allowed_side(self, channel, lam):
        # each root is the last float at which the potential is at most the
        # level: f(root) <= 0 < f(next float up)
        outer = wkb.allowed_interval(channel, QUARTIC, lam)[1]
        for root, f in (
            (wkb.turning_points(channel, QUARTIC, lam),
             lambda r: effective_potential(channel, QUARTIC, r) - lam),
            (bare_x(QUARTIC, lam), lambda r: eval_potential(QUARTIC, r) - lam),
            (outer, lambda r: effective_potential(channel, QUARTIC, r) - 0.5 * lam),
        ):
            assert f(root) <= 0.0 < f(math.nextafter(root, math.inf))


@pytest.fixture(scope="module")
def mixed_n2():
    return solve_spectrum(Channel(5, 2), MIXED, 24)


@pytest.fixture(params=["quartic 3:0", "mixed 5:2"])
def solved(request):
    """A table with its channel and model: quartic_n0 or mixed_n2."""
    if request.param == "quartic 3:0":
        return request.getfixturevalue("quartic_n0"), CH30, QUARTIC
    return request.getfixturevalue("mixed_n2"), Channel(5, 2), MIXED


class TestTableTurningPoints:
    """The array iteration ``summarize`` uses, on every level of a table."""

    def test_every_root_on_the_allowed_side(self, solved):
        table, channel, model = solved
        u = lambda r: effective_potential(channel, model, r)
        v = lambda r: eval_potential(model, r)
        summaries = wkb.summarize(table, channel, model)
        assert len(summaries) == len(table.eigenvalues)
        up = lambda r: math.nextafter(r, math.inf)
        down = lambda r: math.nextafter(r, -math.inf)
        for s in summaries:
            lam = s.lam
            assert u(s.turning_t) <= lam < u(up(s.turning_t))
            assert v(s.turning_x) <= lam < v(up(s.turning_x))
            assert s.turning_t == wkb.turning_points(channel, model, lam)
            if s.allowed is not None:
                a, b = s.allowed
                assert u(b) <= 0.5 * lam < u(up(b))
                if a > lam**-0.25:  # the centrifugal barrier sets the lower edge
                    assert u(a) <= 0.5 * lam < u(down(a))
        if channel.gamma > 0.0:
            assert any(s.allowed and s.allowed[0] > s.lam**-0.25 for s in summaries)

    def test_summarize_scalar_potential_calls(self, solved, monkeypatch):
        table, channel, model = solved
        # effective_potential + eval_potential calls with a scalar radius
        # when summarize bisected each level's roots one by one
        bisecting = {CH30: 7329 + 7158, Channel(5, 2): 7207 + 2896}[channel]
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                if np.ndim(args[1] if fn is eval_potential else args[2]) == 0:
                    calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(wkb, "effective_potential", counted(effective_potential))
        monkeypatch.setattr(wkb, "eval_potential", counted(eval_potential))
        wkb.summarize(table, channel, model)
        assert 0 < len(calls) <= bisecting / 10


class TestAction:
    def test_quartic_closed_form(self):
        for lam in (3.799673029801394, 100.0, 5000.0):
            expect = lam**0.75 * QUARTIC_PLATEAU / math.pi
            assert wkb.action_integral(QUARTIC, lam) == pytest.approx(expect, rel=1e-10)

    def test_sextic_closed_form(self):
        expect = 300.0 ** (2.0 / 3.0) * SEXTIC_PLATEAU / math.pi
        assert wkb.action_integral(SEXTIC, 300.0) == pytest.approx(expect, rel=1e-10)

    def test_harmonic_quarter_rule(self):
        assert wkb.action_integral(HARMONIC, 41.0) == pytest.approx(10.25, rel=1e-10)

    def test_coefficient_scaling(self):
        scaled = PotentialModel.pure(4, 16.0)
        # kappa^(-1/2c) factor: action shrinks by 16^(-1/4) = 1/2
        base = wkb.action_integral(QUARTIC, 77.0)
        assert wkb.action_integral(scaled, 77.0) == pytest.approx(base / 2.0, rel=1e-10)

    @given(st.floats(min_value=2.0, max_value=5e4))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, lam):
        base = wkb.action_integral(QUARTIC, 1.0)
        assert wkb.action_integral(QUARTIC, lam) == pytest.approx(
            lam**0.75 * base, rel=1e-9
        )

    def test_mixed_model_between_pure_bounds(self):
        # r^4 <= r^4 + 0.5 r^6 on r >= 0, so the action sits below quartic
        lam = 120.0
        mixed = wkb.action_integral(MIXED, lam)
        assert mixed < wkb.action_integral(QUARTIC, lam)
        assert mixed > 0.0

    @given(st.floats(min_value=1.0, max_value=60.0))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip_mixed(self, target):
        lam = wkb.inverse_action(MIXED, target)
        assert wkb.action_integral(MIXED, lam) == pytest.approx(target, rel=1e-8)

    def test_inverse_round_trip_pure(self):
        lam = wkb.inverse_action(QUARTIC, 7.75)
        assert wkb.action_integral(QUARTIC, lam) == pytest.approx(7.75, rel=1e-11)

    def test_level_density_matches_difference_quotient(self):
        for model in (QUARTIC, MIXED):
            lam = 180.0
            d = wkb.level_density(model, lam)
            fd = (
                wkb.action_integral(model, lam * 1.001)
                - wkb.action_integral(model, lam * 0.999)
            ) / (0.002 * lam)
            assert d == pytest.approx(fd, rel=1e-5)


def adaptive_allowed_integrals(channel, model, a, b, lam):
    """Reference for ``wkb.allowed_integrals`` of ``U`` at one ``lam``: the
    adaptive rule on each half of ``[a, b]``.

    A half that ends at a root ``e`` of ``lam - U`` is integrated in ``u``,
    with ``r = e + s u^2`` (``s`` points into the half).  There
    ``lam - U = U(e) - U(r) = u^2 |q|`` to rounding, with ``q`` the divided
    difference ``(U(r) - U(e)) / (r - e)``, so the integrands are
    ``2 u^2 |q|^(1/2)`` and ``2 |q|^(-1/2)``: smooth, and free of the
    cancellation of ``lam - U(r)`` near ``e``.  ``a = 0``, not a root, takes
    ``lam - U`` itself.
    """

    def q(e, r):
        out = -channel.gamma * (r + e) / (r * e) ** 2
        for term in model.terms:
            p = term.exponent
            out = out + term.coefficient * sum(r**j * e ** (p - 1 - j) for j in range(p))
        return np.abs(out)

    mid = 0.5 * (a + b)
    total = np.zeros(2)
    ends = [(b, -1.0)]
    if a > 0.0:
        ends.append((a, 1.0))
    else:
        gap = lambda r: lam - effective_potential(channel, model, r)
        total += [
            integrate_sqrt_singular(lambda r: np.sqrt(gap(r)), a, mid, "none", 1e-13),
            integrate_sqrt_singular(lambda r: 1.0 / np.sqrt(gap(r)), a, mid, "none", 1e-13),
        ]
    for e, s in ends:
        span = math.sqrt(abs(mid - e))
        qe = lambda u: q(e, e + s * u * u)
        total += [
            integrate_sqrt_singular(lambda u: 2.0 * u * u * np.sqrt(qe(u)), 0.0, span, "none", 1e-13),
            integrate_sqrt_singular(lambda u: 2.0 / np.sqrt(qe(u)), 0.0, span, "none", 1e-13),
        ]
    return total


even_models = st.lists(
    st.tuples(st.sampled_from([4, 6, 8, 10, 12]), st.floats(min_value=-2.0, max_value=2.0)),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[0],
).map(lambda terms: PotentialModel(tuple(PowerTerm(e, 10.0**x) for e, x in terms)))


class TestActionOverModels:
    """The validator's model space: one to three even terms, exponents 4 to
    12, coefficients 1e-2 to 1e2, actions from 0.3 to 300."""

    @settings(max_examples=40, deadline=None)
    @given(model=even_models, target=st.floats(min_value=0.3, max_value=300.0))
    def test_inverse_round_trip(self, model, target):
        lam = wkb.inverse_action(model, target)
        assert wkb.action_integral(model, lam) == pytest.approx(target, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(model=even_models, target=st.floats(min_value=0.3, max_value=300.0))
    def test_level_density_is_the_derivative(self, model, target):
        lam = wkb.inverse_action(model, target)
        h = 1e-3 * lam
        a = [wkb.action_integral(model, lam + k * h) for k in (-2, -1, 1, 2)]
        fourth_order = (a[0] - 8.0 * a[1] + 8.0 * a[2] - a[3]) / (12.0 * h)
        assert wkb.level_density(model, lam) == pytest.approx(fourth_order, rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(model=even_models, target=st.floats(min_value=0.3, max_value=300.0))
    def test_rule_matches_adaptive_reference(self, model, target):
        # The bare action's interval [0, X] to rounding.  On a channel's
        # [a, T] the pole of gamma/r^2 at r = 0 sits at theta ~ i (2a/T)^(1/2),
        # which slows the rule as a/T falls: this space reaches a/T ~ 1.3e-3,
        # where the error measured 1.5e-11 (pure quartic, action 301).
        lam = wkb.inverse_action(model, target)
        lam_ch = wkb.inverse_action(model, target + wkb.quantization_target(CH31, 0))
        (a,), (b,) = wkb.classical_edges(CH31, model, [lam_ch])
        cases = [
            (CH30, 0.0, bare_x(model, lam), lam, 1e-12),
            (CH31, a, b, lam_ch, 1e-10),
        ]
        for channel, lo, hi, at, tol in cases:
            potential = lambda r: effective_potential(channel, model, r)
            got = wkb.allowed_integrals(potential, np.array([lo]), np.array([hi]), np.array([at]))
            want = adaptive_allowed_integrals(channel, model, lo, hi, at)
            assert got[0][0] == pytest.approx(want[0], rel=tol)
            assert got[1][0] == pytest.approx(want[1], rel=tol)


class TestQuantization:
    def test_target_values(self):
        assert wkb.quantization_target(CH30, 0) == 0.75
        assert wkb.quantization_target(CH31, 2) == 3.25
        assert wkb.quantization_target(Channel(5, 2), 0) == 2.25

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            wkb.quantization_target(CH30, -1)

    def test_quartic_residuals_frozen(self):
        # residual = action(lam_l) - (l + 3/4) at the solver's eigenvalues
        r0 = wkb.bs_residual(fake_pair(3.799673029801394, 0), CH30, QUARTIC)
        r1 = wkb.bs_residual(fake_pair(11.644745511378, 1), CH30, QUARTIC)
        assert r0 == pytest.approx(0.0071479703670285, abs=1e-10)
        assert r1 == pytest.approx(0.0037536751280185, abs=1e-9)
        assert abs(r1) < abs(r0)

    def test_oscillator_residual_exact(self):
        # harmonic action is exactly lam/4 and lam_l = 4l + 3
        pair = fake_pair(4 * 6 + 3, 6)
        assert wkb.bs_residual(pair, CH30, HARMONIC) == pytest.approx(0.0, abs=1e-12)


class TestPhaseZeta:
    def test_harmonic_phase_frozen(self):
        pz = wkb.phase_and_zeta(CH30, HARMONIC, 4.0, 2.0)
        assert pz.phase == pytest.approx(HARMONIC_PHASE_1_TO_2, rel=1e-10)
        assert pz.zeta == pytest.approx(0.0, abs=1e-12)

    def test_phase_turning_consistency(self):
        # phase(T) = Z and zeta(1) = -Z
        lam = 50.0
        big_t = wkb.turning_points(CH31, QUARTIC, lam)
        at_t = wkb.phase_and_zeta(CH31, QUARTIC, lam, big_t)
        at_1 = wkb.phase_and_zeta(CH31, QUARTIC, lam, 1.0)
        assert at_1.phase == 0.0
        assert at_t.phase == pytest.approx(-at_1.zeta, rel=1e-9)
        assert at_t.zeta == pytest.approx(0.0, abs=1e-9)

    def test_zeta_sign_convention(self):
        lam = 100.0
        big_t = wkb.turning_points(CH30, QUARTIC, lam)
        below = wkb.phase_and_zeta(CH30, QUARTIC, lam, 0.9 * big_t)
        above = wkb.phase_and_zeta(CH30, QUARTIC, lam, 1.1 * big_t)
        assert below.zeta < 0.0 < above.zeta

    def test_phase_additivity(self):
        lam = 64.0
        p15 = wkb.phase_and_zeta(CH30, QUARTIC, lam, 1.5).phase
        p20 = wkb.phase_and_zeta(CH30, QUARTIC, lam, 2.0).phase
        seg = integrate_sqrt_singular(
            lambda r: np.sqrt(lam - np.asarray(r) ** 4), 1.5, 2.0, "none", 1e-11
        )
        assert p20 - p15 == pytest.approx(seg, rel=1e-9)

    def test_phase_below_one_negative(self):
        pz = wkb.phase_and_zeta(CH30, QUARTIC, 64.0, 0.5)
        assert pz.phase < 0.0

    def test_inner_forbidden_radius_rejected(self):
        with pytest.raises(ValueError):
            wkb.phase_and_zeta(CH31, QUARTIC, 10.0, 0.05)

    def test_subthreshold_anchor_rejected(self):
        # n=1 mixed channel: min U ~ 3.39 near r ~ 0.91 while U(1) = 3.5,
        # so lam = 3.45 has turning points but no phase anchor at r = 1
        lam = 3.45
        assert effective_potential(CH31, MIXED, 0.91) < lam
        assert effective_potential(CH31, MIXED, 1.0) > lam
        with pytest.raises(ValueError):
            wkb.phase_and_zeta(CH31, MIXED, lam, 0.91)


class TestAllowedRegion:
    def test_quartic_interval(self):
        a, b = wkb.allowed_interval(CH30, QUARTIC, 100.0)
        assert a == pytest.approx(100.0**-0.25, rel=1e-12)
        assert b == pytest.approx(50.0**0.25, rel=1e-10)

    def test_interval_grows(self):
        a1, b1 = wkb.allowed_interval(CH30, QUARTIC, 100.0)
        a2, b2 = wkb.allowed_interval(CH30, QUARTIC, 400.0)
        assert a2 <= a1 and b2 > b1

    def test_threshold_error_carries_lam(self):
        with pytest.raises(ThresholdError) as info:
            wkb.allowed_interval(CH31, QUARTIC, 5.0)
        assert info.value.lam == 5.0


class TestAmplitude:
    def test_cosine_gives_unit_amplitude(self):
        lam, u1, u1p = 36.0, 1.0, 4.0
        gap = lam - u1
        f1 = gap**-0.25
        fp1 = 0.25 * u1p * gap**-1.25
        c = wkb.amplitude_from_boundary(f1, fp1, lam, u1, u1p)
        assert c == pytest.approx(1.0 + 0.0j, abs=1e-13)

    def test_sine_gives_minus_i(self):
        lam, u1, u1p = 36.0, 1.0, 4.0
        gap = lam - u1
        c = wkb.amplitude_from_boundary(0.0, gap**0.25, lam, u1, u1p)
        assert c == pytest.approx(0.0 - 1.0j, abs=1e-13)

    def test_extract_matches_direct_formula(self):
        pair = fake_pair(100.0, 10, f_at_1=0.31, fprime_at_1=-2.2)
        u1 = effective_potential(CH30, QUARTIC, 1.0)
        u1p = effective_potential(CH30, QUARTIC, 1.0, 1)
        direct = wkb.amplitude_from_boundary(0.31, -2.2, 100.0, u1, u1p)
        assert wkb.extract_C_lambda(pair, CH30, QUARTIC) == direct

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            wkb.amplitude_from_boundary(1.0, 0.0, 2.0, 3.0, 1.0)

    def test_rephase_preserves_modulus(self):
        c = 2.0 + 1.5j
        out = wkb.rephased_amplitude(c, 49.0)
        assert abs(out) == pytest.approx(abs(c), rel=1e-15)
        assert out == pytest.approx(c * np.exp(-7.0j), rel=1e-14)

    def test_scaling_fit_recovers_planted_exponent(self):
        u1 = effective_potential(CH30, QUARTIC, 1.0)
        u1p = effective_potential(CH30, QUARTIC, 1.0, 1)
        pairs = []
        for l, lam in enumerate(np.linspace(50.0, 2000.0, 25)):
            gap = lam - u1
            f1 = lam**0.125 * gap**-0.25
            fp1 = 0.25 * u1p * f1 / gap
            pairs.append(fake_pair(lam, l, f_at_1=f1, fprime_at_1=fp1))
        table = fake_table(pairs)
        fit, _ = wkb.amplitude_scaling(wkb.summarize(table, CH30, QUARTIC))
        assert fit.exponent == pytest.approx(0.125, abs=1e-9)


class TestGapScaling:
    def test_recovers_power_law_gaps(self):
        lams = [(l + 0.75) ** (4.0 / 3.0) * 3.0 for l in range(80)]
        fit = gap_scaling(np.array(lams), window=(40, 79))
        assert fit.exponent == pytest.approx(0.25, abs=0.01)

    def test_needs_enough_levels(self):
        with pytest.raises(ValueError):
            gap_scaling(np.array([3.0, 7.0]))


def synthetic_grid(r_lo, r_hi, h):
    n = int(round((r_hi - r_lo) / h)) + 1
    return types.SimpleNamespace(r=r_lo + h * np.arange(n))


class TestAllowedRegionResidual:
    def test_synthetic_wkb_profile_matches(self):
        lam = 225.0
        c = 2.0 + 1.0j
        grid = synthetic_grid(0.7, 1.3, 0.004)
        phases = np.array(
            [wkb.phase_and_zeta(CH30, QUARTIC, lam, float(r)).phase for r in grid.r]
        )
        samples = lam**-0.25 * np.real(c * np.exp(1j * phases))
        pair = fake_pair(lam, 0, samples=samples)
        resid = wkb.allowed_region_residual(pair, c, CH30, QUARTIC, grid)
        assert resid <= 1e-9

    def test_wrong_amplitude_detected(self):
        lam = 225.0
        grid = synthetic_grid(0.7, 1.3, 0.004)
        phases = np.array(
            [wkb.phase_and_zeta(CH30, QUARTIC, lam, float(r)).phase for r in grid.r]
        )
        samples = lam**-0.25 * np.real((2.0 + 1.0j) * np.exp(1j * phases))
        pair = fake_pair(lam, 0, samples=samples)
        resid = wkb.allowed_region_residual(pair, 2.5 + 1.0j, CH30, QUARTIC, grid)
        assert resid > 0.1 * lam**-0.25

    def test_window_must_stay_inside_turning_point(self):
        grid = synthetic_grid(0.7, 1.3, 0.01)
        pair = fake_pair(2.0, 0, samples=np.zeros(grid.r.size))
        with pytest.raises(ValueError):
            wkb.allowed_region_residual(pair, 1.0, CH30, QUARTIC, grid, window=(0.8, 1.3))


def ternary_langer_residual(pair, channel, model, grid):
    """``langer_residual``'s residual and ``alpha`` by a 200-step ternary
    search over ``alpha``, on the same window, samples and profile."""
    lam = pair.lam
    big_t = wkb.turning_points(channel, model, lam)
    mask = (grid.r >= max(1.0, 0.5 * big_t)) & (grid.r <= 0.98 * big_t)
    rs = grid.r[mask]
    scaled = pair.samples[mask] * (lam - effective_potential(channel, model, rs)) ** 0.25
    profile = langer_profile(-wkb._zeta(channel, model, lam, big_t, rs))
    alpha0 = float(np.dot(scaled, profile)) / float(np.dot(profile, profile))
    sup = lambda alpha: float(np.max(np.abs(scaled - alpha * profile)))
    width = 2.0 * sup(alpha0) / float(np.max(np.abs(profile)))
    a, b = alpha0 - width, alpha0 + width
    for _ in range(200):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if sup(m1) <= sup(m2):
            b = m2
        else:
            a = m1
    alpha = 0.5 * (a + b)
    return sup(alpha) / abs(alpha), alpha


class TestLangerResidual:
    @pytest.mark.parametrize("table", ["quartic_n0", "quartic_n1", "sextic_n0"])
    def test_matches_ternary_search_on_solved_tables(self, table, request):
        # the levels of the report's ladder: eigenvalues doubling from level 4
        table = request.getfixturevalue(table)
        for level in (4, 8, 16, 32, len(table.eigenvalues) - 1):
            pair = table.pair(level)
            fit = wkb.langer_residual(pair, table.channel, table.model, table.grid)
            residual, alpha = ternary_langer_residual(
                pair, table.channel, table.model, table.grid
            )
            assert fit.residual == pytest.approx(residual, rel=1e-12, abs=0.0)
            assert fit.alpha == pytest.approx(alpha, rel=1e-14, abs=0.0)

    def test_minimax_scale_is_exact_on_two_lines(self):
        # max(|1 - a|, |3 - a|) is least at a = 2; max(|2 - a|, |-1 - 2a|)
        # where 2 - a = 1 + 2a, at a = 1/3; both to two ulps
        got = wkb._minimax_scale(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        assert abs(got - 2.0) <= 2.0 * math.ulp(2.0)
        got = wkb._minimax_scale(np.array([2.0, -1.0]), np.array([1.0, 2.0]))
        assert abs(got - 1.0 / 3.0) <= 2.0 * math.ulp(1.0 / 3.0)

    def test_synthetic_profile_recovered(self):
        lam = 144.0
        alpha_true = 0.7
        big_t = wkb.turning_points(CH30, QUARTIC, lam)
        grid = synthetic_grid(0.9, 0.99 * big_t, 0.002)
        kernel = lambda r: np.sqrt(np.abs(lam - np.asarray(r) ** 4))
        zetas = np.array(
            [
                integrate_sqrt_singular(kernel, float(r), big_t, "right", 1e-11)
                for r in grid.r
            ]
        )
        u = grid.r**4
        samples = (lam - u) ** -0.25 * alpha_true * langer_profile(zetas)
        pair = fake_pair(lam, 0, samples=samples)
        fit = wkb.langer_residual(pair, CH30, QUARTIC, grid)
        assert fit.residual <= 1e-6
        assert fit.alpha == pytest.approx(alpha_true, rel=1e-4)
        assert fit.window[1] == pytest.approx(0.98 * big_t, rel=1e-12)

    def test_too_few_points_rejected(self):
        grid = synthetic_grid(0.9, 1.1, 0.05)
        pair = fake_pair(144.0, 0, samples=np.zeros(grid.r.size))
        with pytest.raises(ValueError):
            wkb.langer_residual(pair, CH30, QUARTIC, grid)


def adaptive_appendix(channel, model, lam):
    """``appendix_error_integral`` by one adaptive Gauss-Legendre call per
    piece, the square root at ``T`` substituted away: the same integrand,
    pieces and doubling stop."""
    big_t = wkb.turning_points(channel, model, lam)
    near = wkb._scaled_g_near(channel, model, lam, big_t)

    def weighted(rs):
        dist = rs - big_t
        close = np.abs(dist) < wkb._NEAR_T * big_t
        h = np.empty(rs.shape)
        h[close] = near(rs[close])
        h[~close] = wkb._scaled_g(channel, model, lam, big_t, rs[~close])
        gap = lam - effective_potential(channel, model, rs)
        return np.abs(h) * np.sqrt(np.abs(gap)) / np.abs(dist)

    total = integrate_sqrt_singular(weighted, 0.5, big_t, "right", 1e-7)
    total += integrate_sqrt_singular(weighted, big_t, 2.0 * big_t, "left", 1e-7)
    lo = 2.0 * big_t
    while True:
        piece = integrate_sqrt_singular(weighted, lo, 2.0 * lo, "none", 1e-7)
        total += piece
        lo *= 2.0
        if piece <= 1e-12 * total:
            return total


def appendix_ladder(model, rungs=6, base=400.0):
    lams = base * 2.0 ** np.arange(rungs)
    totals = np.array([wkb.appendix_error_integral(CH30, model, lam) for lam in lams])
    fit = fit_power_law(list(zip(lams, totals)))
    return fit.exponent, np.diff(np.log(totals)) / math.log(2.0)


class TestAppendixIntegral:
    def test_total_is_a_positive_float(self):
        total = wkb.appendix_error_integral(CH30, QUARTIC, 400.0)
        assert type(total) is float and total > 0.0

    def test_decreases_with_lam(self):
        t1 = wkb.appendix_error_integral(CH30, QUARTIC, 200.0)
        t2 = wkb.appendix_error_integral(CH30, QUARTIC, 800.0)
        assert t2 < t1

    @pytest.mark.parametrize(
        "channel, model",
        [
            (CH30, QUARTIC),
            (CH31, QUARTIC),
            (CH30, MIXED),
            (Channel(5, 2), MIXED),
            # two zeros of (r - T) g below 2T up to lam = 1600, one from 3200
            (Channel(4, 1), PotentialModel.from_spec("2*r^4+1*r^8")),
            (CH30, SEXTIC),
        ],
    )
    def test_matches_adaptive_reference(self, channel, model):
        for lam in 400.0 * 2.0 ** np.arange(6):
            got = wkb.appendix_error_integral(channel, model, float(lam))
            ref = adaptive_appendix(channel, model, float(lam))
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_harmonic_sanity(self):
        total = wkb.appendix_error_integral(CH30, HARMONIC, 41.0)
        assert math.isfinite(total) and total > 0.0

    def test_low_lam_threshold_error(self):
        with pytest.raises(ThresholdError):
            wkb.appendix_error_integral(CH31, QUARTIC, 5.0)

    def test_quartic_ladder_exponent(self):
        # -(c+1)/(2c) = -3/4; the slopes approach it from above, in order
        exponent, slopes = appendix_ladder(QUARTIC)
        assert abs(exponent + 0.75) <= 0.02
        assert np.all(np.diff(slopes) < 0.0)
        assert slopes[-1] > -0.75

    def test_quartic_ladder_potential_points(self, monkeypatch):
        # 985,991 points, two thirds of them in the sign scan, most of those
        # the nodes of its phase integrals
        points = []

        def counted(channel, model, r, *rest):
            points.append(np.size(r))
            return effective_potential(channel, model, r, *rest)

        monkeypatch.setattr(wkb, "effective_potential", counted)
        appendix_ladder(QUARTIC)
        assert sum(points) <= 1_000_000

    def test_sextic_ladder_exponent(self):
        exponent, _ = appendix_ladder(SEXTIC)
        assert abs(exponent + 2.0 / 3.0) <= 0.02

    @pytest.mark.parametrize(
        "channel, model, lam",
        [(CH30, QUARTIC, 400.0), (CH30, QUARTIC, 12800.0), (CH31, MIXED, 400.0)],
    )
    def test_interpolant_matches_formula_off_t(self, channel, model, lam):
        # (r - T) g is analytic at T; where the formula's cancellation is
        # mild, the interpolant reproduces it
        big_t = wkb.turning_points(channel, model, lam)
        near = wkb._scaled_g_near(channel, model, lam, big_t)
        rs = big_t * np.concatenate([np.linspace(0.9, 0.95, 9), np.linspace(1.05, 1.0999, 9)])
        direct = wkb._scaled_g(channel, model, lam, big_t, rs)
        np.testing.assert_allclose(near(rs), direct, rtol=1e-8, atol=0.0)
        # and at its own 24 first-kind Chebyshev nodes it is the formula to rounding
        rs = big_t + wkb._NEAR_T * big_t * np.cos(math.pi * (np.arange(24) + 0.5) / 24)
        direct = wkb._scaled_g(channel, model, lam, big_t, rs)
        np.testing.assert_allclose(near(rs), direct, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(direct)))


class TestSummaries:
    def build_summaries(self):
        u1 = effective_potential(CH30, QUARTIC, 1.0)
        pairs = []
        for l, lam in enumerate((0.5, 30.0, 200.0)):
            gap = lam - u1
            if gap > 0:
                f1 = gap**-0.25
                fp1 = 0.25 * effective_potential(CH30, QUARTIC, 1.0, 1) * f1 / gap
            else:
                f1 = fp1 = 0.0
            pairs.append(fake_pair(lam, l, f_at_1=f1, fprime_at_1=fp1))
        table = fake_table(pairs)
        return wkb.summarize(table, CH30, QUARTIC)

    def test_summarize_handles_subthreshold_levels(self):
        summaries = self.build_summaries()
        assert len(summaries) == 3
        assert math.isnan(abs(summaries[0].c_lambda))
        assert abs(summaries[1].c_lambda) == pytest.approx(1.0, abs=1e-12)
        assert summaries[2].allowed is not None

    def test_export_columns_and_roundtrip(self, tmp_path):
        summaries = self.build_summaries()
        out = tmp_path / "wkb.csv"
        wkb.export_wkb_csv(summaries, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,T,X,Z,action,bs_residual,absC,allowed_a,allowed_b"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert (int(row[0]), int(row[1]), int(row[2])) == (3, 0, 1)
        assert float(row[3]) == 30.0
        assert float(row[9]) == pytest.approx(1.0, abs=1e-12)
