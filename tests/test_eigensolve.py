"""Eigensolver tests: exact spectra, an independent dense-grid oracle,
discretization invariants, and persistence.

The quartic reference values 3.799673029801394 and 11.644745511378 were
frozen from 40-digit variational computations; the inline ``oracle_level``
below re-derives them with nothing shared with the package solver except
the textbook recurrence.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from specprobe import eigensolve as es
from specprobe.errors import ConsistencyError
from specprobe.potential import Channel, PotentialModel, effective_potential
from specprobe.specfun import integrate_sqrt_singular

QUARTIC = PotentialModel.pure(4, 1.0)
HARMONIC = PotentialModel.pure(2, 1.0)
CH30 = Channel(3, 0)

# Channel(4, 0): gamma = 3/4, every oscillator level 3.4e-8 relative high
ROUGH_ORIGIN = pytest.mark.xfail(
    strict=True,
    reason="the regular solution goes like r^(3/2), and near r_min = 1e-3 "
    "the grid step is not small against r",
)

QUARTIC_L0 = 3.799673029801394
QUARTIC_L1 = 11.644745511378


def oracle_level(level, r_min=1e-5, r_max=6.0, h=2e-4):
    """Brute-force quartic d=3 n=0 eigenvalue by node-count bisection."""
    n = int(round((r_max - r_min) / h)) + 1
    r = r_min + h * np.arange(n)
    u = r**4

    def count(lam):
        w = (1.0 + (h * h / 12.0) * (lam - u)).tolist()
        y0, y1 = r_min, r_min + h
        nodes = 0
        for i in range(1, n - 1):
            y2 = ((12.0 - 10.0 * w[i]) * y1 - w[i - 1] * y0) / w[i + 1]
            if y1 * y2 < 0.0:
                nodes += 1
            y0, y1 = y1, y2
        return nodes

    lo, hi = 0.5, 80.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if count(mid) <= level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def grid_past_decay(channel, model, l_max, decay):
    """The default grid of ``l_max`` run on with its step until the decay
    ``h sum sqrt(U - lam_max)`` past the turning point of its top spectral
    parameter ``lam_max`` reaches ``decay``."""
    grid = es._default_grid(channel, model, l_max, es.DEFAULT_POINTS_PER_WAVELENGTH)
    lam_max = 1.1 * es.inverse_action(model, es.quantization_target(channel, l_max) + 2.0)
    big_t = es.turning_points(channel, model, lam_max)
    count = grid.n_points
    while True:
        r = grid.r_min + grid.h * np.arange(count)
        u = effective_potential(channel, model, r)
        past = np.where(r > big_t, np.sqrt(np.maximum(u - lam_max, 0.0)), 0.0)
        reached = np.flatnonzero(grid.h * np.cumsum(past) >= decay)
        if reached.size:
            break
        count *= 2
    n_int = int(reached[0]) + int(reached[0]) % 2  # an even count of steps
    return es.RadialGrid(grid.r_min, grid.h, n_int + 1)


@pytest.fixture(scope="module")
def osc_table():
    return es.solve_spectrum(CH30, HARMONIC, 20)


@pytest.fixture(scope="module")
def quartic_table():
    return es.solve_spectrum(CH30, QUARTIC, 12)


class TestBuildGrid:
    @pytest.mark.parametrize(
        "l_max, d, n, n_points, h",
        [
            (24, 3, 0, 5669, 0.0008553082191780822),
            (24, 5, 2, 5973, 0.0008215460526315789),
            (60, 3, 0, 12939, 0.000455125284738041),
            (60, 5, 2, 13235, 0.00044738020600089564),
        ],
    )
    def test_mixed_model_default_grid_frozen(self, l_max, d, n, n_points, h):
        # frozen from the geometric bisection inverse_action used before its
        # regula falsi: the top level's action target sizes the grid (at the
        # 250 points per wavelength these were frozen at)
        model = PotentialModel.from_spec("1*r^4+0.5*r^6")
        grid = es._default_grid(Channel(d, n), model, l_max, 250.0)
        assert (grid.n_points, grid.h) == (n_points, h)

    @pytest.mark.parametrize(
        "spec, d, n, l_max",
        [("1*r^4", 3, 0, 60), ("1*r^4+0.5*r^6", 3, 0, 24), ("1*r^4+0.5*r^6", 5, 2, 24)],
    )
    @pytest.mark.parametrize("decay_bound", [es.INWARD_DECAY, 500.0])
    def test_grid_bits_match_adaptive_decay(self, monkeypatch, spec, d, n, l_max, decay_bound):
        # the benchmark's channels: the rule sums the decay pieces to the
        # same far end as one adaptive call per piece (rel_tol 1e-8, the
        # square root at T substituted away), so every grid keeps its bits;
        # at the solver's bound, and at one that takes many batches of pieces
        monkeypatch.setattr(es, "INWARD_DECAY", decay_bound)
        channel, model = Channel(d, n), PotentialModel.from_spec(spec)
        lam_max = 1.1 * es.inverse_action(model, es.quantization_target(channel, l_max) + 2.0)
        grid = es.build_grid(channel, model, lam_max)

        kernel = lambda r: np.sqrt(
            np.maximum(effective_potential(channel, model, np.asarray(r)) - lam_max, 0.0)
        )
        big_t = es.turning_points(channel, model, lam_max)
        lo, hi = big_t, big_t * 1.05 + 0.5
        decay = integrate_sqrt_singular(kernel, lo, hi, "left", 1e-8)
        while decay < decay_bound:
            lo, hi = hi, hi * 1.2
            decay += integrate_sqrt_singular(kernel, lo, hi, "none", 1e-8)
        # the point count is the first even one that reaches the far end
        assert grid.r_max - 2.0 * grid.h < hi <= grid.r_max

        def adaptive(channel, model, lams, a, b):
            return np.array([
                integrate_sqrt_singular(kernel, x, y, "left" if x == big_t else "none", 1e-8)
                for x, y in zip(a.tolist(), b.tolist())
            ])

        monkeypatch.setattr(es, "_root_integrals", adaptive)
        ref = es.build_grid(channel, model, lam_max)
        assert (grid.n_points, grid.h, grid.r_max) == (ref.n_points, ref.h, ref.r_max)

    def test_oscillator_example(self):
        grid = es.build_grid(CH30, HARMONIC, 43.0)
        big_t = math.sqrt(43.0)
        assert grid.r_max > big_t
        decay = integrate_sqrt_singular(
            lambda r: np.sqrt(np.maximum(np.asarray(r) ** 2 - 43.0, 0.0)),
            big_t,
            grid.r_max,
            "left",
            1e-8,
        )
        assert decay >= es.INWARD_DECAY

    def test_quartic_decay_margin(self):
        grid = es.build_grid(CH30, QUARTIC, 16.0)
        decay = integrate_sqrt_singular(
            lambda r: np.sqrt(np.maximum(np.asarray(r) ** 4 - 16.0, 0.0)),
            2.0,
            grid.r_max,
            "left",
            1e-8,
        )
        assert decay >= es.INWARD_DECAY
        assert 2.0 < grid.r_max < 8.0

    def test_structural_contract(self):
        grid = es.build_grid(CH30, QUARTIC, 16.0)
        assert grid.n_points % 2 == 1
        assert (grid.n_points - 1) >= 1000
        assert grid.r_min <= min(1e-3, 0.1 * 16.0**-0.25)
        assert grid.h <= 2.0 * math.pi / (40.0 * 4.0)
        k1 = grid.index_of(1.0)
        assert grid.r[k1] == pytest.approx(1.0, abs=1e-12)

    def test_step_halves_when_lam_quadruples(self):
        h1 = es.build_grid(CH30, QUARTIC, 100.0).h
        h4 = es.build_grid(CH30, QUARTIC, 400.0).h
        assert h4 <= 0.55 * h1

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            es.build_grid(Channel(3, 1), QUARTIC, 2.0)

    def test_option_floors(self):
        with pytest.raises(ValueError):
            es.build_grid(CH30, QUARTIC, 16.0, points_per_wavelength=20.0)

    def test_simpson_weights_integrate_quadratics(self):
        grid = es.build_grid(CH30, QUARTIC, 16.0)
        exact = (grid.r_max**3 - grid.r_min**3) / 3.0
        assert float(grid.simpson_weights @ grid.r**2) == pytest.approx(exact, rel=1e-12)

    def test_off_grid_radius_rejected(self):
        grid = es.build_grid(CH30, QUARTIC, 16.0)
        with pytest.raises(ValueError):
            grid.index_of(1.0 + 0.3 * grid.h)


class TestBoundarySeries:
    def test_half_order_closed_form(self):
        lam = 9.0
        for r in (0.05, 0.3, 1.1):
            expect = math.sqrt(2.0 / (math.pi * math.sqrt(lam))) * math.sin(
                r * math.sqrt(lam)
            )
            got = es.boundary_series_small_r(CH30, lam, r)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_sin_zero(self):
        assert es.boundary_series_small_r(CH30, 1.0, math.pi) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_small_r_coefficient_limit(self):
        # leading coefficient (sqrt(lam)/2)^nu / Gamma(nu + 1), nu = n + (d-2)/2
        for channel, nu in ((CH30, 0.5), (Channel(4, 1), 2.0), (Channel(5, 2), 3.5)):
            assert channel.bessel_order == nu
            lam = 7.0
            r = 1e-4
            p = channel.regular_exponent
            ratio = es.boundary_series_small_r(channel, lam, r) / r**p
            expect = (math.sqrt(lam) / 2.0) ** nu / math.gamma(nu + 1.0)
            assert ratio == pytest.approx(expect, rel=1e-6)

    def test_coefficient_formula(self):
        # (sqrt(lam)/2)^nu / Gamma(nu + 1) with nu = n + (d-2)/2; at r = 1e-8
        # the next series term is below 1e-16 of the leading one
        channel = Channel(3, 1)
        lam = 7.0
        nu = 1.5
        r = 1e-8
        expect = (math.sqrt(lam) / 2.0) ** nu / math.gamma(nu + 1.0)
        ratio = es.boundary_series_small_r(channel, lam, r) / r**channel.regular_exponent
        assert ratio == pytest.approx(expect, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            es.boundary_series_small_r(CH30, 9.0, -0.1)
        with pytest.raises(ValueError):
            es.boundary_series_small_r(CH30, -1.0, 0.5)


def ode_residual(pair, channel, model, grid, window=None):
    """Relative strong-form residual of the eigen-equation on the grid.

    Fourth-order five-point second differences over the window (default:
    the whole grid, trimmed by two points at each end).  It shares nothing
    with the solver's Numerov recurrence, so it checks it independently.
    """
    f = pair.samples
    h = grid.h
    i_lo, i_hi = 2, grid.n_points - 2
    if window is not None:
        i_lo = max(i_lo, int(math.ceil((window[0] - grid.r_min) / h)))
        i_hi = min(i_hi, int(math.floor((window[1] - grid.r_min) / h)) + 1)
        assert i_hi - i_lo >= 3
    idx = np.arange(i_lo, i_hi)
    d2 = (
        -f[idx - 2] + 16.0 * f[idx - 1] - 30.0 * f[idx] + 16.0 * f[idx + 1] - f[idx + 2]
    ) / (12.0 * h * h)
    u = effective_potential(channel, model, grid.r[idx])
    resid = -d2 + (u - pair.lam) * f[idx]
    return float(np.sqrt(np.dot(resid, resid) / np.dot(f[idx], f[idx])))


@pytest.fixture(scope="module")
def grid12():
    return es.build_grid(CH30, HARMONIC, 12.0)


class TestShootMismatch:
    def test_node_count_jumps_at_eigenvalue(self, grid12):
        # full-sweep count equals the number of eigenvalues below lam
        assert es.shoot_mismatch(CH30, HARMONIC, 3.0 - 1e-6, grid12).node_count == 0
        assert es.shoot_mismatch(CH30, HARMONIC, 3.0 + 1e-6, grid12).node_count == 1
        assert es.shoot_mismatch(CH30, HARMONIC, 7.0 - 1e-6, grid12).node_count == 1
        assert es.shoot_mismatch(CH30, HARMONIC, 7.0 + 1e-6, grid12).node_count == 2

    def test_mismatch_vanishes_at_eigenvalue(self, grid12):
        assert abs(es.shoot_mismatch(CH30, HARMONIC, 3.0, grid12).mismatch) < 1e-6

    def test_mismatch_bounded_away_between_eigenvalues(self, grid12):
        res = es.shoot_mismatch(CH30, HARMONIC, 5.0, grid12)
        assert res.node_count == 1
        assert abs(res.mismatch) > 0.1

    def test_mismatch_sign_brackets_each_eigenvalue(self, grid12):
        # positive just below, negative just above: the root the secant
        # iteration relies on
        for exact in (3.0, 7.0):
            below = es.shoot_mismatch(CH30, HARMONIC, exact - 1e-4, grid12).mismatch
            above = es.shoot_mismatch(CH30, HARMONIC, exact + 1e-4, grid12).mismatch
            assert below > 0.0 > above

    def test_lam_beyond_grid_rejected(self, grid12):
        with pytest.raises(ValueError):
            es.shoot_mismatch(CH30, HARMONIC, 200.0, grid12)

    def test_bad_lam_rejected(self, grid12):
        with pytest.raises(ValueError):
            es.shoot_mismatch(CH30, HARMONIC, -3.0, grid12)


class TestSolveLevel:
    def test_oscillator_fourth_level(self):
        pair = es.solve_level(CH30, HARMONIC, 4)
        assert pair.lam == pytest.approx(19.0, rel=1e-7)
        assert pair.node_count == 4

    def test_quartic_against_frozen_references(self):
        p0 = es.solve_level(CH30, QUARTIC, 0)
        p1 = es.solve_level(CH30, QUARTIC, 1)
        assert abs(p0.lam - QUARTIC_L0) <= 1e-5
        assert abs(p1.lam - QUARTIC_L1) <= 1e-5

    def test_quartic_against_inline_oracle(self):
        o0 = oracle_level(0)
        o1 = oracle_level(1)
        assert abs(o0 - QUARTIC_L0) <= 5e-9
        assert abs(o1 - QUARTIC_L1) <= 5e-9
        assert es.solve_level(CH30, QUARTIC, 0).lam == pytest.approx(o0, abs=1e-8)
        assert es.solve_level(CH30, QUARTIC, 1).lam == pytest.approx(o1, abs=1e-8)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            es.solve_level(CH30, QUARTIC, -1)


class TestSolveSpectrum:
    def test_oscillator_ladder(self, osc_table):
        for pair in osc_table.eigenpairs:
            exact = 4 * pair.level + 3
            assert abs(pair.lam - exact) <= 1e-6
            assert pair.node_count == pair.level

    def test_corrected_oscillator_ladder(self, osc_n0, osc_n1):
        # the dispersion correction takes out Numerov's h^4 error: the raw
        # discrete levels at the default step are about 1e-9 low
        for table, base in ((osc_n0, 3), (osc_n1, 5)):
            exact = 4.0 * np.arange(len(table.eigenvalues)) + base
            assert np.max(np.abs(table.eigenvalues - exact) / exact) <= 1e-10
            shifts = np.array(table.record.shifts)
            assert np.all(shifts > 0.0)
            assert np.max(np.abs(table.eigenvalues - shifts - exact) / exact) > 1e-10

    def test_batched_shifts_match_per_level(self, quartic_n0):
        # the table takes every level's shift in one call; solve_level takes
        # one level's through the same function
        shooter = es._Shooter(quartic_n0.channel, quartic_n0.model, quartic_n0.grid)
        shifts = np.array(quartic_n0.record.shifts)
        discrete = quartic_n0.eigenvalues - shifts
        for level, lam in enumerate(discrete.tolist()):
            alone = float(es._dispersion_shifts(shooter, [lam])[0])
            assert abs(alone - shifts[level]) <= 1e-14 * shifts[level]

    @pytest.mark.parametrize(
        "d, n",
        [
            pytest.param(d, n, marks=ROUGH_ORIGIN) if (d, n) == (4, 0) else (d, n)
            for d in (3, 4, 5, 7)
            for n in (0, 1, 2, 5)
        ]
        + [(3, 200), (3, 1000)],
    )
    def test_exact_oscillator_sectors(self, d, n):
        # U = gamma/r^2 + r^2 has the levels 4 l + 2 nu + 2, nu the Bessel order
        ch = Channel(d, n)
        table = es.solve_spectrum(ch, HARMONIC, 12)
        exact = 4.0 * np.arange(13) + 2.0 * ch.bessel_order + 2.0
        assert np.max(np.abs(table.eigenvalues - exact) / exact) <= 1e-10
        assert [p.node_count for p in table.eigenpairs] == list(range(13))

    def test_strictly_increasing_and_contiguous(self, quartic_table):
        lams = quartic_table.eigenvalues
        assert np.all(np.diff(lams) > 0.0)
        assert [p.level for p in quartic_table.eigenpairs] == list(range(13))

    def test_gaps_nondecreasing_for_superquadratic(self, quartic_table):
        gaps = np.diff(quartic_table.eigenvalues)
        assert np.all(np.diff(gaps) > -1e-9)

    def test_normalization(self, quartic_table):
        assert quartic_table.samples.dtype == np.float64
        norms = quartic_table.samples**2 @ quartic_table.grid.simpson_weights
        assert np.all(np.abs(norms - 1.0) <= 1e-8)

    def test_single_level(self):
        table = es.solve_spectrum(CH30, QUARTIC, 0)
        assert len(table.eigenpairs) == 1
        assert table.eigenpairs[0].level == 0

    def test_interlacing_in_n(self):
        lams = {}
        for n in range(4):
            table = es.solve_spectrum(Channel(3, n), QUARTIC, 3)
            lams[n] = table.eigenvalues
        for n in range(3):
            assert np.all(lams[n] < lams[n + 1])

    @pytest.mark.parametrize("n", [93, 150, 200, 250, 400])
    def test_large_sector_solves(self, n):
        # the outward sweep grows through the barrier to near the float
        # limit, where squaring the unscaled samples overflowed (93, 150);
        # a deeper barrier overflowed the sweep itself (200) and underflowed
        # the free seed (250), so the sweep now starts inside it
        table = es.solve_spectrum(Channel(3, n), QUARTIC, 3)
        assert [p.node_count for p in table.eigenpairs] == [0, 1, 2, 3]
        assert np.all(np.diff(table.eigenvalues) > 0.0)
        norms = table.samples**2 @ table.grid.simpson_weights
        assert np.all(np.abs(norms - 1.0) <= 1e-8)

    @pytest.mark.parametrize("spec, n", [("1*r^4", 500), ("1*r^4", 1000), ("1*r^4+0.5*r^6", 500)])
    def test_sectors_far_past_the_action_guess(self, spec, n):
        # the WKB guess of level 0 lies several levels up here (quartic 3:500:
        # 8706 against 7534.5); the node count moves the probe and its match
        # point back to the level
        table = es.solve_spectrum(Channel(3, n), PotentialModel.from_spec(spec), 3)
        assert [p.node_count for p in table.eigenpairs] == [0, 1, 2, 3]
        assert np.all(np.diff(table.eigenvalues) > 0.0)
        norms = table.samples**2 @ table.grid.simpson_weights
        assert np.all(np.abs(norms - 1.0) <= 1e-8)

    def test_deep_decay_margin_solves(self):
        # a far boundary 400 units of decay out; the inward sweep starts
        # INWARD_DECAY from the match point, and the samples beyond are 0
        table = es.solve_spectrum(CH30, QUARTIC, 3, grid=grid_past_decay(CH30, QUARTIC, 3, 400.0))
        reference = es.solve_spectrum(CH30, QUARTIC, 3)
        assert np.allclose(table.eigenvalues, reference.eigenvalues, rtol=1e-9, atol=0.0)

    def test_deeper_decay_margin_starts_inward_inside_the_barrier(self):
        # 500 units of decay past T: seeds at the grid end, scaled down
        # against the growth to the match point, would underflow to 0 past a
        # decay of about 745, and the inward sweep starts INWARD_DECAY out
        table = es.solve_spectrum(CH30, QUARTIC, 6, grid=grid_past_decay(CH30, QUARTIC, 6, 500.0))
        reference = es.solve_spectrum(CH30, QUARTIC, 6)
        assert [p.node_count for p in table.eigenpairs] == list(range(7))
        assert np.allclose(table.eigenvalues, reference.eigenvalues, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("l_max", [450, 700])
    def test_low_levels_on_a_high_level_grid(self, l_max):
        # the default grid of a high l_max puts the far end a decay of 755
        # (l_max 450) or more past the match point of level 0
        grid = es._default_grid(CH30, QUARTIC, l_max, es.DEFAULT_POINTS_PER_WAVELENGTH)
        for level in (0, 3, 6):
            pair = es.solve_level(CH30, QUARTIC, level, grid=grid)
            reference = es.solve_level(CH30, QUARTIC, level)
            assert pair.node_count == level
            assert pair.lam == pytest.approx(reference.lam, rel=5e-11, abs=0.0)
            assert np.all(pair.samples[-10:] == 0.0)

    def test_far_weight_must_stay_positive(self):
        # Numerov's weight 1 + h^2 (lam - U)/12 at the grid end: at r_max
        # 8.2 (0.06) level 0 solves; at r_max 9.0 (-0.36) the sign of z no
        # longer follows that of y, and the grid is rejected up front
        rough = lambda r_max: es.RadialGrid(
            r_min=0.1, h=0.05, n_points=round((r_max - 0.1) / 0.05) + 1
        )
        pair = es.solve_level(CH30, QUARTIC, 0, grid=rough(8.2))
        assert pair.node_count == 0
        assert pair.lam == pytest.approx(QUARTIC_L0, rel=1e-6)
        with pytest.raises(ValueError, match="too coarse for its far end"):
            es.solve_level(CH30, QUARTIC, 0, grid=rough(9.0))

    def test_pair_lookup_guard(self, quartic_table):
        assert quartic_table.pair(3).level == 3
        with pytest.raises(IndexError):
            quartic_table.pair(99)


class TestDiscretizationInvariants:
    def test_grid_halving_shifts(self, quartic_table):
        g = quartic_table.grid
        fine = es.RadialGrid(g.r_min, g.h / 2.0, 2 * (g.n_points - 1) + 1)
        for level in (0, 6, 12):
            coarse = quartic_table.pair(level)
            refined = es.solve_level(CH30, QUARTIC, level, grid=fine)
            assert abs(refined.lam - coarse.lam) / coarse.lam <= 1e-8
            scale = max(abs(coarse.fprime_at_1), coarse.lam**0.25)
            assert abs(refined.fprime_at_1 - coarse.fprime_at_1) / scale <= 1e-7

    def test_ode_residual_small(self, osc_table, quartic_table):
        for table, model in ((osc_table, HARMONIC), (quartic_table, QUARTIC)):
            for level in (0, len(table.eigenpairs) // 2, len(table.eigenpairs) - 1):
                pair = table.pair(level)
                resid = ode_residual(pair, CH30, model, table.grid)
                assert resid <= 1e-6

    def test_ode_residual_is_fourth_order(self, quartic_table):
        g = quartic_table.grid
        fine = es.RadialGrid(g.r_min, g.h / 2.0, 2 * (g.n_points - 1) + 1)
        pair_c = quartic_table.pair(12)
        pair_f = es.solve_level(CH30, QUARTIC, 12, grid=fine)
        r_c = ode_residual(pair_c, CH30, QUARTIC, g)
        r_f = ode_residual(pair_f, CH30, QUARTIC, fine)
        assert r_f <= r_c / 10.0

    def test_eigenfunction_window_residual(self, quartic_table):
        pair = quartic_table.pair(8)
        resid = ode_residual(pair, CH30, QUARTIC, quartic_table.grid, window=(0.8, 1.2))
        assert resid <= 1e-6


class TestPersistence:
    def test_table_is_its_record_and_samples(self, quartic_table):
        # the layout is declared once, by the record; the table adds the samples
        assert es.SpectrumTable._fields == ("record", "samples")
        record = quartic_table.record
        assert quartic_table.channel == record.channel
        assert quartic_table.model == record.model
        assert quartic_table.grid is record.grid
        assert quartic_table.eigenvalues.tolist() == list(record.eigenvalues)
        short = quartic_table.truncated(3)
        assert short.record == record.truncated(3)
        assert short.samples.tobytes() == quartic_table.samples[:3].tobytes()
        # the eigenpairs are read from the rows, not kept: in memory each
        # pair's samples are a view of its row
        assert np.shares_memory(quartic_table.eigenpairs[5].samples, quartic_table.samples[5])
        assert [pair.level for pair in short.eigenpairs] == [0, 1, 2]

    def test_round_trip(self, quartic_table, tmp_path):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        loaded = es.load_spectrum(path)
        assert loaded.record == quartic_table.record
        for a, b in ((loaded.eigenvalues, quartic_table.eigenvalues),
                     (loaded.block(), quartic_table.samples)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        for a, b in zip(loaded.eigenpairs, quartic_table.eigenpairs):
            assert a.lam == b.lam
            assert a.shift == b.shift
            assert a.f_at_1 == b.f_at_1
            assert a.fprime_at_1 == b.fprime_at_1
            assert np.array_equal(a.samples, b.samples)

    def test_load_reads_read_only_rows_from_its_file(self, quartic_table, tmp_path):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        loaded = es.load_spectrum(path)
        # the file is opened once, at load: its rows are read from it even
        # after its path is gone
        path.with_suffix(".npy").unlink()
        row = loaded.row(4)
        assert row.tobytes() == quartic_table.samples[4].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.pair(2).samples[0] = 1.0
        # each read is a copy of what it asks for, not a view of a mapping
        assert not isinstance(row.base, np.memmap) and not np.shares_memory(row, loaded.row(4))
        block = loaded.block(slice(100, 140), slice(2, 5))
        assert block.tobytes() == quartic_table.samples[2:5, 100:140].tobytes()
        assert not block.flags.writeable
        assert loaded.block().tobytes() == quartic_table.samples.tobytes()

    def test_saving_over_a_loaded_table_leaves_its_samples(self, quartic_table, tmp_path):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        loaded = es.load_spectrum(path)
        short = quartic_table.truncated(3)
        changed = es.SpectrumTable(short.record, -short.samples)
        es.save_spectrum(changed, path)
        # the old file lives on under the loaded table; the path names the new one
        assert loaded.block().tobytes() == quartic_table.samples.tobytes()
        fresh = es.load_spectrum(path)
        # with the Gram terms of the three rows saved, which the writer sums
        # in blocks of another width than the thirteen rows' of the cut record
        assert fresh.record == es._with_gram(changed)
        assert fresh.block().tobytes() == changed.samples.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["quartic.json", "quartic.npy"]

    @pytest.mark.parametrize("name", ["quartic.npy", "quartic.json"])
    def test_a_failed_save_leaves_the_previous_files(self, quartic_table, tmp_path, full_disk,
                                                     name):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        short = quartic_table.truncated(3)
        with full_disk(name), pytest.raises(OSError, match="No space left"):
            es.save_spectrum(es.SpectrumTable(short.record, -short.samples), path)
        # both files are written before either replaces its target
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_failed_solve_leaves_the_previous_files(self, quartic_table, tmp_path,
                                                      monkeypatch):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        solve = es._Shooter.solve

        def fail_at_level_5(self, level, *args):
            if level == 5:
                raise ConsistencyError("level 5: injected failure")
            return solve(self, level, *args)

        monkeypatch.setattr(es._Shooter, "solve", fail_at_level_5)
        with pytest.raises(ConsistencyError, match="injected"):
            es.solve_spectrum(CH30, QUARTIC, 8, path=path)
        # five rows were written to the staged file; it is gone, and no
        # other *.tmp file is left
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("name", ["quartic.npy", "quartic.json"])
    def test_a_full_disk_during_a_solve_leaves_the_previous_files(self, quartic_table, tmp_path,
                                                                  full_disk, name):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with full_disk(name), pytest.raises(OSError, match="No space left"):
            es.solve_spectrum(CH30, QUARTIC, 5, path=path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("spoil", [
        lambda npy, other: npy.write_bytes(npy.read_bytes()[:-8]),
        lambda npy, other: npy.write_bytes(npy.read_bytes() + bytes(8)),
        lambda npy, other: npy.write_bytes(other.read_bytes()),
        lambda npy, other: np.save(npy, np.load(npy).astype(np.float32)),
        lambda npy, other: np.save(npy, np.asfortranarray(np.load(npy))),
        lambda npy, other: npy.write_bytes(b"not a numpy file"),
    ], ids=["short", "long", "other-table", "float32", "fortran", "no-header"])
    def test_samples_that_disagree_fail_at_load(self, quartic_table, tmp_path, spoil):
        # a file whose size disagrees with its header, or whose header
        # disagrees with the record, fails when it is loaded, not at the
        # first read past its end
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        other = es.save_spectrum(quartic_table.truncated(3), tmp_path / "other.json")
        spoil(path.with_suffix(".npy"), other.with_suffix(".npy"))
        with pytest.raises(ValueError):
            es.load_spectrum(path)

    def test_version_guard(self, quartic_table, tmp_path):
        path = es.save_spectrum(quartic_table, tmp_path / "quartic.json")
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            es.load_spectrum(path)

    def test_csv_export(self, quartic_table, tmp_path):
        out = tmp_path / "spectrum.csv"
        es.export_spectrum_csv([quartic_table], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,nodes,f_at_1,fprime_at_1"
        assert len(lines) == 14
        row = lines[1].split(",")
        assert row[:3] == ["3", "0", "0"]
        assert float(row[3]) == quartic_table.pair(0).lam
        assert int(row[4]) == 0

    def test_csv_deterministic(self, quartic_table, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        es.export_spectrum_csv([quartic_table], a)
        es.export_spectrum_csv([quartic_table], b)
        assert a.read_bytes() == b.read_bytes()
