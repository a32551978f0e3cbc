"""Probe functional tests: bump construction, overlaps, window algebra,
the resonant sequence, and its scaling against the amplitude prediction.

The bump profile integral int_-1^1 exp(-1/(1-u^2)) du =
0.4439938161680794 was frozen from 40-digit quadrature.
"""

import dataclasses
import math

import numpy as np
import pytest

from specprobe import probe as pr
from specprobe import wkb
from specprobe.errors import TruncationError
from specprobe.formats import write_csv
from specprobe.potential import Channel, PotentialModel

BUMP_UNIT_MASS = 0.4439938161680794
QUARTIC = PotentialModel.pure(4, 1.0)
CH30 = Channel(3, 0)


class TestWindow:
    def test_hat_values(self):
        win = pr.WindowSpec(1.0)
        assert pr.window_hat(win, 0.0) == 1.0
        assert pr.window_hat(win, 3.0) == pytest.approx(math.exp(-9.0), rel=1e-14)
        assert pr.window_hat(win, -3.0) == pr.window_hat(win, 3.0)

    def test_scale_enters_quadratically(self):
        win = pr.WindowSpec(2.0)
        assert pr.window_hat(win, 1.5) == pytest.approx(math.exp(-9.0), rel=1e-14)

    def test_vector_evaluation(self):
        win = pr.WindowSpec(1.0)
        out = pr.window_hat(win, np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 1.0

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            pr.WindowSpec(0.0)


class TestMakeBump:
    def test_mass_matches_frozen_profile_integral(self, quartic_n0):
        tf = pr.make_bump(1.0, 0.2, quartic_n0.grid)
        assert tf.mass == pytest.approx(0.2 * BUMP_UNIT_MASS, rel=1e-10)
        assert tf.support == (0.8, 1.2)

    def test_mass_linear_in_halfwidth(self, quartic_n0):
        m1 = pr.make_bump(1.0, 0.1, quartic_n0.grid).mass
        m2 = pr.make_bump(1.0, 0.2, quartic_n0.grid).mass
        assert m2 == pytest.approx(2.0 * m1, rel=1e-8)

    def test_nonnegative_and_supported(self, quartic_n0):
        tf = pr.make_bump(1.5, 0.2, quartic_n0.grid)
        assert np.all(tf.samples >= 0.0)
        r = quartic_n0.grid.r
        assert np.all(tf.samples[(r < 1.3) | (r > 1.7)] == 0.0)

    def test_support_touching_zero_rejected(self, quartic_n0):
        with pytest.raises(ValueError):
            pr.make_bump(0.1, 0.2, quartic_n0.grid)

    def test_support_off_grid_rejected(self, quartic_n0):
        with pytest.raises(ValueError):
            pr.make_bump(quartic_n0.grid.r_max, 0.2, quartic_n0.grid)


class TestOverlap:
    def test_self_overlap_is_norm(self, quartic_n0):
        grid = quartic_n0.grid
        tf = pr.make_bump(1.0, 0.2, grid)
        norm = math.sqrt(float(grid.simpson_weights @ tf.samples**2))
        fake = dataclasses.replace(quartic_n0.pair(0), samples=tf.samples / norm)
        assert pr.overlap(tf, 0.0, fake, grid) == pytest.approx(norm, rel=1e-12)

    def test_resonant_overlap_matches_prediction(self, quartic_n0):
        grid = quartic_n0.grid
        tf = pr.make_bump(1.0, 0.2, grid)
        for level in (20, 35, 50):
            pair = quartic_n0.pair(level)
            lam = pair.lam
            ov = pr.overlap(tf, math.sqrt(lam), pair, grid)
            c_re = wkb.rephased_amplitude(
                wkb.extract_C_lambda(pair, CH30, QUARTIC), lam
            )
            pred = pr.predicted_overlap(c_re, lam, tf.mass)
            assert abs(ov - pred) <= 0.1 * abs(c_re) * lam**-0.75

    def test_off_resonance_much_smaller(self, quartic_n0):
        # order-of-magnitude suppression; the bump bandwidth limits more
        grid = quartic_n0.grid
        tf = pr.make_bump(1.0, 0.2, grid)
        pair = quartic_n0.pair(40)
        res = abs(pr.overlap(tf, math.sqrt(pair.lam), pair, grid))
        off = abs(pr.overlap(tf, 0.0, pair, grid))
        assert off < 0.1 * res

    def test_grid_mismatch_rejected(self, quartic_n0, osc_n0):
        tf = pr.make_bump(1.0, 0.2, quartic_n0.grid)
        with pytest.raises(ValueError):
            pr.overlap(tf, 0.0, osc_n0.pair(0), osc_n0.grid)


class TestPredictedOverlap:
    def test_unit_example(self):
        assert pr.predicted_overlap(1.0 + 0.0j, 16.0, 1.0) == pytest.approx(
            0.25 + 0.0j, abs=1e-15
        )

    def test_conjugate_phase(self):
        c = np.exp(0.7j)
        out = pr.predicted_overlap(c, 16.0, 1.0)
        assert np.angle(out) == pytest.approx(-0.7, rel=1e-12)

    def test_bad_lam_rejected(self):
        with pytest.raises(ValueError):
            pr.predicted_overlap(1.0, -4.0, 1.0)


class TestProbeG:
    def test_single_level_reduces_to_product(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)
        win = pr.WindowSpec(1.0)
        truncated = quartic_n0.truncated(1)
        lam0 = truncated.pair(0).lam
        # offset 6: tail passes the 1e-14 guard yet the weight stays nonzero
        g = pr.probe_G(truncated, lam0 + 6.0, 0.0, 0.0, win, phi, psi)
        pair = truncated.pair(0)
        expect = (
            pr.window_hat(win, -6.0)
            * pr.overlap(phi, 0.0, pair, grid)
            * pr.overlap(psi, 0.0, pair, grid)
        )
        assert expect != 0.0
        assert g == pytest.approx(expect, rel=1e-13)

    def test_matches_per_level_overlap_sum(self, quartic_n0):
        # the loop over levels that probe_G replaced, with the overlap over
        # the whole grid, kept as the reference
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)

        def reference_overlap(tf, phase, pair):
            integrand = tf.samples * pair.samples * np.exp(1j * phase * grid.r)
            return complex(grid.simpson_weights @ integrand)

        for sigma in (1.0, 0.2):
            win = pr.WindowSpec(sigma)
            for level in (20, 33, 41):
                lam = quartic_n0.pair(level).lam
                root = math.sqrt(lam)
                for tau, j, k in ((lam, root, root), (lam + 2.5, 3.0, 1.0)):
                    ref = 0.0 + 0.0j
                    for pair in quartic_n0.eigenpairs:
                        ref += (
                            pr.window_hat(win, pair.lam - tau)
                            * reference_overlap(phi, j, pair)
                            * reference_overlap(psi, -k, pair)
                        )
                    g = pr.probe_G(quartic_n0, tau, j, k, win, phi, psi)
                    assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_real_for_symmetric_arguments(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        win = pr.WindowSpec(1.0)
        lam = quartic_n0.pair(30).lam
        g = pr.probe_G(quartic_n0, lam, 0.0, 0.0, win, phi, phi)
        assert abs(g.imag) <= 1e-12 * abs(g)

    def test_linearity_in_phi(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)
        doubled = dataclasses.replace(
            phi, samples=2.0 * phi.samples, mass=2.0 * phi.mass
        )
        win = pr.WindowSpec(1.0)
        lam = quartic_n0.pair(30).lam
        root = math.sqrt(lam)
        g1 = pr.probe_G(quartic_n0, lam, root, root, win, phi, psi)
        g2 = pr.probe_G(quartic_n0, lam, root, root, win, doubled, psi)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-14)

    def test_plancherel_bound(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)
        win = pr.WindowSpec(1.0)
        norm_phi = math.sqrt(float(grid.simpson_weights @ phi.samples**2))
        norm_psi = math.sqrt(float(grid.simpson_weights @ psi.samples**2))
        for level in (25, 40):
            lam = quartic_n0.pair(level).lam
            root = math.sqrt(lam)
            g = pr.probe_G(quartic_n0, lam, root, root, win, phi, psi)
            assert abs(g) <= norm_phi * norm_psi

    def test_truncation_guard(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        win = pr.WindowSpec(1.0)
        top = quartic_n0.eigenvalues[-1]
        with pytest.raises(TruncationError) as info:
            pr.probe_G(quartic_n0, top, 0.0, 0.0, win, phi, phi)
        assert info.value.tail_bound == pytest.approx(1.0)

    def test_truncation_stability(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)
        win = pr.WindowSpec(1.0)
        shorter = quartic_n0.truncated(41)
        lam = quartic_n0.pair(25).lam
        root = math.sqrt(lam)
        g_full = pr.probe_G(quartic_n0, lam, root, root, win, phi, psi)
        g_short = pr.probe_G(shorter, lam, root, root, win, phi, psi)
        assert abs(g_full - g_short) <= 1e-10 * abs(g_full)


class TestIsolation:
    def test_oscillator_geometric_sum(self, osc_n0):
        # gaps are exactly 4, so the sum is 2 e^-16 plus e^-64 dust;
        # tolerance reflects the 1e-7-level eigenvalue accuracy
        win = pr.WindowSpec(1.0)
        iso = pr.isolation_check(osc_n0, 10, win)
        assert iso == pytest.approx(2.0 * math.exp(-16.0), rel=1e-4)

    def test_decreasing_in_level(self, quartic_n0):
        win = pr.WindowSpec(1.0)
        vals = [pr.isolation_check(quartic_n0, l, win) for l in (10, 25, 40)]
        assert vals[0] > vals[1] > vals[2]

    def test_quartic_isolated_past_onset(self, quartic_n0):
        win = pr.WindowSpec(1.0)
        assert pr.isolation_check(quartic_n0, 30, win) <= 1e-6


@pytest.fixture(scope="module")
def sequence(quartic_n0):
    grid = quartic_n0.grid
    phi = pr.make_bump(1.0, 0.2, grid)
    psi = pr.make_bump(1.5, 0.2, grid)
    return pr.probe_sequence(quartic_n0, phi, psi, pr.WindowSpec(1.0), (20, 50))


class TestProbeSequence:
    def test_point_structure(self, sequence, quartic_n0):
        assert len(sequence.points) == 31
        first = sequence.points[0]
        assert first.level == 20
        assert first.lam == quartic_n0.eigenvalues[20]

    def test_fitted_exponent_near_minus_quarter(self, sequence):
        assert sequence.fit.exponent == pytest.approx(-0.25, abs=0.05)

    def test_lower_bound_positive(self, sequence):
        assert sequence.lower_bound_const > 0.0

    def test_dominant_term_identity(self, sequence, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        psi = pr.make_bump(1.5, 0.2, grid)
        for p in sequence.points[::6]:
            pair = quartic_n0.pair(p.level)
            root = math.sqrt(p.lam)
            dom = pr.overlap(phi, root, pair, grid) * pr.overlap(psi, -root, pair, grid)
            assert abs(p.G - dom) <= 5.0 * p.isolation + 1e-280

    def test_magnitude_tracks_prediction(self, sequence):
        ratios = [abs(p.G) / p.predicted_magnitude for p in sequence.points]
        assert all(0.75 <= ratio <= 1.25 for ratio in ratios)
        # remainder shrinks along the sequence
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_bad_ranges_rejected(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        win = pr.WindowSpec(1.0)
        with pytest.raises(ValueError):
            pr.probe_sequence(quartic_n0, phi, phi, win, (20, 25))
        with pytest.raises(ValueError):
            pr.probe_sequence(quartic_n0, phi, phi, win, (50, 70))

    def test_support_check_enforced(self, quartic_n0):
        grid = quartic_n0.grid
        phi = pr.make_bump(1.0, 0.2, grid)
        # support [3.5, 4.5] leaves the allowed region at lam_20 ~ 314
        far = pr.make_bump(4.0, 0.5, grid)
        win = pr.WindowSpec(1.0)
        with pytest.raises(ValueError):
            pr.probe_sequence(quartic_n0, phi, far, win, (20, 50))

    def test_csv_export(self, sequence, quartic_n0, tmp_path):
        out = tmp_path / "probe.csv"
        write_csv(out, pr.PROBE_CSV_HEADER, pr.probe_rows(quartic_n0, sequence))
        lines = out.read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,reG,imG,absG,predicted_abs,isolation"
        assert len(lines) == 32
        row = lines[1].split(",")
        assert (int(row[0]), int(row[1]), int(row[2])) == (3, 0, 20)
        assert float(row[7]) == pytest.approx(
            sequence.points[0].predicted_magnitude, rel=1e-15
        )
