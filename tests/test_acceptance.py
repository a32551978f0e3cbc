"""Acceptance gate: one test per certification item, in order.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and asserts the same condition, so the suite result
is the certificate.  Items certify, at desk scale, every quantitative
mechanism behind the non-smoothness result for super-quadratic
confinement: solver calibration against closed forms, node counts,
quantization residuals, gap growth, boundary amplitude growth, the
allowed-region and Langer-profile asymptotics, the error-control
integral, the resonant probe lower bound, the overlap prediction, kernel
invariants, and byte determinism.

The quartic reference eigenvalues 3.799673029801394 and 11.644745511378
were frozen from an independent dense-grid shooting oracle written before
the solver; the same oracle is re-run inline by the eigensolver test
module.
"""

import math
import statistics

import numpy as np
import pytest

from specprobe import probe as pr
from specprobe import wkb
from specprobe.eigensolve import solve_spectrum
from specprobe.fitting import fit_power_law, gap_scaling
from specprobe.formats import write_csv
from specprobe.kernel import export_kernel_grid, kernel_matrix, parseval_check
from specprobe.potential import Channel, PotentialModel
from specprobe.probe import make_bump, overlap, predicted_overlap, probe_sequence
from specprobe.wkb import export_wkb_csv, summarize

QUARTIC = PotentialModel.pure(4, 1.0)
ORACLE_LAM_0 = 3.799673029801394
ORACLE_LAM_1 = 11.644745511378


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _doubling_levels(table, start_level: int = 4) -> list:
    lams = [p.lam for p in table.eigenpairs]
    target = lams[start_level]
    picked = []
    while target <= lams[-1] * (1.0 + 1e-12):
        idx = min(range(len(lams)), key=lambda i: abs(lams[i] - target))
        if not picked or idx != picked[-1]:
            picked.append(idx)
        target *= 2.0
    return picked


def test_criterion_01_oscillator_exactness(osc_n0, osc_n1):
    err0 = max(
        abs(p.lam - (4 * p.level + 3)) / (4 * p.level + 3) for p in osc_n0.eigenpairs
    )
    err1 = max(
        abs(p.lam - (4 * p.level + 5)) / (4 * p.level + 5) for p in osc_n1.eigenpairs
    )
    ok = err0 <= 1e-7 and err1 <= 1e-7
    _report(
        1,
        ok,
        f"oscillator matches 4l+3 and 4l+5 for l <= 20 "
        f"(max rel err n=0: {err0:.2e}, n=1: {err1:.2e}; tol 1e-7)",
    )


def test_criterion_02_oracle_eigenvalues(quartic_n0):
    lam0, lam1 = quartic_n0.eigenvalues[:2]
    d0 = abs(lam0 - ORACLE_LAM_0)
    d1 = abs(lam1 - ORACLE_LAM_1)
    ok = d0 <= 1e-5 and d1 <= 1e-5
    _report(
        2,
        ok,
        f"quartic lam_0={lam0:.9f}, lam_1={lam1:.9f} match the frozen "
        f"dense-grid oracle (diffs {d0:.2e}, {d1:.2e}; tol 1e-5)",
    )


def test_criterion_03_node_counts(quartic_channel_tables):
    bad = [
        (d, n, p.level, p.node_count)
        for (d, n), table in sorted(quartic_channel_tables.items())
        for p in table.eigenpairs
        if p.node_count != p.level
    ]
    total = sum(len(t.eigenpairs) for t in quartic_channel_tables.values())
    ok = not bad
    _report(
        3,
        ok,
        f"node_count == l for all {total} solved levels over d in {{3,4,5}}, "
        f"n in {{0..3}}, l <= 40" + (f"; first mismatch {bad[0]}" if bad else ""),
    )


def test_criterion_04_quantization_residual(quartic_n0, osc_n0, osc_n1):
    ch = Channel(3, 0)
    res = [abs(wkb.bs_residual(p, ch, QUARTIC)) for p in quartic_n0.eigenpairs]
    worst_high = max(res[20:41])
    med_low = statistics.median(res[5:16])
    med_high = statistics.median(res[20:41])
    osc_worst = max(
        max(abs(wkb.bs_residual(p, Channel(3, n), PotentialModel.pure(2, 1.0)))
            for p in table.eigenpairs)
        for n, table in ((0, osc_n0), (1, osc_n1))
    )
    ok = worst_high <= 0.05 and med_high < med_low and osc_worst <= 1e-6
    _report(
        4,
        ok,
        f"quartic |bs_residual| <= 0.05 on l in [20,40] (max {worst_high:.2e}), "
        f"median falls {med_low:.2e} -> {med_high:.2e}; "
        f"oscillator exact (max {osc_worst:.2e}, tol 1e-6)",
    )


def test_criterion_05_gap_growth(quartic_n0, sextic_n0):
    fit4 = gap_scaling(quartic_n0.eigenvalues, window=(30, 60))
    fit6 = gap_scaling(sextic_n0.eigenvalues, window=(30, 60))
    ok = abs(fit4.exponent - 0.25) <= 0.03 and abs(fit6.exponent - 1.0 / 3.0) <= 0.03
    _report(
        5,
        ok,
        f"gap exponents quartic {fit4.exponent:.4f} (want 0.25 +/- 0.03), "
        f"sextic {fit6.exponent:.4f} (want 0.3333 +/- 0.03), top 30 of 60 levels",
    )


def test_criterion_06_amplitude_growth(quartic_n0):
    ch = Channel(3, 0)
    scaled = [
        abs(wkb.extract_C_lambda(p, ch, QUARTIC)) * p.lam**-0.125
        for p in quartic_n0.eigenpairs[20:51]
    ]
    floor = min(scaled)
    fit, _ = wkb.amplitude_scaling(wkb.summarize(quartic_n0, ch, QUARTIC), l_range=(20, 50))
    ok = floor > 0.0 and fit.exponent >= 0.095
    _report(
        6,
        ok,
        f"min |C_lam| lam^-0.125 over l in [20,50] is {floor:.6f} > 0; "
        f"fitted amplitude exponent {fit.exponent:.4f} >= 0.095",
    )


def test_criterion_07_allowed_region_residual(quartic_n0):
    ch = Channel(3, 0)
    pts = []
    for pair in quartic_n0.eigenpairs[20:51]:
        c_lam = wkb.extract_C_lambda(pair, ch, QUARTIC)
        resid = wkb.allowed_region_residual(pair, c_lam, ch, QUARTIC, quartic_n0.grid)
        pts.append((pair.lam, resid / (abs(c_lam) * pair.lam**-0.5)))
    fit = fit_power_law(pts)
    ok = fit.exponent <= 0.05
    _report(
        7,
        ok,
        f"normalized allowed-region residual on [0.8,1.2] has log-log slope "
        f"{fit.exponent:.4f} <= 0.05 over l in [20,50] "
        f"(values {min(p[1] for p in pts):.4f}..{max(p[1] for p in pts):.4f})",
    )


def test_criterion_08_langer_comparison(quartic_n0):
    ch = Channel(3, 0)
    pts = []
    for idx in _doubling_levels(quartic_n0):
        pair = quartic_n0.eigenpairs[idx]
        result = wkb.langer_residual(pair, ch, QUARTIC, quartic_n0.grid)
        pts.append((pair.lam, result.residual))
    decreasing = all(b[1] < a[1] for a, b in zip(pts, pts[1:]))
    fit = fit_power_law(pts)
    ok = decreasing and fit.exponent <= -0.5
    _report(
        8,
        ok,
        f"langer residual decreasing along {len(pts)}-rung doubling ladder "
        f"({decreasing}), decay exponent {fit.exponent:.4f} <= -0.5",
    )


def test_criterion_09_appendix_error_integral():
    ch = Channel(3, 0)
    pts = []
    lam = 400.0
    for _ in range(6):
        pts.append((lam, wkb.appendix_error_integral(ch, QUARTIC, lam)))
        lam *= 2.0
    fit = fit_power_law(pts)
    ok = abs(fit.exponent + 0.75) <= 0.1
    _report(
        9,
        ok,
        f"error-control integral scales with exponent {fit.exponent:.4f} "
        f"(want -0.75 +/- 0.1) over the 400..12800 doubling ladder",
    )


def test_criterion_10_probe_lower_bound(quartic_n0, quartic_n1):
    window = pr.WindowSpec(1.0)
    details = []
    ok = True
    for table in (quartic_n0, quartic_n1):
        grid = table.grid
        phi = make_bump(1.0, 0.2, grid)
        psi = make_bump(1.5, 0.2, grid)
        seq = probe_sequence(table, phi, psi, window, (20, 50))
        worst_excess = 0.0
        for p in seq.points:
            pair = table.pair(p.level)
            root = math.sqrt(p.lam)
            dom = overlap(phi, root, pair, grid) * overlap(psi, -root, pair, grid)
            worst_excess = max(worst_excess, abs(p.G - dom) - 5.0 * p.isolation)
        ok = (
            ok
            and abs(seq.fit.exponent + 0.25) <= 0.05
            and seq.lower_bound_const > 0.0
            and worst_excess <= 0.0
        )
        details.append(
            f"n={table.channel.n}: exponent {seq.fit.exponent:.4f}, "
            f"const {seq.lower_bound_const:.4g}, dominant-term excess "
            f"{worst_excess:.1e}"
        )
    _report(
        10,
        ok,
        "probe |G| exponent -0.25 +/- 0.05 with positive rescaled floor and "
        "dominant-term identity within 5x isolation; " + "; ".join(details),
    )


def test_criterion_11_overlap_prediction(quartic_n0):
    ch = Channel(3, 0)
    grid = quartic_n0.grid
    phi = make_bump(1.0, 0.2, grid)
    pts = []
    for pair in quartic_n0.eigenpairs[20:51]:
        lam = pair.lam
        c_re = wkb.rephased_amplitude(wkb.extract_C_lambda(pair, ch, QUARTIC), lam)
        ov = overlap(phi, math.sqrt(lam), pair, grid)
        pred = predicted_overlap(c_re, lam, phi.mass)
        pts.append((lam, abs(ov - pred) / (abs(c_re) * lam**-0.75)))
    bound = max(p[1] for p in pts)
    fit = fit_power_law(pts)
    ok = math.isfinite(bound) and fit.exponent <= 0.05
    _report(
        11,
        ok,
        f"|overlap - predicted| <= C |C_lam| lam^-0.75 with C = {bound:.4f} "
        f"and no growth (slope {fit.exponent:.4f} <= 0.05) over l in [20,50]",
    )


def test_criterion_12_kernel_invariants(quartic_n0):
    grid = quartic_n0.grid
    k = grid.index_of(1.0)
    step = max(1, k // 12)
    radii = [float(grid.r[i]) for i in range(k - 10 * step, k + 11 * step, 2 * step)]
    herm = 0.0
    for t in (0.7, 1.3):
        forward = kernel_matrix(quartic_n0, t, radii, 20)
        backward = kernel_matrix(quartic_n0, -t, radii, 20)
        herm = max(
            herm,
            float(np.abs(backward - forward.conj()).max() / np.abs(forward).max()),
        )
    eigs = np.linalg.eigvalsh(kernel_matrix(quartic_n0, 0.0, radii, 20).real)
    psd_defect = max(0.0, float(-eigs.min() / eigs.max()))
    parseval = parseval_check(quartic_n0, 20)
    ok = herm <= 1e-12 and psd_defect <= 1e-12 and abs(parseval - 21.0) <= 1e-6
    _report(
        12,
        ok,
        f"kernel hermitian deviation {herm:.1e} <= 1e-12, t=0 positivity "
        f"defect {psd_defect:.1e} <= 1e-12, parseval {parseval:.9f} = 21 +/- 1e-6",
    )


def test_criterion_13_determinism(tmp_path):
    ch = Channel(3, 0)
    blobs = []
    for label in ("one", "two"):
        out = tmp_path / label
        out.mkdir()
        table = solve_spectrum(ch, QUARTIC, 25)
        from specprobe.eigensolve import export_spectrum_csv

        export_spectrum_csv([table], out / "spectrum.csv")
        export_wkb_csv(summarize(table, ch, QUARTIC), out / "wkb.csv")
        phi = make_bump(1.0, 0.2, table.grid)
        psi = make_bump(1.5, 0.2, table.grid)
        seq = probe_sequence(table, phi, psi, pr.WindowSpec(1.0), (10, 20))
        write_csv(out / "probe.csv", pr.PROBE_CSV_HEADER, pr.probe_rows(table, seq))
        radii = [1.0, float(table.grid.r[table.grid.index_of(1.0) + 200])]
        export_kernel_grid(table, [0.0, 0.5], radii, radii, 20, out / "kernel.csv")
        blobs.append(
            {
                name: (out / name).read_bytes()
                for name in ("spectrum.csv", "wkb.csv", "probe.csv", "kernel.csv")
            }
        )
    same = {name: blobs[0][name] == blobs[1][name] for name in blobs[0]}
    ok = all(same.values())
    _report(
        13,
        ok,
        "two independent solve+export rounds produced byte-identical CSVs "
        f"({', '.join(name for name in same)})",
    )
