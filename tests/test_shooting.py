"""The shooting kernel against its indexed-loop reference, the match index
against the turning point, and the Newton refinement over the model space
the validator accepts (multi-term even polynomials, d >= 3, n >= 0).

``reference_sweep`` is the indexed z-form recurrence (``z = w y``): it
stores every value, sweeps the whole outward tail, counts nodes on
``y = z / w`` and starts inward where the decay from the match index
reaches ``INWARD_DECAY``, by its own loop.  The probe computes ``g`` by the same expression and
reorders no floating-point operation, so the two agree bit for bit at
equal match index.  ``reference_sweep_y`` is the three-weight y-form loop
the solver ran before; it agrees with the probe to rounding.  A
long-double sweep bounds the eigenvalue error that float64 rounding
leaves, and the sweep counts of two spectra are pinned from above.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprobe import eigensolve as es
from specprobe.errors import ConsistencyError
from specprobe.potential import Channel, PotentialModel, effective_potential
from specprobe.wkb import turning_points

QUARTIC = PotentialModel.pure(4, 1.0)
MIXED = PotentialModel.from_spec("1*r^4+0.5*r^6")
HARMONIC = PotentialModel.pure(2, 1.0)

CASES = {
    "quartic 3:0": (Channel(3, 0), QUARTIC, 60),
    "mixed 5:2": (Channel(5, 2), MIXED, 24),
    "harmonic 3:0": (Channel(3, 0), HARMONIC, 20),
}


def _start_index(w):
    """First node with a weight of at least 0.75, as the solver starts."""
    return 0 if w[0] >= 0.75 else int(np.argmax(w >= 0.75))


def _seeds(channel, lam, grid, i0):
    seeds = es.boundary_series_small_r(
        channel, lam, np.array([grid.r_min + i0 * grid.h, grid.r_min + (i0 + 1) * grid.h])
    )
    scale = max(abs(seeds[0]), abs(seeds[1]))
    return seeds[0] / scale, seeds[1] / scale


def _mismatch(h, out, inn, m):
    o_m, o_c, o_p = out[m - 1], out[m], out[m + 1]
    i_m, i_c, i_p = inn[m - 1], inn[m], inn[m + 1]
    return (o_p - o_m) / (2.0 * h * o_c) - (i_p - i_m) / (2.0 * h * i_c)


def _inward_start(lam, grid, u, m):
    """First node from ``m`` on where the decay ``h sum sqrt(U - lam)``,
    summed in order from ``m``, reaches ``INWARD_DECAY`` (at least ``m + 2``),
    else the grid end."""
    acc = 0.0
    for i in range(m, grid.n_points):
        acc += math.sqrt(max(u[i] - lam, 0.0))
        if grid.h * acc >= es.INWARD_DECAY:
            return max(i, m + 2)
    return grid.n_points - 1


def reference_sweep(channel, lam, grid, u, m):
    """Node count of the full outward sweep and mismatch at ``m``, from the
    z-form recurrence ``z[i+1] = g[i] z[i] - z[i-1]``."""
    h = grid.h
    n = grid.n_points
    t = (h * h / 12.0) * (lam - u)
    w = 1.0 + t
    g = (2.0 - 12.0 * t / w).tolist()
    wl = w.tolist()
    i0 = _start_index(w)
    y0, y1 = _seeds(channel, lam, grid, i0)
    z = [0.0] * n
    z[i0] = wl[i0] * y0
    z[i0 + 1] = wl[i0 + 1] * y1
    nodes = 0
    for i in range(i0 + 1, n - 1):
        z[i + 1] = g[i] * z[i] - z[i - 1]
        # on y = z / w, whose sign is z's wherever w > 0
        if (z[i] / wl[i]) * (z[i + 1] / wl[i + 1]) < 0.0:
            nodes += 1

    end = _inward_start(lam, grid, u, m)
    theta = h * 0.5 * (
        math.sqrt(max(u[end - 1] - lam, 0.0)) + math.sqrt(max(u[end] - lam, 0.0))
    )
    z_in = [0.0] * n
    z_in[end] = wl[end] * math.exp(-theta)
    z_in[end - 1] = wl[end - 1]
    for i in range(end - 1, m - 1, -1):
        z_in[i - 1] = g[i] * z_in[i] - z_in[i + 1]

    ys = [zi / wi for zi, wi in zip(z, wl)]
    ys_in = [zi / wi for zi, wi in zip(z_in, wl)]
    return nodes, float(_mismatch(h, ys, ys_in, m))


def reference_sweep_y(channel, lam, grid, u, m):
    """``reference_sweep`` on the y-form recurrence
    ``w[i+1] y[i+1] = (12 - 10 w[i]) y[i] - w[i-1] y[i-1]``."""
    h = grid.h
    n = grid.n_points
    w = 1.0 + (h * h / 12.0) * (lam - u)
    wl = w.tolist()
    i0 = _start_index(w)
    ys = [0.0] * n
    ys[i0], ys[i0 + 1] = _seeds(channel, lam, grid, i0)
    nodes = 0
    for i in range(i0 + 1, n - 1):
        ys[i + 1] = ((12.0 - 10.0 * wl[i]) * ys[i] - wl[i - 1] * ys[i - 1]) / wl[i + 1]
        if ys[i] * ys[i + 1] < 0.0:
            nodes += 1

    end = _inward_start(lam, grid, u, m)
    theta = h * 0.5 * (
        math.sqrt(max(u[end - 1] - lam, 0.0)) + math.sqrt(max(u[end] - lam, 0.0))
    )
    ys_in = [0.0] * n
    ys_in[end] = math.exp(-theta)
    ys_in[end - 1] = 1.0
    for i in range(end - 1, m - 1, -1):
        ys_in[i - 1] = ((12.0 - 10.0 * wl[i]) * ys_in[i] - wl[i + 1] * ys_in[i + 1]) / wl[i - 1]
    return nodes, float(_mismatch(h, ys, ys_in, m))


def turning_point_index(channel, model, grid, lam):
    """Match index as the solver used to place it: the node nearest T."""
    big_t = turning_points(channel, model, lam)
    q = (big_t - grid.r_min) / grid.h
    return min(max(int(round(q)), 3), grid.n_points - 5), q


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """Channel, model and the shooter on the grid a spectrum solve uses."""
    channel, model, l_max = CASES[request.param]
    grid = es._default_grid(channel, model, l_max, es.DEFAULT_POINTS_PER_WAVELENGTH)
    return channel, model, es._Shooter(channel, model, grid), l_max


def _scan(shooter, count):
    """Spectral parameters from just above the potential minimum to the
    top of the grid's coverage."""
    top = float(shooter.u[shooter.grid.n_points - 8])
    return np.linspace(1.01 * shooter.floor + 0.5, top, count).tolist()


def _near_eigenvalues(channel, model, shooter, l_max):
    """Spectral parameters 1e-12, 1e-9 and 1e-6 relative to either side of
    each discrete eigenvalue: there the outward sweep follows the decaying
    tail longest before it turns, so the probe's tail exit comes latest."""
    table = es.solve_spectrum(channel, model, l_max, grid=shooter.grid)
    discrete = table.eigenvalues - np.array(table.record.shifts)
    return [lam * (1.0 + sign * rel)
            for lam in discrete.tolist() for rel in (1e-12, 1e-9, 1e-6) for sign in (-1, 1)]


def test_probe_bit_identical_to_indexed_loop(case):
    # the reference sweeps the whole tail; the probe stops once z grows
    channel, model, shooter, l_max = case
    u = effective_potential(channel, model, shooter.grid.r)
    for lam in _scan(shooter, 40) + _near_eigenvalues(channel, model, shooter, l_max):
        m = shooter.match_index(lam)
        got = shooter._shoot(lam, m).result
        assert (got.node_count, got.mismatch) == reference_sweep(
            channel, lam, shooter.grid, u, m
        )


def test_probe_agrees_with_y_form_loop(case):
    # the two forms of the recurrence differ by rounding alone: the node
    # counts agree outside the rounding band around each eigenvalue, and
    # the mismatches place the eigenvalue within rel_tol of each other
    channel, model, shooter, l_max = case
    u = effective_potential(channel, model, shooter.grid.r)
    for lam in _scan(shooter, 40) + _near_eigenvalues(channel, model, shooter, l_max):
        m = shooter.match_index(lam)
        probe = shooter._shoot(lam, m)
        nodes, mismatch = reference_sweep_y(channel, lam, shooter.grid, u, m)
        step = probe.result.mismatch / probe.slope
        if abs(step) > 1e-11 * lam:
            assert nodes == probe.result.node_count
        if abs(step) < 1e-5 * lam:
            assert abs(mismatch - probe.result.mismatch) <= (
                es.DEFAULT_REL_TOL * lam * abs(probe.slope)
            )


def test_grid_match_index_is_turning_point_index(case):
    channel, model, shooter, _ = case
    for lam in _scan(shooter, 300):
        want, q = turning_point_index(channel, model, shooter.grid, lam)
        got = shooter.match_index(lam)
        # the samples place T by their chord, off the curve by far less than
        # 1e-3 of a step here, so only a near tie may round the other way
        assert got == want or (abs(got - want) == 1 and abs(q - math.floor(q) - 0.5) < 1e-3)


def test_match_index_rejects_uncovered_lam(case):
    _, _, shooter, _ = case
    with pytest.raises(ValueError):
        shooter.match_index(float(shooter.u[-1]))


def test_assembled_node_count_is_counted_not_copied():
    table = es.solve_spectrum(Channel(3, 0), QUARTIC, 4)
    shooter = es._Shooter(Channel(3, 0), QUARTIC, table.grid)
    lam = float(table.eigenvalues[3])
    pair = shooter.assemble(lam, shooter.match_index(lam), 2, 0, 0)
    assert pair.level == 2
    assert pair.node_count == 3


def test_unreachable_tolerance_raises_instead_of_spinning():
    with pytest.raises(ConsistencyError, match="cannot shrink"):
        es.solve_level(Channel(3, 0), QUARTIC, 2, rel_tol=1e-18)


def test_tolerance_inside_rounding_band_closes_by_node_count(quartic_n0):
    # on the level-60 grid the Newton steps at level 0 stall near 1e-13
    # relative; the node counts still close the bracket to 1e-15
    for rel_tol in (1e-14, 1e-15):
        pair = es.solve_level(Channel(3, 0), QUARTIC, 0, grid=quartic_n0.grid, rel_tol=rel_tol)
        assert pair.node_count == 0 and pair.bisections > 0
        assert abs(pair.lam - quartic_n0.eigenvalues[0]) <= 1e-11 * pair.lam


def test_sweeps_recorded_and_round_tripped(tmp_path):
    table = es.solve_spectrum(Channel(3, 0), QUARTIC, 6)
    for pair in table.eigenpairs:
        # at least one probe; a safeguard step places a probe after the first
        assert pair.sweeps >= 1
        assert 0 <= pair.bisections < pair.sweeps
    path = es.save_spectrum(table, tmp_path / "t.json")
    loaded = es.load_spectrum(path)
    assert loaded.record.sweeps == table.record.sweeps
    assert loaded.record.bisections == table.record.bisections
    assert [p.sweeps for p in loaded.eigenpairs] == list(table.record.sweeps)


@pytest.fixture(scope="module")
def mixed_52():
    channel, model, l_max = CASES["mixed 5:2"]
    return es.solve_spectrum(channel, model, l_max)


def test_sweep_counts_pinned(quartic_n0, mixed_52):
    # Newton from the cubic in lam^((c+1)/(2c)) through the levels below:
    # 135 sweeps on the quartic (2.2 per level), 76 and 89 on the mixed
    # channels
    assert sum(quartic_n0.record.sweeps) <= 140
    assert sum(es.solve_spectrum(Channel(3, 0), MIXED, 24).record.sweeps) <= 80
    assert sum(mixed_52.record.sweeps) <= 89


def _longdouble_rounding_error(table, level):
    """Relative eigenvalue error float64 rounding leaves at ``level``: the
    mismatch of a long-double sweep at the float64 discrete eigenvalue,
    over the probe's slope.  The sweeps share the start and the seeds."""
    ld = np.longdouble
    shooter = es._Shooter(table.channel, table.model, table.grid)
    lam = float(table.eigenvalues[level] - table.record.shifts[level])
    m = shooter.match_index(lam)
    _, _, i0, z0, z1, _ = shooter._start(lam, m)
    n, h = table.grid.n_points, ld(table.grid.h)
    u = shooter.u.astype(ld)
    t = (h * h / 12) * (ld(lam) - u)
    w = 1 + t
    g = (2 - 12 * t / w).tolist()
    out = [ld(z0), ld(z1)]  # z at i0, i0 + 1, ...
    for i in range(i0 + 1, m + 1):
        out.append(g[i] * out[-1] - out[-2])
    theta = table.grid.h * 0.5 * (
        math.sqrt(max(shooter.u[n - 2] - lam, 0.0)) + math.sqrt(max(shooter.u[n - 1] - lam, 0.0))
    )
    inn = [w[n - 1] * ld(math.exp(-theta)), w[n - 2]]  # z at n - 1, n - 2, ...
    for i in range(n - 2, m - 1, -1):
        inn.append(g[i] * inn[-1] - inn[-2])
    ys = {j: out[j - i0] / w[j] for j in (m - 1, m, m + 1)}
    ys_in = {j: inn[n - 1 - j] / w[j] for j in (m - 1, m, m + 1)}
    mismatch = _mismatch(h, ys, ys_in, m)
    return float(abs(mismatch / ld(shooter._shoot(lam, m).slope))) / lam


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is float64 here",
)
def test_rounding_error_against_long_double(quartic_n0, mixed_52):
    for table, levels in ((quartic_n0, (0, 10, 30, 60)), (mixed_52, range(25))):
        for level in levels:
            assert _longdouble_rounding_error(table, level) <= 1e-12, level


@settings(max_examples=8, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from([4, 6, 8]), st.floats(min_value=0.2, max_value=3.0)),
        min_size=2,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    d=st.integers(min_value=3, max_value=8),
    n=st.integers(min_value=0, max_value=20),
    l_max=st.integers(min_value=0, max_value=8),
)
def test_spectrum_over_multi_term_models(terms, d, n, l_max):
    model = PotentialModel.from_spec("+".join(f"{c!r}*r^{e}" for e, c in terms))
    channel = Channel(d, n)
    rel_tol = es.DEFAULT_REL_TOL
    table = es.solve_spectrum(channel, model, l_max, rel_tol=rel_tol)
    lams = table.eigenvalues
    assert [p.level for p in table.eigenpairs] == list(range(l_max + 1))
    assert all(p.node_count == p.level for p in table.eigenpairs)
    assert np.all(np.diff(lams) > 0.0)
    norms = table.samples**2 @ table.grid.simpson_weights
    assert np.all(np.abs(norms - 1.0) <= 1e-8)
    for pair in table.eigenpairs:
        alone = es.solve_level(channel, model, pair.level, grid=table.grid, rel_tol=rel_tol)
        # each solve stops on a bracket of relative width rel_tol around the
        # same root, so the two answers are within rel_tol of each other
        assert abs(alone.lam - pair.lam) <= rel_tol * max(1.0, pair.lam)
