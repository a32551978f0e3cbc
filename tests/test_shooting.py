"""The shooting kernel against its indexed-loop reference, the match index
against the turning point, and the refinement loop over the model space
the validator accepts (multi-term even polynomials, d >= 3, n >= 0).

``reference_sweep`` is the indexed recurrence the solver used before the
probe sweep: it stores every value and looks the match index up from the
turning point.  The probe reorders no floating-point operation, so the two
agree bit for bit at equal match index.
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
HARMONIC = PotentialModel.pure(2, 1.0, harmonic=True)

CASES = {
    "quartic 3:0": (Channel(3, 0), QUARTIC, 60),
    "mixed 5:2": (Channel(5, 2), MIXED, 24),
    "harmonic 3:0": (Channel(3, 0), HARMONIC, 20),
}


def reference_sweep(channel, lam, grid, u, m):
    """Node count of the full outward sweep and mismatch at ``m``."""
    h = grid.h
    n = grid.n_points
    w = 1.0 + (h * h / 12.0) * (lam - u)
    wl = w.tolist()
    i0 = 0
    if wl[0] < 0.75:
        i0 = int(np.argmax(w >= 0.75))
    seeds = es.boundary_series_small_r(
        channel, lam, np.array([grid.r_min + i0 * h, grid.r_min + (i0 + 1) * h])
    )
    scale = max(abs(seeds[0]), abs(seeds[1]))
    ys_out = [0.0] * n
    y0 = seeds[0] / scale
    y1 = seeds[1] / scale
    ys_out[i0] = y0
    ys_out[i0 + 1] = y1
    nodes = 0
    for i in range(i0 + 1, n - 1):
        y2 = ((12.0 - 10.0 * wl[i]) * y1 - wl[i - 1] * y0) / wl[i + 1]
        ys_out[i + 1] = y2
        if y1 * y2 < 0.0:
            nodes += 1
        y0, y1 = y1, y2

    theta = h * 0.5 * (
        math.sqrt(max(u[n - 2] - lam, 0.0)) + math.sqrt(max(u[n - 1] - lam, 0.0))
    )
    ys_in = [0.0] * n
    ys_in[n - 1] = math.exp(-theta)
    ys_in[n - 2] = 1.0
    z1 = ys_in[n - 1]
    z0 = ys_in[n - 2]
    for i in range(n - 2, m - 2, -1):
        zm = ((12.0 - 10.0 * wl[i]) * z0 - wl[i + 1] * z1) / wl[i - 1]
        ys_in[i - 1] = zm
        z1, z0 = z0, zm

    o_m, o_c, o_p = ys_out[m - 1], ys_out[m], ys_out[m + 1]
    i_m, i_c, i_p = ys_in[m - 1], ys_in[m], ys_in[m + 1]
    mismatch = (o_p - o_m) / (2.0 * h * o_c) - (i_p - i_m) / (2.0 * h * i_c)
    return nodes, float(mismatch)


def turning_point_index(channel, model, grid, lam):
    """Match index as the solver used to place it: the node nearest T."""
    big_t = turning_points(channel, model, lam).T
    q = (big_t - grid.r_min) / grid.h
    return min(max(int(round(q)), 3), grid.n_points - 5), q


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """Channel, model and the shooter on the grid a spectrum solve uses."""
    channel, model, l_max = CASES[request.param]
    grid = es._default_grid(
        channel, model, l_max, es.DEFAULT_POINTS_PER_WAVELENGTH, es.DEFAULT_DECAY_MARGIN
    )
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
    discrete = table.eigenvalues - np.array(table.shifts)
    return [lam * (1.0 + sign * rel)
            for lam in discrete.tolist() for rel in (1e-12, 1e-9, 1e-6) for sign in (-1, 1)]


def test_probe_bit_identical_to_indexed_loop(case):
    # the reference sweeps the whole tail; the probe stops once w y grows
    channel, model, shooter, l_max = case
    u = effective_potential(channel, model, shooter.grid.r)
    for lam in _scan(shooter, 40) + _near_eigenvalues(channel, model, shooter, l_max):
        m = shooter.match_index(lam)
        got = shooter.probe(lam, m)
        assert (got.node_count, got.mismatch) == reference_sweep(
            channel, lam, shooter.grid, u, m
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


def test_sweeps_recorded_and_round_tripped(tmp_path):
    table = es.solve_spectrum(Channel(3, 0), QUARTIC, 6)
    for pair in table.eigenpairs:
        # two bracketing probes, one refinement probe, the assembly sweep
        assert pair.sweeps >= 4
        assert 0 <= pair.bisections < pair.sweeps
    path = es.save_spectrum(table, tmp_path / "t.json")
    loaded = es.load_spectrum(path)
    assert loaded.sweeps == table.sweeps
    assert loaded.bisections == table.bisections
    assert [p.sweeps for p in loaded.eigenpairs] == list(table.sweeps)


@settings(max_examples=8, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from([4, 6, 8]), st.floats(min_value=0.2, max_value=3.0)),
        min_size=2,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    d=st.integers(min_value=3, max_value=5),
    n=st.integers(min_value=0, max_value=3),
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
    for pair in table.eigenpairs:
        alone = es.solve_level(channel, model, pair.level, grid=table.grid, rel_tol=rel_tol)
        # each solve stops on a bracket of relative width rel_tol around the
        # same root, so the two answers are within rel_tol of each other
        assert abs(alone.lam - pair.lam) <= rel_tol * max(1.0, pair.lam)
