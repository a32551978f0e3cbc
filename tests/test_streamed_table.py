"""A table solved to its cache file, or loaded from it, against the same
table held in memory.

A solve given a path writes each level's row to the staged ``.npy`` as
the level converges, and a loaded table reads its rows, or blocks of
columns, from the file on demand.  The files must be the bytes a save of
the in-memory table writes, every reader must give the same bits on both
tables, and the traced memory of a process must grow with the grid, not
with the number of levels.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from specprobe import eigensolve as es
from specprobe import kernel as ke
from specprobe import probe as pr
from specprobe import wkb
from specprobe.potential import Channel, PotentialModel

QUARTIC = PotentialModel.pure(4, 1.0)
MIXED = PotentialModel.from_spec("1*r^4+0.5*r^6")

# channel, model, l_max, probe levels
CASES = {
    "quartic-3:0": (Channel(3, 0), QUARTIC, 30, (10, 25)),
    "mixed-5:2": (Channel(5, 2), MIXED, 24, (8, 22)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def tables(request, tmp_path_factory):
    """The in-memory table, the streamed one's path, a save of the
    in-memory one, and the streamed table loaded back."""
    channel, model, l_max, l_range = CASES[request.param]
    out = tmp_path_factory.mktemp(request.param)
    memory = es.solve_spectrum(channel, model, l_max)
    streamed = out / "streamed.json"
    es.solve_spectrum(channel, model, l_max, path=streamed)
    saved = es.save_spectrum(memory, out / "saved.json")
    return memory, streamed, saved, es.load_spectrum(streamed), l_range


def test_streamed_files_are_the_saved_files(tables):
    memory, streamed, saved, _, _ = tables
    assert streamed.read_bytes() == saved.read_bytes()
    npy = streamed.with_suffix(".npy").read_bytes()
    assert npy == saved.with_suffix(".npy").read_bytes()
    # and the file np.save writes of the samples
    buffer = io.BytesIO()
    np.save(buffer, memory.samples)
    assert npy == buffer.getvalue()


def test_block_indexes_columns_as_a_list_does(tables):
    memory, _, _, loaded, _ = tables
    n = memory.grid.n_points
    for columns in ([-1], [n - 1], [0, -2, 5]):
        assert np.array_equal(loaded.block(columns), memory.block(columns))
    assert np.array_equal(loaded.block([-1]), memory.samples[:, -1:])
    for table in (memory, loaded):
        for columns in ([n], [-n - 1]):
            with pytest.raises(IndexError):
                table.block(columns)


def test_wkb_readers_agree_to_the_bit(tables):
    memory, _, _, loaded, _ = tables
    ch, model = memory.channel, memory.model
    # repr is exact for floats and keeps the NaN of a level below U(1)
    assert repr(wkb.summarize(loaded, ch, model)) == repr(wkb.summarize(memory, ch, model))
    assert (wkb.amplitude_scaling(wkb.summarize(loaded, ch, model))
            == wkb.amplitude_scaling(wkb.summarize(memory, ch, model)))
    top = len(memory.eigenvalues) - 1
    for level in (4, 8, 16, top):
        assert (wkb.langer_residual(loaded.pair(level), ch, model, loaded.grid)
                == wkb.langer_residual(memory.pair(level), ch, model, memory.grid))


def test_probe_sequence_agrees_to_the_bit(tables):
    memory, _, _, loaded, l_range = tables
    grid = memory.grid
    phi, psi = pr.make_bump(1.0, 0.2, grid), pr.make_bump(1.5, 0.2, grid)
    window = pr.WindowSpec(1.0)
    expect = pr.probe_sequence(memory, phi, psi, window, l_range)
    assert repr(pr.probe_sequence(loaded, phi, psi, window, l_range)) == repr(expect)
    # and each point is probe_G's value at its level
    for point in expect.points[::7]:
        root = math.sqrt(point.lam)
        assert pr.probe_G(loaded, point.lam, root, root, window, phi, psi) == point.G


def test_kernel_agrees(tables, tmp_path):
    memory, _, _, loaded, _ = tables
    grid = memory.grid
    radii = [float(grid.r[grid.index_of(1.0) + k]) for k in (-300, -17, 0, 211)]
    for table, name in ((memory, "memory.csv"), (loaded, "loaded.csv")):
        ke.export_kernel_grid(table, [0.0, 0.3, 1.1], radii, radii[1:], 20, tmp_path / name)
    assert (tmp_path / "memory.csv").read_bytes() == (tmp_path / "loaded.csv").read_bytes()
    parseval = ke.parseval_check(memory, 20)
    assert ke.parseval_check(loaded, 20) == pytest.approx(parseval, rel=1e-14, abs=0.0)
    # the Gram matrix summed in column blocks against the one-shot product
    f = memory.samples[:21]
    whole = (f * grid.simpson_weights) @ f.T
    assert parseval == pytest.approx(float(np.sum(whole * whole)), rel=1e-14, abs=0.0)


def test_loaded_rows_are_read_only(tables):
    _, _, _, loaded, _ = tables
    for array in (loaded.row(3), loaded.pair(3).samples, loaded.block(slice(10, 20))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_a_table_loaded_before_a_streamed_solve_keeps_its_rows(tables, tmp_path):
    memory = tables[0]
    path = tmp_path / "table.json"
    es.save_spectrum(memory, path)
    before = es.load_spectrum(path)
    es.solve_spectrum(memory.channel, memory.model, 6, path=path)
    assert before.block().tobytes() == memory.samples.tobytes()
    after = es.load_spectrum(path)  # seven levels on the grid of l_max 6
    assert after.block().shape == (7, after.grid.n_points) != memory.samples.shape
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json", "table.npy"]


def traced_peak(fn) -> int:
    """Peak traced memory, in bytes above what was traced before, of ``fn()``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks_in_rows(tmp_path_factory):
    """Each operation's peak traced memory on quartic ``3:0`` at ``l_max``
    30 and 60, in rows of that table's grid (8 N bytes)."""
    out = tmp_path_factory.mktemp("peaks")
    channel = Channel(3, 0)
    peaks = {}
    for l_max in (30, 60):
        path = out / f"quartic{l_max}.json"
        ops = {
            "solve in memory": lambda: es.solve_spectrum(channel, QUARTIC, l_max),
            "solve to file": lambda: es.solve_spectrum(channel, QUARTIC, l_max, path=path),
        }
        measured = {name: traced_peak(op) for name, op in ops.items()}
        table = es.load_spectrum(path)
        grid = table.grid
        phi, psi = pr.make_bump(1.0, 0.2, grid), pr.make_bump(1.5, 0.2, grid)
        ops = {
            "summarize": lambda: wkb.summarize(table, channel, QUARTIC),
            "probe_sequence": lambda: pr.probe_sequence(table, phi, psi, pr.WindowSpec(1.0),
                                                        (10, 25)),
            "parseval_check": lambda: ke.parseval_check(table, 20),
        }
        measured.update({name: traced_peak(op) for name, op in ops.items()})
        row = 8 * grid.n_points
        for name, peak in measured.items():
            peaks.setdefault(name, {})[l_max] = peak / row
    return peaks


# twice the peak measured at l_max 60 (numpy 2.4, Python 3.11), in rows
@pytest.mark.parametrize("operation, bound", [
    ("solve to file", 26.0),
    ("summarize", 7.0),
    ("probe_sequence", 17.0),
    ("parseval_check", 11.0),
])
def test_peak_memory_grows_with_the_grid_alone(peaks_in_rows, operation, bound):
    peak = peaks_in_rows[operation]
    assert peak[60] <= bound
    # 31 more levels on the finer grid add less than two of its rows
    assert peak[60] - peak[30] < 2.0


def test_the_memory_bound_sees_a_table_held_in_memory(peaks_in_rows):
    # the in-memory solve holds its 31 extra rows: measured 29 more
    peak = peaks_in_rows["solve in memory"]
    assert peak[60] - peak[30] > 15.0
