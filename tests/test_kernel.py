"""Truncated kernel tests: Hermitian symmetry, positivity at t=0, the
Parseval sum, and the export grid."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprobe import eigensolve as es
from specprobe import kernel as ke
from specprobe.cli import main


@pytest.fixture(scope="module")
def radii(quartic_n0):
    grid = quartic_n0.grid
    k = grid.index_of(1.0)
    step = max(1, k // 30)
    idx = range(k - 25 * step, k + 26 * step, 2 * step)
    return [float(grid.r[i]) for i in idx]


def kernel_entry(table, t, r, s, level_cap):
    """Truncated kernel value at one (t, r, s): an entry of ``kernel_matrix``."""
    return complex(ke.kernel_matrix(table, t, [r, s], level_cap)[0][1])


class TestChannelKernel:
    def test_t0_real_and_symmetric(self, quartic_n0, radii):
        r, s = radii[3], radii[20]
        k_rs = kernel_entry(quartic_n0, 0.0, r, s, 20)
        k_sr = kernel_entry(quartic_n0, 0.0, s, r, 20)
        assert k_rs.imag == 0.0
        assert k_rs == pytest.approx(k_sr, rel=1e-12)

    def test_single_level_modulus_static(self, quartic_n0):
        truncated = quartic_n0.truncated(1)
        vals = [abs(kernel_entry(truncated, t, 1.0, 1.0, 0)) for t in (0.0, 0.7, 2.3)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-13)
        assert vals[2] == pytest.approx(vals[0], rel=1e-13)

    def test_matches_matrix_entry(self, quartic_n0, radii):
        # the defining sum over levels, against the matrix entry
        sub = radii[:4]
        m = ke.kernel_matrix(quartic_n0, 0.8, sub, 15)
        i, j = (quartic_n0.grid.index_of(sub[k]) for k in (1, 3))
        direct = sum(
            np.exp(-0.8j * lam) * f[i] * f[j]
            for lam, f in zip(quartic_n0.eigenvalues[:16], quartic_n0.samples[:16])
        )
        assert m[1][3] == pytest.approx(direct, rel=1e-10)

    def test_level_out_of_range(self, quartic_n0):
        with pytest.raises(ValueError):
            ke.kernel_matrix(quartic_n0, 0.0, [1.0], -1)
        with pytest.raises(ValueError):
            ke.kernel_matrix(quartic_n0, 0.0, [1.0], len(quartic_n0.eigenpairs))


class TestMatrixStructure:
    def test_hermitian_in_time(self, quartic_n0, radii):
        for t in (0.4, 1.7):
            forward = np.array(ke.kernel_matrix(quartic_n0, t, radii, 20))
            backward = np.array(ke.kernel_matrix(quartic_n0, -t, radii, 20))
            scale = np.abs(forward).max()
            assert np.abs(backward - forward.conj()).max() <= 1e-12 * scale

    def test_complex_symmetric(self, quartic_n0, radii):
        m = np.array(ke.kernel_matrix(quartic_n0, 1.1, radii, 20))
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()

    def test_t0_positive_semidefinite(self, quartic_n0, radii):
        m = np.array(ke.kernel_matrix(quartic_n0, 0.0, radii, 20))
        assert np.abs(m.imag).max() == 0.0
        eigs = np.linalg.eigvalsh(m.real)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_truncation_monotone_on_diagonal(self, quartic_n0, radii):
        lo = np.diag(np.array(ke.kernel_matrix(quartic_n0, 0.0, radii, 10))).real
        hi = np.diag(np.array(ke.kernel_matrix(quartic_n0, 0.0, radii, 20))).real
        assert np.all(hi >= lo - 1e-15)

    def test_no_recurrence_on_sampled_times(self, quartic_n0):
        base = abs(kernel_entry(quartic_n0, 0.0, 1.0, 1.0, 20))
        peak = max(
            abs(kernel_entry(quartic_n0, float(t), 1.0, 1.0, 20))
            for t in np.linspace(0.5, 3.0, 26)
        )
        assert peak < 0.99 * base


def direct_gram(table, level_cap):
    f = table.block(slice(None), slice(level_cap + 1))
    return (f * table.grid.simpson_weights) @ f.T


class TestParseval:
    def test_gram_near_identity(self, quartic_n0):
        g = direct_gram(quartic_n0, 20)
        assert np.abs(np.diag(g) - 1.0).max() <= 1e-8
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() <= 1e-3
        # the writer's per-level defects give max |G - I| at every cap
        for cap in (0, 5, 20):
            defect = np.abs(direct_gram(quartic_n0, cap) - np.eye(cap + 1)).max()
            assert ke.orthonormality_defect(quartic_n0, cap) == pytest.approx(defect, rel=1e-6)

    def test_parseval_sum(self, quartic_n0):
        assert ke.parseval_check(quartic_n0, 20) == pytest.approx(21.0, abs=1e-6)

    def test_parseval_counts_levels(self, quartic_n0):
        a = ke.parseval_check(quartic_n0, 10)
        b = ke.parseval_check(quartic_n0, 15)
        assert b - a == pytest.approx(5.0, abs=1e-6)


@pytest.fixture(scope="module")
def written(quartic_n0, radii, tmp_path_factory):
    path = tmp_path_factory.mktemp("kernel") / "kernel.csv"
    ts = [0.0, 0.5]
    rs = radii[:3]
    ss = radii[:3]
    ke.export_kernel_grid(quartic_n0, ts, rs, ss, 20, path)
    return path, ts, rs, ss


class TestExport:
    def test_header_and_row_count(self, written):
        path, ts, rs, ss = written
        lines = path.read_text().splitlines()
        assert lines[0] == "t,r,s,reK,imK,weighted_reK,weighted_imK"
        assert len(lines) == 1 + len(ts) * len(rs) * len(ss)

    def test_t_major_order(self, written):
        path, ts, rs, ss = written
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        block = len(rs) * len(ss)
        assert all(float(row[0]) == ts[0] for row in rows[:block])
        assert all(float(row[0]) == ts[1] for row in rows[block:])
        # within a block, r varies slower than s
        assert float(rows[0][1]) == float(rows[1][1])
        assert float(rows[0][2]) != float(rows[1][2])

    def test_weight_column_consistent(self, written, quartic_n0):
        path, _, _, _ = written
        d = quartic_n0.channel.d
        for row in [line.split(",") for line in path.read_text().splitlines()[1:]]:
            r, s = float(row[1]), float(row[2])
            weight = (r * s) ** (-(d - 1) / 2.0)
            assert float(row[5]) == pytest.approx(weight * float(row[3]), rel=1e-13)

    def test_rs_exchange_symmetry(self, written):
        path, ts, rs, ss = written
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        value = {(row[0], row[1], row[2]): complex(float(row[3]), float(row[4])) for row in rows}
        for key, v in value.items():
            t, r, s = key
            assert value[(t, s, r)] == pytest.approx(v, rel=1e-12)

    def test_round_trip_against_direct(self, written, quartic_n0):
        path, _, _, _ = written
        row = path.read_text().splitlines()[4].split(",")
        direct = kernel_entry(
            quartic_n0, float(row[0]), float(row[1]), float(row[2]), 20
        )
        assert complex(float(row[3]), float(row[4])) == pytest.approx(direct, rel=1e-12)

    def test_byte_determinism(self, quartic_n0, radii, tmp_path):
        ts = [0.0, 1.0]
        rs = radii[:2]
        ke.export_kernel_grid(quartic_n0, ts, rs, rs, 12, tmp_path / "a.csv")
        ke.export_kernel_grid(quartic_n0, ts, rs, rs, 12, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_grid_rejected(self, quartic_n0, tmp_path):
        with pytest.raises(ValueError):
            ke.export_kernel_grid(quartic_n0, [], [1.0], [1.0], 5, tmp_path / "x.csv")


def test_orthonormality_sees_a_mixed_row(quartic_n0, tmp_path):
    # level 12 picks up 1e-7 of level 5: the writer's Gram terms show it
    # from cap 12 on, and the kernel command reports it
    samples = quartic_n0.samples.copy()
    samples[12] += 1e-7 * samples[5]
    es.save_spectrum(es.SpectrumTable(quartic_n0.record, samples), tmp_path / "spectrum_d3_n0.json")
    mixed = es.load_spectrum(tmp_path / "spectrum_d3_n0.json")
    for cap in (5, 11):
        assert ke.orthonormality_defect(mixed, cap) == ke.orthonormality_defect(quartic_n0, cap)
    # unmixed, the defect at cap 20 is 3.7e-8
    clean = ke.orthonormality_defect(quartic_n0, 20)
    assert clean < 4e-8 and ke.orthonormality_defect(mixed, 12) > 8e-8
    assert main(["kernel", "--lmax", "60", "--out", str(tmp_path)]) == 0
    section = json.loads((tmp_path / "run.json").read_text())["results"]["kernel"]
    assert section["cache"] == {"d3_n0": {"hit": True}}
    assert section["orthonormality"] == ke.orthonormality_defect(mixed, 20) > 2.0 * clean


def test_a_record_without_gram_terms_is_refused(quartic_n0):
    # a record built without the writer (or cut from one that lacks them)
    # has no terms to sum: an error, not a Parseval sum of 0
    bare = es.SpectrumTable(quartic_n0.record._replace(parseval_terms=(), gram_defects=()),
                            quartic_n0.samples)
    for check in (ke.parseval_check, ke.orthonormality_defect):
        with pytest.raises(ValueError, match="record holds no"):
            check(bare, 5)


@pytest.mark.parametrize("level_cap", [10, 30])
def test_t0_eigenvalues_on_either_side_of_the_level_count(quartic_n0, radii, level_cap):
    # 26 radii: past cap 10's 11 levels the pass runs on F F^T, and the
    # 15 eigenvalues that K(0) adds are 0
    m = np.array(ke.kernel_matrix(quartic_n0, 0.0, radii, level_cap)).real
    expect = np.linalg.eigvalsh(m)
    eigs = ke.t0_eigenvalues(quartic_n0, radii, level_cap)
    assert len(eigs) == len(radii) and eigs == sorted(eigs)
    assert np.abs(np.array(eigs) - expect).max() <= 1e-13 * expect.max()
    assert eigs.count(0.0) == max(len(radii) - level_cap - 1, 0)


def test_a_loaded_table_reads_the_kernel_columns_once(quartic_n0, radii, tmp_path, monkeypatch):
    path = tmp_path / "spectrum_d3_n0.json"
    es.save_spectrum(quartic_n0, path)
    table = es.load_spectrum(path)
    reads, read = [], type(table.samples).read

    def counted(self, *args):
        reads.append(args)
        return read(self, *args)

    monkeypatch.setattr(type(table.samples), "read", counted)
    matrices = [ke.kernel_matrix(table, t, radii, 20) for t in (0.0, 0.5, -0.5)]
    assert len(reads) == len(radii)  # one read per radius, at the first time
    assert matrices == [ke.kernel_matrix(quartic_n0, t, radii, 20) for t in (0.0, 0.5, -0.5)]
    ke.kernel_matrix(table, 0.5, radii[:3], 20)
    assert len(reads) == len(radii) + 3


@st.composite
def spd_matrices(draw):
    n = draw(st.integers(1, 9))
    b = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    return b @ b.T + 1e-3 * np.eye(n)


@settings(max_examples=200, deadline=None)
@given(spd_matrices())
def test_jacobi_eigenvalues_match_lapack(a):
    eigs = ke.symmetric_eigenvalues(a.tolist())
    expect = np.linalg.eigvalsh(a)
    assert np.abs(np.array(eigs) - expect).max() <= 1e-13 * np.abs(expect).max()
