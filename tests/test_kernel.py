"""Truncated kernel tests: Hermitian symmetry, positivity at t=0, the
Parseval sum, and the export grid."""

import math

import numpy as np
import pytest

from specprobe import kernel as ke


@pytest.fixture(scope="module")
def radii(quartic_n0):
    grid = quartic_n0.grid
    k = grid.index_of(1.0)
    step = max(1, k // 30)
    idx = range(k - 25 * step, k + 26 * step, 2 * step)
    return [float(grid.r[i]) for i in idx]


def kernel_entry(table, t, r, s, level_cap):
    """Truncated kernel value at one (t, r, s): an entry of ``kernel_matrix``."""
    return complex(ke.kernel_matrix(table, t, [r, s], level_cap)[0, 1])


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
        assert m[1, 3] == pytest.approx(direct, rel=1e-10)

    def test_level_out_of_range(self, quartic_n0):
        with pytest.raises(ValueError):
            ke.kernel_matrix(quartic_n0, 0.0, [1.0], -1)
        with pytest.raises(ValueError):
            ke.kernel_matrix(quartic_n0, 0.0, [1.0], len(quartic_n0.eigenpairs))


class TestMatrixStructure:
    def test_hermitian_in_time(self, quartic_n0, radii):
        for t in (0.4, 1.7):
            forward = ke.kernel_matrix(quartic_n0, t, radii, 20)
            backward = ke.kernel_matrix(quartic_n0, -t, radii, 20)
            scale = np.abs(forward).max()
            assert np.abs(backward - forward.conj()).max() <= 1e-12 * scale

    def test_complex_symmetric(self, quartic_n0, radii):
        m = ke.kernel_matrix(quartic_n0, 1.1, radii, 20)
        assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()

    def test_t0_positive_semidefinite(self, quartic_n0, radii):
        m = ke.kernel_matrix(quartic_n0, 0.0, radii, 20)
        assert np.abs(m.imag).max() == 0.0
        eigs = np.linalg.eigvalsh(m.real)
        assert eigs.min() >= -1e-12 * eigs.max()

    def test_truncation_monotone_on_diagonal(self, quartic_n0, radii):
        lo = np.diag(ke.kernel_matrix(quartic_n0, 0.0, radii, 10)).real
        hi = np.diag(ke.kernel_matrix(quartic_n0, 0.0, radii, 20)).real
        assert np.all(hi >= lo - 1e-15)

    def test_no_recurrence_on_sampled_times(self, quartic_n0):
        base = abs(kernel_entry(quartic_n0, 0.0, 1.0, 1.0, 20))
        peak = max(
            abs(kernel_entry(quartic_n0, float(t), 1.0, 1.0, 20))
            for t in np.linspace(0.5, 3.0, 26)
        )
        assert peak < 0.99 * base


class TestParseval:
    def test_gram_near_identity(self, quartic_n0):
        g = ke.gram_matrix(quartic_n0, 20)
        assert np.abs(np.diag(g) - 1.0).max() <= 1e-8
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() <= 1e-3

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
