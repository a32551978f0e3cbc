"""End-to-end command line tests on small spectra: exit codes, artifact
shapes, config layering, caching, and determinism of the outputs."""

import json
import os

import pytest

from specprobe.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SPECPROBE_OUT", raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small full pipeline shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("ws")
    base = ["--model", "1*r^4", "--d", "3", "--n", "0", "--lmax", "14", "--out", str(out)]
    assert main(["spectrum"] + base) == 0
    assert main(["gaps", "--fit-top", "10"] + base) == 0
    assert (
        main(
            ["wkb", "--lrange", "2:12", "--appendix-base", "200",
             "--appendix-doublings", "5"] + base
        )
        == 0
    )
    assert main(["probe", "--lrange", "2:12"] + base) == 0
    assert main(["kernel", "--levels", "5", "--t", "0:0.5:0.25", "--r", "0.8,1.0",
                 "--s", "0.8,1.0"] + base) == 0
    assert main(["report"] + base) == 0
    return out


class TestValidate:
    def test_quartic_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        assert "validation passed" in capsys.readouterr().out

    def test_harmonic_rejected(self, tmp_path, capsys):
        rc = main(["validate", "--model", "1*r^2", "--out", str(tmp_path)])
        assert rc == 1
        assert "c>1 violated" in capsys.readouterr().err

    def test_harmonic_allowed(self, tmp_path, capsys):
        rc = main(
            ["validate", "--model", "1*r^2", "--allow-harmonic", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "harmonic reference allowed" in out

    def test_mixed_model_with_quadratic_term_rejected(self, tmp_path, capsys):
        rc = main(["validate", "--model", "1*r^2+1*r^4", "--out", str(tmp_path)])
        assert rc == 1
        assert "c>1 violated" in capsys.readouterr().err


class TestArgumentErrors:
    def test_bad_integer_flag(self, tmp_path, capsys):
        rc = main(["spectrum", "--lmax", "abc", "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_malformed_model(self, tmp_path, capsys):
        rc = main(["validate", "--model", "r**4", "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_lrange_shape(self, tmp_path, capsys):
        rc = main(["probe", "--lrange", "9:3", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rel-tol", "0"],
            ["--rel-tol", "-1"],
            ["--rel-tol", "nan"],
            ["--rel-tol", "inf"],
            ["--rel-tol", "1e-17"],
            ["--ppw", "30"],
            ["--ppw", "nan"],
            ["--decay-margin", "2"],
            ["--decay-margin", "inf"],
        ],
    )
    def test_solver_settings_rejected_up_front(self, tmp_path, capsys, flags):
        rc = main(["spectrum", "--lmax", "2"] + flags + ["--out", str(tmp_path)])
        assert rc == 1
        assert "must be finite and at least" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()


class TestArtifacts:
    def test_spectrum_rows(self, workspace):
        lines = (workspace / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,l,lambda,nodes,f_at_1,fprime_at_1"
        assert len(lines) == 16

    def test_wkb_rows(self, workspace):
        lines = (workspace / "wkb.csv").read_text().splitlines()
        assert lines[0] == "n,l,lambda,T,X,Z,action,bs_residual,absC,allowed_a,allowed_b"
        assert len(lines) == 16

    def test_probe_rows(self, workspace):
        lines = (workspace / "probe.csv").read_text().splitlines()
        assert lines[0] == "n,l,lambda,tau,j,k,reG,imG,absG,predicted_abs,isolation"
        assert len(lines) == 12

    def test_kernel_rows(self, workspace):
        lines = (workspace / "kernel.csv").read_text().splitlines()
        assert lines[0] == "t,r,s,reK,imK,weighted_reK,weighted_imK"
        assert len(lines) == 1 + 3 * 2 * 2

    def test_run_json_sections(self, workspace):
        doc = json.loads((workspace / "run.json").read_text())
        assert set(doc) == {"config", "meta", "results"}
        results = doc["results"]
        for section in ("spectrum", "gaps", "wkb", "probe", "kernel"):
            assert section in results
        assert results["kernel"]["parseval"] == pytest.approx(6.0, abs=1e-6)
        gap = results["gaps"]["channels"]["d3_n0"]
        assert gap["theoretical"] == pytest.approx(0.25)
        appendix = results["wkb"]["appendix"]
        assert -0.9 < appendix["exponent"] < -0.5
        # ladder from level 4 is too short at lmax 14 for a langer fit
        assert results["wkb"]["langer"]["exponent"] is None
        assert results["probe"]["channels"]["d3_n0"]["lower_bound_const"] > 0.0

    def test_report_rows_present(self, workspace):
        text = (workspace / "report.md").read_text()
        for name in (
            "eigenvalue gap growth",
            "boundary amplitude growth",
            "probe magnitude decay",
            "error control integral decay",
        ):
            assert name in text
        assert "not run" not in text.split("## Artifacts")[0]

    def test_report_embeds_config(self, workspace):
        text = (workspace / "report.md").read_text()
        assert 'model = "1*r^4"' in text
        assert "l_max = 14" in text


class TestCaching:
    def test_cache_reused_for_smaller_lmax(self, tmp_path):
        base = ["--d", "3", "--n", "0", "--out", str(tmp_path)]
        assert main(["spectrum", "--lmax", "8"] + base) == 0
        cache = tmp_path / "spectrum_d3_n0.npy"
        stamp = cache.stat().st_mtime_ns
        assert main(["spectrum", "--lmax", "6"] + base) == 0
        assert cache.stat().st_mtime_ns == stamp
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 8

    def test_cache_not_reused_for_a_nearby_model(self, tmp_path):
        base = ["--d", "3", "--n", "0", "--lmax", "2", "--out", str(tmp_path)]
        assert main(["spectrum", "--model", "1*r^4"] + base) == 0
        assert main(["spectrum", "--model", "1.0000004*r^4"] + base) == 0
        near = (tmp_path / "spectrum.csv").read_text().splitlines()[1].split(",")[2]
        fresh = tmp_path / "fresh"
        assert main(["spectrum", "--model", "1.0000004*r^4", "--d", "3", "--n", "0",
                     "--lmax", "2", "--out", str(fresh)]) == 0
        assert near == (fresh / "spectrum.csv").read_text().splitlines()[1].split(",")[2]
        doc = json.loads((tmp_path / "spectrum_d3_n0.json").read_text())
        assert doc["model"] == "1.0000004*r^4"

    def test_solver_counts_in_cache_and_run_json(self, tmp_path):
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        cache = json.loads((tmp_path / "spectrum_d3_n0.json").read_text())
        sweeps = [rec["sweeps"] for rec in cache["levels"]]
        bisections = [rec["bisections"] for rec in cache["levels"]]
        entry = json.loads((tmp_path / "run.json").read_text())["results"]["spectrum"][
            "channels"]["d3_n0"]
        assert entry["sweeps_max"] == max(sweeps)
        assert entry["sweeps_mean"] == pytest.approx(sum(sweeps) / 6)
        assert entry["bisections_max"] == max(bisections)
        assert entry["bisections_mean"] == pytest.approx(sum(bisections) / 6)

        # a cache written before the counters existed still loads
        for rec in cache["levels"]:
            del rec["sweeps"], rec["bisections"]
        (tmp_path / "spectrum_d3_n0.json").write_text(json.dumps(cache))
        stamp = (tmp_path / "spectrum_d3_n0.npy").stat().st_mtime_ns
        assert main(["spectrum"] + base) == 0
        assert (tmp_path / "spectrum_d3_n0.npy").stat().st_mtime_ns == stamp
        entry = json.loads((tmp_path / "run.json").read_text())["results"]["spectrum"][
            "channels"]["d3_n0"]
        assert entry["sweeps_max"] is None and entry["bisections_mean"] is None

    def test_cache_rebuilt_on_tolerance_change(self, tmp_path):
        base = ["--d", "3", "--n", "0", "--out", str(tmp_path)]
        assert main(["spectrum", "--lmax", "6"] + base) == 0
        cache = tmp_path / "spectrum_d3_n0.npy"
        stamp = cache.stat().st_mtime_ns
        assert main(["spectrum", "--lmax", "6", "--ppw", "260"] + base) == 0
        assert cache.stat().st_mtime_ns != stamp


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[run]\nmodel = 1*r^4\nlmax = 6\n\n[probe]\nsigma = 2.0\n"
        )
        rc = main(
            ["spectrum", "--config", str(cfgfile), "--lmax", "8", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 10
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["sigma"] == 2.0
        assert doc["config"]["l_max"] == 8

    def test_headerless_file_accepted(self, tmp_path):
        cfgfile = tmp_path / "bare.cfg"
        cfgfile.write_text("lmax = 5\n")
        rc = main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECPROBE_OUT", str(tmp_path / "envout"))
        assert main(["report"]) == 0
        assert (tmp_path / "envout" / "report.md").exists()


class TestExitCodes:
    def test_truncated_probe_is_numerical_failure(self, workspace, capsys):
        rc = main(
            ["probe", "--lmax", "14", "--lrange", "4:14", "--out", str(workspace)]
        )
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_lrange_beyond_lmax_is_validation_failure(self, tmp_path, capsys):
        rc = main(["probe", "--lmax", "8", "--lrange", "2:12", "--out", str(tmp_path)])
        assert rc == 1
        assert "lmax" in capsys.readouterr().err

    def test_unreadable_config_is_io_failure(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path), "--out", str(tmp_path)])
        assert rc == 3

    def test_report_on_empty_dir_succeeds(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "fresh")]) == 0
        text = (tmp_path / "fresh" / "report.md").read_text()
        assert text.count("not run") >= 8


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        csvs = ("spectrum.csv", "probe.csv", "kernel.csv")
        blobs = {}
        for label in ("one", "two"):
            out = tmp_path / label
            base = ["--lmax", "13", "--out", str(out)]
            assert main(["spectrum"] + base) == 0
            assert main(["probe", "--lrange", "2:11"] + base) == 0
            assert main(["kernel", "--levels", "6", "--t", "0:0.5:0.5",
                         "--r", "1.0", "--s", "1.0"] + base) == 0
            blobs[label] = {name: (out / name).read_bytes() for name in csvs}
        assert blobs["one"] == blobs["two"]
