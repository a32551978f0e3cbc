"""End-to-end command line tests on small spectra: exit codes, artifact
shapes, config layering, caching, and determinism of the outputs."""

import argparse
import dataclasses
import json
import math
import os

import pytest

from specprobe.cli import build_parser, main, resolve_config


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

    @pytest.mark.parametrize("model", ["1e+2*r^4", "1.5E+1*r^4+2*r^6"])
    def test_signed_exponent_coefficient_accepted(self, tmp_path, capsys, model):
        assert main(["validate", "--model", model, "--out", str(tmp_path)]) == 0
        assert "validation passed" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "0"],
            ["--sigma", "-1"],
            ["--sigma", "nan"],
            ["--sigma", "inf"],
            ["--phi", "1.0:-0.2"],
            ["--phi", "1.0:0"],
            ["--phi", "0.2:0.2"],
            ["--psi", "nan:0.2"],
            ["--psi", "1.5:inf"],
            ["--psi", "1.5"],
        ],
    )
    def test_probe_settings_rejected_before_any_solve(self, tmp_path, capsys, flags):
        rc = main(["probe", "--lmax", "6", "--lrange", "1:5"] + flags + ["--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0][2:]}: ")
        assert not list(tmp_path.glob("spectrum_*"))


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
        # one local slope per pair of rungs
        lams, totals = appendix["lams"], appendix["totals"]
        assert len(appendix["local_slopes"]) == len(lams) - 1 == 4
        assert appendix["local_slopes"][0] == pytest.approx(
            math.log(totals[1] / totals[0]) / math.log(2.0), rel=1e-12
        )
        assert min(appendix["local_slopes"]) <= appendix["exponent"]
        assert appendix["exponent"] <= max(appendix["local_slopes"])
        assert "band_fraction" not in appendix
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


class TestMultiTermReport:
    def test_every_row_passes_against_deg_v_over_two(self, tmp_path):
        # the paper's c for 1*r^4+0.5*r^6 is deg(V)/2 = 3, not the smallest c_m
        base = ["--model", "1*r^4+0.5*r^6", "--channels", "3:0,5:2", "--lmax", "24",
                "--lrange", "8:22", "--fit-top", "12", "--out", str(tmp_path)]
        for command in ("gaps", "wkb", "probe", "report"):
            assert main([command] + base) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["growth_index"] == 3.0
        assert doc["results"]["gaps"]["channels"]["d5_n2"]["theoretical"] == pytest.approx(1 / 3)
        table = (tmp_path / "report.md").read_text().split("## Artifacts")[0]
        rows = [line for line in table.splitlines() if line.startswith("| ") and "---" not in line]
        assert len(rows) == 5  # the header and four quantities
        assert all(row.endswith("| pass |") for row in rows[1:]), rows


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
        sweeps = cache["levels"]["sweeps"]
        bisections = cache["levels"]["bisections"]
        assert len(sweeps) == len(bisections) == len(cache["levels"]["lambda"]) == 6
        entry = json.loads((tmp_path / "run.json").read_text())["results"]["spectrum"][
            "channels"]["d3_n0"]
        assert entry["sweeps_max"] == max(sweeps)
        assert entry["sweeps_mean"] == pytest.approx(sum(sweeps) / 6)
        assert entry["bisections_max"] == max(bisections)
        assert entry["bisections_mean"] == pytest.approx(sum(bisections) / 6)

    def test_solve_seconds_in_run_json(self, tmp_path):
        base = ["spectrum", "--channels", "3:0,4:1", "--lmax", "3", "--out", str(tmp_path)]
        run_json = tmp_path / "run.json"
        assert main(base) == 0
        section = json.loads(run_json.read_text())["results"]["spectrum"]
        for key in ("d3_n0", "d4_n1"):
            assert section["channels"][key]["solve_s"] > 0.0
            assert section["cache"][key] == {"hit": False, "reason": "missing"}
        assert main(base) == 0
        section = json.loads(run_json.read_text())["results"]["spectrum"]
        assert [entry["solve_s"] for entry in section["channels"].values()] == [None, None]

    def test_version_1_cache_is_solved_again(self, tmp_path):
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        csv_before = (tmp_path / "spectrum.csv").read_bytes()
        json_path = tmp_path / "spectrum_d3_n0.json"
        cache = json.loads(json_path.read_text())
        # the version-1 layout: one record per level with the derived fields
        rows = [line.split(",") for line in csv_before.decode().splitlines()[1:]]
        cache["format_version"] = 1
        cache["levels"] = [
            {"l": int(row[1]), "lambda": float(row[2]), "nodes": int(row[3]),
             "f_at_1": float(row[4]), "fprime_at_1": float(row[5]), "norm_check": 1.0,
             "sweeps": 5, "bisections": 0}
            for row in rows
        ]
        json_path.write_text(json.dumps(cache))
        npy = tmp_path / "spectrum_d3_n0.npy"
        stamp = npy.stat().st_mtime_ns
        assert main(["spectrum"] + base) == 0
        assert npy.stat().st_mtime_ns != stamp
        rewritten = json.loads(json_path.read_text())
        assert rewritten["format_version"] == 3
        assert len(rewritten["levels"]["lambda"]) == 6
        assert (tmp_path / "spectrum.csv").read_bytes() == csv_before

    @pytest.mark.parametrize(
        "reason, spoil, flags",
        [
            ("format", lambda doc: doc.update(format_version=2), []),
            ("unreadable", lambda doc: doc.pop("levels"), []),
            ("channel", lambda doc: doc.update(n=1), []),
            ("model", None, ["--model", "2*r^4"]),
            ("tolerances", None, ["--rel-tol", "1e-9"]),
            ("too short", None, ["--lmax", "6"]),
        ],
    )
    def test_miss_reason_recorded(self, tmp_path, capsys, reason, spoil, flags):
        base = ["--lmax", "4", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        first = capsys.readouterr()
        assert first.err == "cache: d3_n0 miss (missing)\n"
        assert main(["spectrum"] + base) == 0
        second = capsys.readouterr()
        assert second.err == "cache: d3_n0 hit\n"
        assert second.out == first.out
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["results"]["spectrum"]["cache"] == {"d3_n0": {"hit": True}}

        json_path = tmp_path / "spectrum_d3_n0.json"
        if spoil is not None:
            cache = json.loads(json_path.read_text())
            spoil(cache)
            json_path.write_text(json.dumps(cache))
        assert main(["spectrum"] + base + flags) == 0
        assert capsys.readouterr().err == f"cache: d3_n0 miss ({reason})\n"
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["results"]["spectrum"]["cache"] == {
            "d3_n0": {"hit": False, "reason": reason}
        }
        assert json.loads(json_path.read_text())["format_version"] == 3

    def test_cache_record_in_each_reading_section(self, workspace):
        results = json.loads((workspace / "run.json").read_text())["results"]
        for section in ("spectrum", "gaps", "wkb", "probe", "kernel"):
            assert results[section]["cache"]["d3_n0"]["hit"] is (section != "spectrum")

    def test_cache_rebuilt_on_tolerance_change(self, tmp_path):
        base = ["--d", "3", "--n", "0", "--out", str(tmp_path)]
        assert main(["spectrum", "--lmax", "6"] + base) == 0
        cache = tmp_path / "spectrum_d3_n0.npy"
        stamp = cache.stat().st_mtime_ns
        assert main(["spectrum", "--lmax", "6", "--ppw", "260"] + base) == 0
        assert cache.stat().st_mtime_ns != stamp


# every run setting: config-file key, flag, a value other than the default
SETTINGS = [
    ("model", "--model", "1*r^4+0.5*r^6"),
    ("threshold_radius", "--threshold-radius", "1.5"),
    ("channels", "--channels", "3:0,5:2"),
    ("d", "--d", "4"),
    ("n", "--n", "1,2"),
    ("lmax", "--lmax", "12"),
    ("rel_tol", "--rel-tol", "1e-9"),
    ("points_per_wavelength", "--ppw", "300"),
    ("decay_margin", "--decay-margin", "30"),
    ("sigma", "--sigma", "0.5"),
    ("phi", "--phi", "0.9:0.1"),
    ("psi", "--psi", "1.4:0.3"),
    ("lrange", "--lrange", "2:10"),
    ("fit_top", "--fit-top", "8"),
    ("appendix_base", "--appendix-base", "200"),
    ("appendix_doublings", "--appendix-doublings", "5"),
    ("kernel_t", "--t", "0,0.5"),
    ("kernel_r", "--r", "0.7:1.3:0.3"),
    ("kernel_s", "--s", "1.0"),
    ("kernel_levels", "--levels", "7"),
    ("out", "--out", None),
    ("allow_harmonic", "--allow-harmonic", "true"),
]

SUBCOMMANDS = ("validate", "spectrum", "wkb", "gaps", "probe", "kernel", "report")


class TestSurface:
    def test_every_subcommand_takes_the_same_flags(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert tuple(sub.choices) == SUBCOMMANDS
        expected = {"-h", "--help", "--config"} | {flag for _, flag, _ in SETTINGS}
        for name, subparser in sub.choices.items():
            takes = {
                option: action.nargs != 0
                for action in subparser._actions
                for option in action.option_strings
            }
            assert set(takes) == expected, name
            assert [o for o, value in takes.items() if not value] == [
                "-h", "--help", "--allow-harmonic"
            ]

    @pytest.mark.parametrize("channels", ["3:0,5:2", ""])
    def test_config_file_and_flags_resolve_alike(self, tmp_path, channels):
        out = str(tmp_path / "o")
        values = {key: value or out for key, _, value in SETTINGS}
        values["channels"] = channels
        cfgfile = tmp_path / "all.cfg"
        cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        argv = ["spectrum"]
        for key, flag, _ in SETTINGS:
            argv += [flag] if key == "allow_harmonic" else [flag, values[key]]
        from_file = resolve_config(build_parser().parse_args(["spectrum", "--config", str(cfgfile)]))
        from_flags = resolve_config(build_parser().parse_args(argv))
        assert from_file == from_flags
        assert from_file.channels == (((3, 0), (5, 2)) if channels else ((4, 1), (4, 2)))
        # every key took effect: no field is left at its default
        default = resolve_config(build_parser().parse_args(["spectrum", "--out", out]))
        same = [f.name for f in dataclasses.fields(default)
                if getattr(default, f.name) == getattr(from_file, f.name)]
        assert same == ["out_dir"]

    def test_default_run_json_config(self, tmp_path):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "run.json").read_text())["config"]
        expected = {
            "allow_harmonic": False, "appendix_base": 400.0, "appendix_doublings": 6,
            "channels": [[3, 0]], "decay_margin": 35.0, "fit_top": 30, "growth_index": 2.0,
            "kernel_levels": 20, "kernel_r": [0.6, 0.8, 1.0, 1.2000000000000002, 1.4],
            "kernel_s": [0.6, 0.8, 1.0, 1.2000000000000002, 1.4],
            "kernel_t": [0.0, 0.25, 0.5, 0.75, 1.0], "l_max": 60, "l_range": [20, 50],
            "model": "1*r^4", "out": str(tmp_path), "phi": [1.0, 0.2],
            "points_per_wavelength": 180.0, "psi": [1.5, 0.2], "rel_tol": 1e-10,
            "sigma": 1.0, "threshold_radius": 1.0,
        }
        # the text pins the types too: 400.0, not 400
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text("[run]\nl_max = 3\nppw = 30\nlmx = 2\n")
        rc = main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown config key" in err
        for key in ("l_max", "lmx", "ppw"):
            assert key in err
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize("text", ["lmax = 5\nlmax = 6\n", "model = 1*r^4 % note\n"])
    def test_malformed_file_is_validation_failure(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        assert main(["validate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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


class TestWkbCounters:
    def test_quartic_wkb_quadrature_and_potential_calls(self, tmp_path, monkeypatch):
        # counters, unlike seconds, do not vary from run to run; the phase
        # integral makes no adaptive call, so these are the appendix ladder's
        # (96 and 1,837 measured; 484 and 3,320 with an adaptive phase integral)
        from specprobe import wkb

        base = ["--model", "1*r^4", "--channels", "3:0", "--lmax", "60", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        counts = dict.fromkeys(("integrate_sqrt_singular", "effective_potential"), 0)

        def counted(name):
            fn = getattr(wkb, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(wkb, name, call)

        for name in counts:
            counted(name)
        assert main(["wkb"] + base) == 0
        assert counts["integrate_sqrt_singular"] <= 110
        assert counts["effective_potential"] <= 2000
