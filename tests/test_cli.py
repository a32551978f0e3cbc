"""End-to-end command line tests on small spectra: exit codes, artifact
shapes, config layering, caching, and determinism of the outputs."""

import argparse
import collections
import csv
import json
import math
import os
import re
from pathlib import Path

import pytest

from specprobe import cli
from specprobe.cli import build_parser, main, resolve_config
from specprobe.formats import read_spectrum_record


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SPECPROBE_OUT", raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small full pipeline shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("ws")
    base = ["--model", "1*r^4", "--channels", "3:0", "--lmax", "14", "--out", str(out)]
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

    def test_mixed_model_with_quadratic_term_runs_every_subcommand(self, tmp_path, capsys):
        # super-quadratic growth is decided at infinity: 1*r^2+1*r^4 has c = 2
        base = ["--model", "1*r^2+1*r^4", "--out", str(tmp_path)]
        for command in SUBCOMMANDS:
            assert main([command] + base) == 0, command
        out = capsys.readouterr().out
        assert "growth index c = deg(V)/2 = 2)" in out
        assert "r V'/(2V) runs from 1 (r -> 0) to 2 (r -> inf)" in out
        assert "super-quadratic c > 1: yes" in out
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["config"]["growth_index"] == 2.0
        assert doc["config"]["allow_harmonic"] is False
        table = (tmp_path / "report.md").read_text().split("## Artifacts")[0]
        rows = [line for line in table.splitlines() if line.startswith("| ") and "---" not in line]
        assert len(rows) == 5  # the header and four quantities
        assert all(row.endswith("| pass |") for row in rows[1:]), rows

    def test_quadratic_alone_still_needs_the_flag(self, tmp_path, capsys):
        for command in ("validate", "spectrum"):
            assert main([command, "--model", "2*r^2", "--out", str(tmp_path)]) == 1
            assert "c>1 violated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, low, high, bounds, superquadratic", [
        (["--model", "1*r^4"], 2, 2, "4, 3, 2", "yes"),
        (["--model", "1*r^4+0.5*r^6"], 2, 3, "6, 5, 4", "yes"),
        (["--model", "1*r^2", "--allow-harmonic"], 1, 1, "2, 1, 0", "no"),
        (["--model", "1*r^2+1*r^4"], 1, 2, "4, 3, 2", "yes"),
    ])
    def test_prints_the_closed_forms(self, tmp_path, capsys, flags, low, high, bounds,
                                     superquadratic):
        assert main(["validate", *flags, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"r V'/(2V) runs from {low} (r -> 0) to {high} (r -> inf)" in out
        assert f"j = 1, 2, 3: {bounds}\n" in out
        assert f"super-quadratic c > 1: {superquadratic}" in out
        section = json.loads((tmp_path / "run.json").read_text())["results"]["validate"]
        assert section == {
            "passed": True, "min_term_c": low, "c": high,
            "ratio_bounds": [float(x) for x in bounds.split(", ")],
            "superquadratic": superquadratic == "yes",
        }


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

    def test_threshold_radius_is_unknown(self, tmp_path, capsys):
        # the assumptions hold on all of r > 0, so no radius bounds them
        assert main(["validate", "--threshold-radius", "2", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --threshold-radius" in capsys.readouterr().err
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text("threshold_radius = 1.0\n")
        assert main(["validate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "unknown config key(s) threshold_radius" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("key, value", [("d", "3"), ("n", "0")])
    def test_channel_parts_are_unknown(self, tmp_path, capsys, key, value):
        # the channels are named one way, as a d:n list
        assert main(["validate", f"--{key}", value, "--out", str(tmp_path)]) == 1
        assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert main(["validate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.cfg"]

    @pytest.mark.parametrize("channels", ["", "3:0,"])
    def test_empty_channel_rejected(self, tmp_path, capsys, channels):
        assert main(["validate", "--channels", channels, "--out", str(tmp_path)]) == 1
        assert "channels: must look like d:n, got ''" in capsys.readouterr().err

    def test_decay_margin_is_unknown(self, tmp_path, capsys):
        # the grid ends where the inward sweep's decay bound places it
        assert main(["spectrum", "--decay-margin", "35", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments: --decay-margin" in capsys.readouterr().err
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text("decay_margin = 35\n")
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "unknown config key(s) decay_margin" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.cfg"]

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
            ["--ppw", "inf"],
            ["--ppw", "39.99"],
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

    @pytest.mark.parametrize(
        "model, channels, base, u_half",
        [
            ("1*r^4", "3:12", "400", 624.0625),  # 4 gamma = 624, V(1/2) = 1/16
            # U(1/2) itself, on the first channel; 3:0 alone would pass
            ("1*r^4+0.5*r^6", "5:2,3:0", "48.0703125", 48.0703125),
        ],
    )
    def test_appendix_base_not_above_u_half_rejected_before_any_solve(
        self, tmp_path, capsys, model, channels, base, u_half
    ):
        flags = ["--model", model, "--channels", channels, "--lmax", "10", "--out", str(tmp_path)]
        assert main(["wkb", "--appendix-base", base] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: appendix_base: ")
        least = math.nextafter(u_half, math.inf)
        assert f"U(1/2) = {u_half!r} on channel {channels[:3]}" in err
        assert f"the least admissible base is {least!r}" in err
        assert not list(tmp_path.iterdir())  # nothing solved, nothing cached
        args = build_parser().parse_args(["wkb", "--appendix-base", repr(least)] + flags)
        cli._check_appendix_base(resolve_config(args))


class TestArtifacts:
    def test_spectrum_rows(self, workspace):
        lines = (workspace / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,nodes,f_at_1,fprime_at_1"
        assert len(lines) == 16

    def test_wkb_rows(self, workspace):
        lines = (workspace / "wkb.csv").read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,T,X,Z,action,bs_residual,absC,allowed_a,allowed_b"
        assert len(lines) == 16

    def test_probe_rows(self, workspace):
        lines = (workspace / "probe.csv").read_text().splitlines()
        assert lines[0] == "d,n,l,lambda,reG,imG,absG,predicted_abs,isolation"
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


class TestChannelsSharingN:
    def test_rows_carry_d_and_sort_by_d_n_l(self, tmp_path):
        # 3:0 and 5:0 share n = 0; the d column tells their rows apart
        base = ["--channels", "5:0,3:0", "--lmax", "14", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        assert main(["wkb", "--lrange", "2:12", "--appendix-base", "200",
                     "--appendix-doublings", "5"] + base) == 0
        assert main(["probe", "--lrange", "2:12"] + base) == 0
        levels = {"spectrum.csv": range(15), "wkb.csv": range(15), "probe.csv": range(2, 13)}
        lams = {}
        for name, wanted in levels.items():
            with (tmp_path / name).open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            keys = [(int(row["d"]), int(row["n"]), int(row["l"])) for row in rows]
            assert keys == [(d, 0, level) for d in (3, 5) for level in wanted], name
            lams[name] = {key: row["lambda"] for key, row in zip(keys, rows)}
        assert lams["wkb.csv"] == lams["spectrum.csv"]
        assert lams["probe.csv"].items() <= lams["spectrum.csv"].items()
        assert lams["spectrum.csv"][(3, 0, 0)] != lams["spectrum.csv"][(5, 0, 0)]


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


def report_rows(out: Path) -> dict:
    """Each certificate row of ``out``'s report.md: name -> (fitted, status)."""
    table = (out / "report.md").read_text().split("## Artifacts")[0]
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()
            if line.startswith("| ") and "---" not in line][1:]
    return {row[0]: (row[2], row[4]) for row in rows}


class TestReportRowsFail:
    """Each certificate row reads ``fail`` where its fit misses the theory
    (quartic, c = 2: gaps 1/4, amplitude 1/8, probe -1/4, appendix -3/4)."""

    def test_gaps_of_sextic_eigenvalues_fail(self, tmp_path, sextic_n0):
        # a 1*r^4 cache holding the 1*r^6 eigenvalues: they grow with gaps
        # like lam^(1/3), not lam^(1/4)
        from specprobe.eigensolve import SpectrumTable, save_spectrum
        from specprobe.model import PotentialModel

        record = sextic_n0.record._replace(model=PotentialModel.pure(4))
        save_spectrum(SpectrumTable(record, sextic_n0.samples), tmp_path / "spectrum_d3_n0.json")
        base = ["--model", "1*r^4", "--out", str(tmp_path)]
        assert main(["gaps"] + base) == 0
        gaps = json.loads((tmp_path / "run.json").read_text())["results"]["gaps"]
        assert gaps["cache"] == {"d3_n0": {"hit": True}}
        assert gaps["channels"]["d3_n0"]["exponent"] == pytest.approx(1 / 3, abs=0.02)
        assert main(["report"] + base) == 0
        rows = report_rows(tmp_path)
        assert list(rows)[0] == "eigenvalue gap growth"
        assert [status for _, status in rows.values()] == ["fail", "not run", "not run", "not run"]

    @pytest.mark.parametrize("name, results, status", [
        # lower mode: only falling short of 1/8 by more than 0.03 fails
        ("boundary amplitude growth",
         {"wkb": {"channels": {"d3_n0": {"amplitude": {"exponent": 0.125 - 0.031}}}}}, "fail"),
        ("boundary amplitude growth",
         {"wkb": {"channels": {"d3_n0": {"amplitude": {"exponent": 0.125 + 0.5}}}}}, "pass"),
        ("probe magnitude decay",
         {"probe": {"channels": {"d3_n0": {"exponent": -0.25 - 0.051}}}}, "fail"),
        ("probe magnitude decay",
         {"probe": {"channels": {"d3_n0": {"exponent": -0.25 + 0.051}}}}, "fail"),
        ("error control integral decay",
         {"wkb": {"appendix": {"exponent": -0.75 + 0.101}}}, "fail"),
        ("error control integral decay",
         {"wkb": {"appendix": {"exponent": -0.75 - 0.101}}}, "fail"),
    ])
    def test_fit_beyond_tolerance(self, tmp_path, name, results, status):
        (tmp_path / "run.json").write_text(json.dumps({"results": results}))
        assert main(["report", "--out", str(tmp_path)]) == 0
        rows = report_rows(tmp_path)
        assert rows[name][1] == status
        assert [row for row, (_, got) in rows.items() if got != "not run"] == [name]


class TestRunJson:
    def test_main_writes_each_section_once_and_report_none(self, tmp_path, monkeypatch):
        from specprobe import formats

        real_open, opened = open, []

        def spied_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            return real_open(path, *args, **kwargs)

        # formats.replace_files opens every file the package writes
        monkeypatch.setattr(formats, "open", spied_open, raising=False)
        base = ["--lmax", "13", "--out", str(tmp_path)]
        flags = {
            "wkb": ["--lrange", "2:12", "--appendix-base", "200", "--appendix-doublings", "5"],
            "probe": ["--lrange", "2:11"],
            "kernel": ["--levels", "6", "--t", "0:0.5:0.5", "--r", "1.0", "--s", "1.0"],
        }
        results = {}
        for command in SUBCOMMANDS:
            opened.clear()
            assert main([command, *flags.get(command, []), *base]) == 0
            written = json.loads((tmp_path / "run.json").read_text())["results"]
            run_json_writes = [name for name in opened if name.startswith("run.json")]
            if command == "report":
                assert run_json_writes == []
                assert written == results
            else:
                assert len(run_json_writes) == 1, command
                assert set(written) == set(results) | {command}
                assert {key: value for key, value in written.items() if key != command} == results
                results = written

    def test_another_model_drops_the_old_results(self, tmp_path):
        base = ["--out", str(tmp_path)]
        assert main(["gaps", "--model", "1*r^4", "--lmax", "30", "--fit-top", "10"] + base) == 0
        assert main(["validate", "--model", "1*r^6"] + base) == 0
        assert list(json.loads((tmp_path / "run.json").read_text())["results"]) == ["validate"]
        assert main(["report", "--model", "1*r^6"] + base) == 0
        # the quartic gap fit is not judged against the sextic theory
        assert report_rows(tmp_path)["eigenvalue gap growth"] == ("not run", "not run")


class TestAmplitudeWindow:
    @pytest.mark.parametrize("flags, levels", [
        pytest.param([], [20, 50], id="defaults"),
        pytest.param(["--lmax", "40"], [20, 40], id="cut-to-lmax"),
        # fewer than five levels of --lrange up to lmax: every level above U(1)
        pytest.param(["--lmax", "22"], [0, 22], id="fallback-above-lrange"),
        pytest.param(["--lmax", "22", "--lrange", "0:3"], [0, 22], id="fallback-short-lrange"),
    ])
    def test_fit_levels(self, tmp_path, quartic_n0, flags, levels):
        cfg = resolve_config(build_parser().parse_args(["wkb", *flags, "--out", str(tmp_path)]))
        cli._load_solver("potential")
        cli._load_solver("wkb")
        table = quartic_n0.truncated(cfg.l_max + 1)
        payload = cli._amplitude_payload(cfg, cli.summarize(table, quartic_n0.channel, cfg.model))
        assert payload["levels"] == levels


class TestCaching:
    def test_cache_reused_for_smaller_lmax(self, tmp_path):
        base = ["--channels", "3:0", "--out", str(tmp_path)]
        assert main(["spectrum", "--lmax", "8"] + base) == 0
        cache = tmp_path / "spectrum_d3_n0.npy"
        stamp = cache.stat().st_mtime_ns
        assert main(["spectrum", "--lmax", "6"] + base) == 0
        assert cache.stat().st_mtime_ns == stamp
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 8

    def test_cache_not_reused_for_a_nearby_model(self, tmp_path):
        base = ["--channels", "3:0", "--lmax", "2", "--out", str(tmp_path)]
        assert main(["spectrum", "--model", "1*r^4"] + base) == 0
        assert main(["spectrum", "--model", "1.0000004*r^4"] + base) == 0
        near = (tmp_path / "spectrum.csv").read_text().splitlines()[1].split(",")[3]
        fresh = tmp_path / "fresh"
        assert main(["spectrum", "--model", "1.0000004*r^4", "--channels", "3:0",
                     "--lmax", "2", "--out", str(fresh)]) == 0
        assert near == (fresh / "spectrum.csv").read_text().splitlines()[1].split(",")[3]
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
            entry = section["cache"][key]
            assert entry == {"hit": False, "reason": "missing", "solve_s": entry["solve_s"]}
            assert entry["solve_s"] > 0.0
            assert "solve_s" not in section["channels"][key]
        assert main(base) == 0
        section = json.loads(run_json.read_text())["results"]["spectrum"]
        assert section["cache"] == {"d3_n0": {"hit": True}, "d4_n1": {"hit": True}}

    def test_every_command_records_a_miss_alike(self, tmp_path):
        entries = {}
        for command in ("spectrum", "gaps"):
            out = tmp_path / command
            assert main([command, "--lmax", "6", "--fit-top", "6", "--out", str(out)]) == 0
            doc = json.loads((out / "run.json").read_text())
            entries[command] = doc["results"][command]["cache"]["d3_n0"]
        for entry in entries.values():
            assert entry["solve_s"] > 0.0
            entry["solve_s"] = "seconds"
        assert entries["gaps"] == entries["spectrum"]

    def test_record_with_a_threshold_radius_still_hits(self, tmp_path, capsys):
        # records written while the model had a threshold radius carry the key
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        json_path = tmp_path / "spectrum_d3_n0.json"
        doc = json.loads(json_path.read_text())
        assert "threshold_radius" not in doc
        json_path.write_text(json.dumps(dict(doc, threshold_radius=1.0)))
        capsys.readouterr()
        for command in ("gaps", "spectrum"):
            assert main([command] + base) == 0
            assert capsys.readouterr().err == "cache: d3_n0 hit\n"

    def test_record_with_r_max_and_samples_file_still_hits(self, tmp_path, capsys):
        # earlier version-3 records also stored the grid's far end and the
        # sidecar's name; both follow from the rest, and the reader ignores them
        from specprobe.eigensolve import load_spectrum

        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        json_path = tmp_path / "spectrum_d3_n0.json"
        doc = json.loads(json_path.read_text())
        assert set(doc["grid"]) == {"r_min", "h", "n_points"}
        assert "samples_file" not in doc
        table = load_spectrum(json_path)
        grid = dict(doc["grid"], r_max=table.grid.r_max)
        json_path.write_text(json.dumps(dict(doc, grid=grid, samples_file="spectrum_d3_n0.npy")))
        capsys.readouterr()
        for command in ("gaps", "spectrum"):
            assert main([command] + base) == 0
            assert capsys.readouterr().err == "cache: d3_n0 hit\n"
        old = load_spectrum(json_path)
        assert old.grid == table.grid
        assert old.block().tobytes() == table.block().tobytes()

    def test_record_with_a_decay_margin_is_solved_again(self, tmp_path, capsys):
        # records written while the grid took a decay margin carry it among
        # their tolerances, and a harmonic flag beside the model; such a
        # record may sit on another grid, so it is a miss, solved and rewritten
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        csv_before = (tmp_path / "spectrum.csv").read_bytes()
        json_path = tmp_path / "spectrum_d3_n0.json"
        doc = json.loads(json_path.read_text())
        assert doc["tolerances"] == {"points_per_wavelength": 180.0, "rel_tol": 1e-10}
        assert "harmonic" not in doc
        old = dict(doc, harmonic=False, tolerances=dict(doc["tolerances"], decay_margin=35.0))
        json_path.write_text(json.dumps(old))
        capsys.readouterr()
        for command in ("gaps", "spectrum"):
            assert main([command] + base) == 0
            assert capsys.readouterr().err == "cache: d3_n0 miss (tolerances)\n"
            assert json.loads(json_path.read_text()) == doc
            assert main([command] + base) == 0
            assert capsys.readouterr().err == "cache: d3_n0 hit\n"
            json_path.write_text(json.dumps(old))
        assert (tmp_path / "spectrum.csv").read_bytes() == csv_before

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
            {"l": int(row[2]), "lambda": float(row[3]), "nodes": int(row[4]),
             "f_at_1": float(row[5]), "fprime_at_1": float(row[6]), "norm_check": 1.0,
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

    # spoil: the cache record's JSON -> the JSON written over it
    MISS_REASONS = pytest.mark.parametrize(
        "reason, spoil, flags",
        [
            ("format", lambda doc: dict(doc, format_version=2), []),
            ("unreadable", lambda doc: {k: v for k, v in doc.items() if k != "levels"}, []),
            ("channel", lambda doc: dict(doc, n=1), []),
            ("model", None, ["--model", "2*r^4"]),
            ("tolerances", None, ["--rel-tol", "1e-9"]),
            ("too short", None, ["--lmax", "6"]),
            ("unreadable", lambda doc: [], []),
            ("unreadable", lambda doc: dict(doc, levels=dict(
                doc["levels"], sweeps=doc["levels"]["sweeps"][:-1])), []),
            # a grid that fails RadialGrid's checks: too few points, an even count
            ("unreadable", lambda doc: dict(doc, grid=dict(doc["grid"], n_points=4)), []),
            ("unreadable", lambda doc: dict(doc, grid=dict(
                doc["grid"], n_points=doc["grid"]["n_points"] + 1)), []),
        ],
    )

    @MISS_REASONS
    def test_miss_reason_recorded(self, tmp_path, capsys, reason, spoil, flags):
        self.check_miss_reason("spectrum", tmp_path, capsys, reason, spoil, flags)

    @MISS_REASONS
    def test_gaps_miss_reason_recorded(self, tmp_path, capsys, reason, spoil, flags):
        # gaps checks the record alone, spectrum loads the samples too
        self.check_miss_reason("gaps", tmp_path, capsys, reason, spoil, flags)

    @staticmethod
    def check_miss_reason(command, tmp_path, capsys, reason, spoil, flags):
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main([command] + base) == 0
        first = capsys.readouterr()
        assert first.err == "cache: d3_n0 miss (missing)\n"
        assert main([command] + base) == 0
        second = capsys.readouterr()
        assert second.err == "cache: d3_n0 hit\n"
        assert second.out == first.out
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["results"][command]["cache"] == {"d3_n0": {"hit": True}}

        json_path = tmp_path / "spectrum_d3_n0.json"
        if spoil is not None:
            json_path.write_text(json.dumps(spoil(json.loads(json_path.read_text()))))
        assert main([command] + base + flags) == 0
        assert capsys.readouterr().err == f"cache: d3_n0 miss ({reason})\n"
        doc = json.loads((tmp_path / "run.json").read_text())
        entry = doc["results"][command]["cache"]["d3_n0"]
        assert (entry["hit"], entry["reason"]) == (False, reason)
        assert json.loads(json_path.read_text())["format_version"] == 3

    def test_missing_samples_miss_only_where_read(self, tmp_path, capsys):
        base = ["--lmax", "5", "--out", str(tmp_path)]
        assert main(["spectrum"] + base) == 0
        (tmp_path / "spectrum_d3_n0.npy").unlink()
        capsys.readouterr()
        assert main(["gaps"] + base) == 0  # the eigenvalues are in the record
        assert capsys.readouterr().err == "cache: d3_n0 hit\n"
        assert not (tmp_path / "spectrum_d3_n0.npy").exists()
        assert main(["spectrum"] + base) == 0
        assert capsys.readouterr().err == "cache: d3_n0 miss (unreadable)\n"
        assert (tmp_path / "spectrum_d3_n0.npy").exists()

    @pytest.mark.parametrize("spoil", [
        lambda npy: npy.unlink(),
        lambda npy: npy.write_bytes(b""),
        lambda npy: npy.write_bytes(npy.read_bytes()[:-8]),
        lambda npy: npy.write_bytes(npy.read_bytes() + bytes(8)),
    ], ids=["missing", "empty", "truncated", "extended"])
    def test_unreadable_samples_outrank_other_reasons(self, tmp_path, capsys, spoil):
        # a command that reads the samples loads the table once and judges
        # it by the record: samples it cannot read miss as unreadable, even
        # where the model differs too; gaps reads the record alone
        base = ["--lmax", "5", "--out", str(tmp_path)]
        for command, reason in (("gaps", "model"), ("spectrum", "unreadable")):
            assert main(["spectrum"] + base) == 0  # a 1*r^4 cache, solved afresh
            spoil(tmp_path / "spectrum_d3_n0.npy")
            capsys.readouterr()
            assert main([command, "--model", "2*r^4"] + base) == 0
            assert capsys.readouterr().err == f"cache: d3_n0 miss ({reason})\n"

    def test_cache_record_in_each_reading_section(self, workspace):
        results = json.loads((workspace / "run.json").read_text())["results"]
        for section in ("spectrum", "gaps", "wkb", "probe", "kernel"):
            assert results[section]["cache"]["d3_n0"]["hit"] is (section != "spectrum")

    def test_cache_rebuilt_on_tolerance_change(self, tmp_path):
        base = ["--channels", "3:0", "--out", str(tmp_path)]
        assert main(["spectrum", "--lmax", "6"] + base) == 0
        cache = tmp_path / "spectrum_d3_n0.npy"
        stamp = cache.stat().st_mtime_ns
        assert main(["spectrum", "--lmax", "6", "--ppw", "260"] + base) == 0
        assert cache.stat().st_mtime_ns != stamp


# every run setting: config-file key, flag, a value other than the default
SETTINGS = [
    ("model", "--model", "1*r^4+0.5*r^6"),
    ("channels", "--channels", "3:0,5:2"),
    ("lmax", "--lmax", "12"),
    ("rel_tol", "--rel-tol", "1e-9"),
    ("points_per_wavelength", "--ppw", "300"),
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

    def test_config_file_and_flags_resolve_alike(self, tmp_path):
        out = str(tmp_path / "o")
        values = {key: value or out for key, _, value in SETTINGS}
        cfgfile = tmp_path / "all.cfg"
        cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        argv = ["spectrum"]
        for key, flag, _ in SETTINGS:
            argv += [flag] if key == "allow_harmonic" else [flag, values[key]]
        from_file = resolve_config(build_parser().parse_args(["spectrum", "--config", str(cfgfile)]))
        from_flags = resolve_config(build_parser().parse_args(argv))
        assert from_file == from_flags
        assert from_file.channels == ((3, 0), (5, 2))
        # every key took effect: no field is left at its default
        default = resolve_config(build_parser().parse_args(["spectrum", "--out", out]))
        same = [name for name in default._fields
                if getattr(default, name) == getattr(from_file, name)]
        assert same == ["out_dir"]

    def test_each_setting_is_one_run_config_field(self):
        assert [key for key, _, _ in SETTINGS] == [row.key for row in cli._KEYS]

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"The\s+file\s+accepts\s+exactly\s+these\s+keys(.*?)\.\s", readme, re.S)
        listed = set(re.findall(r"`([a-z_]+)`", sentence.group(1)))
        assert listed == {row.key for row in cli._KEYS}

    def test_default_run_json_config(self, tmp_path):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "run.json").read_text())["config"]
        expected = {
            "allow_harmonic": False, "appendix_base": 400.0, "appendix_doublings": 6,
            "channels": [[3, 0]], "fit_top": 30, "growth_index": 2.0,
            "kernel_levels": 20, "kernel_r": [0.6, 0.8, 1.0, 1.2000000000000002, 1.4],
            "kernel_s": [0.6, 0.8, 1.0, 1.2000000000000002, 1.4],
            "kernel_t": [0.0, 0.25, 0.5, 0.75, 1.0], "l_max": 60, "l_range": [20, 50],
            "model": "1*r^4", "out": str(tmp_path), "phi": [1.0, 0.2],
            "points_per_wavelength": 180.0, "psi": [1.5, 0.2], "rel_tol": 1e-10,
            "sigma": 1.0,
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

    @pytest.mark.parametrize("spelling, value", [
        (case(text), value)
        for text, value in (("1", True), ("yes", True), ("true", True), ("on", True),
                            ("0", False), ("no", False), ("false", False), ("off", False))
        for case in (str.lower, str.upper)
    ])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        # configparser's spellings, read without importing it
        import configparser

        assert cli._BOOLEAN_STATES == configparser.ConfigParser.BOOLEAN_STATES
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"allow_harmonic = {spelling}\n")
        argv = ["validate", "--model", "1*r^2", "--config", str(cfgfile), "--out", str(tmp_path)]
        assert main(argv) == (0 if value else 1)
        # the flag takes no value: it means "true", over any spelling in the file
        assert main([*argv, "--allow-harmonic"]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["config"]["allow_harmonic"] is True

    @pytest.mark.parametrize("spelling", ["maybe", "tru", "2", ""])
    def test_unknown_boolean_spelling_is_validation_failure(self, tmp_path, capsys, spelling):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"allow_harmonic = {spelling}\n")
        assert main(["validate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "allow_harmonic: cannot parse boolean value" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

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


class TestKernelGrid:
    @pytest.mark.parametrize("flags", [
        ["--t", "0,nan,inf"],
        ["--t", "0:inf:1"],
        ["--r=-1,nan,1"],
        ["--r", "0:1:0.5"],
        ["--s", "1,inf"],
        ["--s", "nan:1:0.1"],
    ])
    def test_bad_values_rejected_up_front(self, tmp_path, capsys, flags):
        rc = main(["kernel", "--lmax", "4", "--levels", "3", "--out", str(tmp_path)] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: kernel_")
        assert not (tmp_path / "kernel.csv").exists()

    def test_range_holds_at_most_ten_thousand_values(self, tmp_path, capsys):
        # the size is checked before the list is built
        rc = main(["kernel", "--lmax", "4", "--t", "0:10000:1", "--out", str(tmp_path)])
        assert rc == 1
        assert "holds 10001 values, more than 10000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        parse = cli._grid_values(positive=False)
        assert len(parse("0:9999:1")) == 10_000
        with pytest.raises(ValueError, match="holds inf values"):
            parse("-1e308:1e308:1")

    def test_radius_off_the_grid_rejected(self, tmp_path, capsys):
        # half a step past the far end still snaps to it; farther is an error
        base = ["kernel", "--lmax", "4", "--levels", "3", "--t", "0", "--s", "1",
                "--out", str(tmp_path)]
        assert main(base + ["--r", "1"]) == 0
        grid = read_spectrum_record(tmp_path / "spectrum_d3_n0.json").grid
        (tmp_path / "kernel.csv").unlink()
        for r in (50.0, grid.r_max + 0.6 * grid.h):
            assert main(base + ["--r", repr(r)]) == 1
            err = capsys.readouterr().err
            assert f"kernel radius {r:g} lies off the grid" in err
            assert repr(grid.r_min) in err and repr(grid.r_max) in err
            assert not (tmp_path / "kernel.csv").exists()
        assert main(base + ["--r", repr(grid.r_max + 0.4 * grid.h)]) == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["results"]["kernel"]["snapped_r"] == [grid.r_max]

    def test_negative_times_accepted(self, tmp_path):
        base = ["kernel", "--lmax", "4", "--levels", "3", "--r", "1", "--s", "1"]
        assert main(base + ["--t=-0.5,0,0.5", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "kernel.csv").read_text().splitlines()) == 4

    def test_non_finite_deviation_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from specprobe import cli

        cli._load_solver("kernel")
        exact = cli.kernel_matrix
        monkeypatch.setattr(cli, "kernel_matrix", lambda table, t, radii, cap: (
            exact(table, t, radii, cap) * (math.nan if t < 0.0 else 1.0)))
        rc = main(["kernel", "--lmax", "4", "--levels", "3", "--t", "0,0.5",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "hermitian deviation is nan" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        # a window five times wider than the default still weighs level 14
        # from tau = lam_13
        pytest.param(["--lmax", "14", "--lrange", "4:13", "--sigma", "0.2"], id="sigma0.2"),
        pytest.param(["--lmax", "30", "--lrange", "5:20", "--sigma", "0.01"], id="sigma0.01"),
    ])
    def test_too_wide_window_is_rejected_before_any_probe(self, tmp_path, capsys, argv):
        base = ["probe", *argv[:4], "--out", str(tmp_path)]
        assert main(base + argv[4:]) == 1
        err = capsys.readouterr().err
        assert f"error: sigma: {argv[5]} leaves a window weight of " in err
        assert not (tmp_path / "probe.csv").exists()
        # the sigma named is the least that works: the next float below it
        # is rejected, and it runs the probe
        least = float(re.search(r"the least sigma that works is (\S+)$", err.strip()).group(1))
        assert main(base + ["--sigma", repr(math.nextafter(least, 0.0))]) == 1
        assert not (tmp_path / "probe.csv").exists()
        assert main(base + ["--sigma", repr(least)]) == 0
        assert (tmp_path / "probe.csv").is_file()

    @pytest.mark.parametrize("argv, message", [
        # at tau = lam_lmax the top level's window weight is khat(0) = 1
        (["probe", "--lrange", "20:60", "--lmax", "60"], "lrange (20, 60) needs lmax > 60"),
        (["probe", "--lrange", "20:25"], "lrange (20, 25) holds 6 levels; the fit needs ten"),
        (["gaps", "--lmax", "4"], "gaps needs lmax >= 5"),
        (["wkb", "--lmax", "3"], "wkb needs lmax >= 4"),
    ])
    def test_fit_windows_checked_before_any_solve(self, tmp_path, capsys, argv, message):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("spectrum_*"))

    @pytest.mark.parametrize("text", ["[1, 2]", "{bad", '{"results": [1]}'])
    @pytest.mark.parametrize("command", ["validate", "gaps", "report"])
    def test_broken_run_json_is_io_failure_before_any_work(self, tmp_path, capsys, text,
                                                           command):
        run_json = tmp_path / "run.json"
        run_json.write_text(text)
        assert main([command, "--lmax", "6", "--fit-top", "6", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o failure: {run_json}: not ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        assert run_json.read_text() == text

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


class TestFailedWrites:
    @pytest.mark.parametrize("command, name, flags", [
        ("validate", "run.json", []),
        ("spectrum", "spectrum.csv", []),
        ("report", "report.md", []),
        # a solve whose cache cannot be saved
        ("spectrum", "spectrum_d3_n0.npy", ["--rel-tol", "1e-9"]),
        ("spectrum", "spectrum_d3_n0.json", ["--rel-tol", "1e-9"]),
    ])
    def test_previous_file_stays_whole(self, tmp_path, capsys, full_disk, command, name, flags):
        base = ["--lmax", "5", "--out", str(tmp_path)]
        for step in ("spectrum", "report"):
            assert main([step] + base) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        with full_disk(name):
            assert main([command] + base + flags) == 3
        assert "No space left on device" in capsys.readouterr().err
        # no temporary file is left either
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # the next command reads run.json and hits the cache
        assert main(["report"] + base) == 0
        assert main(["spectrum"] + base) == 0
        assert capsys.readouterr().err == "cache: d3_n0 hit\n"


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
        # counters, unlike seconds, do not vary from run to run; no integral
        # of the stage is adaptive, and 543 effective_potential calls were
        # measured
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
        assert counts["integrate_sqrt_singular"] == 0
        assert counts["effective_potential"] <= 597

    def test_quartic_wkb_reads_each_row_once_plus_the_ladder(self, tmp_path, monkeypatch,
                                                             quartic_n0):
        # summarize reads each of the 61 rows once and the Langer ladder its
        # levels again; the amplitude fit reads the summaries, not the table
        from specprobe import eigensolve

        eigensolve.save_spectrum(quartic_n0, tmp_path / "spectrum_d3_n0.json")
        reads = collections.Counter()
        read = eigensolve._SampleFile.read

        def counted(self, levels, columns):
            reads.update(levels)
            return read(self, levels, columns)

        monkeypatch.setattr(eigensolve._SampleFile, "read", counted)
        assert main(["wkb", "--model", "1*r^4", "--channels", "3:0", "--lmax", "60",
                     "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "run.json").read_text())["results"]["wkb"]
        assert results["cache"] == {"d3_n0": {"hit": True}}
        ladder = results["langer"]["levels"]
        assert sorted(reads) == list(range(61))
        assert sorted(level for level, count in reads.items() if count == 2) == ladder
        assert max(reads.values()) == 2
        assert sum(reads.values()) == 66
