"""Names the benchmark scripts read from the package.

``specbench/tracing.py`` wraps each ``(module, attr)`` of its
``BOUNDARIES`` from outside and reports the metrics built on a name that
no longer exists as absent, without failing.  ``specbench/make_reference.py``
reads the eigenvalues through ``table.eigenpairs``, and ``specbench/run.py``
resolves each workload's configuration with the program's own parser.
These tests fail instead when the package drops what those scripts read.
The traced run also calls ``cli.main`` in its own process under redirected
streams and then prints its result, which must stay the last line.
The scripts are read as text and run in fresh namespaces, so nothing is
written next to them; the end-to-end traced run copies the package and
the scripts and runs there.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from specprobe import cli

SPECBENCH = Path(__file__).resolve().parents[1] / "specbench"
TRACING = SPECBENCH / "tracing.py"


def load_script(path: Path, name: str, monkeypatch=None) -> types.ModuleType:
    """Run a script as module ``name``, listed in ``sys.modules`` (until the
    test ends) when a ``monkeypatch`` is given: its dataclasses need that."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_boundary_is_a_package_callable():
    boundaries = load_script(TRACING, "specbench_tracing").BOUNDARIES
    assert boundaries
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in boundaries
        if not callable(getattr(importlib.import_module(f"specprobe.{module}"), attr, None))
    ]
    assert missing == []


def test_eigenpairs_carry_the_eigenvalues(quartic_n0):
    assert [p.lam for p in quartic_n0.eigenpairs] == quartic_n0.eigenvalues.tolist()
    assert [p.level for p in quartic_n0.eigenpairs] == list(range(61))


def test_workload_configs_carry_what_time_layers_reads(monkeypatch, tmp_path):
    # run.py imports its neighbours by their bare names
    load_script(TRACING, "tracing", monkeypatch)
    load_script(SPECBENCH / "checks.py", "checks", monkeypatch)
    run = load_script(SPECBENCH / "run.py", "specbench_run", monkeypatch)
    source = TRACING.read_text()
    body = source[source.index("def time_layers"):]
    read = set(re.findall(r"\bcfg\.(\w+)", body))
    assert {"model", "channels", "l_max", "l_range", "kernel_levels"} <= read
    assert set(run.WORKLOADS) == {"quartic_cold_certify", "mixed_cold_channels"}
    for workload in run.WORKLOADS.values():
        argv = workload.argv("probe", tmp_path / workload.name)
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert isinstance(cfg, cli.RunConfig)
        assert [a for a in sorted(read) if not hasattr(cfg, a)] == []
        assert cfg.model.spec_string == workload.model
        assert cfg.l_max == workload.lmax and cfg.l_range == workload.lrange


# The seven subcommands in one process, each under redirect_stdout and
# redirect_stderr as the traced benchmark run calls them, then one result
# line.  Output written past the redirect (to fd 1, to a stream bound at
# import, or from an exit hook) would land next to that line.  Given the
# tracer's path (not "-"), the run installs its Tracer before the first
# command and calls each one inside a tracer span, as the traced run does.
IN_PROCESS_RUN = textwrap.dedent(
    """
    import contextlib, io, json, sys, types
    from specprobe import cli

    run = cli.main
    if sys.argv[1] != "-":
        tracing = types.ModuleType("tracing")
        exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), tracing.__dict__)
        tracer = tracing.Tracer()
        tracer.install()
        run = lambda argv: tracer.span(f"cli.{argv[0]}", cli.main, argv)
    rcs = []
    for command in ("validate", "spectrum", "gaps", "wkb", "probe", "kernel", "report"):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rcs.append(run([command, *sys.argv[2:]]))
    print(json.dumps({"result": "in-process run", "rcs": rcs}))
    """
)


@pytest.mark.parametrize("tracer", ["-", str(TRACING)], ids=["untraced", "traced"])
def test_in_process_run_prints_only_its_result(tracer, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("SPECPROBE_OUT", None)
    argv = ["--model", "1*r^4", "--channels", "3:0", "--lmax", "14", "--lrange", "2:12",
            "--t", "0,0.5", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS_RUN, tracer, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    assert json.loads(lines[0]) == {"result": "in-process run", "rcs": [0] * 7}


# In a fresh interpreter, where nothing has bound cli's solver names yet:
# the program's own config resolution works without ``main`` and without
# numpy, every cli boundary resolves, and a tracer installed before any
# command still counts the calls of the commands that follow (a command
# that bound the names again would leave the wrappers uncalled).
TRACED_FROM_COLD = textwrap.dedent(
    """
    import contextlib, io, json, sys, types
    tracing = types.ModuleType("tracing")
    exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), tracing.__dict__)
    from specprobe import cli

    cfg = cli.resolve_config(cli.build_parser().parse_args(["gaps", *sys.argv[2:]]))
    cold = "numpy" not in sys.modules
    unresolved = [attr for module, attr, _, _ in tracing.BOUNDARIES
                  if module == "cli" and not callable(getattr(cli, attr, None))]
    tracer = tracing.Tracer()
    tracer.install()
    rcs = []
    for command in ("spectrum", "probe"):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rcs.append(cli.main([command, *sys.argv[2:]]))
    print(json.dumps({"cold": cold, "model": cfg.model.spec_string, "unresolved": unresolved,
                      "missing": tracer.missing, "rcs": rcs, "counts": tracer.counts}))
    """
)


def test_tracer_installed_before_any_command_counts_its_calls(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("SPECPROBE_OUT", None)
    argv = ["--model", "1*r^4", "--channels", "3:0", "--lmax", "14", "--lrange", "2:12",
            "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", TRACED_FROM_COLD, str(TRACING), *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["cold"] and got["model"] == "1*r^4"
    assert got["unresolved"] == [] and got["missing"] == []
    assert got["rcs"] == [0, 0]
    assert got["counts"]["cli>eigensolve.solve_spectrum"] == 1
    assert got["counts"]["cli>eigensolve.load_spectrum"] == 1


@pytest.mark.parametrize("workload", ["quartic_cold_certify", "mixed_cold_channels"])
def test_traced_run_reports_every_layer(tmp_path, workload):
    # time_layers hands a loaded table to probe_G, probe_sequence and the
    # kernel functions, and prints "layer timing ... absent" for a reader
    # that raises AttributeError or TypeError on it, dropping the metric
    # without failing the run; so the whole traced run is checked here, on
    # a copy of the package and the scripts
    root = SPECBENCH.parent
    for name in ("src", "specbench"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".specbench"))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPECPROBE_OUT")}
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("layer timing")]
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr
    (notes,) = [json.loads(line[len("notes: "):]) for line in lines if line.startswith("notes: ")]
    assert notes["missing_boundaries"] == []


@pytest.mark.parametrize("workload", ["quartic_cold_certify", "mixed_cold_channels"])
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    # the subprocess chain whose metrics the benchmark compares, on a copy
    # of the package and the scripts
    root = SPECBENCH.parent
    for name in ("src", "specbench"):
        shutil.copytree(root / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".specbench"))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPECPROBE_OUT")}
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    assert all(isinstance(metrics[m["name"]]["value"], float) for m in declared), metrics
