"""What loads when: the package's names load their submodule on first
access, and the command line loads numpy and the solver only where a
command first needs numbers: never for ``validate`` and ``report``, and
for ``gaps`` and ``kernel`` only on a cache miss; on a hit ``kernel``
loads only its own module and the table reader, both numpy-free, and
these four commands run where numpy cannot be imported at all.  A
command loads only the solver modules it calls: a solve never loads
``kernel`` or ``probe``.  No
command loads ``dataclasses`` or ``numpy.polynomial`` (the Gauss-Legendre
rule and the Chebyshev interpolant near ``T`` are computed in the
package), only ``--config`` loads ``configparser``, and no light command
loads ``tempfile``, since the package replaces the files it writes
without it.

The start-up checks run ``specprobe.cli`` as ``__main__`` in a fresh
interpreter that prints ``sys.modules`` to stderr at exit, since this
process has long imported everything.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specprobe

ROOT = Path(__file__).resolve().parents[1]
SOLVER_MODULES = {f"specprobe.{m}" for m in
                  ("eigensolve", "wkb", "specfun", "probe", "kernel", "potential")}
# what a solve imports: eigensolve and the modules it imports
SOLVE_MODULES = SOLVER_MODULES - {"specprobe.probe", "specprobe.kernel"}
# standard library modules a start without numpy need not load: dataclasses
# and inspect (which it imports), configparser, for --config alone, and
# tempfile, which the writes of run.json and report.md do without
START_FREE = {"dataclasses", "inspect", "configparser", "tempfile"}


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports specprobe from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    env.pop("SPECPROBE_OUT", None)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60)


# runs ``python -m specprobe.cli argv`` and, at exit, prints every loaded
# module, also those loaded through ``importlib.import_module`` (the solver
# modules ``cli`` binds by name), which ``-X importtime`` leaves out.  The
# interpreter's own start may load START_FREE modules (a ``.pth`` file of
# site can load tempfile); they are dropped first, so a later import shows.
_REPORT_MODULES = (
    "import atexit, runpy, sys\n"
    f"for name in {sorted(START_FREE)!r}: sys.modules.pop(name, None)\n"
    "atexit.register(lambda: print('modules:', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('specprobe.cli', run_name='__main__', alter_sys=True)\n"
)


def imported_modules(argv: list[str], cwd=None) -> tuple[int, list[str]]:
    """Exit code of ``specprobe argv`` and every module its interpreter loaded."""
    proc = python("-c", _REPORT_MODULES, *argv, cwd=cwd)
    (line,) = [line for line in proc.stderr.splitlines() if line.startswith("modules: ")]
    return proc.returncode, line.split()[1:]


def numeric(names: list[str]) -> list[str]:
    return [n for n in names if n.split(".")[0] == "numpy" or n in SOLVER_MODULES]


@pytest.mark.parametrize("argv, rc", [
    (["--version"], 0),
    (["--help"], 0),
    (["spectrum", "--help"], 0),
    (["spectrum", "--bogus", "1"], 1),
    (["spectrum", "--lmax", "-1"], 1),
    (["spectrum", "--model", "1*r^2"], 1),  # not super-quadratic
    (["spectrum", "--channels", "2:0"], 1),
])
def test_quick_invocations_load_no_numpy_and_no_solver(argv, rc, tmp_path):
    code, names = imported_modules(argv, cwd=tmp_path)
    assert code == rc
    assert {"specprobe.defaults", "specprobe.errors"} <= set(names)  # the log was read
    assert numeric(names) == []


def test_report_never_loads_numpy(tmp_path):
    # report renders run.json as it finds it; numpy's version is in its
    # meta when a command that computed with numpy wrote it, else absent
    code, names = imported_modules(["report", "--out", str(tmp_path)])
    assert code == 0 and numeric(names) == []
    assert (tmp_path / "report.md").read_text().split("## Versions")[1].count("- numpy") == 0
    (tmp_path / "run.json").write_text(json.dumps({"meta": {"numpy": "recorded"}}))
    code, names = imported_modules(["report", "--out", str(tmp_path)])
    assert code == 0 and numeric(names) == []
    assert (tmp_path / "report.md").read_text().split("## Versions")[1] == "\n\n- numpy: recorded\n"


def test_validate_and_cached_gaps_load_no_numpy(tmp_path):
    base = ["--lmax", "8", "--fit-top", "6", "--out", str(tmp_path)]
    code, names = imported_modules(["validate", *base])
    assert code == 0 and {"specprobe.model", "specprobe.fitting"} <= set(names)
    assert numeric(names) == []
    # numpy's version is recorded by the first command that computed with it
    run_json = tmp_path / "run.json"
    assert "numpy" not in json.loads(run_json.read_text())["meta"]
    assert python("-m", "specprobe.cli", "spectrum", *base).returncode == 0
    version = json.loads(run_json.read_text())["meta"]["numpy"]
    for argv in (["gaps", *base], ["validate", *base], ["report", *base]):
        code, names = imported_modules(argv)
        assert code == 0 and numeric(names) == [], argv
        assert json.loads(run_json.read_text())["meta"]["numpy"] == version
    gaps = json.loads(run_json.read_text())["results"]["gaps"]
    assert gaps["cache"] == {"d3_n0": {"hit": True}}
    assert gaps["channels"]["d3_n0"]["gaps_used"] == 6


def test_gaps_on_a_cache_miss_solves_and_caches(tmp_path):
    code, names = imported_modules(["gaps", "--lmax", "8", "--fit-top", "6",
                                    "--out", str(tmp_path)])
    assert code == 0
    assert "numpy" in names and set(numeric(names)) & SOLVER_MODULES == SOLVE_MODULES
    gaps = json.loads((tmp_path / "run.json").read_text())["results"]["gaps"]
    assert gaps["cache"]["d3_n0"]["hit"] is False
    assert gaps["cache"]["d3_n0"]["reason"] == "missing"
    record = json.loads((tmp_path / "spectrum_d3_n0.json").read_text())
    assert len(record["levels"]["lambda"]) == 9
    assert (tmp_path / "spectrum_d3_n0.npy").is_file()


def test_spectrum_loads_neither_kernel_nor_probe(tmp_path):
    code, names = imported_modules(["spectrum", "--lmax", "4", "--out", str(tmp_path)])
    assert code == 0 and "numpy" in names
    assert set(numeric(names)) & SOLVER_MODULES == SOLVE_MODULES
    # a probe then loads its own module, and nothing of the kernel
    code, names = imported_modules(["probe", "--lmax", "14", "--lrange", "2:12",
                                    "--out", str(tmp_path)])
    assert code == 0
    assert set(numeric(names)) & SOLVER_MODULES == SOLVE_MODULES | {"specprobe.probe"}


@pytest.fixture(scope="module")
def cached_out(tmp_path_factory):
    """An output directory holding the default channel's cache, ``lmax`` 8."""
    out = tmp_path_factory.mktemp("cached")
    proc = python("-m", "specprobe.cli", "spectrum", "--lmax", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("argv", [
    ["--version"], ["--help"], ["validate"], ["report"], ["gaps", "--fit-top", "6"],
], ids=lambda argv: argv[0])
def test_light_commands_load_no_dataclasses_inspect_or_configparser(argv, cached_out):
    if not argv[0].startswith("-"):
        argv = [*argv, "--lmax", "8", "--out", str(cached_out)]
    code, names = imported_modules(argv)
    assert code == 0
    assert numeric(names) == []  # gaps hit the cache
    assert START_FREE & set(names) == set()
    assert "specprobe.table" not in names
    if argv == ["--version"]:  # the same package modules as before the table reader
        assert {n for n in names if n.startswith("specprobe")} == {
            "specprobe", *(f"specprobe.{m}" for m in
                           ("defaults", "errors", "fitting", "formats", "model"))}


def test_kernel_on_a_cache_hit_loads_no_numpy(cached_out):
    code, names = imported_modules(["kernel", "--lmax", "8", "--out", str(cached_out)])
    assert code == 0
    # of the solver modules only its own, which needs no numpy, and the table reader
    assert numeric(names) == ["specprobe.kernel"] and "specprobe.table" in names
    assert START_FREE & set(names) == set()
    kernel = json.loads((cached_out / "run.json").read_text())["results"]["kernel"]
    assert kernel["cache"] == {"d3_n0": {"hit": True}}


# the command line where numpy cannot be imported, as after ``pip uninstall numpy``
_WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "runpy.run_module('specprobe.cli', run_name='__main__', alter_sys=True)\n"
)


def test_commands_on_a_cache_run_without_numpy(cached_out):
    for argv in (["validate"], ["gaps", "--fit-top", "6"], ["kernel"], ["report"]):
        proc = python("-c", _WITHOUT_NUMPY, *argv, "--lmax", "8", "--out", str(cached_out))
        assert proc.returncode == 0, (argv, proc.stderr)
    # a solve needs numpy
    proc = python("-c", _WITHOUT_NUMPY, "kernel", "--lmax", "9", "--out", str(cached_out))
    assert proc.returncode != 0 and "numpy" in proc.stderr


def test_only_a_config_file_loads_configparser(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lmax = 8\n")
    base = ["validate", "--out", str(tmp_path)]
    code, names = imported_modules(base)
    assert code == 0 and "configparser" not in names
    code, names = imported_modules([*base, "--config", str(cfgfile)])
    assert code == 0 and "configparser" in names
    assert json.loads((tmp_path / "run.json").read_text())["config"]["l_max"] == 8


def test_numeric_commands_load_no_dataclasses(tmp_path):
    base = ["--lmax", "14", "--lrange", "2:12", "--out", str(tmp_path)]
    for command in ("spectrum", "wkb", "probe", "kernel"):
        code, names = imported_modules([command, *base])
        # kernel reads the cache that spectrum wrote, without numpy
        assert code == 0 and ("numpy" in names) == (command != "kernel"), command
        assert "dataclasses" not in names, command
        # the quadrature rule and the appendix interpolant are the package's own
        assert "numpy.polynomial" not in names, command


def _blas_is_openblas() -> bool:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


# OpenBLAS's worker threads show as tasks of the process
needs_openblas_tasks = pytest.mark.skipif(
    not (Path("/proc/self/task").is_dir() and _blas_is_openblas()),
    reason="needs /proc/self/task and numpy on OpenBLAS")

# the tasks of a fresh interpreter once the command line has loaded numpy,
# and the OpenBLAS thread setting it then reads
_THREADS_AFTER_LOAD = (
    "import os\n"
    "from specprobe import cli\n"
    "cli._load_solver('eigensolve')\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@needs_openblas_tasks
@pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")])
def test_numeric_commands_run_openblas_on_one_thread_unless_told(monkeypatch, preset, threads):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    proc = python("-c", _THREADS_AFTER_LOAD)
    assert proc.returncode == 0, proc.stderr
    tasks, setting = proc.stdout.split()
    assert setting == threads
    if preset is None:
        assert tasks == "1"


def test_a_process_that_loaded_numpy_keeps_its_environment(monkeypatch):
    # the cached loader is called through, so the check runs in this process
    import numpy  # noqa: F401
    from specprobe import cli

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    cli._load_solver.__wrapped__("eigensolve")
    assert dict(os.environ) == before


def test_no_package_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "specprobe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [name.split(".")[0] for name in names], path.name


def test_every_package_name_is_its_submodules_object():
    for module, names in specprobe._EXPORTS.items():
        source = importlib.import_module(f"specprobe.{module}")
        for name in names:
            assert getattr(specprobe, name) is getattr(source, name), name
    assert set(specprobe.__all__) <= set(dir(specprobe))
    with pytest.raises(AttributeError):
        getattr(specprobe, "no_such_name")


def test_submodules_load_on_first_access():
    # a fresh interpreter, where no import has set the submodules on the package yet
    proc = python("-c", "import sys, specprobe\n"
                  "print([m for m in sys.modules if m.startswith('specprobe.')])\n"
                  "for m in sorted(specprobe._SUBMODULES):\n"
                  "    print(getattr(specprobe, m).__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n", 1) == [
        "[]", "".join(f"specprobe.{m}\n" for m in sorted(specprobe._SUBMODULES))]
    assert {"wkb", "formats", "model"} <= specprobe._SUBMODULES <= set(dir(specprobe))


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    imports = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert imports
    namespace = {}
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), namespace)
    bound = {alias.asname or alias.name for node in imports for alias in node.names}
    assert {name: namespace[name] for name in bound} == {
        name: getattr(specprobe, name) for name in bound}
