"""What loads when: the package's names load their submodule on first
access, and the command line loads numpy and the solver only for a
numeric command whose config has passed its checks.

The start-up checks run ``python -X importtime -m specprobe.cli`` in a
fresh interpreter and read its import log, since this process has long
imported everything.
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


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports specprobe from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    env.pop("SPECPROBE_OUT", None)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def imported_modules(argv: list[str], cwd=None) -> tuple[int, list[str]]:
    """Exit code of ``specprobe argv`` and every module its interpreter imported."""
    proc = python("-X", "importtime", "-m", "specprobe.cli", *argv, cwd=cwd)
    # "import time: <self us> | <cumulative us> | <indented module name>"
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return proc.returncode, names


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


def test_report_loads_numpy_only_when_run_json_has_no_meta(tmp_path):
    # the meta the numeric commands record holds numpy's version; without
    # it, report loads numpy to read that version itself
    code, names = imported_modules(["report", "--out", str(tmp_path)])
    assert code == 0 and "numpy" in names
    meta = (tmp_path / "report.md").read_text().split("## Versions")[1]
    run_json = tmp_path / "run.json"
    run_json.write_text(json.dumps({"meta": {"numpy": "recorded"}}))
    code, names = imported_modules(["report", "--out", str(tmp_path)])
    assert code == 0 and numeric(names) == []
    assert (tmp_path / "report.md").read_text().split("## Versions")[1] == "\n\n- numpy: recorded\n"
    assert "- numpy: " in meta


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
