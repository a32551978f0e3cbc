"""Output checks for one pass of a workload.

Every check is one operation: it either passes or is recorded as a failure
with a one-line reason.  The checks read only the artifacts a user would
read (CSV files, ``run.json``, ``report.md``) and compare eigenvalues with
the committed reference table.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# default solver settings sit within about 1e-9 of the tighter reference solve
LAM_TOL = 1e-7
PARSEVAL_TOL = 1e-9
HERMITIAN_TOL = 1e-12

# artifacts whose rows carry eigenvalues keyed by (n, l)
LAMBDA_CSVS = ("spectrum.csv", "wkb.csv", "probe.csv")
# the default --r and --s kernel grids (0.6:1.4:0.2) hold five radii each
KERNEL_RADII = 5


class Checks:
    """Tally of checks and the metrics derived from the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.lam_rel_err = 0.0
        self.lams_checked = 0
        self.cert_rows: list[tuple[str, str, float]] = []  # name, status, deviation

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def certs_failed(self) -> int:
        return sum(1 for _, status, _ in self.cert_rows if status == "fail")

    @property
    def cert_dev_max(self) -> float:
        devs = [dev for _, status, dev in self.cert_rows if status != "not run"]
        return max(devs) if devs else math.nan


def check_pass(checks: Checks, out: Path, workload, reference: dict) -> None:
    """Check every artifact the workload's output directory should hold."""
    want_levels = (workload.lmax + 1) * len(workload.channels)
    doc = _load_json(checks, out / "run.json")
    results = doc.get("results", {}) if doc else {}
    tables = {
        name: _load_rows(checks, out / name)
        for name in ("spectrum.csv", "wkb.csv", "probe.csv", "kernel.csv")
        if name.split(".")[0] in workload.commands
    }
    for name, rows in tables.items():
        if rows is not None and name in LAMBDA_CSVS:
            _check_lambdas(checks, name, rows, workload.channels,
                           reference["models"][workload.model])

    rows = tables["spectrum.csv"]
    if rows is not None:
        checks.check(len(rows) == want_levels, f"spectrum.csv has {len(rows)} rows")
        checks.check(all(row["nodes"] == row["l"] for row in rows),
                     "spectrum.csv: nodes column differs from l")
    if "validate" in workload.commands:
        checks.check(results.get("validate", {}).get("passed") is True,
                     "run.json: validate did not pass")
    if "gaps" in workload.commands:
        fits = results.get("gaps", {}).get("channels", {})
        checks.check(len(fits) == len(workload.channels)
                     and all(math.isfinite(f.get("exponent", math.nan)) for f in fits.values()),
                     "run.json: gap fits missing or not finite")
    if tables.get("wkb.csv") is not None:
        appendix = results.get("wkb", {}).get("appendix", {})
        checks.check(math.isfinite(appendix.get("exponent", math.nan)),
                     "run.json: appendix fit missing")
        rows = tables["wkb.csv"]
        checks.check(len(rows) == want_levels, f"wkb.csv has {len(rows)} rows")
    if tables.get("probe.csv") is not None:
        rows = tables["probe.csv"]
        lo, hi = workload.lrange
        checks.check(len(rows) == (hi - lo + 1) * len(workload.channels),
                     f"probe.csv has {len(rows)} rows")
        checks.check(all(0.0 < float(row["absG"]) < math.inf for row in rows),
                     "probe.csv: |G| not positive and finite")
    if tables.get("kernel.csv") is not None:
        _check_kernel(checks, tables["kernel.csv"], results.get("kernel", {}), workload)
    if "report" in workload.commands:
        _check_report(checks, out / "report.md", workload)


def _load_json(checks: Checks, path: Path):
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        checks.check(False, f"{path.name}: {exc}")
        return None
    checks.check(True, path.name)
    return doc


def _load_rows(checks: Checks, path: Path):
    try:
        with path.open(newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for value in row.values():
                float(value)
    except (OSError, ValueError, TypeError) as exc:
        checks.check(False, f"{path.name} does not parse: {exc}")
        return None
    checks.check(bool(rows), f"{path.name} is empty")
    return rows


def _check_lambdas(checks: Checks, name: str, rows, channels, ref: dict) -> None:
    worst = 0.0
    for row in rows:
        lam = float(row["lambda"])
        key = next((k for k in channels if k.endswith(f":{row['n']}")), None)
        table = ref.get(key, []) if key else []
        level = int(row["l"])
        if level >= len(table):
            worst = math.inf
            continue
        worst = max(worst, abs(lam - table[level]) / table[level])
        checks.lams_checked += 1
    if math.isfinite(worst):
        checks.lam_rel_err = max(checks.lam_rel_err, worst)
    checks.check(worst <= LAM_TOL,
                 f"{name}: eigenvalues deviate {worst:.3e} from the reference")


def _check_kernel(checks: Checks, rows, kernel: dict, workload) -> None:
    n_t = len(workload.kernel_t.split(","))
    checks.check(len(rows) == n_t * KERNEL_RADII**2, f"kernel.csv has {len(rows)} rows")
    checks.check(all(float(r["imK"]) == 0.0 for r in rows if float(r["t"]) == 0.0),
                 "kernel.csv: imaginary part at t = 0")
    expected = kernel.get("parseval_expected", math.nan)
    checks.check(abs(kernel.get("parseval", math.nan) - expected) <= PARSEVAL_TOL * expected,
                 "run.json: kernel Parseval mass off")
    checks.check(kernel.get("hermitian_deviation", math.inf) <= HERMITIAN_TOL,
                 "run.json: kernel not Hermitian")
    checks.check(kernel.get("t0_min_eigenvalue", -1.0) > 0.0,
                 "run.json: kernel not positive at t = 0")


def _check_report(checks: Checks, path: Path, workload) -> None:
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except (OSError, ValueError) as exc:
        checks.check(False, f"report.md: {exc}")
        return
    rows = []
    for line in lines:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[4] in ("pass", "fail", "not run"):
            name, theory, fitted, tol, status = cells
            dev = math.nan
            if status != "not run":
                try:
                    dev = max(abs(float(part.split(":")[-1]) - float(theory)) / float(tol)
                              for part in fitted.split(";"))
                except ValueError:
                    checks.check(False, f"report.md: cannot read the {name} row")
            rows.append((name, status, dev))
    checks.cert_rows = rows
    checks.check(len(rows) == 4, f"report.md has {len(rows)} certificate rows")
    if workload.certs_must_pass:
        bad = [name for name, status, _ in rows if status == "fail"]
        checks.check(not bad, f"report.md: certificates failed: {bad}")
