"""Benchmark of the specprobe command line, run from the repository root.

    python3 specbench/run.py --workload quartic_cold_certify --seed 1 --seconds 40 --trace 0

It drives the CLI the way a user does: one ``specprobe`` subprocess per
subcommand, one after another, from this single process (a closed loop
with one client; no threads, no pools).  A pass runs the workload's
subcommands once into its own, empty output directory; passes repeat
until ``--seconds`` have been measured, and there are at least two.  Every
pass is checked: each subcommand must exit 0, every artifact must parse,
the eigenvalues must match ``reference.json`` and, on the quartic
workload, every certificate row in ``report.md`` that ran must read
``pass``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload in this process through ``specprobe.cli.main``, once plainly and
once with the module boundaries wrapped (see ``tracing.py``), and prints the
per-layer metrics.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed draws the kernel time grid (``--t``) and the levels at which the
traced run times single layers; it changes no eigenvalue or certificate.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from checks import Checks, check_pass

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; leave room for reporting after the deadline
RUN_DEADLINE_S = 170.0
SETUPS = 5
MIN_PASSES = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    model: str
    channels: tuple[str, ...]
    lmax: int
    certs_must_pass: bool
    lrange: tuple[int, int] = (20, 50)
    flags: tuple[str, ...] = ()
    kernel_t: str = "0,0.25,0.5,0.75,1"

    def argv(self, command: str, out: Path) -> list[str]:
        return [
            command, "--model", self.model, "--channels", ",".join(self.channels),
            "--lmax", str(self.lmax), "--lrange", "%d:%d" % self.lrange,
            "--t", self.kernel_t, *self.flags, "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # the default quartic run: the Numerov shooting sweep of eigensolve
        # (spectrum, writes the cache) and the wkb appendix ladder (reads it)
        # take nearly all of the time, about half each
        Workload("quartic_cold_certify",
                 ("validate", "spectrum", "gaps", "wkb", "probe", "kernel", "report"),
                 "1*r^4", ("3:0",), 60, certs_must_pass=True),
        # no closed-form action and gamma > 0: scalar potential and bisection
        # costs; gap and probe rows fail at the seed because growth_index
        # takes the smallest c_m (2) where the paper's c = deg(V)/2 is 3
        Workload("mixed_cold_channels",
                 ("validate", "spectrum", "gaps", "probe", "kernel", "report"),
                 "1*r^4+0.5*r^6", ("3:0", "5:2"), 24, certs_must_pass=False,
                 lrange=(8, 22), flags=("--fit-top", "12", "--levels", "16")),
    )
}


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


@dataclasses.dataclass
class Result:
    rc: int
    seconds: float
    rss_mb: float
    output: str


def run_program(argv: list[str], env: dict, log: Path, deadline: float) -> Result:
    """Run one subprocess to completion, with its wall time and peak RSS.

    The child is reaped with ``wait4`` for its own resource usage; a
    SIGALRM at the run deadline kills it.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with log.open("w+b") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=env)
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            sink.seek(0)
            output = sink.read().decode("utf-8", "replace")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Result(proc.returncode, seconds, usage.ru_maxrss / 1024.0, output)


class Runner:
    """Runs the workload's subcommands as subprocesses and tallies them."""

    def __init__(self, root: Path, work: Path, workload: Workload, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("SPECPROBE_OUT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.checks = Checks()

    def command(self, argv: list[str], label: str) -> Result:
        if time.monotonic() >= self.deadline:
            self.checks.check(False, f"{label}: run deadline reached before it started")
            return Result(-1, 0.0, 0.0, "")
        result = run_program([sys.executable, *argv], self.env, self.work / "last.log",
                             self.deadline)
        tail = result.output.strip().splitlines()[-3:]
        self.checks.check(result.rc == 0, f"{label} exited {result.rc}: {' | '.join(tail)}")
        return result

    def cli(self, command: str, out: Path) -> Result:
        return self.command(["-m", "specprobe.cli", *self.workload.argv(command, out)], command)

    def set_up(self) -> float:
        """Start the program once (``--version``): the interpreter start and
        imports every subcommand pays before it works.  The first set-up in
        a checkout also compiles the bytecode."""
        return self.command(["-m", "specprobe.cli", "--version"], "--version").seconds

    def fresh_output(self, label: str) -> Path:
        out = self.work / label
        out.mkdir()
        return out


def run_untraced(runner: Runner, seconds: float, reference: dict) -> tuple[dict, dict]:
    workload = runner.workload
    setups = [runner.set_up() for _ in range(SETUPS)]
    walls, rss, per_command = [], [], {c: [] for c in workload.commands}
    start = time.monotonic()
    # at least two passes, so that one slow stretch of the shared host does
    # not set a run's median on its own
    while len(walls) < MIN_PASSES or (time.monotonic() - start < seconds
                                      and time.monotonic() < runner.deadline):
        out = runner.fresh_output(f"pass{len(walls)}")
        wall = 0.0
        for command in workload.commands:
            result = runner.cli(command, out)
            wall += result.seconds
            rss.append(result.rss_mb)
            per_command[command].append(result.seconds)
        walls.append(wall)
        check_pass(runner.checks, out, workload, reference)
        shutil.rmtree(out)

    checks = runner.checks
    checks.check(checks.lams_checked > 0, "no eigenvalue was compared with the reference")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "lam_rel_err": (checks.lam_rel_err, "ratio"),
        "success_rate": (1.0 - checks.failed / checks.attempted, "ratio"),
        "cert_dev_max": (checks.cert_dev_max, "tol"),
    }
    notes = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_s": setups,
        "command_s": {c: statistics.median(v) for c, v in per_command.items()},
    }
    return metrics, notes


def run_traced(runner: Runner, root: Path, reference: dict, seed: int) -> tuple[dict, dict]:
    """One plain and one traced in-process pass, then single-layer timings."""
    workload = runner.workload
    runner.set_up()
    sys.path.insert(0, str(root / "src"))
    import specprobe.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"specprobe imported from {cli.__file__}, not from {root / 'src'}")

    # calls per boundary made by each subcommand: a workload's subcommands
    # share boundaries, so the run-wide counts alone cannot split them
    stage_counts: dict[str, dict[str, int]] = {}

    def in_process(label: str, tracer) -> tuple[float, Path]:
        out = runner.fresh_output(label)
        wall = 0.0
        for command in workload.commands:
            argv = workload.argv(command, out)
            before = collections.Counter(tracer.counts) if tracer else None
            with (runner.work / f"{label}.log").open("a") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                start = time.perf_counter()
                try:
                    rc = tracer.span(f"cli.{command}", cli.main, argv) if tracer else cli.main(argv)
                except Exception as exc:  # the run goes on and reports the failure
                    rc = f"{type(exc).__name__}: {exc}"
                wall += time.perf_counter() - start
            if tracer:
                stage_counts[f"cli.{command}"] = dict(tracer.counts - before)
            runner.checks.check(rc == 0, f"{label} {command} returned {rc}")
        return wall, out

    plain_wall, _ = in_process("plain", None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, out = in_process("traced", tracer)
    finally:
        tracer.uninstall()
    check_pass(runner.checks, out, workload, reference)

    metrics, stages = tracing.layer_metrics(tracer, workload, out)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    cfg = cli.resolve_config(cli.build_parser().parse_args(workload.argv("probe", out)))
    metrics.update(tracing.time_layers(cfg, out, runner.work, seed))
    imports = [runner.command(["-c", "import specprobe.cli"], "import").seconds
               for _ in range(3)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    notes = {
        "stages": stages,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "wrapper_cost_s": tracing.wrapper_cost_s(tracer),
        "missing_boundaries": tracer.missing,
    }
    trace_file = root / ".specbench" / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "notes": notes,
        "by_name": tracer.by_name(),
        "counts": dict(tracer.counts),
        "counts_by_stage": stage_counts,
        "spans": tracer.spans,
    }))
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "specprobe" / "cli.py").is_file():
        print(f"no specprobe source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    times = sorted(round(rng.uniform(0.05, 1.0), 6) for _ in range(4))
    workload = dataclasses.replace(
        WORKLOADS[args.workload], kernel_t=",".join(["0", *map(repr, times)]))
    reference = json.loads((HERE / "reference.json").read_text())

    work = root / ".specbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, workload, deadline)
    try:
        if args.trace:
            metrics, notes = run_traced(runner, root, reference, args.seed)
        else:
            metrics, notes = run_untraced(runner, args.seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = runner.checks
    notes.update(
        error_rate=checks.failed / checks.attempted,
        certs_failed=checks.certs_failed,
        failures=checks.failures,
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("notes: " + json.dumps(notes))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
