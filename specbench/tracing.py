"""Traced run: spans at the module boundaries of specprobe, and layer timings.

The package source is not edited.  ``Tracer.install`` replaces, from
outside, each public name one specprobe module imports from another (for
example ``specprobe.eigensolve.turning_points``) with a wrapper that counts
the call and records a span: name, start, end and the index of the span
that was open when it began.  The boundaries crossed hundreds of thousands
of times (``effective_potential``, ``eval_potential``) are counted only.
A name a later version no longer has is skipped, and the metrics built
from it are reported absent.

``time_layers`` then calls each layer's public function directly on the
workload's own inputs, so that a layer's cost can be read without the
pipeline around it.
"""

from __future__ import annotations

import functools
import importlib
import math
import random
import statistics
import time
from collections import Counter, defaultdict

# (module whose attribute is replaced, attribute, caller label, spans?).
# The caller label is the module that makes the call; two entries patch the
# callee module itself because their callers import them inside a function.
BOUNDARIES = [
    *(("cli", name, "cli", True) for name in (
        "solve_spectrum", "load_spectrum", "save_spectrum", "export_spectrum_csv",
        "validate_assumptions", "gap_scaling", "amplitude_scaling",
        "appendix_error_integral", "langer_residual", "summarize", "export_wkb_csv",
        "probe_sequence", "make_bump", "probe_rows", "export_kernel_grid",
        "kernel_matrix", "parseval_check", "fit_power_law", "write_csv",
    )),
    ("cli", "effective_potential", "cli", False),
    *(("eigensolve", name, "eigensolve", True) for name in (
        "turning_points", "inverse_action", "level_density", "quantization_target",
        "integrate_sqrt_singular",
    )),
    ("eigensolve", "effective_potential", "eigensolve", False),
    ("specfun", "bessel_j", "eigensolve", True),
    *(("wkb", name, "wkb", True) for name in (
        "integrate_sqrt_singular", "langer_profile", "fit_power_law",
    )),
    ("wkb", "effective_potential", "wkb", False),
    ("wkb", "eval_potential", "wkb", False),
    *(("probe", name, "probe", True) for name in (
        "fit_power_law", "allowed_interval", "extract_C_lambda", "rephased_amplitude",
    )),
    ("formats", "write_csv", "export", True),
]


class Tracer:
    """Spans and call counts at the wrapped boundaries, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, caller, spans in BOUNDARIES:
            module = importlib.import_module(f"specprobe.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            callee = getattr(fn, "__module__", module_name).rsplit(".", 1)[-1]
            name = f"{caller}>{callee}.{attr}"
            wrapper = self._spanned(fn, name) if spans else self._counted(fn, name)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, fn))
            self.installed.add(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span that is not a wrapped boundary."""
        return self._spanned(fn, name)(*args)

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def by_name(self) -> dict[str, dict]:
        """Calls, total time and self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return dict(table)


def wrapper_cost_s(tracer: Tracer, calls: int = 20000) -> float:
    """Cost of the wrappers the traced pass went through, timed on a no-op.

    The traced-minus-plain wall time swings with the machine by more than
    the wrappers cost; this estimate does not.
    """
    probe = Tracer()
    noop = lambda: None
    rates = []
    for wrapper in (probe._spanned(noop, "noop"), probe._counted(noop, "noop")):
        start = time.perf_counter()
        for _ in range(calls):
            wrapper()
        rates.append((time.perf_counter() - start) / calls)
    spanned = sum(1 for span in tracer.spans if span[3] >= 0)
    counted = sum(tracer.counts.values()) - len(tracer.spans)
    return spanned * rates[0] + counted * rates[1]


def layer_metrics(tracer: Tracer, workload, out_dir) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, and the stage times.

    The first dict holds what every workload produces; the second the times
    of stages only some workloads run (a subcommand, the solve, the wkb
    ladders), which are reported where the stage ran.
    """
    rows = tracer.by_name()
    counts = tracer.counts

    def total(*names):
        return sum(rows.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names):
        return sum(counts.get(n, 0) for n in names)

    def where(prefix):
        return [n for n in rows if n.startswith(prefix)]

    levels = calls("cli>eigensolve.solve_spectrum") * (workload.lmax + 1)
    integrate = ["eigensolve>specfun.integrate_sqrt_singular", "wkb>specfun.integrate_sqrt_singular"]
    wanted = {
        "cli.gaps_s": (total("cli.gaps"), "s", ()),
        "cli.report_s": (total("cli.report"), "s", ()),
        "cli.solve_calls": (calls("cli>eigensolve.solve_spectrum"), "count", ("cli.solve_spectrum",)),
        "cli.load_calls": (calls("cli>eigensolve.load_spectrum"), "count", ("cli.load_spectrum",)),
        "eigensolve.turning_points_calls": (
            calls("eigensolve>wkb.turning_points"), "count", ("eigensolve.turning_points",)),
        "eigensolve.turning_calls_per_level": (
            calls("eigensolve>wkb.turning_points") / levels if levels else 0.0,
            "calls/level", ("eigensolve.turning_points",)),
        "eigensolve.inverse_action_calls": (
            calls("eigensolve>wkb.inverse_action"), "count", ("eigensolve.inverse_action",)),
        "eigensolve.level_density_calls": (
            calls("eigensolve>wkb.level_density"), "count", ("eigensolve.level_density",)),
        "eigensolve.load_s": (total("cli>eigensolve.load_spectrum"), "s", ("cli.load_spectrum",)),
        "wkb.integrate_calls": (calls(*integrate), "count", ("wkb.integrate_sqrt_singular",)),
        "wkb.in_specfun_s": (total(*where("wkb>specfun.")), "s", ("wkb.integrate_sqrt_singular",)),
        "specfun.integrate_ms": (
            1e3 * total(*integrate) / max(calls(*integrate), 1), "ms",
            ("wkb.integrate_sqrt_singular",)),
        "potential.effective_potential_calls": (
            calls(*(f"{m}>potential.effective_potential" for m in ("cli", "eigensolve", "wkb"))),
            "count", ("eigensolve.effective_potential", "wkb.effective_potential")),
        "potential.eval_potential_calls": (
            calls("wkb>potential.eval_potential"), "count", ("wkb.eval_potential",)),
        "formats.write_csv_s": (
            total("cli>formats.write_csv", "export>formats.write_csv"), "s",
            ("cli.write_csv", "formats.write_csv")),
        "formats.csv_bytes": (
            sum(p.stat().st_size for p in out_dir.glob("*.csv")), "bytes", ()),
    }
    metrics = {
        name: (value, unit)
        for name, (value, unit, needs) in wanted.items()
        if all(n in tracer.installed for n in needs)
    }

    stages = {
        f"cli.{cmd}_s": total(f"cli.{cmd}")
        for cmd in workload.commands if cmd not in ("gaps", "report")
    }
    if calls("cli>eigensolve.solve_spectrum"):
        stages["eigensolve.solve_spectrum_s"] = total("cli>eigensolve.solve_spectrum")
        stages["eigensolve.save_s"] = total("cli>eigensolve.save_spectrum")
        stages["eigensolve.in_wkb_s"] = total(*where("eigensolve>wkb."))
    if "wkb" in workload.commands:
        stages["wkb.summarize_s"] = total("cli>wkb.summarize")
        stages["wkb.appendix_s"] = total("cli>wkb.appendix_error_integral")
        rungs = [e - s for n, s, e, _ in tracer.spans if n == "cli>wkb.appendix_error_integral"]
        if rungs:
            stages["wkb.appendix_median_rung_s"] = statistics.median(rungs)
        stages["wkb.langer_s"] = total("cli>wkb.langer_residual")
    return metrics, stages


def _per_call(fn, calls: int = 0, repeats: int = 5, batch_s: float = 0.02) -> float:
    """Median over ``repeats`` batches of the mean seconds per call.

    With ``calls`` 0 the batch size is chosen from one warm-up call so that
    a batch lasts about ``batch_s``.
    """
    if calls <= 0:
        start = time.perf_counter()
        fn()
        calls = max(1, int(batch_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def time_layers(cfg, out_dir, scratch, seed: int) -> dict:
    """Each layer's public function timed on its own, on the workload's inputs.

    ``cfg`` is the program's own resolved configuration for the workload,
    and the spectrum table is the one the traced pass cached in ``out_dir``.
    """
    import numpy as np

    from specprobe import eigensolve, kernel, potential, probe, specfun, wkb

    tables = [eigensolve.load_spectrum(p) for p in sorted(out_dir.glob("spectrum_*.json"))]
    table = next(t for t in tables if (t.channel.d, t.channel.n) == cfg.channels[0])
    ch, model, grid = table.channel, cfg.model, table.grid
    lams = table.eigenvalues
    rng = random.Random(seed)
    level = rng.randrange(cfg.l_max // 3, 2 * cfg.l_max // 3 + 1)
    lam = 0.5 * (lams[level] + lams[level + 1])
    probe_level = rng.randrange(*cfg.l_range)
    target = wkb.quantization_target(ch, level)

    phi = probe.make_bump(cfg.phi[0], cfg.phi[1], grid)
    psi = probe.make_bump(cfg.psi[0], cfg.psi[1], grid)
    window = probe.WindowSpec(cfg.sigma)
    tau = float(lams[probe_level])
    cap = min(cfg.kernel_levels, len(lams) - 1)
    snap = lambda values: [float(grid.r[int(np.argmin(np.abs(grid.r - v)))]) for v in values]
    rs, ss = snap(cfg.kernel_r), snap(cfg.kernel_s)
    radii = sorted(set(rs) | set(ss))
    xs = np.linspace(0.5, 40.0, 2000)
    zs = np.linspace(0.2, 30.0, 2000)

    timings = {
        "eigensolve.sweep_ms": (1e3, "ms", lambda: _per_call(
            lambda: eigensolve.shoot_mismatch(ch, model, lam, grid), calls=1)),
        "eigensolve.level_ms": (1e3, "ms", lambda: _per_call(
            lambda: eigensolve.solve_level(ch, model, level, grid=grid,
                                           rel_tol=cfg.rel_tol), calls=1, repeats=3)),
        "wkb.turning_points_us": (1e6, "us", lambda: _per_call(
            lambda: wkb.turning_points(potential.Channel(3, 0), model, lam))),
        "wkb.turning_points_gamma_us": (1e6, "us", lambda: _per_call(
            lambda: wkb.turning_points(potential.Channel(5, 2), model, lam))),
        "wkb.inverse_action_ms": (1e3, "ms", lambda: _per_call(
            lambda: wkb.inverse_action(model, target))),
        "wkb.action_integral_ms": (1e3, "ms", lambda: _per_call(
            lambda: wkb.action_integral(model, lam))),
        "wkb.appendix_rung_s": (1.0, "s", lambda: _per_call(
            lambda: wkb.appendix_error_integral(ch, model, cfg.appendix_base),
            calls=1, repeats=3)),
        "specfun.bessel_j_us": (1e6 / xs.size, "us", lambda: _per_call(
            lambda: specfun.bessel_j(ch.bessel_order, xs), calls=1)),
        "specfun.langer_profile_us": (1e6 / zs.size, "us", lambda: _per_call(
            lambda: specfun.langer_profile(zs), calls=1)),
        "potential.scalar_eval_us": (1e6, "us", lambda: _per_call(
            lambda: potential.effective_potential(ch, model, 1.3))),
        "probe.probe_G_ms": (1e3, "ms", lambda: _per_call(
            lambda: probe.probe_G(table, tau, math.sqrt(tau), math.sqrt(tau), window, phi, psi))),
        "probe.probe_sequence_s": (1.0, "s", lambda: _per_call(
            lambda: probe.probe_sequence(table, phi, psi, window, cfg.l_range),
            calls=1, repeats=3)),
        "kernel.export_s": (1.0, "s", lambda: _per_call(
            lambda: kernel.export_kernel_grid(table, list(cfg.kernel_t), rs, ss, cap,
                                              scratch / "kernel.csv"), calls=1, repeats=3)),
        "kernel.matrix_ms": (1e3, "ms", lambda: _per_call(
            lambda: kernel.kernel_matrix(table, 0.5, radii, cap))),
        "kernel.parseval_ms": (1e3, "ms", lambda: _per_call(
            lambda: kernel.parseval_check(table, cap))),
    }
    metrics = {
        "eigensolve.grid_points": (sum(t.grid.n_points for t in tables), "count"),
        "eigensolve.cache_bytes": (
            sum(p.stat().st_size for p in out_dir.glob("spectrum_*")), "bytes"),
    }
    for name, (scale, unit, measure) in timings.items():
        try:
            metrics[name] = (scale * measure(), unit)
        except (AttributeError, TypeError) as exc:  # a renamed or re-signed layer
            print(f"layer timing {name} absent: {exc}", flush=True)
    return metrics
