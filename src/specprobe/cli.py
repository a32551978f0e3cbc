"""Command line driver: configuration, run orchestration, and reports.

Subcommands cover the full pipeline: ``validate`` states the structural
assumptions in closed form, ``spectrum`` solves and caches eigenpairs,
``wkb``/``gaps`` extract semiclassical summaries and scaling fits,
``probe`` evaluates the windowed functional along the resonant sequence,
``kernel`` exports the truncated propagator, and ``report`` renders the
exponent certification table.  Exit codes: 0 success, 1 validation
failure, 2 numerical failure, 3 I/O failure.

Every run setting is one row of ``_KEYS``: its config-file key, flag,
default, help text, checked parser, and ``RunConfig`` field and its type.
The rows build ``RunConfig`` itself, the command line flags, the
accepted config-file keys, the checks of ``resolve_config`` and the
``config`` section of ``run.json``.  Values come from the defaults, then
an optional flat ``key = value`` file (``[section]`` headers optional
and ignored; an unknown key is an error), then the flags, in increasing
priority.  The default output directory can also be set via the
``SPECPROBE_OUT`` environment variable.  ``main`` reads ``run.json``
once, before a command does any work (a file that does not hold a JSON
object is an I/O failure), and is its one writer: a command returns its
results section, which ``main`` records under the command's name, and
``report`` returns none.  A command run under another model than the
one ``run.json`` records drops the old model's results.  Every file a
command writes replaces the old one whole (``formats.replace_files``).

numpy and the solver modules load only where a command first needs
numbers (``_load_solver``), and each command loads only the modules it
calls: ``eigensolve`` in ``_tables``, for a command that reads the
samples or solves a spectrum, and ``probe`` or ``kernel`` in its own
command.  ``--version``, ``--help``, an argument or config error,
``validate``, ``report`` and ``gaps`` on a cache hit import only the
standard library and the numpy-free ``defaults``, ``errors``,
``fitting``, ``formats`` and ``model``: the assumptions are read off the
model's exponents, and a cache is checked, and its eigenvalues fitted,
from its JSON record alone.  Every record is a ``typing.NamedTuple``, so
they load no ``inspect``, and ``configparser`` loads only to read a
``--config`` file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .defaults import (
    DEFAULT_POINTS_PER_WAVELENGTH,
    DEFAULT_REL_TOL,
    MIN_POINTS_PER_WAVELENGTH,
    MIN_REL_TOL,
)
from .errors import NumericsError
from .fitting import fit_power_law, gap_scaling
from .formats import SpectrumFormatError, read_spectrum_record, replace_files, write_csv
from .model import Channel, PotentialModel, validate_assumptions

# submodule -> the names the numeric commands read from it; each needs numpy.
# save_spectrum is no longer called here (a solve saves its own table); the
# name stays because specbench/tracing.py wraps cli.save_spectrum, and
# test_benchmark_tooling requires every wrapped name to resolve
_SOLVER = {
    "eigensolve": ("SpectrumTable", "export_spectrum_csv", "load_spectrum", "save_spectrum",
                   "solve_spectrum"),
    "kernel": ("export_kernel_grid", "kernel_matrix", "parseval_check"),
    "potential": ("effective_potential",),
    "probe": ("PROBE_CSV_HEADER", "WindowSpec", "make_bump", "probe_rows", "probe_sequence",
              "window_hat"),
    "wkb": ("amplitude_scaling", "appendix_error_integral", "export_wkb_csv",
            "langer_residual", "summarize"),
}


@functools.cache
def _load_solver(module: str) -> None:
    """Bind numpy and the ``_SOLVER`` names of ``module`` into this module, once.

    Parsing, config checks, ``validate``, ``report`` and a cache hit of
    ``gaps`` need none of them, so each command loads the modules it calls
    where it first needs them.  The names stay module attributes that the commands look up at
    call time, and they are never bound again, so a wrapper set on one of
    them from outside (a tracer) serves every later command.
    """
    global np
    import numpy as np

    source = importlib.import_module(f".{module}", __package__)
    globals().update({name: getattr(source, name) for name in _SOLVER[module]})


def __getattr__(name: str):
    # a solver name read off the module before any command has run; private
    # and dunder lookups never load numpy
    if not name.startswith("_"):
        for module in _SOLVER:
            _load_solver(module)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["RunConfig", "resolve_config", "main"]


# configparser.ConfigParser.BOOLEAN_STATES, copied so that only --config
# imports configparser
_BOOLEAN_STATES = {"1": True, "yes": True, "true": True, "on": True,
                   "0": False, "no": False, "false": False, "off": False}


def _parse_bool(text: str) -> bool:
    state = _BOOLEAN_STATES.get(text.strip().lower())
    if state is None:
        raise ValueError(f"cannot parse boolean value {text!r}")
    return state


def _parse_model(text: str, allow_harmonic: bool) -> PotentialModel:
    # super-quadratic growth is a property of V at infinity, so the largest
    # exponent decides: only r^2 alone is the quadratic reference
    model = PotentialModel.from_spec(text)
    if model.growth_index <= 1.0 and not allow_harmonic:
        raise ValueError(
            f"c>1 violated: model {text!r} is not super-quadratic "
            "(pass --allow-harmonic for the reference check)"
        )
    return model


def _number(kind: type, least: float, above: bool = False) -> Callable[[str], float]:
    """Parser of a finite ``kind`` that is at least ``least`` (above it, if ``above``)."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > least if above else value >= least)):
            raise ValueError(f"must be finite and {'above' if above else 'at least'} {least:g}")
        return value

    return parse


def _pair(kind: type, shape: str) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"must look like {shape}, got {text!r}")
        return kind(parts[0]), kind(parts[1])

    return parse


def _bump(text: str) -> tuple[float, float]:
    center, halfwidth = _pair(float, "center:halfwidth")(text)
    if not (math.isfinite(center) and math.isfinite(halfwidth) and halfwidth > 0.0):
        raise ValueError(f"{text!r} needs a finite center and a finite half-width above 0")
    if not center - halfwidth > 0.0:
        raise ValueError(f"{text!r}: the support must stay above r = 0 (center > halfwidth)")
    return center, halfwidth


def _level_range(text: str) -> tuple[int, int]:
    lo, hi = _pair(int, "lo:hi")(text)
    if not (0 <= lo < hi):
        raise ValueError(f"{(lo, hi)} must satisfy 0 <= lo < hi")
    return lo, hi


# the most values one start:stop:step range may expand to; it keeps the
# parse itself cheap and does not bound kernel.csv, whose rows are the
# product of the --t, --r and --s lists
MAX_RANGE_VALUES = 10_000


def _grid_values(positive: bool) -> Callable[[str], tuple[float, ...]]:
    """Parser of ``a:b:step`` (inclusive of b up to rounding, at most
    ``MAX_RANGE_VALUES`` values) or ``v1,v2,...``, every value finite, and
    above 0 if ``positive``."""

    def parse(text: str) -> tuple[float, ...]:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"must look like start:stop:step, got {text!r}")
            a, b, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (a, b, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0.0 or b < a:
                raise ValueError("need stop >= start and step > 0")
            span = (b - a) / step + 1e-9  # inf where b - a overflows
            count = math.floor(span) + 1 if span < math.inf else span
            if count > MAX_RANGE_VALUES:
                raise ValueError(f"{text!r} holds {count} values, more than {MAX_RANGE_VALUES}")
            values = tuple(a + i * step for i in range(count))
        else:
            values = tuple(float(p) for p in text.split(","))
        bad = [v for v in values if not (math.isfinite(v) and (v > 0.0 or not positive))]
        if bad:
            raise ValueError(f"{bad[0]!r} is not {'positive and ' if positive else ''}finite")
        return values

    return parse


def _channel_list(text: str) -> tuple[tuple[int, int], ...]:
    """``d:n,d:n,...``, one channel at least, each valid, repeats dropped."""
    pairs = [_pair(int, "d:n")(part) for part in text.split(",")]
    for pair in pairs:
        Channel(*pair)
    return tuple(dict.fromkeys(pairs))


class _Key(NamedTuple):
    """One run setting, declared once."""

    key: str  # config-file key
    flag: str  # command line flag
    default: str  # as config-file text
    parse: Callable[[str], object]  # text -> checked value
    kind: object  # the type of its RunConfig field
    help: str | None = None
    field: str = ""  # RunConfig field and run.json name: the key's own unless given
    solver: bool = False  # passed to solve_spectrum and matched against a cache
    switch: bool = False  # the flag takes no value and means "true"


# in the order of the flags in --help and of the RunConfig fields; a row
# given no field takes its key
_KEYS = tuple(row._replace(field=row.field or row.key) for row in (
    _Key("model", "--model", "1*r^4", str, PotentialModel, 'potential, e.g. "1*r^4+0.5*r^6"'),
    _Key("channels", "--channels", "3:0", _channel_list, tuple[tuple[int, int], ...],
         "comma list of d:n pairs, e.g. 3:0,3:1"),
    _Key("lmax", "--lmax", "60", _number(int, 0), int, "highest level to solve", field="l_max"),
    _Key("rel_tol", "--rel-tol", repr(DEFAULT_REL_TOL), _number(float, MIN_REL_TOL), float,
         solver=True),
    _Key("points_per_wavelength", "--ppw", repr(DEFAULT_POINTS_PER_WAVELENGTH),
         _number(float, MIN_POINTS_PER_WAVELENGTH), float, "grid points per wavelength",
         solver=True),
    _Key("sigma", "--sigma", "1.0", _number(float, 0.0, above=True), float,
         "spectral window scale"),
    _Key("phi", "--phi", "1.0:0.2", _bump, tuple[float, float],
         "first bump as center:halfwidth"),
    _Key("psi", "--psi", "1.5:0.2", _bump, tuple[float, float],
         "second bump as center:halfwidth"),
    _Key("lrange", "--lrange", "20:50", _level_range, tuple[int, int],
         "probe and fit window as lo:hi levels", field="l_range"),
    _Key("fit_top", "--fit-top", "30", _number(int, 6), int, "gaps used in the gap fit"),
    _Key("appendix_base", "--appendix-base", "400", _number(float, 0.0, above=True), float),
    # five rungs at least, to fit a slope
    _Key("appendix_doublings", "--appendix-doublings", "6", _number(int, 5), int),
    _Key("kernel_t", "--t", "0:1:0.25", _grid_values(positive=False), tuple[float, ...],
         "kernel times, start:stop:step or comma list"),
    _Key("kernel_r", "--r", "0.6:1.4:0.2", _grid_values(positive=True), tuple[float, ...],
         "kernel radii, start:stop:step or comma list"),
    _Key("kernel_s", "--s", "0.6:1.4:0.2", _grid_values(positive=True), tuple[float, ...],
         "kernel radii, start:stop:step or comma list"),
    _Key("kernel_levels", "--levels", "20", _number(int, 0), int, "kernel truncation level"),
    _Key("out", "--out", "", lambda text: Path(
        text or os.environ.get("SPECPROBE_OUT") or "specprobe-out"), Path,
        "output directory (or SPECPROBE_OUT)", field="out_dir"),
    _Key("allow_harmonic", "--allow-harmonic", "false", _parse_bool, bool,
         "permit the quadratic reference model", switch=True),
))

RunConfig = NamedTuple("RunConfig", [(row.field, row.kind) for row in _KEYS])
RunConfig.__doc__ = ("Fully resolved run parameters, one field per ``_KEYS`` row; "
                     "validated before any computation.")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    text = {row.key: row.default for row in _KEYS}
    config_path = getattr(args, "config", None)
    if config_path:
        text.update(_read_config_file(config_path))
    for row in _KEYS:
        flag = getattr(args, row.flag.lstrip("-").replace("-", "_"), None)
        if flag is not None:
            text[row.key] = flag
    got = {}
    for row in _KEYS:
        try:
            got[row.key] = row.parse(text[row.key])
        except ValueError as exc:
            raise ValueError(f"{row.key}: {exc}") from None
    got["model"] = _parse_model(got["model"], got["allow_harmonic"])
    got["out"].mkdir(parents=True, exist_ok=True)
    return RunConfig(**{row.field: got[row.key] for row in _KEYS})


def _read_config_file(path) -> dict[str, str]:
    """The settings in the file at ``path``; ``ValueError`` for a malformed
    file or an unknown key, ``OSError`` for an unreadable one."""
    import configparser  # only --config reads a file

    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        try:
            parser.read_string(text)
        except configparser.MissingSectionHeaderError:
            parser.read_string("[run]\n" + text)
        out = {key: value for section in parser.sections()
               for key, value in parser.items(section)}
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    unknown = sorted(set(out) - {row.key for row in _KEYS})
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    return out


def _config_dict(cfg: RunConfig) -> dict:
    # json writes the tuples as lists
    doc = {row.field: getattr(cfg, row.field) for row in _KEYS}
    doc.update(
        model=cfg.model.spec_string,
        growth_index=cfg.model.growth_index,
        out=str(doc.pop("out_dir")),
    )
    return doc


def _meta_dict(found: dict) -> dict:
    """Versions for run.json's ``meta``: numpy's where it is loaded, else
    the one in ``found``, the meta read from run.json, if any."""
    meta = {
        "package": "specprobe",
        "version": __version__,
        "python": sys.version.split()[0],  # platform.python_version(), without its import
    }
    numpy = globals().get("np")
    if numpy is not None:
        meta["numpy"] = numpy.__version__
    elif "numpy" in found:
        meta["numpy"] = found["numpy"]
    return meta


def _read_run_json(cfg: RunConfig) -> dict:
    """run.json in the output directory, empty where there is none;
    ``OSError`` naming the file where it is not a JSON object whose
    ``config``, ``meta`` and ``results`` are objects."""
    path = cfg.out_dir / "run.json"
    if not path.exists():
        return {}
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise OSError(f"{path}: not JSON ({exc})") from None
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(key, {}), dict) for key in ("config", "meta", "results"))):
        raise OSError(f"{path}: not a JSON object of config, meta and results objects")
    return doc


def _update_run_json(cfg: RunConfig, doc: dict, section: str, payload: dict) -> None:
    """Write ``doc``, read by ``_read_run_json``, back with this run's
    config and meta and ``payload`` as results' ``section``.  The results
    recorded under another model are dropped, so that ``report`` never
    judges them against this model's theory."""
    path = cfg.out_dir / "run.json"
    if doc.get("config", {}).get("model") != cfg.model.spec_string:
        doc["results"] = {}
    doc["config"] = _config_dict(cfg)
    doc["meta"] = _meta_dict(doc.get("meta", {}))
    doc.setdefault("results", {})[section] = payload
    replace_files({path: json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=True) + "\n"})


def _channel_key(d: int, n: int) -> str:
    return f"d{d}_n{n}"


def _cache_path(cfg: RunConfig, d: int, n: int) -> Path:
    return cfg.out_dir / f"spectrum_{_channel_key(d, n)}.json"


def _cached(cfg: RunConfig, path: Path, channel: Channel, solver: dict, samples: bool):
    """The cached spectrum at ``path`` if it serves ``cfg``, else None, and
    why not.  With ``samples`` the table is loaded once, its ``.npy``
    opened and its header and size checked against the record, and judged
    by its record, so samples that are missing or do not fit the record
    read ``unreadable`` before any other reason; without, the JSON record
    alone is read and a hit is the record."""
    if not path.exists():
        return None, "missing"
    try:
        if samples:
            table = load_spectrum(path)
            record = table.record
        else:
            table = record = read_spectrum_record(path)
    except SpectrumFormatError:
        return None, "format"
    except (ValueError, KeyError, TypeError, OSError, EOFError):
        return None, "unreadable"
    if record.model.spec_string != cfg.model.spec_string:
        return None, "model"
    if record.channel != channel:
        return None, "channel"
    # equal, not a superset: a record that lists one more solver setting
    # was solved under it, perhaps on another grid
    if record.tolerances != solver:
        return None, "tolerances"
    if len(record.eigenvalues) < cfg.l_max + 1:
        return None, "too short"
    return table.truncated(cfg.l_max + 1), "hit"


def _tables(cfg: RunConfig, samples: bool = True) -> tuple[dict, dict]:
    """Every channel's ``SpectrumTable``, reused from its cache when that
    matches the config, else solved and cached; and per channel, whether
    the cache hit or why it missed (also one line on stderr) and, on a
    miss, the wall seconds of the solve and its save.  Without ``samples``
    each entry is the table's ``SpectrumRecord`` instead, hit or miss: its
    eigenvalues, counters and corrections; numpy then loads only for a
    solve."""
    if samples:
        _load_solver("eigensolve")
    solver = {row.key: getattr(cfg, row.field) for row in _KEYS if row.solver}
    tables, cache = {}, {}
    for d, n in cfg.channels:
        path = _cache_path(cfg, d, n)
        table, why = _cached(cfg, path, Channel(d, n), solver, samples)
        entry = {"hit": True}
        if table is None:
            _load_solver("eigensolve")
            start = time.perf_counter()
            # saved to the cache as it is solved, one row at a time
            table = solve_spectrum(Channel(d, n), cfg.model, cfg.l_max, path=path, **solver)
            entry = {"hit": False, "reason": why, "solve_s": time.perf_counter() - start}
            if not samples:
                table = table.record
        tables[(d, n)] = table
        cache[_channel_key(d, n)] = entry
    print("cache: " + ", ".join(
        f"{key} " + ("hit" if entry["hit"] else f"miss ({entry['reason']})")
        for key, entry in cache.items()), file=sys.stderr)
    return tables, cache


def cmd_validate(cfg: RunConfig, doc: dict) -> dict:
    # a model that breaks an assumption exits 1 when it is parsed; the
    # rest hold on all of r > 0, and these are their closed forms
    report = validate_assumptions(cfg.model)
    print(f"model {cfg.model.spec_string} (growth index c = deg(V)/2 = {report.c:g})")
    print(f"V, V', V'' > 0 on r > 0; r V'/(2V) runs from {report.min_term_c:g} "
          f"(r -> 0) to {report.c:g} (r -> inf)")
    bounds = ", ".join(f"{x:g}" for x in report.ratio_bounds)
    print(f"derivative ratios r V^(j)/V^(j-1) <= 2c - j + 1, j = 1, 2, 3: {bounds}")
    if report.superquadratic:
        print("super-quadratic c > 1: yes")
    else:
        print("super-quadratic c > 1: no (harmonic reference allowed)")
    for d, n in cfg.channels:
        ch = Channel(d, n)
        print(f"channel d={d} n={n}: gamma={ch.gamma:g}, bessel order={ch.bessel_order:g}")
    print("validation passed")
    return {
        "passed": True,
        "min_term_c": report.min_term_c,
        "c": report.c,
        "ratio_bounds": list(report.ratio_bounds),
        "superquadratic": report.superquadratic,
    }


def cmd_spectrum(cfg: RunConfig, doc: dict) -> dict:
    tables, cache = _tables(cfg)
    path = export_spectrum_csv(list(tables.values()), cfg.out_dir / "spectrum.csv")
    payload = {"channels": {}, "rows": 0, "cache": cache}
    for (d, n), table in tables.items():
        lams = table.eigenvalues
        entry = {
            "levels": len(lams),
            "lambda_min": float(lams[0]),
            "lambda_max": float(lams[-1]),
            "grid_points": table.grid.n_points,
            # the largest dispersion correction, relative to its eigenvalue
            "shift_rel_max": float(np.max(np.abs(table.record.shifts) / lams)),
        }
        for stat in ("sweeps", "bisections"):
            counts = getattr(table.record, stat)
            entry[f"{stat}_max"] = max(counts)
            entry[f"{stat}_mean"] = sum(counts) / len(counts)
        payload["channels"][_channel_key(d, n)] = entry
        payload["rows"] += len(lams)
    print(f"wrote {path} ({payload['rows']} rows)")
    return payload


class _Certificate(NamedTuple):
    """One exponent certificate, declared once."""

    name: str  # report row
    exponent: Callable[[float], float]  # theoretical exponent in c
    tol: float
    mode: str  # "two-sided", or "lower": only falling short of the theory fails
    fits: str  # where run.json's results hold its fits; "*" is each channel


# in the order of the report's rows
_CERTIFICATES = {
    "gaps": _Certificate("eigenvalue gap growth", lambda c: (c - 1.0) / (2.0 * c),
                         0.03, "two-sided", "gaps/channels/*/exponent"),
    "amplitude": _Certificate("boundary amplitude growth", lambda c: (c - 1.0) / (4.0 * c),
                              0.03, "lower", "wkb/channels/*/amplitude/exponent"),
    "probe": _Certificate("probe magnitude decay", lambda c: -1.0 / (2.0 * c),
                          0.05, "two-sided", "probe/channels/*/exponent"),
    "appendix": _Certificate("error control integral decay", lambda c: -(c + 1.0) / (2.0 * c),
                             0.10, "two-sided", "wkb/appendix/exponent"),
}


def cmd_gaps(cfg: RunConfig, doc: dict) -> dict:
    if cfg.l_max < 5:
        raise ValueError(f"gaps needs lmax >= 5, six levels to fit, got {cfg.l_max}")
    tables, cache = _tables(cfg, samples=False)
    theory = _CERTIFICATES["gaps"].exponent(cfg.model.growth_index)
    channels_payload = {}
    for (d, n), table in tables.items():
        n_gaps = len(table.eigenvalues) - 1
        top = min(cfg.fit_top, n_gaps)
        fit = gap_scaling(table.eigenvalues, window=(n_gaps - top, n_gaps))
        channels_payload[_channel_key(d, n)] = {
            "exponent": fit.exponent,
            "r_squared": fit.r_squared,
            "gaps_used": top,
            "theoretical": theory,
        }
        print(f"d={d} n={n}: gap exponent {fit.exponent:.4f} (theory {theory:.4f})")
    return {"channels": channels_payload, "fit_top": cfg.fit_top, "cache": cache}


def _amplitude_payload(cfg: RunConfig, summaries: list) -> dict:
    fit, levels = amplitude_scaling(summaries, cfg.l_range)
    return {
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
        "theoretical": _CERTIFICATES["amplitude"].exponent(cfg.model.growth_index),
        "levels": list(levels),
    }


def _appendix_payload(cfg: RunConfig, ch: Channel) -> dict:
    points = []
    lam = cfg.appendix_base
    for _ in range(cfg.appendix_doublings):
        points.append((lam, appendix_error_integral(ch, cfg.model, lam)))
        lam *= 2.0
    fit = fit_power_law(points)
    # the log-log slope between consecutive rungs shows whether the ladder
    # is still pre-asymptotic where the fit reads off the exponent
    local_slopes = [
        math.log(y1 / y0) / math.log(x1 / x0)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    ]
    return {
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
        "theoretical": _CERTIFICATES["appendix"].exponent(cfg.model.growth_index),
        "lams": [p[0] for p in points],
        "totals": [p[1] for p in points],
        "local_slopes": local_slopes,
    }


def _langer_payload(cfg: RunConfig, table: SpectrumTable, ch: Channel) -> dict:
    lams = table.eigenvalues.tolist()
    start = min(4, len(lams) - 1)
    target = lams[start]
    levels: list[int] = []
    points: list[tuple[float, float]] = []
    while target <= lams[-1] * (1.0 + 1e-12):
        idx = min(range(len(lams)), key=lambda i: abs(lams[i] - target))
        if not levels or idx != levels[-1]:
            result = langer_residual(table.pair(idx), ch, cfg.model, table.grid)
            levels.append(idx)
            points.append((lams[idx], result.residual))
        target *= 2.0
    decreasing = all(b[1] < a[1] for a, b in zip(points, points[1:]))
    payload = {
        "levels": levels,
        "lams": [p[0] for p in points],
        "residuals": [p[1] for p in points],
        "decreasing": decreasing,
    }
    if len(points) >= 5:
        fit = fit_power_law(points)
        payload["exponent"] = fit.exponent
        payload["r_squared"] = fit.r_squared
    else:
        payload["exponent"] = None
        payload["note"] = "too few ladder points for a fit; raise lmax"
    return payload


def _check_appendix_base(cfg: RunConfig) -> None:
    """Reject a ladder whose base does not exceed ``U(1/2)`` on the first
    channel before anything is solved."""
    _load_solver("potential")
    d, n = cfg.channels[0]
    u_half = effective_potential(Channel(d, n), cfg.model, 0.5)
    if not cfg.appendix_base > u_half:
        raise ValueError(
            f"appendix_base: {cfg.appendix_base:g} does not exceed U(1/2) = {u_half!r} on "
            f"channel {d}:{n}; the least admissible base is {math.nextafter(u_half, math.inf)!r}"
        )


def cmd_wkb(cfg: RunConfig, doc: dict) -> dict:
    if cfg.l_max < 4:
        raise ValueError(f"wkb needs lmax >= 4, five levels to fit, got {cfg.l_max}")
    _check_appendix_base(cfg)
    tables, cache = _tables(cfg)
    _load_solver("wkb")
    summaries = []
    channels_payload = {}
    for (d, n), table in tables.items():
        rows = summarize(table, Channel(d, n), cfg.model)
        summaries.extend(rows)
        channels_payload[_channel_key(d, n)] = {"amplitude": _amplitude_payload(cfg, rows)}
    path = export_wkb_csv(summaries, cfg.out_dir / "wkb.csv")
    first = cfg.channels[0]
    payload = {
        "channels": channels_payload,
        "appendix": _appendix_payload(cfg, Channel(*first)),
        "langer": _langer_payload(cfg, tables[first], Channel(*first)),
        "cache": cache,
    }
    amp = channels_payload[_channel_key(*first)]["amplitude"]
    print(f"wrote {path}")
    print(
        f"amplitude exponent {amp['exponent']:.4f} (theory {amp['theoretical']:.4f}); "
        f"appendix exponent {payload['appendix']['exponent']:.4f} "
        f"(theory {payload['appendix']['theoretical']:.4f})"
    )
    return payload


def cmd_probe(cfg: RunConfig, doc: dict) -> dict:
    # checked before the solve: probe_G needs the window weight at the
    # table's top level below 1e-14, and at tau = lam_lmax it is khat(0) = 1
    lo, hi = cfg.l_range
    if not hi < cfg.l_max:
        raise ValueError(f"lrange {cfg.l_range} needs lmax > {hi}, got {cfg.l_max}")
    if hi - lo + 1 < 10:
        raise ValueError(f"lrange {cfg.l_range} holds {hi - lo + 1} levels; the fit needs ten")
    tables, cache = _tables(cfg)
    _load_solver("probe")
    # and before any probe: the one at tau = lam_hi weighs the top level most
    mu, (d, n) = min((float(t.eigenvalues[-1] - t.eigenvalues[hi]), key)
                     for key, t in tables.items())
    weight = window_hat(WindowSpec(cfg.sigma), mu)
    if not weight < 1e-14:
        least = math.sqrt(math.log(1e14)) / mu
        while not window_hat(WindowSpec(least), mu) < 1e-14:
            least = math.nextafter(least, math.inf)
        raise ValueError(
            f"sigma: {cfg.sigma:g} leaves a window weight of {weight:.3e} at level {cfg.l_max} "
            f"from the probe at level {hi} on channel {d}:{n}, where the probe needs below "
            f"1e-14; the least sigma that works is {least!r}"
        )
    theory = _CERTIFICATES["probe"].exponent(cfg.model.growth_index)
    rows = []
    channels_payload = {}
    for (d, n), table in sorted(tables.items()):  # the rows in (d, n, l) order
        phi = make_bump(cfg.phi[0], cfg.phi[1], table.grid)
        psi = make_bump(cfg.psi[0], cfg.psi[1], table.grid)
        seq = probe_sequence(table, phi, psi, WindowSpec(cfg.sigma), cfg.l_range)
        rows.extend(probe_rows(table, seq))
        channels_payload[_channel_key(d, n)] = {
            "exponent": seq.fit.exponent,
            "r_squared": seq.fit.r_squared,
            "lower_bound_const": seq.lower_bound_const,
            "theoretical": theory,
        }
        print(
            f"d={d} n={n}: probe exponent {seq.fit.exponent:.4f} "
            f"(theory {theory:.4f}), lower bound const "
            f"{seq.lower_bound_const:.6g}"
        )
    path = write_csv(cfg.out_dir / "probe.csv", PROBE_CSV_HEADER, rows)
    print(f"wrote {path}")
    return {
        "channels": channels_payload,
        "l_range": list(cfg.l_range),
        "sigma": cfg.sigma,
        "phi": list(cfg.phi),
        "psi": list(cfg.psi),
        "cache": cache,
    }


def _snap_to_grid(grid, values: tuple[float, ...]) -> list[float]:
    """Each radius moved to its nearest grid node; a radius more than half
    a step beyond either end of the grid is an error."""
    snapped = []
    for v in values:
        if not grid.r_min - grid.h / 2.0 <= v <= grid.r_max + grid.h / 2.0:
            raise ValueError(
                f"kernel radius {v:g} lies off the grid [{grid.r_min!r}, {grid.r_max!r}]"
            )
        idx = int(np.argmin(np.abs(grid.r - v)))
        snapped.append(float(grid.r[idx]))
    return snapped


def cmd_kernel(cfg: RunConfig, doc: dict) -> dict:
    tables, cache = _tables(cfg)
    _load_solver("kernel")
    table = tables[cfg.channels[0]]
    cap = min(cfg.kernel_levels, len(table.eigenvalues) - 1)
    rs = _snap_to_grid(table.grid, cfg.kernel_r)
    ss = _snap_to_grid(table.grid, cfg.kernel_s)
    path = export_kernel_grid(table, list(cfg.kernel_t), rs, ss, cap, cfg.out_dir / "kernel.csv")

    radii = sorted(set(rs) | set(ss))
    herm = 0.0
    for t in cfg.kernel_t:
        if t == 0.0:
            continue
        forward = kernel_matrix(table, t, radii, cap)
        backward = kernel_matrix(table, -t, radii, cap)
        scale = float(np.abs(forward).max())
        deviation = float(np.abs(backward - forward.conj()).max()) / scale
        if not math.isfinite(deviation):
            raise NumericsError(f"kernel at t = {t:g}: hermitian deviation is {deviation}")
        herm = max(herm, deviation)
    m0 = kernel_matrix(table, 0.0, radii, cap).real
    eigs = np.linalg.eigvalsh(m0)
    payload = {
        "level_cap": cap,
        "parseval": parseval_check(table, cap),
        "parseval_expected": cap + 1,
        "hermitian_deviation": herm,
        "t0_min_eigenvalue": float(eigs.min()),
        "t0_max_eigenvalue": float(eigs.max()),
        "snapped_r": rs,
        "snapped_s": ss,
        "cache": cache,
    }
    print(f"wrote {path}")
    print(
        f"parseval {payload['parseval']:.9f} (expect {cap + 1}); "
        f"hermitian deviation {herm:.3e}; "
        f"t=0 min eigenvalue {payload['t0_min_eigenvalue']:.3e}"
    )
    return payload


def _fitted(results: dict, path: list[str]) -> dict:
    """Fits at ``path`` in run.json's results: by channel where it holds
    ``"*"``, else the one ``ladder`` fit; empty when its stage did not run."""
    for i, step in enumerate(path):
        if step == "*":
            rest = path[i + 1 :]
            return {key: _fitted(val, rest)["ladder"] for key, val in sorted(results.items())}
        if step not in results:
            return {}
        results = results[step]
    return {"ladder": results}


def _row_status(theory: float, fitted: dict, tol: float, mode: str) -> str:
    if not fitted:
        return "not run"
    for value in fitted.values():
        if value is None:
            return "not run"
        if mode == "lower":
            if value < theory - tol:
                return "fail"
        elif abs(value - theory) > tol:
            return "fail"
    return "pass"


def cmd_report(cfg: RunConfig, doc: dict) -> None:
    stored_cfg = doc.get("config", _config_dict(cfg))
    meta = doc["meta"] if "meta" in doc else _meta_dict({})
    results = doc.get("results", {})
    c = float(stored_cfg.get("growth_index", cfg.model.growth_index))

    lines = [
        "# specprobe report",
        "",
        f"Model `{stored_cfg.get('model', cfg.model.spec_string)}` "
        f"with growth index c = {c:g}.",
        "",
        "## Exponent certification",
        "",
        "| quantity | theoretical exponent | fitted exponent | tolerance | pass/fail |",
        "| --- | --- | --- | --- | --- |",
    ]
    for cert in _CERTIFICATES.values():
        theory, fitted = cert.exponent(c), _fitted(results, cert.fits.split("/"))
        status = _row_status(theory, fitted, cert.tol, cert.mode)
        if fitted and all(v is not None for v in fitted.values()):
            shown = "; ".join(f"{key}: {value:.4f}" for key, value in fitted.items())
        else:
            shown = "not run"
        lines.append(f"| {cert.name} | {theory:.4f} | {shown} | {cert.tol:.2f} | {status} |")

    lines += ["", "## Artifacts", ""]
    for artifact in ("spectrum.csv", "wkb.csv", "probe.csv", "kernel.csv", "run.json"):
        present = (cfg.out_dir / artifact).exists()
        lines.append(f"- {artifact}: {'present' if present else 'not run'}")

    lines += ["", "## Configuration", "", "```"]
    for key in sorted(stored_cfg):
        lines.append(f"{key} = {json.dumps(stored_cfg[key])}")
    lines += ["```", "", "## Versions", ""]
    for key in sorted(meta):
        lines.append(f"- {key}: {meta[key]}")

    path = cfg.out_dir / "report.md"
    replace_files({path: "\n".join(lines) + "\n"})
    print(f"wrote {path}")


# subcommand -> (function, help), in the order of --help; a function takes
# the config and run.json as read, and returns its results section, if any
_COMMANDS = {
    "validate": (cmd_validate, "check the structural assumptions on the potential"),
    "spectrum": (cmd_spectrum, "solve and cache the discrete spectrum, write spectrum.csv"),
    "wkb": (cmd_wkb, "semiclassical summaries and scaling fits, write wkb.csv"),
    "gaps": (cmd_gaps, "fit eigenvalue gap growth"),
    "probe": (cmd_probe, "resonant probe functional along the spectrum, write probe.csv"),
    "kernel": (cmd_kernel, "truncated propagator kernel on a grid, write kernel.csv"),
    "report": (cmd_report, "render report.md from recorded artifacts"),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures: exit code 1, not 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    for row in _KEYS:
        if row.switch:
            common.add_argument(row.flag, action="store_const", const="true", help=row.help)
        else:
            common.add_argument(row.flag, help=row.help)

    parser = _Parser(
        prog="specprobe",
        description="Discrete spectra and semiclassical certificates for "
        "half-line operators with super-quadratic confinement.",
    )
    parser.add_argument("--version", action="version", version=f"specprobe {__version__}")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)
    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text, description=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd is None:
            parser.print_help()
            return 1
        cfg = resolve_config(args)
        doc = _read_run_json(cfg)
        section = _COMMANDS[args.cmd][0](cfg, doc)
        if section is not None:
            _update_run_json(cfg, doc, args.cmd, section)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
