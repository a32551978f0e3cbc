"""Command line driver: configuration, run orchestration, and reports.

Subcommands cover the full pipeline: ``validate`` checks the structural
assumptions, ``spectrum`` solves and caches eigenpairs, ``wkb``/``gaps``
extract semiclassical summaries and scaling fits, ``probe`` evaluates the
windowed functional along the resonant sequence, ``kernel`` exports the
truncated propagator, and ``report`` renders the exponent certification
table.  Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 I/O failure.

Configuration comes from built-in defaults, then an optional flat
``key = value`` file with ``[section]`` headers, then command line flags,
in increasing priority.  The default output directory can also be set via
the ``SPECPROBE_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .eigensolve import (
    DEFAULT_DECAY_MARGIN,
    DEFAULT_POINTS_PER_WAVELENGTH,
    DEFAULT_REL_TOL,
    MIN_DECAY_MARGIN,
    MIN_POINTS_PER_WAVELENGTH,
    MIN_REL_TOL,
    SpectrumTable,
    export_spectrum_csv,
    load_spectrum,
    save_spectrum,
    solve_spectrum,
)
from .errors import NumericsError
from .formats import write_csv
from .kernel import export_kernel_grid, kernel_matrix, parseval_check
from .potential import Channel, PotentialModel, effective_potential, validate_assumptions
from .probe import PROBE_CSV_HEADER, WindowSpec, make_bump, probe_rows, probe_sequence
from .specfun import fit_power_law
from .wkb import (
    amplitude_scaling,
    appendix_error_integral,
    export_wkb_csv,
    gap_scaling,
    langer_residual,
    summarize,
)

__all__ = ["RunConfig", "resolve_config", "main"]

_DEFAULTS: dict[str, str] = {
    "model": "1*r^4",
    "threshold_radius": "1.0",
    "allow_harmonic": "false",
    "channels": "",
    "d": "3",
    "n": "0",
    "lmax": "60",
    "rel_tol": repr(DEFAULT_REL_TOL),
    "points_per_wavelength": repr(DEFAULT_POINTS_PER_WAVELENGTH),
    "decay_margin": repr(DEFAULT_DECAY_MARGIN),
    "sigma": "1.0",
    "phi": "1.0:0.2",
    "psi": "1.5:0.2",
    "lrange": "20:50",
    "fit_top": "30",
    "appendix_base": "400",
    "appendix_doublings": "6",
    "kernel_t": "0:1:0.25",
    "kernel_r": "0.6:1.4:0.2",
    "kernel_s": "0.6:1.4:0.2",
    "kernel_levels": "20",
    "out": "",
}

# argparse destination -> config key
_FLAG_KEYS = {
    "model": "model",
    "threshold_radius": "threshold_radius",
    "channels": "channels",
    "d": "d",
    "n": "n",
    "lmax": "lmax",
    "rel_tol": "rel_tol",
    "ppw": "points_per_wavelength",
    "decay_margin": "decay_margin",
    "sigma": "sigma",
    "phi": "phi",
    "psi": "psi",
    "lrange": "lrange",
    "fit_top": "fit_top",
    "appendix_base": "appendix_base",
    "appendix_doublings": "appendix_doublings",
    "t": "kernel_t",
    "r": "kernel_r",
    "s": "kernel_s",
    "levels": "kernel_levels",
    "out": "out",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; validated before any computation."""

    model: PotentialModel
    channels: tuple[tuple[int, int], ...]
    l_max: int
    rel_tol: float
    points_per_wavelength: float
    decay_margin: float
    sigma: float
    phi: tuple[float, float]
    psi: tuple[float, float]
    l_range: tuple[int, int]
    fit_top: int
    appendix_base: float
    appendix_doublings: int
    kernel_t: tuple[float, ...]
    kernel_r: tuple[float, ...]
    kernel_s: tuple[float, ...]
    kernel_levels: int
    out_dir: Path
    allow_harmonic: bool


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean value {text!r}")


def _parse_model(text: str, threshold_radius: float, allow_harmonic: bool) -> PotentialModel:
    try:
        return PotentialModel.from_spec(text, threshold_radius=threshold_radius)
    except ValueError as exc:
        if "requires harmonic" not in str(exc):
            raise
    if not allow_harmonic:
        raise ValueError(
            f"c>1 violated: model {text!r} is not super-quadratic "
            "(pass --allow-harmonic for the reference check)"
        )
    return PotentialModel.from_spec(
        text, threshold_radius=threshold_radius, harmonic=True
    )


def _parse_float_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must look like center:halfwidth, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_int_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{name} must look like lo:hi, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_grid_values(text: str, name: str) -> tuple[float, ...]:
    """Either ``a:b:step`` (inclusive of b up to rounding) or ``v1,v2,...``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name} must look like start:stop:step, got {text!r}")
        a, b, step = (float(p) for p in parts)
        if step <= 0.0 or b < a:
            raise ValueError(f"{name}: need stop >= start and step > 0")
        count = int(math.floor((b - a) / step + 1e-9)) + 1
        return tuple(a + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_channels(values: dict[str, str]) -> tuple[tuple[int, int], ...]:
    raw = values.get("channels", "").strip()
    pairs = []
    if raw:
        for part in raw.split(","):
            bits = part.split(":")
            if len(bits) != 2:
                raise ValueError(f"channel must look like d:n, got {part!r}")
            pairs.append((int(bits[0]), int(bits[1])))
    else:
        d = int(values["d"])
        pairs = [(d, int(n)) for n in values["n"].split(",")]
    seen = []
    for pair in pairs:
        Channel(*pair)
        if pair not in seen:
            seen.append(pair)
    if not seen:
        raise ValueError("need at least one channel")
    return tuple(seen)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        values.update(_read_config_file(config_path))
    for attr, key in _FLAG_KEYS.items():
        flag = getattr(args, attr, None)
        if flag is not None:
            values[key] = str(flag)
    if getattr(args, "allow_harmonic", None):
        values["allow_harmonic"] = "true"

    allow_harmonic = _parse_bool(values["allow_harmonic"])
    model = _parse_model(
        values["model"], float(values["threshold_radius"]), allow_harmonic
    )
    channels = _parse_channels(values)
    l_max = int(values["lmax"])
    if l_max < 0:
        raise ValueError("lmax must be non-negative")
    l_range = _parse_int_pair(values["lrange"], "lrange")
    if not (0 <= l_range[0] < l_range[1]):
        raise ValueError(f"lrange {l_range} must satisfy 0 <= lo < hi")
    fit_top = int(values["fit_top"])
    if fit_top < 6:
        raise ValueError("fit_top must be at least 6")
    sigma = float(values["sigma"])
    phi = _parse_float_pair(values["phi"], "phi")
    psi = _parse_float_pair(values["psi"], "psi")
    appendix_doublings = int(values["appendix_doublings"])
    if appendix_doublings < 5:
        raise ValueError("appendix_doublings must be at least 5 to fit a slope")
    appendix_base = float(values["appendix_base"])
    if appendix_base <= 0.0:
        raise ValueError("appendix_base must be positive")
    kernel_levels = int(values["kernel_levels"])
    if kernel_levels < 0:
        raise ValueError("kernel levels must be non-negative")
    solver = {}
    for key, least in (
        ("rel_tol", MIN_REL_TOL),
        ("points_per_wavelength", MIN_POINTS_PER_WAVELENGTH),
        ("decay_margin", MIN_DECAY_MARGIN),
    ):
        solver[key] = float(values[key])
        if not (math.isfinite(solver[key]) and solver[key] >= least):
            raise ValueError(f"{key} must be finite and at least {least:g}")

    out = values["out"] or os.environ.get("SPECPROBE_OUT") or "specprobe-out"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    return RunConfig(
        model=model,
        channels=channels,
        l_max=l_max,
        **solver,
        sigma=sigma,
        phi=phi,
        psi=psi,
        l_range=l_range,
        fit_top=fit_top,
        appendix_base=appendix_base,
        appendix_doublings=appendix_doublings,
        kernel_t=_parse_grid_values(values["kernel_t"], "kernel t grid"),
        kernel_r=_parse_grid_values(values["kernel_r"], "kernel r grid"),
        kernel_s=_parse_grid_values(values["kernel_s"], "kernel s grid"),
        kernel_levels=kernel_levels,
        out_dir=out_dir,
        allow_harmonic=allow_harmonic,
    )


def _read_config_file(path) -> dict[str, str]:
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError:
        parser.read_string("[run]\n" + text)
    out: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            out[key] = value
    return out


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "model": cfg.model.spec_string,
        "growth_index": cfg.model.growth_index,
        "threshold_radius": cfg.model.threshold_radius,
        "allow_harmonic": cfg.allow_harmonic,
        "channels": [list(pair) for pair in cfg.channels],
        "l_max": cfg.l_max,
        "rel_tol": cfg.rel_tol,
        "points_per_wavelength": cfg.points_per_wavelength,
        "decay_margin": cfg.decay_margin,
        "sigma": cfg.sigma,
        "phi": list(cfg.phi),
        "psi": list(cfg.psi),
        "l_range": list(cfg.l_range),
        "fit_top": cfg.fit_top,
        "appendix_base": cfg.appendix_base,
        "appendix_doublings": cfg.appendix_doublings,
        "kernel_t": list(cfg.kernel_t),
        "kernel_r": list(cfg.kernel_r),
        "kernel_s": list(cfg.kernel_s),
        "kernel_levels": cfg.kernel_levels,
        "out": str(cfg.out_dir),
    }


def _meta_dict() -> dict:
    return {
        "package": "specprobe",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _update_run_json(cfg: RunConfig, section: str, payload: dict) -> Path:
    path = cfg.out_dir / "run.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["config"] = _config_dict(cfg)
    doc["meta"] = _meta_dict()
    doc.setdefault("results", {})[section] = payload
    path.write_text(
        json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=True) + "\n"
    )
    return path


def _channel_key(d: int, n: int) -> str:
    return f"d{d}_n{n}"


def _cache_path(cfg: RunConfig, d: int, n: int) -> Path:
    return cfg.out_dir / f"spectrum_{_channel_key(d, n)}.json"


def _load_or_solve(cfg: RunConfig, d: int, n: int) -> SpectrumTable:
    """Reuse a cached table when it matches the config, else solve and cache."""
    path = _cache_path(cfg, d, n)
    want = {
        "rel_tol": cfg.rel_tol,
        "points_per_wavelength": cfg.points_per_wavelength,
        "decay_margin": cfg.decay_margin,
    }
    if path.exists():
        try:
            table = load_spectrum(path)
        except (ValueError, OSError):
            table = None
        if (
            table is not None
            and table.model.spec_string == cfg.model.spec_string
            and table.channel == Channel(d, n)
            and len(table.eigenpairs) >= cfg.l_max + 1
            and all(table.tolerances.get(k) == v for k, v in want.items())
        ):
            if len(table.eigenpairs) > cfg.l_max + 1:
                table = dataclasses.replace(
                    table, eigenpairs=table.eigenpairs[: cfg.l_max + 1]
                )
            return table
    table = solve_spectrum(
        Channel(d, n),
        cfg.model,
        cfg.l_max,
        rel_tol=cfg.rel_tol,
        points_per_wavelength=cfg.points_per_wavelength,
        decay_margin=cfg.decay_margin,
    )
    save_spectrum(table, path)
    return table


def _tables(cfg: RunConfig) -> dict[tuple[int, int], SpectrumTable]:
    return {(d, n): _load_or_solve(cfg, d, n) for d, n in cfg.channels}


def cmd_validate(cfg: RunConfig) -> int:
    report = validate_assumptions(cfg.model)
    print(f"model {cfg.model.spec_string} (growth index c = {cfg.model.growth_index:g})")
    print(f"convexity: {'ok' if report.convexity_ok else 'violated'}")
    print(
        f"growth r V'/(2V) >= c: {'ok' if report.growth_ok else 'violated'} "
        f"(min {report.max_admissible_c:.6g} at r = {report.admissible_argmin:.6g})"
    )
    if report.superquadratic_ok:
        print("super-quadratic c > 1: ok")
    elif cfg.model.harmonic:
        print("super-quadratic c > 1: violated (harmonic reference allowed)")
    else:
        print("super-quadratic c > 1: violated")
    ratios = ", ".join(f"{x:.6g}" for x in report.worst_ratios)
    print(f"derivative ratios r|V^(j)|/|V^(j-1)|: {ratios}")
    for d, n in cfg.channels:
        ch = Channel(d, n)
        print(
            f"channel d={d} n={n}: gamma={ch.gamma:g}, "
            f"bessel order={ch.bessel_order:g}"
        )
    ok = report.passed or (
        cfg.model.harmonic
        and report.convexity_ok
        and report.growth_ok
        and report.ratio_ok
    )
    _update_run_json(
        cfg,
        "validate",
        {
            "passed": bool(ok),
            "max_admissible_c": report.max_admissible_c,
            "worst_ratios": list(report.worst_ratios),
            "window": list(report.window),
        },
    )
    if not ok:
        print("validation failed")
        return 1
    print("validation passed")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    tables = _tables(cfg)
    path = export_spectrum_csv(list(tables.values()), cfg.out_dir / "spectrum.csv")
    payload = {"channels": {}, "rows": 0}
    for (d, n), table in tables.items():
        lams = table.eigenvalues
        entry = {
            "levels": len(table.eigenpairs),
            "lambda_min": float(lams[0]),
            "lambda_max": float(lams[-1]),
            "grid_points": table.grid.n_points,
        }
        for stat in ("sweeps", "bisections"):
            counts = [getattr(p, stat) for p in table.eigenpairs]
            known = None not in counts  # caches older than the counters lack them
            entry[f"{stat}_max"] = max(counts) if known else None
            entry[f"{stat}_mean"] = sum(counts) / len(counts) if known else None
        payload["channels"][_channel_key(d, n)] = entry
        payload["rows"] += len(table.eigenpairs)
    _update_run_json(cfg, "spectrum", payload)
    print(f"wrote {path} ({payload['rows']} rows)")
    return 0


def cmd_gaps(cfg: RunConfig) -> int:
    tables = _tables(cfg)
    theory = (cfg.model.growth_index - 1.0) / (2.0 * cfg.model.growth_index)
    channels_payload = {}
    for (d, n), table in tables.items():
        n_gaps = len(table.eigenpairs) - 1
        top = min(cfg.fit_top, n_gaps)
        fit = gap_scaling(table, window=(n_gaps - top, n_gaps))
        channels_payload[_channel_key(d, n)] = {
            "exponent": fit.exponent,
            "r_squared": fit.r_squared,
            "gaps_used": top,
            "theoretical": theory,
        }
        print(f"d={d} n={n}: gap exponent {fit.exponent:.4f} (theory {theory:.4f})")
    _update_run_json(
        cfg, "gaps", {"channels": channels_payload, "fit_top": cfg.fit_top}
    )
    return 0


def _amplitude_payload(cfg: RunConfig, table: SpectrumTable, ch: Channel) -> dict:
    c = cfg.model.growth_index
    u1 = effective_potential(ch, cfg.model, 1.0)
    n_skip = sum(1 for p in table.eigenpairs if p.lam <= u1)
    usable = len(table.eigenpairs) - n_skip
    lo = max(cfg.l_range[0] - n_skip, 0)
    hi = min(cfg.l_range[1] + 1 - n_skip, usable)
    window = (lo, hi) if hi - lo >= 5 else None
    fit = amplitude_scaling(table, ch, cfg.model, window=window)
    return {
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
        "theoretical": (c - 1.0) / (4.0 * c),
        "levels": [lo + n_skip, hi - 1 + n_skip] if window else [n_skip, len(table.eigenpairs) - 1],
    }


def _appendix_payload(cfg: RunConfig, ch: Channel) -> dict:
    c = cfg.model.growth_index
    points = []
    lam = cfg.appendix_base
    for _ in range(cfg.appendix_doublings):
        split = appendix_error_integral(ch, cfg.model, lam)
        points.append((lam, split.total))
        lam *= 2.0
    fit = fit_power_law(points)
    return {
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
        "theoretical": -(c + 1.0) / (2.0 * c),
        "lams": [p[0] for p in points],
        "totals": [p[1] for p in points],
    }


def _langer_payload(cfg: RunConfig, table: SpectrumTable, ch: Channel) -> dict:
    lams = [p.lam for p in table.eigenpairs]
    start = min(4, len(lams) - 1)
    target = lams[start]
    levels: list[int] = []
    points: list[tuple[float, float]] = []
    while target <= lams[-1] * (1.0 + 1e-12):
        idx = min(range(len(lams)), key=lambda i: abs(lams[i] - target))
        if not levels or idx != levels[-1]:
            result = langer_residual(table.eigenpairs[idx], ch, cfg.model, table.grid)
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


def cmd_wkb(cfg: RunConfig) -> int:
    tables = _tables(cfg)
    summaries = []
    channels_payload = {}
    for (d, n), table in tables.items():
        ch = Channel(d, n)
        summaries.extend(summarize(table, ch, cfg.model))
        channels_payload[_channel_key(d, n)] = {
            "amplitude": _amplitude_payload(cfg, table, ch)
        }
    path = export_wkb_csv(summaries, cfg.out_dir / "wkb.csv")
    first = cfg.channels[0]
    payload = {
        "channels": channels_payload,
        "appendix": _appendix_payload(cfg, Channel(*first)),
        "langer": _langer_payload(cfg, tables[first], Channel(*first)),
    }
    _update_run_json(cfg, "wkb", payload)
    amp = channels_payload[_channel_key(*first)]["amplitude"]
    print(f"wrote {path}")
    print(
        f"amplitude exponent {amp['exponent']:.4f} (theory {amp['theoretical']:.4f}); "
        f"appendix exponent {payload['appendix']['exponent']:.4f} "
        f"(theory {payload['appendix']['theoretical']:.4f})"
    )
    return 0


def cmd_probe(cfg: RunConfig) -> int:
    if cfg.l_range[1] > cfg.l_max:
        raise ValueError(
            f"lrange {cfg.l_range} needs lmax >= {cfg.l_range[1]}, got {cfg.l_max}"
        )
    tables = _tables(cfg)
    theory = -1.0 / (2.0 * cfg.model.growth_index)
    rows = []
    channels_payload = {}
    for (d, n), table in tables.items():
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
    _update_run_json(
        cfg,
        "probe",
        {
            "channels": channels_payload,
            "l_range": list(cfg.l_range),
            "sigma": cfg.sigma,
            "phi": list(cfg.phi),
            "psi": list(cfg.psi),
        },
    )
    print(f"wrote {path}")
    return 0


def _snap_to_grid(grid, values: tuple[float, ...]) -> list[float]:
    snapped = []
    for v in values:
        idx = int(np.argmin(np.abs(grid.r - v)))
        snapped.append(float(grid.r[idx]))
    return snapped


def cmd_kernel(cfg: RunConfig) -> int:
    tables = _tables(cfg)
    table = tables[cfg.channels[0]]
    cap = min(cfg.kernel_levels, len(table.eigenpairs) - 1)
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
        herm = max(herm, float(np.abs(backward - forward.conj()).max()) / scale)
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
    }
    _update_run_json(cfg, "kernel", payload)
    print(f"wrote {path}")
    print(
        f"parseval {payload['parseval']:.9f} (expect {cap + 1}); "
        f"hermitian deviation {herm:.3e}; "
        f"t=0 min eigenvalue {payload['t0_min_eigenvalue']:.3e}"
    )
    return 0


def _report_rows(results: dict, c: float) -> list[tuple[str, float, dict, float, str]]:
    gaps = {
        key: val["exponent"]
        for key, val in sorted(results.get("gaps", {}).get("channels", {}).items())
    }
    amps = {
        key: val["amplitude"]["exponent"]
        for key, val in sorted(results.get("wkb", {}).get("channels", {}).items())
    }
    probes = {
        key: val["exponent"]
        for key, val in sorted(results.get("probe", {}).get("channels", {}).items())
    }
    appendix = results.get("wkb", {}).get("appendix", {})
    appendix_fit = {"ladder": appendix["exponent"]} if appendix else {}
    return [
        ("eigenvalue gap growth", (c - 1.0) / (2.0 * c), gaps, 0.03, "two-sided"),
        ("boundary amplitude growth", (c - 1.0) / (4.0 * c), amps, 0.03, "lower"),
        ("probe magnitude decay", -1.0 / (2.0 * c), probes, 0.05, "two-sided"),
        (
            "error control integral decay",
            -(c + 1.0) / (2.0 * c),
            appendix_fit,
            0.10,
            "two-sided",
        ),
    ]


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


def cmd_report(cfg: RunConfig) -> int:
    run_path = cfg.out_dir / "run.json"
    doc = json.loads(run_path.read_text()) if run_path.exists() else {}
    stored_cfg = doc.get("config", _config_dict(cfg))
    meta = doc.get("meta", _meta_dict())
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
    for name, theory, fitted, tol, mode in _report_rows(results, c):
        status = _row_status(theory, fitted, tol, mode)
        if fitted and all(v is not None for v in fitted.values()):
            shown = "; ".join(f"{key}: {value:.4f}" for key, value in fitted.items())
        else:
            shown = "not run"
        lines.append(
            f"| {name} | {theory:.4f} | {shown} | {tol:.2f} | {status} |"
        )

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
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "wkb": cmd_wkb,
    "gaps": cmd_gaps,
    "probe": cmd_probe,
    "kernel": cmd_kernel,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures: exit code 1, not 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--model", help='potential, e.g. "1*r^4+0.5*r^6"')
    common.add_argument("--threshold-radius", dest="threshold_radius", type=float)
    common.add_argument("--channels", help="comma list of d:n pairs, e.g. 3:0,3:1")
    common.add_argument("--d", type=int, help="space dimension (with --n)")
    common.add_argument("--n", help="comma list of sector indices")
    common.add_argument("--lmax", type=int, help="highest level to solve")
    common.add_argument("--rel-tol", dest="rel_tol", type=float)
    common.add_argument("--ppw", type=float, help="grid points per wavelength")
    common.add_argument("--decay-margin", dest="decay_margin", type=float)
    common.add_argument("--sigma", type=float, help="spectral window scale")
    common.add_argument("--phi", help="first bump as center:halfwidth")
    common.add_argument("--psi", help="second bump as center:halfwidth")
    common.add_argument("--lrange", help="probe and fit window as lo:hi levels")
    common.add_argument("--fit-top", dest="fit_top", type=int, help="gaps used in the gap fit")
    common.add_argument("--appendix-base", dest="appendix_base", type=float)
    common.add_argument("--appendix-doublings", dest="appendix_doublings", type=int)
    common.add_argument("--t", help="kernel times, start:stop:step or comma list")
    common.add_argument("--r", help="kernel radii, start:stop:step or comma list")
    common.add_argument("--s", help="kernel radii, start:stop:step or comma list")
    common.add_argument("--levels", type=int, help="kernel truncation level")
    common.add_argument("--out", help="output directory (or SPECPROBE_OUT)")
    common.add_argument(
        "--allow-harmonic",
        action="store_true",
        default=None,
        help="permit the quadratic reference model",
    )

    parser = _Parser(
        prog="specprobe",
        description="Discrete spectra and semiclassical certificates for "
        "half-line operators with super-quadratic confinement.",
    )
    parser.add_argument("--version", action="version", version=f"specprobe {__version__}")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)
    helps = {
        "validate": "check the structural assumptions on the potential",
        "spectrum": "solve and cache the discrete spectrum, write spectrum.csv",
        "wkb": "semiclassical summaries and scaling fits, write wkb.csv",
        "gaps": "fit eigenvalue gap growth",
        "probe": "resonant probe functional along the spectrum, write probe.csv",
        "kernel": "truncated propagator kernel on a grid, write kernel.csv",
        "report": "render report.md from recorded artifacts",
    }
    for name, text in helps.items():
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
        return _COMMANDS[args.cmd](cfg)
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
